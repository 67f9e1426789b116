# ISA guard of the native-ISA mesh lane engine: disassembles a binary
# and fails if any function that uses an AVX-only instruction (a
# %ymm/%zmm/%k register, a VEX/EVEX "v" mnemonic, or popcnt) is not a
# native-tagged lane-engine symbol (MeshDecoder::<member><simd::Avx2|
# simd::Avx512, ...>, or a lambda or helper named after one). Such a
# function is an inline helper that a native unit emitted out of line
# under a name the portable build shares, and the linker may hand its
# AVX body to a portable caller on a CPU without AVX. The native units'
# object files (OBJECTS) get the same check, because the linker keeps
# one copy of each shared name and the binary may show only the
# portable one. On x86-64 it also fails unless every native unit the
# build compiled left its tagged decodeLanes in the binary.
#
#   cmake -DOBJDUMP=objdump -DBINARY=nisqpp_run -DOBJECTS=a.o,b.o
#         -DNATIVE_ISAS=avx2,avx512 -DX86_64=ON -DWORK_DIR=<dir>
#         -P check_isa.cmake

foreach(var OBJDUMP BINARY WORK_DIR)
  if(NOT ${var})
    message(FATAL_ERROR "check_isa: -D${var}=... is required")
  endif()
endforeach()

string(REPLACE "," ";" NATIVE_ISAS "${NATIVE_ISAS}")
string(REPLACE "," ";" OBJECTS "${OBJECTS}")

set(label_re "^[0-9a-f]+ <.*>:$")
set(avx_re ":\t(v[a-z]|popcnt)|%[yz]mm[0-9]|%k[0-7]")
set(native_re "MeshDecoder::[A-Za-z]+<nisqpp::simd::Avx(2|512),")
set(leaks "")
set(native_fns "")
foreach(file IN ITEMS ${BINARY} ${OBJECTS})
  # Keep only function labels and AVX-only instructions.
  set(listing ${WORK_DIR}/isa_guard.dis)
  execute_process(COMMAND ${OBJDUMP} -d -C --no-show-raw-insn ${file}
                  OUTPUT_FILE ${listing}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "check_isa: ${OBJDUMP} -d ${file} failed (${rc})")
  endif()
  file(STRINGS ${listing} lines REGEX "${label_re}|${avx_re}")
  file(REMOVE ${listing})

  set(fn "")
  set(fn_flagged FALSE)
  foreach(line IN LISTS lines)
    if(line MATCHES "${label_re}")
      set(fn "${line}")
      set(fn_flagged FALSE)
      if(file STREQUAL BINARY AND line MATCHES "${native_re}")
        list(APPEND native_fns "${line}")
      endif()
    elseif(NOT fn_flagged)
      set(fn_flagged TRUE)
      if(NOT fn MATCHES "${native_re}")
        list(APPEND leaks
             "${file}: ${fn}\n    first AVX-only instruction: ${line}")
      endif()
    endif()
  endforeach()
endforeach()

list(LENGTH native_fns n_native)
message(STATUS "check_isa: ${n_native} native lane-engine functions")

if(leaks)
  string(REPLACE ";" "\n  " leak_text "${leaks}")
  message(FATAL_ERROR "check_isa: AVX-only code outside the native "
                      "lane engine:\n  ${leak_text}")
endif()

if(X86_64)
  if(NOT NATIVE_ISAS)
    message(FATAL_ERROR "check_isa: x86-64 build without native lane "
                        "engine units")
  endif()
  foreach(isa IN LISTS NATIVE_ISAS)
    set(tag Avx2)
    if(isa STREQUAL "avx512")
      set(tag Avx512)
    endif()
    if(NOT native_fns MATCHES "MeshDecoder::decodeLanes<nisqpp::simd::${tag},")
      message(FATAL_ERROR "check_isa: no native ${tag} decodeLanes in "
                          "${BINARY}")
    endif()
  endforeach()
endif()
