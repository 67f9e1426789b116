# Environment guard, driven by CTest:
#   cmake -DSRC_DIR=<repo>/src -P check_env_guard.cmake
# Only the knob module (engine/knobs.*) may read the environment, and
# only parseArgs (engine/scenario.cc) may call its env reader, so an
# in-process run is a function of its RunOptions alone.

cmake_minimum_required(VERSION 3.16)

if(NOT SRC_DIR)
  message(FATAL_ERROR "pass -DSRC_DIR=<path to src>")
endif()

file(GLOB_RECURSE sources ${SRC_DIR}/*.cc ${SRC_DIR}/*.hh)
set(failures 0)

# check_reads(<regex> <what> <allowed files>...)
function(check_reads pattern what)
  foreach(file ${sources})
    file(RELATIVE_PATH rel ${SRC_DIR} ${file})
    if(rel IN_LIST ARGN)
      continue()
    endif()
    file(STRINGS ${file} hits REGEX "${pattern}")
    if(hits)
      math(EXPR failures "${failures} + 1")
      message(WARNING "${rel} ${what}:\n${hits}")
    endif()
  endforeach()
  set(failures ${failures} PARENT_SCOPE)
endfunction()

check_reads("getenv" "reads the environment outside engine/knobs.cc"
            engine/knobs.cc)
check_reads("fromEnv\\(" "calls the env reader outside parseArgs"
            engine/knobs.hh engine/scenario.cc)

# Inside scenario.cc, every call sits in parseArgs' body.
file(READ ${SRC_DIR}/engine/scenario.cc scenario_text)
string(FIND "${scenario_text}" "\nparseArgs(" body_begin)
string(FIND "${scenario_text}" "    return parsed;\n}" body_end)
if(body_begin EQUAL -1 OR body_end LESS body_begin)
  math(EXPR failures "${failures} + 1")
  message(WARNING "engine/scenario.cc: cannot find parseArgs' body")
else()
  math(EXPR body_length "${body_end} - ${body_begin}")
  string(SUBSTRING "${scenario_text}" ${body_begin} ${body_length} body)
  string(REGEX MATCHALL "fromEnv\\(" all_calls "${scenario_text}")
  string(REGEX MATCHALL "fromEnv\\(" body_calls "${body}")
  list(LENGTH all_calls all_count)
  list(LENGTH body_calls body_count)
  if(NOT all_count EQUAL body_count)
    math(EXPR failures "${failures} + 1")
    message(WARNING "engine/scenario.cc calls the env reader outside "
                    "parseArgs (${all_count} calls, ${body_count} in it)")
  endif()
endif()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} env guard check(s) failed")
endif()
message(STATUS "env guard: ok")
