# CLI contract tests for nisqpp_run, driven by CTest:
#   cmake -DNISQPP_RUN=<binary> -P check_cli.cmake
# Every unknown scenario/format/flag must fail with a non-zero exit
# and a helpful message; the happy paths must keep working.

if(NOT NISQPP_RUN)
  message(FATAL_ERROR "pass -DNISQPP_RUN=<path to nisqpp_run>")
endif()

set(failures 0)

# check_cli(<name> <expect_rc_zero?> <stream> <must_match_regex> args...)
# stream is OUT or ERR: which stream the regex must match.
function(check_cli name expect_zero stream pattern)
  execute_process(COMMAND ${NISQPP_RUN} ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  set(ok TRUE)
  if(expect_zero AND NOT rc EQUAL 0)
    set(ok FALSE)
    message(WARNING "${name}: expected exit 0, got ${rc}")
  endif()
  if(NOT expect_zero AND rc EQUAL 0)
    set(ok FALSE)
    message(WARNING "${name}: expected non-zero exit, got 0")
  endif()
  if(stream STREQUAL "OUT")
    set(text "${out}")
  else()
    set(text "${err}")
  endif()
  if(NOT text MATCHES "${pattern}")
    set(ok FALSE)
    message(WARNING "${name}: ${stream} did not match '${pattern}':\n"
                    "stdout: ${out}\nstderr: ${err}")
  endif()
  if(NOT ok)
    math(EXPR failures "${failures} + 1")
    set(failures ${failures} PARENT_SCOPE)
  else()
    message(STATUS "${name}: ok")
  endif()
endfunction()

# Rejections: non-zero exit + a message that names the problem.
check_cli(unknown_scenario FALSE ERR
          "unknown scenario 'fig99_bogus'.*--list"
          --scenario fig99_bogus)
check_cli(unknown_scenario_positional FALSE ERR
          "unknown scenario 'fig99_bogus'"
          fig99_bogus)
check_cli(unknown_format FALSE ERR
          "--format: expected table, csv or json, got 'yaml'"
          --scenario fig01_sqv --format yaml)
check_cli(unknown_flag FALSE ERR
          "unknown argument '--frobnicate'"
          --frobnicate)
check_cli(negative_seed FALSE ERR
          "--seed: expected an unsigned 64-bit integer"
          --scenario fig01_sqv --seed -5)
check_cli(missing_scenario FALSE ERR
          "usage: nisqpp_run"
          --threads 2)
check_cli(bad_threads FALSE ERR
          "--threads: expected an integer"
          --scenario fig01_sqv --threads 1.5)
check_cli(bad_trials_scale_junk FALSE ERR
          "--trials-scale: expected a number"
          --scenario fig01_sqv --trials-scale 1.5x)

# --escalate-threshold parses strictly (no trailing junk) and only
# accepts fractions in [0, 1].
check_cli(bad_escalate_junk FALSE ERR
          "--escalate-threshold: expected a number"
          tiered_decode --escalate-threshold 0.5x)
check_cli(bad_escalate_above_one FALSE ERR
          "--escalate-threshold: expected a fraction in \\[0, 1\\]"
          tiered_decode --escalate-threshold 1.5)
check_cli(bad_escalate_negative FALSE ERR
          "--escalate-threshold: expected a fraction in \\[0, 1\\]"
          tiered_decode --escalate-threshold -0.5)
check_cli(escalate_missing_value FALSE ERR
          "--escalate-threshold: missing value"
          tiered_decode --escalate-threshold)

# Fault-injection flags fail hard at parse time (the
# NISQPP_STREAM_FAULTS env path warns and ignores the list instead;
# covered by tests/common/test_fault_env.cc). All six rate flags share one parse
# contract, so one flag's rejection cases cover the family.
check_cli(bad_fault_rate_above_one FALSE ERR
          "--fault-drop: expected a fraction in \\[0, 1\\]"
          fault_sweep --fault-drop 1.5)
check_cli(bad_fault_rate_negative FALSE ERR
          "--fault-corrupt: expected a fraction in \\[0, 1\\]"
          fault_sweep --fault-corrupt -0.1)
check_cli(bad_fault_rate_junk FALSE ERR
          "--fault-drop: expected a number"
          fault_sweep --fault-drop abc)
check_cli(fault_rate_missing_value FALSE ERR
          "--fault-stall: missing value"
          fault_sweep --fault-stall)
check_cli(bad_fault_seed_negative FALSE ERR
          "--fault-seed: expected an unsigned 64-bit integer"
          fault_sweep --fault-seed -1)
check_cli(bad_fault_seed_junk FALSE ERR
          "--fault-seed: expected an unsigned 64-bit integer"
          fault_sweep --fault-seed 12nope)
check_cli(bad_deadline_zero FALSE ERR
          "--deadline-ns: expected a positive number"
          fault_sweep --deadline-ns 0)
check_cli(bad_deadline_negative FALSE ERR
          "--deadline-ns: expected a positive number"
          fault_sweep --deadline-ns -5)
check_cli(bad_deadline_junk FALSE ERR
          "--deadline-ns: expected a number"
          fault_sweep --deadline-ns soon)

# Pinning flags collapse fault_sweep's rate grid to one labeled point.
check_cli(fault_pin_happy TRUE OUT "pinned"
          fault_sweep --trials-scale 0.02 --format csv
          --fault-drop 0.1 --fault-seed 7 --deadline-ns 700)

# Bad --batch values are rejected at the flag level (the NISQPP_BATCH
# env path warns and keeps the previous setting instead; covered by
# tests/engine/test_batch_env.cc and test_knobs.cc).
check_cli(bad_batch_zero FALSE ERR
          "--batch: expected an integer"
          --scenario fig01_sqv --batch 0)
check_cli(bad_batch_negative FALSE ERR
          "--batch: expected an integer"
          --scenario fig01_sqv --batch -4)

# Bad --simd widths are rejected at the flag level (the NISQPP_SIMD
# env path warns and keeps the CPUID default instead; covered by
# tests/common/test_simd.cc and tests/engine/test_knobs.cc). Happy path: any named width runs.
check_cli(bad_simd_width FALSE ERR
          "--simd: expected scalar, v256 or v512"
          --scenario fig01_sqv --simd avx2)
check_cli(bad_simd_case FALSE ERR
          "--simd: expected scalar, v256 or v512"
          --scenario fig01_sqv --simd V512)
check_cli(simd_missing_value FALSE ERR
          "--simd: missing value"
          fig01_sqv --simd)
check_cli(simd_happy_scalar TRUE OUT "SQV"
          fig01_sqv --trials-scale 0.05 --simd scalar)

# Observability sinks fail fast on unwritable paths: the run must not
# start (and then silently lose its report) when the file can't open.
check_cli(bad_metrics_out FALSE ERR
          "cannot open --metrics-out"
          fig01_sqv --metrics-out /nonexistent-dir/metrics.json)
check_cli(bad_trace_out FALSE ERR
          "cannot open --trace-out"
          fig01_sqv --trace-out /nonexistent-dir/trace.json)
check_cli(metrics_out_missing_value FALSE ERR
          "--metrics-out: missing value"
          fig01_sqv --metrics-out)

# Happy path: the report lands on disk as a versioned JSON document
# with the deterministic counters section, and the trace file is a
# chrome://tracing document.
set(metrics_file ${CMAKE_CURRENT_BINARY_DIR}/cli_metrics.json)
set(trace_file ${CMAKE_CURRENT_BINARY_DIR}/cli_trace.json)
file(REMOVE ${metrics_file} ${trace_file})
check_cli(metrics_out_happy TRUE OUT "SQV"
          fig01_sqv --metrics-out ${metrics_file}
          --trace-out ${trace_file})
if(EXISTS ${metrics_file})
  file(READ ${metrics_file} metrics_text)
  if(NOT metrics_text MATCHES "\"schema\":\"nisqpp.run-report\"" OR
     NOT metrics_text MATCHES "\"counters\":")
    math(EXPR failures "${failures} + 1")
    message(WARNING "metrics_out_content: run report malformed:\n"
                    "${metrics_text}")
  else()
    message(STATUS "metrics_out_content: ok")
  endif()
else()
  math(EXPR failures "${failures} + 1")
  message(WARNING "metrics_out_content: no file at ${metrics_file}")
endif()
if(EXISTS ${trace_file})
  file(READ ${trace_file} trace_text)
  if(NOT trace_text MATCHES "^\\{\"traceEvents\":\\[")
    math(EXPR failures "${failures} + 1")
    message(WARNING "trace_out_content: trace malformed:\n"
                    "${trace_text}")
  else()
    message(STATUS "trace_out_content: ok")
  endif()
else()
  math(EXPR failures "${failures} + 1")
  message(WARNING "trace_out_content: no file at ${trace_file}")
endif()
file(REMOVE ${metrics_file} ${trace_file})

# Checkpoint flags: malformed cadences and dangling flags are rejected
# at parse time; resuming a file that isn't there (or isn't a
# checkpoint) is a clear, non-zero error.
check_cli(bad_ckpt_interval_zero FALSE ERR
          "--checkpoint-interval: expected an integer"
          fig01_sqv --checkpoint x.ckpt --checkpoint-interval 0)
check_cli(bad_ckpt_interval_fractional FALSE ERR
          "--checkpoint-interval: expected an integer"
          fig01_sqv --checkpoint x.ckpt --checkpoint-interval 2.5)
check_cli(bad_ckpt_interval_junk FALSE ERR
          "--checkpoint-interval: expected a number"
          fig01_sqv --checkpoint x.ckpt --checkpoint-interval often)
check_cli(ckpt_interval_requires_path FALSE ERR
          "--checkpoint-interval requires --checkpoint or --resume"
          fig01_sqv --checkpoint-interval 8)
check_cli(checkpoint_missing_value FALSE ERR
          "--checkpoint: missing value"
          fig01_sqv --checkpoint)
check_cli(resume_missing_file FALSE ERR
          "cannot resume: cannot open checkpoint"
          fig10_final --resume /nonexistent-dir/none.ckpt)
set(garbage_ckpt ${CMAKE_CURRENT_BINARY_DIR}/cli_garbage.ckpt)
file(WRITE ${garbage_ckpt} "not a checkpoint\n")
check_cli(resume_garbage_file FALSE ERR
          "cannot resume:"
          fig10_final --resume ${garbage_ckpt})
file(REMOVE ${garbage_ckpt})

# Report writers must notice a sink that accepts the open but fails
# the write (full disk): exit non-zero with the file named.
if(EXISTS /dev/full)
  check_cli(metrics_out_full_disk FALSE ERR
            "write failed: --metrics-out '/dev/full'"
            fig01_sqv --metrics-out /dev/full)
endif()

# Checkpointed and resumed runs print the same bytes as a plain run:
# the determinism contract survives the CLI round trip.
set(cli_ckpt ${CMAKE_CURRENT_BINARY_DIR}/cli_roundtrip.ckpt)
file(REMOVE ${cli_ckpt})
set(ckpt_args fig10_final --format csv --threads 2
    --trials-scale 0.01 --shard-trials 64)
execute_process(COMMAND ${NISQPP_RUN} ${ckpt_args}
                RESULT_VARIABLE plain_rc OUTPUT_VARIABLE plain_out
                ERROR_VARIABLE plain_err)
execute_process(COMMAND ${NISQPP_RUN} ${ckpt_args}
                        --checkpoint ${cli_ckpt}
                RESULT_VARIABLE ckpt_rc OUTPUT_VARIABLE ckpt_out
                ERROR_VARIABLE ckpt_err)
execute_process(COMMAND ${NISQPP_RUN} ${ckpt_args}
                        --resume ${cli_ckpt}
                RESULT_VARIABLE resume_rc OUTPUT_VARIABLE resume_out
                ERROR_VARIABLE resume_err)
if(NOT plain_rc EQUAL 0 OR NOT ckpt_rc EQUAL 0 OR
   NOT resume_rc EQUAL 0)
  math(EXPR failures "${failures} + 1")
  message(WARNING "checkpoint_roundtrip: exits ${plain_rc}/${ckpt_rc}/"
                  "${resume_rc}:\n${plain_err}${ckpt_err}${resume_err}")
elseif(NOT ckpt_out STREQUAL plain_out OR
       NOT resume_out STREQUAL plain_out)
  math(EXPR failures "${failures} + 1")
  message(WARNING "checkpoint_roundtrip: checkpointed or resumed "
                  "stdout differs from the plain run")
else()
  message(STATUS "checkpoint_roundtrip: ok")
endif()
file(REMOVE ${cli_ckpt})

# Env twins set defaults, and a flag overrides its twin: with both
# NISQPP_TRIALS and --trials-scale set, the run uses (and its report
# records) the flag's multiplier alone.
function(report_config file out_trials out_scale)
  file(READ ${file} text)
  string(REGEX MATCH "\"engine.trials\":([0-9]+)" _ "${text}")
  set(${out_trials} "${CMAKE_MATCH_1}" PARENT_SCOPE)
  string(REGEX MATCH "\"trials_scale\":([0-9.e+-]+)" _ "${text}")
  set(${out_scale} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()
set(flag_report ${CMAKE_CURRENT_BINARY_DIR}/cli_flag_only.json)
set(both_report ${CMAKE_CURRENT_BINARY_DIR}/cli_env_and_flag.json)
execute_process(COMMAND ${NISQPP_RUN} micro_decoders --format csv
                        --trials-scale 0.05 --metrics-out ${flag_report}
                RESULT_VARIABLE flag_rc OUTPUT_QUIET ERROR_QUIET)
execute_process(COMMAND ${CMAKE_COMMAND} -E env NISQPP_TRIALS=2
                        ${NISQPP_RUN} micro_decoders --format csv
                        --trials-scale 0.05 --metrics-out ${both_report}
                RESULT_VARIABLE both_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT flag_rc EQUAL 0 OR NOT both_rc EQUAL 0 OR
   NOT EXISTS ${flag_report} OR NOT EXISTS ${both_report})
  math(EXPR failures "${failures} + 1")
  message(WARNING "flag_overrides_env: runs failed (${flag_rc}/${both_rc})")
else()
  report_config(${flag_report} flag_trials flag_scale)
  report_config(${both_report} both_trials both_scale)
  if(flag_trials STREQUAL "" OR NOT flag_trials STREQUAL both_trials OR
     NOT flag_scale STREQUAL both_scale)
    math(EXPR failures "${failures} + 1")
    message(WARNING "flag_overrides_env: --trials-scale 0.05 ran "
                    "${flag_trials} trials at scale ${flag_scale}, with "
                    "NISQPP_TRIALS=2 too ${both_trials} at ${both_scale}")
  else()
    message(STATUS "flag_overrides_env: ok")
  endif()
endif()
file(REMOVE ${flag_report} ${both_report})

# A malformed env value is read once, on the CLI path: one warning per
# run, however many trial budgets the scenario scales.
execute_process(COMMAND ${CMAKE_COMMAND} -E env NISQPP_TRIALS=lots
                        ${NISQPP_RUN} noise_zoo --trials-scale 0.02
                        --format csv
                RESULT_VARIABLE zoo_rc OUTPUT_QUIET ERROR_VARIABLE zoo_err)
string(REGEX MATCHALL "NISQPP_TRIALS='lots'" zoo_warnings "${zoo_err}")
list(LENGTH zoo_warnings zoo_warning_count)
if(NOT zoo_rc EQUAL 0 OR NOT zoo_warning_count EQUAL 1)
  math(EXPR failures "${failures} + 1")
  message(WARNING "env_warns_once: exit ${zoo_rc}, "
                  "${zoo_warning_count} warnings:\n${zoo_err}")
else()
  message(STATUS "env_warns_once: ok")
endif()

# NISQPP_STREAM_FAULTS=seed=S takes every S that --fault-seed takes:
# both go through one seed parser.
foreach(fault_seed 0 0x10 18446744073709551615)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env
                          NISQPP_STREAM_FAULTS=seed=${fault_seed}
                          ${NISQPP_RUN} fault_sweep --trials-scale 0.02
                          --format csv
                  RESULT_VARIABLE env_rc OUTPUT_VARIABLE env_out
                  ERROR_VARIABLE env_err)
  execute_process(COMMAND ${NISQPP_RUN} fault_sweep --trials-scale 0.02
                          --format csv --fault-seed ${fault_seed}
                  RESULT_VARIABLE flag_rc OUTPUT_VARIABLE flag_out
                  ERROR_VARIABLE flag_err)
  if(NOT env_rc EQUAL 0 OR NOT flag_rc EQUAL 0 OR
     env_err MATCHES "warn:" OR NOT env_out STREQUAL flag_out)
    math(EXPR failures "${failures} + 1")
    message(WARNING "fault_seed_env_matches_flag (${fault_seed}): exits "
                    "${env_rc}/${flag_rc}:\n${env_err}${flag_err}")
  else()
    message(STATUS "fault_seed_env_matches_flag (${fault_seed}): ok")
  endif()
endforeach()

# Happy paths stay intact. --list must print one-line descriptions
# sourced from the registry (name  -  description), not bare names.
check_cli(list_names TRUE OUT "streaming_backlog" --list)
check_cli(list_descriptions TRUE OUT
          "noise_zoo  -  every noise channel x every decoder" --list)
check_cli(list_windowed_description TRUE OUT
          "fig10_measurement  -  PL vs p under faulty measurement"
          --list)
check_cli(list_tiered_description TRUE OUT
          "tiered_decode  -  tiered mesh-first decoding" --list)
check_cli(flagged_scenario TRUE OUT "SQV" --scenario fig01_sqv)
check_cli(positional_scenario TRUE OUT "SQV" fig01_sqv)
check_cli(json_document TRUE OUT "^\\{\"tables\":\\["
          table2_cells --format json)

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} CLI check(s) failed")
endif()
