# Runs bench binaries with a malformed value for each numeric flag and
# requires exit status 2 with the usage line on stderr: a typo must stop the
# run, not become 0 (an `--episodes abc` that ran no episodes would turn a
# chaos gate green). ctest runs it (bench/CMakeLists.txt); by hand:
#
#   cmake -DRAPILOG_CHAOS=build/bench/rapilog_chaos \
#         -DBENCH_E7=build/bench/bench_e7_latency \
#         -DBENCH_E13=build/bench/bench_e13_fleet \
#         -DBENCH_E14=build/bench/bench_e14_recovery \
#         -P bench/malformed_flags_test.cmake
set(cases
  "RAPILOG_CHAOS --seed abc"
  "RAPILOG_CHAOS --episodes abc"
  "RAPILOG_CHAOS --episodes 4x"
  "RAPILOG_CHAOS --budget abc"
  "RAPILOG_CHAOS --minutes abc"
  "RAPILOG_CHAOS --minutes 153722867280912931"
  "RAPILOG_CHAOS --jobs abc"
  "RAPILOG_CHAOS --jobs -1"
  "RAPILOG_CHAOS --fleet abc"
  "RAPILOG_CHAOS --cross-ratio abc"
  "RAPILOG_CHAOS --cross-ratio 0.5x"
  "RAPILOG_CHAOS --cross-ratio 1.5"
  "RAPILOG_CHAOS --seed 18446744073709551616"
  "BENCH_E7 --jobs abc"
  "BENCH_E7 --snapshot-every abc"
  "BENCH_E13 --seed abc"
  "BENCH_E13 --jobs abc"
  "BENCH_E13 --shards abc"
  "BENCH_E13 --cross-ratio abc"
  "BENCH_E14 --seed abc"
  "BENCH_E14 --jobs abc"
  "BENCH_E14 --records abc"
  "BENCH_E14 --partitions abc"
  "BENCH_E14 --partitions 4294967296"
)
set(failures 0)
foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  list(POP_FRONT args binary)
  execute_process(COMMAND "${${binary}}" ${args}
                  RESULT_VARIABLE status
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT status EQUAL 2 OR NOT err MATCHES "usage:")
    message("FAIL ${case}: exit status '${status}', stderr: ${err}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
list(LENGTH cases total)
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} of ${total} malformed flags were accepted")
endif()
message("all ${total} malformed flags rejected with exit status 2")
