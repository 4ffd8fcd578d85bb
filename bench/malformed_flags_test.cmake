# Runs every bench binary with an unknown flag, a missing value or a
# malformed value and requires exit status 2 with the usage line on stderr: a
# typo must stop the run, not become 0 (an `--episodes abc` that ran no
# episodes would turn a chaos gate green). It also requires exit status 1
# when E7 cannot write its JSON. ctest runs it (bench/CMakeLists.txt); by
# hand, pass each binary the same way, e.g.
#
#   cmake -DRAPILOG_CHAOS=build/bench/rapilog_chaos \
#         -DBENCH_E7=build/bench/bench_e7_latency ... \
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
  "RAPILOG_CHAOS --out"
  "RAPILOG_CHAOS --shrink"
  "BENCH_MICRO --jobs abc --json x.json"
  "BENCH_MICRO --jsn x.json"
  "BENCH_E1 --seed 1"
  "BENCH_E2 --jobs abc"
  "BENCH_E2 --jbos 4"
  "BENCH_E3 --jobs -1"
  "BENCH_E3 --jbos 4"
  "BENCH_E4 --jobs 4x"
  "BENCH_E4 --jbos 4"
  "BENCH_E5 --jbos 4"
  "BENCH_E5 --jobs"
  "BENCH_E6 --quick"
  "BENCH_E7 --jobs abc"
  "BENCH_E7 --snapshot-every abc"
  "BENCH_E7 --snapshot-every 9223372036855"
  "BENCH_E7 --stats-json x.json"
  "BENCH_E8 --quik"
  "BENCH_E8 5"
  "BENCH_E9 --jobs 2"
  "BENCH_E10 --trials abc"
  "BENCH_E10 --trials 2147483648"
  "BENCH_E10 --seed"
  "BENCH_E10 --trails 5"
  "BENCH_E11 abc"
  "BENCH_E11 42"
  "BENCH_E11 --seed abc"
  "BENCH_E13 --seed abc"
  "BENCH_E13 --jobs abc"
  "BENCH_E13 --shards abc"
  "BENCH_E13 --cross-ratio abc"
  "BENCH_E13 --budget medium"
  "BENCH_E13 --critical-path-json cp.json"
  "BENCH_E13 --shard 2"
  "BENCH_E14 --seed abc"
  "BENCH_E14 --jobs abc"
  "BENCH_E14 --records abc"
  "BENCH_E14 --partitions abc"
  "BENCH_E14 --partitions 4294967296"
  "BENCH_E14 --budget tiny"
  "BENCH_E14 --partition 2"
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

# A run whose output cannot be written fails (exit 1), like E13 and E14.
execute_process(COMMAND "${BENCH_E7}" --jobs 2
                        --json /nonexistent-dir/e7.json
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 300)
if(NOT status EQUAL 1 OR NOT err MATCHES "cannot write")
  message("FAIL BENCH_E7 --json /nonexistent-dir/e7.json: exit status "
          "'${status}', stderr: ${err}")
  math(EXPR failures "${failures} + 1")
endif()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} of ${total} + 1 cases failed")
endif()
message("all ${total} malformed flags rejected with exit status 2; "
        "an unwritable E7 --json exits 1")
