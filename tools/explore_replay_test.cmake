# Round trip of the explorer CLI's failure artifact. A sweep with the
# known-bug flag must find a violation (exit 2) and write one
# schedule_<seed>.json; replaying that file must reproduce the violation
# with the recorded fingerprint (exit 0).
#
#   cmake -DEXPLORE=<ritas_explore> -DOUT=<scratch dir> -P explore_replay_test.cmake
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")

execute_process(
  COMMAND "${EXPLORE}" --workload bc --seeds 1:200 --weak-bc-quorum
          --out-dir "${OUT}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "sweep exited ${rc}, want 2 (violation found)")
endif()

file(GLOB artifacts "${OUT}/schedule_*.json")
list(LENGTH artifacts count)
if(NOT count EQUAL 1)
  message(FATAL_ERROR "want one schedule artifact in ${OUT}, found ${count}")
endif()

execute_process(
  COMMAND "${EXPLORE}" --replay ${artifacts}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "replay exited ${rc}, want 0 (fingerprint matches)")
endif()
string(FIND "${out}" "reproduced (fingerprint matches)" at)
if(at EQUAL -1)
  message(FATAL_ERROR "replay did not report a matching fingerprint")
endif()
