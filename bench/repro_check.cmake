# Reproduction gate for the paper's figures (ctest `repro`, label
# `repro`): runs the deterministic figure benches in an empty working
# directory and compares the CSVs they write under bench_out/ with the
# committed ones byte for byte.
#
#   cmake -DBENCH_DIR=<bench executables> -DGOLDEN_DIR=<repo>/bench_out
#         -DWORK_DIR=<scratch directory> -P repro_check.cmake
#
# A change that moves a golden file lists its old and new values in
# CHANGES.md and commits the new file; this check is never loosened to
# pass. The timing CSVs (*_mc_timing.csv) hold wall times and are not
# compared.
foreach(var BENCH_DIR GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "repro_check.cmake: ${var} is not set")
  endif()
endforeach()

set(benches
  bench_fig01_phase_short
  bench_fig02_phase_long
  bench_fig03_hop_number
  bench_lemma1_expected_paths
  bench_fig06_next_contact
  bench_fig07_contact_duration
  bench_fig08_delivery_function
  bench_fig09_delay_cdf
  bench_fig10_random_removal
  bench_fig11_duration_threshold
  bench_fig12_diameter_vs_delay
  bench_sec53_daytime
  bench_table1_datasets
  bench_ext_intercontact
  bench_ext_wlan)
set(files
  fig01_phase_short.csv
  fig01_phase_short_mc.csv
  fig02_phase_long.csv
  fig03_hop_number.csv
  lemma1_expected_paths.csv
  lemma1_mc_dichotomy.csv
  fig06_next_contact.csv
  fig07_contact_duration.csv
  fig08_delivery_function.csv
  fig09_Hong-Kong.csv
  fig09_Infocom05.csv
  fig09_RealityMining.csv
  fig10_p0.000000.csv
  fig10_p0.900000.csv
  fig10_p0.990000.csv
  fig11_gt_10min.csv
  fig11_gt_2min.csv
  fig11_gt_30min.csv
  fig12_diameter_vs_delay.csv
  sec53_all_times.csv
  sec53_day_only.csv
  table1_datasets.csv
  ext_intercontact.csv
  ext_wlan_Dartmouth-like.csv
  ext_wlan_UCSD-like.csv)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(bench IN LISTS benches)
  execute_process(COMMAND "${BENCH_DIR}/${bench}"
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} failed: ${rc}")
  endif()
endforeach()

set(differ "")
foreach(f IN LISTS files)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORK_DIR}/bench_out/${f}" "${GOLDEN_DIR}/${f}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(APPEND differ "${f}")
  endif()
endforeach()
if(differ)
  message(FATAL_ERROR "differ from the committed bench_out/: ${differ}")
endif()
list(LENGTH files n)
message(STATUS "${n} figure CSVs match bench_out/")
