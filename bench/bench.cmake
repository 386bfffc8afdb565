# The sweep driver that does more than print a catalog table: scale_sweep
# is sized by environment for the nightly scale lane. Every paper table runs
# through examples/reproduce_paper, and every checked sweep through
# examples/check_tool.
function(locus_add_bench name)
  add_executable(${name} ${CMAKE_CURRENT_LIST_DIR}/../bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE locus_harness locus_warnings)
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${LOCUS_BENCH_OUTPUT_DIR})
endfunction()

locus_add_bench(scale_sweep)

# scale_sweep exits 2 on a bad LOCUS_SCALE_* list before any circuit is
# built (an abort would fail these even under WILL_FAIL). The valid list
# beside each bad one is tiny, so a missed rejection still ends quickly.
add_test(NAME ScaleSweep.RejectsNonNumericProcs COMMAND scale_sweep)
add_test(NAME ScaleSweep.RejectsNegativeProcs COMMAND scale_sweep)
add_test(NAME ScaleSweep.RejectsZeroWires COMMAND scale_sweep)
set_tests_properties(ScaleSweep.RejectsNonNumericProcs PROPERTIES
  ENVIRONMENT "LOCUS_SCALE_WIRES=600;LOCUS_SCALE_PROCS=abc")
set_tests_properties(ScaleSweep.RejectsNegativeProcs PROPERTIES
  ENVIRONMENT "LOCUS_SCALE_WIRES=600;LOCUS_SCALE_PROCS=-4")
set_tests_properties(ScaleSweep.RejectsZeroWires PROPERTIES
  ENVIRONMENT "LOCUS_SCALE_WIRES=0;LOCUS_SCALE_PROCS=4")
set_tests_properties(ScaleSweep.RejectsNonNumericProcs ScaleSweep.RejectsNegativeProcs
  ScaleSweep.RejectsZeroWires PROPERTIES WILL_FAIL TRUE)
