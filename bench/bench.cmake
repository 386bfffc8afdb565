# The two sweep drivers that do more than print a catalog table:
# scale_sweep is sized by environment for the nightly scale lane, and
# topology_sweep exits 1 when a cell fails. Every paper table runs through
# examples/reproduce_paper.
function(locus_add_bench name)
  add_executable(${name} ${CMAKE_CURRENT_LIST_DIR}/../bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE locus_harness locus_warnings)
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${LOCUS_BENCH_OUTPUT_DIR})
endfunction()

locus_add_bench(scale_sweep)
locus_add_bench(topology_sweep)
