# Bench binaries: declared with include() from the top level so the binary
# dir ${LOCUS_BENCH_OUTPUT_DIR} holds nothing but executables (the canonical
# run loop is `for b in build/bench/*; do $b; done`).
function(locus_add_bench name)
  add_executable(${name} ${CMAKE_CURRENT_LIST_DIR}/../bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE ${ARGN} locus_warnings)
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${LOCUS_BENCH_OUTPUT_DIR})
endfunction()

set(LOCUS_TABLE_LIBS locus_harness locus_msg locus_shm locus_coherence
    locus_assign locus_route locus_circuit locus_grid locus_geom locus_support)

locus_add_bench(table1_sender_initiated ${LOCUS_TABLE_LIBS})
locus_add_bench(table2_receiver_initiated ${LOCUS_TABLE_LIBS})
locus_add_bench(sec513_blocking_mixed ${LOCUS_TABLE_LIBS})
locus_add_bench(table3_cache_line_size ${LOCUS_TABLE_LIBS})
locus_add_bench(sec52_mp_vs_shm ${LOCUS_TABLE_LIBS})
locus_add_bench(table4_locality_mp ${LOCUS_TABLE_LIBS})
locus_add_bench(table5_locality_shm ${LOCUS_TABLE_LIBS})
locus_add_bench(locality_measure ${LOCUS_TABLE_LIBS})
locus_add_bench(table6_scaling ${LOCUS_TABLE_LIBS})
locus_add_bench(speedup ${LOCUS_TABLE_LIBS})
locus_add_bench(ablation_packet_structure ${LOCUS_TABLE_LIBS})
locus_add_bench(ablation_protocols ${LOCUS_TABLE_LIBS})
locus_add_bench(ablation_topology ${LOCUS_TABLE_LIBS})

locus_add_bench(micro_router locus_route locus_circuit locus_grid locus_geom locus_support benchmark::benchmark)
locus_add_bench(micro_coherence locus_coherence locus_shm locus_route locus_circuit locus_grid locus_assign locus_sim locus_geom locus_support benchmark::benchmark)

locus_add_bench(overhead_breakdown ${LOCUS_TABLE_LIBS})
locus_add_bench(ablation_dynamic_assignment ${LOCUS_TABLE_LIBS})
locus_add_bench(hierarchical_shm ${LOCUS_TABLE_LIBS})
locus_add_bench(ablation_router ${LOCUS_TABLE_LIBS})
locus_add_bench(ablation_schedule_knobs ${LOCUS_TABLE_LIBS})
locus_add_bench(view_staleness ${LOCUS_TABLE_LIBS})
locus_add_bench(micro_msg locus_msg locus_grid locus_geom locus_support benchmark::benchmark)
locus_add_bench(scaling_large ${LOCUS_TABLE_LIBS})
locus_add_bench(scale_sweep ${LOCUS_TABLE_LIBS})
locus_add_bench(ablation_cache_size ${LOCUS_TABLE_LIBS})
locus_add_bench(topology_sweep ${LOCUS_TABLE_LIBS})
locus_add_bench(seed_robustness ${LOCUS_TABLE_LIBS})
