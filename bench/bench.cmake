# Bench binaries: one per paper table/figure plus the engine and
# scheduler acceptance benches.
# Declared with include() from the top-level CMakeLists so that
# ${CMAKE_BINARY_DIR}/bench contains ONLY executables — the harness runs
# `for b in build/bench/*; do $b; done`.

function(mkos_add_bench name)
  add_executable(${name} ${CMAKE_CURRENT_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE mkos mkos_warnings)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

mkos_add_bench(fig4_overview)
mkos_add_bench(fig5a_ccs_qcd)
mkos_add_bench(fig5b_minife)
mkos_add_bench(fig6a_lulesh)
mkos_add_bench(fig6b_lammps)
mkos_add_bench(table1_brk)
mkos_add_bench(ltp_compat)
mkos_add_bench(brk_trace)
mkos_add_bench(opt_ablation)
mkos_add_bench(core_partitioning)
mkos_add_bench(ablation_mem)
mkos_add_bench(ablation_noise)
mkos_add_bench(ablation_collectives)
mkos_add_bench(isolation)
mkos_add_bench(design_space)
mkos_add_bench(phase_breakdown)
mkos_add_bench(syscall_matrix)
mkos_add_bench(hotpath_sampling)
mkos_add_bench(sweep_sched)
mkos_add_bench(resilience)
mkos_add_bench(fig_numa_lookup)
