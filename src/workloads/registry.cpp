// Workload registry: factories by name + the Fig. 4 suite.

#include "workloads/app.hpp"

namespace mkos::workloads {

std::vector<std::unique_ptr<App>> make_fig4_apps() {
  std::vector<std::unique_ptr<App>> apps;
  for (const std::string& name : fig4_app_names()) apps.push_back(make_app(name));
  return apps;
}

std::vector<std::string> fig4_app_names() {
  // Fig. 4 order: AMG2013, CCS-QCD, GeoFEM, HPCG, LAMMPS, MILC, MiniFE
  // ("We left out Lulesh 2.0 since it uses different node counts").
  return {"AMG2013", "CCS-QCD", "GeoFEM", "HPCG", "LAMMPS", "MILC", "MiniFE"};
}

std::vector<std::string> registry_names() {
  std::vector<std::string> names = fig4_app_names();
  names.insert(names.begin() + 5, "Lulesh2.0");  // alphabetical slot
  // XSBench placement variants sort after MiniFE; appended to keep the
  // long-standing prefix (and everything keyed to its order) stable.
  names.emplace_back("XSBench/first-touch");
  names.emplace_back("XSBench/interleave");
  names.emplace_back("XSBench/mcdram");
  return names;
}

double app_cost_weight(std::string_view name) {
  // Measured: median per-cell simulation wall per rep (bench/sweep_sched
  // calibration grid, all configs × {16..512} nodes), normalized to MiniFE.
  // The analytic engine makes most cells near-flat. Lulesh 2.0 on the Linux
  // config is the heaviest cell: its brk churn leaves lanes in a few heap
  // states, and heap_cycle replays those per class. That reads about 2–3x
  // MiniFE (1.4–3.5 ms vs 0.5–1.2 ms per 2-rep cell on a 4-core Xeon); the
  // weight of 30 predates the class replay, when every lane was simulated.
  // It stays: the numbers only steer LPT deque placement, and Lulesh cells
  // are still the costliest either way.
  if (name == "AMG2013") return 0.8;
  if (name == "CCS-QCD") return 0.4;
  if (name == "GeoFEM") return 0.8;
  if (name == "HPCG") return 1.0;
  if (name == "LAMMPS") return 1.6;
  if (name == "Lulesh2.0") return 30.0;
  if (name == "MILC") return 1.0;
  if (name == "MiniFE") return 1.0;
  // Bandwidth-loop proxies with a single-threaded 64-rank layout; cheaper
  // than MiniFE's 4-thread cells.
  if (name == "XSBench/first-touch") return 0.6;
  if (name == "XSBench/interleave") return 0.6;
  if (name == "XSBench/mcdram") return 0.6;
  return 1.0;
}

std::unique_ptr<App> make_app(std::string_view name) {
  if (name == "AMG2013") return make_amg2013();
  if (name == "CCS-QCD") return make_ccs_qcd();
  if (name == "GeoFEM") return make_geofem();
  if (name == "HPCG") return make_hpcg();
  if (name == "LAMMPS") return make_lammps();
  if (name == "Lulesh2.0") return make_lulesh();
  if (name == "MILC") return make_milc();
  if (name == "MiniFE") return make_minife();
  if (name == "XSBench/first-touch") return make_xsbench_first_touch();
  if (name == "XSBench/interleave") return make_xsbench_interleave();
  if (name == "XSBench/mcdram") return make_xsbench_mcdram();
  return nullptr;
}

}  // namespace mkos::workloads
