#include "mem/page_table.hpp"

namespace mkos::mem {

namespace {
// Entries per table at every level.
constexpr std::uint64_t kEntries = 512;

std::uint64_t div_up(std::uint64_t a, std::uint64_t b) { return (a + b - 1) / b; }
}  // namespace

PageTableStats page_tables_for(const Placement& placement) {
  PageTableStats s;
  // Leaves per level-coverage unit, per page size.
  std::uint64_t pte_entries = 0;   // 4 KiB leaf entries
  std::uint64_t pd_entries = 0;    // 2 MiB leaf entries
  std::uint64_t pdpt_entries = 0;  // 1 GiB leaf entries
  placement.for_each_chunk([&](const Placement::Chunk& c) {
    switch (c.page) {
      case PageSize::k4K: pte_entries += pages_for(c.bytes, PageSize::k4K); break;
      case PageSize::k2M: pd_entries += pages_for(c.bytes, PageSize::k2M); break;
      case PageSize::k1G: pdpt_entries += pages_for(c.bytes, PageSize::k1G); break;
    }
  });
  s.pte_tables = div_up(pte_entries, kEntries);
  // PD entries: 2 MiB leaves plus one per PTE table.
  const std::uint64_t pd_total = pd_entries + s.pte_tables;
  s.pd_tables = div_up(pd_total, kEntries);
  const std::uint64_t pdpt_total = pdpt_entries + s.pd_tables;
  s.pdpt_tables = div_up(pdpt_total, kEntries);
  return s;
}

double average_walk_depth(const Placement& placement) {
  const sim::Bytes total = placement.total();
  if (total == 0) return 0.0;
  double acc = 0.0;
  placement.for_each_chunk([&](const Placement::Chunk& c) {
    const double frac = static_cast<double>(c.bytes) / static_cast<double>(total);
    switch (c.page) {
      case PageSize::k4K: acc += 4.0 * frac; break;
      case PageSize::k2M: acc += 3.0 * frac; break;
      case PageSize::k1G: acc += 2.0 * frac; break;
    }
  });
  return acc;
}

}  // namespace mkos::mem
