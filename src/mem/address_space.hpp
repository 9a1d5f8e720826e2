#pragma once
// Per-process virtual memory: VMAs, physical placement records, residency
// accounting. The executor asks an address space "what fraction of this
// process's working set sits in MCDRAM?" — the answer drives the roofline
// compute model, so placement records are exact, not sampled.

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "hw/topology.hpp"
#include "mem/numa_policy.hpp"
#include "mem/page.hpp"
#include "mem/phys_allocator.hpp"

namespace mkos::mem {

enum class VmaKind : std::uint8_t { kText, kBss, kHeap, kStack, kAnon, kShm, kFile };

[[nodiscard]] constexpr const char* to_string(VmaKind k) {
  switch (k) {
    case VmaKind::kText: return "text";
    case VmaKind::kBss: return "bss";
    case VmaKind::kHeap: return "heap";
    case VmaKind::kStack: return "stack";
    case VmaKind::kAnon: return "anon";
    case VmaKind::kShm: return "shm";
    case VmaKind::kFile: return "file";
  }
  return "?";
}

/// Where a mapping's resident pages physically live: bytes per (domain,
/// page size) pair. The storage is inline and bounded by hw::kMaxDomains,
/// so building, copying or clearing a placement never touches the heap.
class Placement {
 public:
  struct Chunk {
    hw::DomainId domain;
    PageSize page;
    sim::Bytes bytes;
  };

  /// Adds `bytes` to the (domain, page) chunk. A pair's first non-zero add
  /// opens its chunk after every chunk opened before it.
  void add(hw::DomainId domain, PageSize page, sim::Bytes bytes);
  void clear();

  [[nodiscard]] sim::Bytes total() const { return total_; }
  [[nodiscard]] sim::Bytes bytes_in_kind(const hw::NodeTopology& topo, hw::MemKind kind) const {
    sim::Bytes b = 0;
    for (const hw::DomainId d : topo.domains_of_kind(kind)) {
      const std::size_t first = static_cast<std::size_t>(d) * kPageSizes;
      for (std::size_t s = first; s < first + kPageSizes; ++s) b += bytes_[s];
    }
    return b;
  }
  [[nodiscard]] double fraction_in_kind(const hw::NodeTopology& topo, hw::MemKind kind) const {
    if (total_ == 0) return 0.0;
    return static_cast<double>(bytes_in_kind(topo, kind)) / static_cast<double>(total_);
  }
  [[nodiscard]] sim::Bytes bytes_with_page(PageSize p) const {
    return by_page_[static_cast<std::size_t>(p)];
  }

  [[nodiscard]] std::size_t chunk_count() const { return chunk_count_; }
  /// Calls f(const Chunk&) for every chunk, in first-add order. Callers
  /// that sum doubles per chunk (average_walk_depth) depend on that order.
  template <typename F>
  void for_each_chunk(F&& f) const {
    for (std::size_t i = 0; i < chunk_count_; ++i) {
      const std::size_t s = order_[i];
      f(Chunk{static_cast<hw::DomainId>(s / kPageSizes), static_cast<PageSize>(s % kPageSizes),
              bytes_[s]});
    }
  }

 private:
  static constexpr std::size_t kPageSizes = 3;  ///< PageSize values
  static constexpr std::size_t kSlots = static_cast<std::size_t>(hw::kMaxDomains) * kPageSizes;

  std::array<sim::Bytes, kSlots> bytes_{};        ///< by slot: domain * 3 + page
  std::array<sim::Bytes, kPageSizes> by_page_{};  ///< indexed by PageSize
  sim::Bytes total_ = 0;
  std::array<std::uint8_t, kSlots> order_{};  ///< slots of the chunks, first-add order
  std::uint8_t chunk_count_ = 0;
};

/// Protection bits (PROT_* subset).
inline constexpr int kProtRead = 1;
inline constexpr int kProtWrite = 2;
inline constexpr int kProtExec = 4;

struct Vma {
  sim::Bytes start = 0;
  sim::Bytes length = 0;
  VmaKind kind = VmaKind::kAnon;
  MemPolicy policy;
  int prot = kProtRead | kProtWrite;

  Placement placement;          ///< physically backed portion
  std::vector<Extent> extents;  ///< owned physical extents (freed on unmap)
  PageSize touch_page = PageSize::k4K;  ///< granule used for demand faults
  bool demand_paged = false;    ///< unbacked remainder faults on first touch
  /// Demand faults walk the LWK spill order (MCDRAM-first) instead of the
  /// Linux policy order — McKernel's demand-paging fallback.
  bool touch_lwk_order = false;
  std::uint64_t fault_count = 0;

  [[nodiscard]] sim::Bytes end() const { return start + length; }
  [[nodiscard]] sim::Bytes backed() const { return placement.total(); }
  [[nodiscard]] sim::Bytes unbacked() const { return length - backed(); }
};

class AddressSpace {
 public:
  AddressSpace();

  /// Create a VMA of `length` bytes (rounded up to 4 KiB). The address is
  /// assigned from the mmap region. Returns a stable reference.
  Vma& map(sim::Bytes length, VmaKind kind, MemPolicy policy);

  /// Remove the VMA starting at `start`; returns it (with its extents) so
  /// the kernel can return physical memory. nullopt when no such VMA.
  std::optional<Vma> unmap(sim::Bytes start);

  [[nodiscard]] Vma* find(sim::Bytes addr);
  [[nodiscard]] const Vma* find(sim::Bytes addr) const;

  [[nodiscard]] std::size_t vma_count() const { return vmas_.size(); }

  /// Iterate over all VMAs (ordered by start address).
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& [start, vma] : vmas_) f(vma);
  }
  template <typename F>
  void for_each(F&& f) {
    for (auto& [start, vma] : vmas_) f(vma);
  }

  [[nodiscard]] sim::Bytes resident_bytes() const;
  [[nodiscard]] sim::Bytes mapped_bytes() const;
  [[nodiscard]] sim::Bytes resident_in_kind(const hw::NodeTopology& topo,
                                            hw::MemKind kind) const;
  [[nodiscard]] double resident_fraction_in_kind(const hw::NodeTopology& topo,
                                                 hw::MemKind kind) const;
  [[nodiscard]] std::uint64_t total_faults() const;

 private:
  std::map<sim::Bytes, Vma> vmas_;  // start -> vma
  sim::Bytes mmap_cursor_;
};

}  // namespace mkos::mem
