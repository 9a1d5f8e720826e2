#pragma once
// VmemArena — an interval allocator in the style of Bonwick & Adams' vmem:
// a sorted, coalescing free-segment list over an abstract [0, span) offset
// space, with power-of-two quantum caches in front of the segment path and
// an import callback that grows the span from a backing source (here:
// `mem::DomainAllocator` best-effort carving) when the arena runs dry.
//
// The arena does not hand out real memory — offsets are simulation handles.
// What it models is the *cost structure*: quantum-cache hits are cheap,
// segment-list operations cost `segment_op_cost`, and imports cost
// `import_cost` plus whatever the backing layer charges.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "sim/units.hpp"

namespace mkos::alloc {

/// Result of a VmemArena::alloc call.
struct VmemAlloc {
  bool ok = false;        ///< false when the arena and its source are exhausted
  sim::Bytes offset = 0;  ///< handle into the arena's offset space
  sim::TimeNs cost{0};    ///< modeled CPU time spent in the allocator
};

/// `count` equal blocks laid end to end from `offset`; the block size is the
/// rounded size of the alloc_run call that carved them.
struct VmemRun {
  sim::Bytes offset = 0;
  std::uint64_t count = 0;
};

/// Result of a VmemArena::alloc_run call.
struct VmemRunAlloc {
  bool ok = false;            ///< false when the source ran dry first
  std::uint64_t granted = 0;  ///< blocks appended to the caller's runs
  sim::TimeNs cost{0};        ///< modeled CPU time, failed import included
};

/// Counters kept by the arena; snapshotted into the `alloc.*` ledger group.
struct VmemStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t qcache_hits = 0;
  std::uint64_t imports = 0;
  std::uint64_t import_fails = 0;
  sim::Bytes import_bytes = 0;
};

class VmemArena {
 public:
  /// Import callback: asked for at least `want` bytes, returns the number of
  /// bytes actually granted (0 on exhaustion). The granted span is appended
  /// to the end of the arena's offset space.
  using ImportFn = std::function<sim::Bytes(sim::Bytes want)>;

  /// `quantum` — allocation granularity (requests round up to it).
  /// `import_quantum` — granularity of span growth from the source.
  /// `segment_op_cost` / `import_cost` — modeled CPU time per segment-list
  /// operation and per import round-trip respectively.
  VmemArena(std::string name, sim::Bytes quantum, sim::Bytes import_quantum,
            ImportFn import, sim::TimeNs segment_op_cost,
            sim::TimeNs import_cost);

  VmemArena(const VmemArena&) = delete;
  VmemArena& operator=(const VmemArena&) = delete;

  /// Allocate `bytes` (rounded up to the quantum). Small requests (up to
  /// `kQuantumCacheClasses` quanta) are served from per-size-class offset
  /// stacks when possible; otherwise first-fit over the segment list, with
  /// an import from the source on exhaustion.
  [[nodiscard]] VmemAlloc alloc(sim::Bytes bytes);

  /// Return a previously allocated range; coalesces with neighbors.
  /// Returns the modeled CPU cost of the free.
  sim::TimeNs free(sim::Bytes offset, sim::Bytes bytes);

  /// Exactly `count` calls of alloc(bytes), stopping at the first failure:
  /// same offsets, costs, stats and arena state. Granted blocks are
  /// appended to `runs`; a block that starts where the last run ends grows
  /// that run. Sizes beyond the quantum caches carve in one first-fit pass.
  [[nodiscard]] VmemRunAlloc alloc_run(sim::Bytes bytes, std::uint64_t count,
                                       std::vector<VmemRun>& runs);

  /// Exactly free(offset + i * size, bytes) for i from count - 1 down to 0,
  /// where size is `bytes` rounded up to the quantum. Returns the summed
  /// cost.
  sim::TimeNs free_run(sim::Bytes offset, sim::Bytes bytes,
                       std::uint64_t count);

  [[nodiscard]] const VmemStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Bytes quantum() const { return quantum_; }
  [[nodiscard]] sim::Bytes span_bytes() const { return span_end_; }

  /// Number of discrete free segments (tests assert coalescing behavior).
  [[nodiscard]] std::size_t free_segment_count() const {
    return free_segments_.size();
  }

  /// Sizes up to this many quanta are fronted by quantum caches.
  static constexpr int kQuantumCacheClasses = 4;

 private:
  struct Segment {
    sim::Bytes offset = 0;
    sim::Bytes length = 0;
  };

  bool import_more(sim::Bytes want);
  void insert_free(sim::Bytes offset, sim::Bytes length);

  std::string name_;
  sim::Bytes quantum_;
  sim::Bytes import_quantum_;
  ImportFn import_;
  sim::TimeNs segment_op_cost_;
  sim::TimeNs import_cost_;

  sim::Bytes span_end_ = 0;             ///< arena offset space is [0, span_end_)
  std::vector<Segment> free_segments_;  ///< sorted by offset, fully coalesced
  /// quantum_caches_[k] holds free offsets of size (k+1)*quantum.
  std::vector<sim::Bytes> quantum_caches_[kQuantumCacheClasses];
  VmemStats stats_;
};

}  // namespace mkos::alloc
