#include "alloc/vmem.hpp"

#include <algorithm>
#include <utility>

#include "sim/contracts.hpp"

namespace mkos::alloc {

VmemArena::VmemArena(std::string name, sim::Bytes quantum,
                     sim::Bytes import_quantum, ImportFn import,
                     sim::TimeNs segment_op_cost, sim::TimeNs import_cost)
    : name_(std::move(name)),
      quantum_(quantum),
      import_quantum_(import_quantum),
      import_(std::move(import)),
      segment_op_cost_(segment_op_cost),
      import_cost_(import_cost) {
  MKOS_EXPECTS(quantum_ > 0);
  MKOS_EXPECTS(import_quantum_ >= quantum_);
}

VmemAlloc VmemArena::alloc(sim::Bytes bytes) {
  MKOS_EXPECTS(bytes > 0);
  const sim::Bytes size = sim::align_up(bytes, quantum_);
  VmemAlloc out;

  // Quantum-cache front end: constant-time pop, no segment-list traffic.
  const sim::Bytes quanta = size / quantum_;
  const bool cacheable = quanta >= 1 && quanta <= kQuantumCacheClasses;
  if (cacheable) {
    auto& cache = quantum_caches_[quanta - 1];
    if (!cache.empty()) {
      out.ok = true;
      out.offset = cache.back();
      cache.pop_back();
      out.cost = segment_op_cost_;  // cache hit: one cheap op, no list walk
      ++stats_.allocs;
      ++stats_.qcache_hits;
      return out;
    }
  }

  // Segment path: first-fit over the sorted free list, importing on demand.
  for (int attempt = 0; attempt < 2; ++attempt) {
    for (std::size_t i = 0; i < free_segments_.size(); ++i) {
      Segment& seg = free_segments_[i];
      if (seg.length < size) continue;
      out.ok = true;
      out.offset = seg.offset;
      out.cost = out.cost + segment_op_cost_;
      if (seg.length == size) {
        free_segments_.erase(free_segments_.begin() +
                             static_cast<std::ptrdiff_t>(i));
      } else {
        seg.offset += size;
        seg.length -= size;
      }
      ++stats_.allocs;
      return out;
    }
    if (attempt == 0) {
      out.cost = out.cost + import_cost_;
      if (!import_more(size)) {
        ++stats_.import_fails;
        return out;  // ok == false: arena and source both exhausted
      }
    }
  }
  return out;
}

sim::TimeNs VmemArena::free(sim::Bytes offset, sim::Bytes bytes) {
  MKOS_EXPECTS(bytes > 0);
  const sim::Bytes size = sim::align_up(bytes, quantum_);
  MKOS_EXPECTS(offset + size <= span_end_);
  ++stats_.frees;

  const sim::Bytes quanta = size / quantum_;
  if (quanta >= 1 && quanta <= kQuantumCacheClasses) {
    quantum_caches_[quanta - 1].push_back(offset);
    return segment_op_cost_;
  }
  insert_free(offset, size);
  return segment_op_cost_;
}

VmemRunAlloc VmemArena::alloc_run(sim::Bytes bytes, std::uint64_t count,
                                  std::vector<VmemRun>& runs) {
  MKOS_EXPECTS(bytes > 0);
  const sim::Bytes size = sim::align_up(bytes, quantum_);
  VmemRunAlloc out;
  const auto append = [&](sim::Bytes offset, std::uint64_t n) {
    VmemRun* last = runs.empty() ? nullptr : &runs.back();
    if (last != nullptr && last->offset + last->count * size == offset) {
      last->count += n;
    } else {
      runs.push_back(VmemRun{offset, n});
    }
    out.granted += n;
  };

  if (size / quantum_ <= kQuantumCacheClasses) {
    // The order of the offset stacks is state: keep the per-call path.
    while (out.granted < count) {
      const VmemAlloc a = alloc(bytes);
      out.cost += a.cost;
      if (!a.ok) return out;
      append(a.offset, 1);
    }
    out.ok = true;
    return out;
  }

  // One first-fit pass. Allocation only shrinks segments, so a segment too
  // small for one block stays too small and the scan never goes back. An
  // import lands at span_end_, so after one only the last segment can fit.
  std::size_t i = 0;
  while (out.granted < count) {
    while (i < free_segments_.size() && free_segments_[i].length < size) ++i;
    if (i == free_segments_.size()) {
      out.cost += import_cost_;
      if (!import_more(size)) {
        ++stats_.import_fails;
        return out;  // ok == false, with the blocks granted so far
      }
      i = free_segments_.size() - 1;
    }
    Segment& seg = free_segments_[i];
    const std::uint64_t n = std::min(count - out.granted, seg.length / size);
    append(seg.offset, n);
    seg.offset += n * size;
    seg.length -= n * size;
    out.cost += segment_op_cost_ * static_cast<std::int64_t>(n);
    stats_.allocs += n;
    if (seg.length == 0) {
      free_segments_.erase(free_segments_.begin() +
                           static_cast<std::ptrdiff_t>(i));
    }
  }
  out.ok = true;
  return out;
}

sim::TimeNs VmemArena::free_run(sim::Bytes offset, sim::Bytes bytes,
                                std::uint64_t count) {
  MKOS_EXPECTS(bytes > 0);
  const sim::Bytes size = sim::align_up(bytes, quantum_);
  if (size / quantum_ <= kQuantumCacheClasses) {
    // Highest block first: the order of the offset stacks is state.
    sim::TimeNs cost{0};
    for (std::uint64_t i = count; i-- > 0;) {
      cost += free(offset + i * size, bytes);
    }
    return cost;
  }
  MKOS_EXPECTS(offset + count * size <= span_end_);
  stats_.frees += count;
  // A fully coalesced free list is canonical, so one insert of the whole
  // run leaves it as `count` inserts in any order would.
  if (count > 0) insert_free(offset, count * size);
  return segment_op_cost_ * static_cast<std::int64_t>(count);
}

bool VmemArena::import_more(sim::Bytes want) {
  const sim::Bytes ask =
      sim::align_up(std::max(want, import_quantum_), import_quantum_);
  if (!import_) return false;
  const sim::Bytes granted = import_(ask);
  if (granted < want) {
    // A short grant can't satisfy the triggering request; don't grow the
    // span with an unusable stub (keeps exhaustion behavior crisp).
    return false;
  }
  ++stats_.imports;
  stats_.import_bytes += granted;
  insert_free(span_end_, granted);
  span_end_ += granted;
  return true;
}

void VmemArena::insert_free(sim::Bytes offset, sim::Bytes length) {
  // Sorted insert + bidirectional coalescing.
  auto it = std::lower_bound(
      free_segments_.begin(), free_segments_.end(), offset,
      [](const Segment& s, sim::Bytes off) { return s.offset < off; });
  const std::size_t idx =
      static_cast<std::size_t>(it - free_segments_.begin());

  // Merge with predecessor?
  if (idx > 0) {
    Segment& prev = free_segments_[idx - 1];
    MKOS_ASSERT(prev.offset + prev.length <= offset);
    if (prev.offset + prev.length == offset) {
      prev.length += length;
      // Merge predecessor with successor too?
      if (idx < free_segments_.size()) {
        Segment& next = free_segments_[idx];
        if (prev.offset + prev.length == next.offset) {
          prev.length += next.length;
          free_segments_.erase(free_segments_.begin() +
                               static_cast<std::ptrdiff_t>(idx));
        }
      }
      return;
    }
  }
  // Merge with successor?
  if (idx < free_segments_.size()) {
    Segment& next = free_segments_[idx];
    MKOS_ASSERT(offset + length <= next.offset);
    if (offset + length == next.offset) {
      next.offset = offset;
      next.length += length;
      return;
    }
  }
  free_segments_.insert(it, Segment{offset, length});
}

}  // namespace mkos::alloc
