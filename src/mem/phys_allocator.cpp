#include "mem/phys_allocator.hpp"

#include <algorithm>

#include "sim/contracts.hpp"
#include "sim/hash.hpp"

namespace mkos::mem {

DomainAllocator::DomainAllocator(hw::DomainId id, sim::Bytes capacity)
    : id_(id), capacity_(capacity), free_bytes_(capacity) {
  MKOS_EXPECTS(capacity > 0);
  free_.push_back(FreeExtent{0, capacity});
}

sim::Bytes DomainAllocator::largest_free_extent() const {
  sim::Bytes best = 0;
  for (const FreeExtent& e : free_) best = std::max(best, e.length);
  return best;
}

std::uint64_t DomainAllocator::compute_fingerprint() const {
  std::uint64_t h = sim::hash_combine(0x452821e638d01377ULL, free_bytes_);
  h = sim::hash_combine(h, free_.size());
  if (!free_.empty()) {
    h = sim::hash_combine(h, free_.front().start);
    h = sim::hash_combine(h, free_.front().length);
    h = sim::hash_combine(h, free_.back().start);
    h = sim::hash_combine(h, free_.back().length);
  }
  return h;
}

std::optional<Extent> DomainAllocator::alloc_contiguous(sim::Bytes length, sim::Bytes align) {
  if (fault_hook_ && fault_hook_(length)) return std::nullopt;
  return alloc_contiguous_impl(length, align);
}

std::optional<Extent> DomainAllocator::alloc_contiguous_impl(sim::Bytes length,
                                                             sim::Bytes align) {
  MKOS_EXPECTS(length > 0);
  MKOS_EXPECTS(align > 0 && (align & (align - 1)) == 0);
  for (std::size_t i = 0; i < free_.size(); ++i) {
    const sim::Bytes start = free_[i].start;
    const sim::Bytes len = free_[i].length;
    const sim::Bytes aligned = sim::align_up(start, align);
    const sim::Bytes waste = aligned - start;
    if (len < waste + length) continue;
    // Carve [aligned, aligned+length) out of [start, start+len), patching
    // the surviving head/tail pieces in place to keep the vector sorted.
    const sim::Bytes tail_start = aligned + length;
    const sim::Bytes tail_len = start + len - tail_start;
    const auto it = free_.begin() + static_cast<std::ptrdiff_t>(i);
    if (waste > 0 && tail_len > 0) {
      it->length = waste;
      free_.insert(it + 1, FreeExtent{tail_start, tail_len});
    } else if (waste > 0) {
      it->length = waste;
    } else if (tail_len > 0) {
      *it = FreeExtent{tail_start, tail_len};
    } else {
      free_.erase(it);
    }
    free_bytes_ -= length;
    ++rev_;
    return Extent{id_, aligned, length};
  }
  return std::nullopt;
}

const std::vector<Extent>& DomainAllocator::alloc_best_effort(sim::Bytes length,
                                                              sim::Bytes granule) {
  MKOS_EXPECTS(granule > 0 && (granule & (granule - 1)) == 0);
  std::vector<Extent>& out = best_effort_scratch_;
  out.clear();
  if (traffic_hook_) traffic_hook_(traffic_caller_, length);
  // One injection decision per request, not per carved extent: the internal
  // loop below allocates pieces it has already sized against the free map,
  // so a mid-loop denial would trip the has_value() invariant.
  if (fault_hook_ && fault_hook_(length)) return out;
  sim::Bytes remaining = sim::align_up(length, granule);
  while (remaining > 0) {
    // Take the largest granule-aligned piece available, capped at remaining.
    sim::Bytes best_usable = 0;
    for (const FreeExtent& f : free_) {
      const sim::Bytes aligned = sim::align_up(f.start, granule);
      if (aligned >= f.start + f.length) continue;
      const sim::Bytes usable = sim::align_down(f.start + f.length - aligned, granule);
      best_usable = std::max(best_usable, usable);
    }
    if (best_usable == 0) break;
    const sim::Bytes take = std::min(best_usable, remaining);
    auto e = alloc_contiguous_impl(take, granule);
    MKOS_ASSERT(e.has_value());
    out.push_back(*e);
    remaining -= take;
  }
  return out;
}

void DomainAllocator::free(const Extent& e) {
  MKOS_EXPECTS(e.domain == id_);
  MKOS_EXPECTS(e.length > 0);
  MKOS_EXPECTS(e.end() <= capacity_);
  insert_free(e.start, e.length);
  free_bytes_ += e.length;
  ++rev_;
  MKOS_ENSURES(free_bytes_ <= capacity_);
}

void DomainAllocator::insert_free(sim::Bytes start, sim::Bytes length) {
  auto next = std::lower_bound(
      free_.begin(), free_.end(), start,
      [](const FreeExtent& e, sim::Bytes s) { return e.start < s; });
  // Coalesce with the previous extent — absorb into it in place.
  if (next != free_.begin()) {
    auto prev = std::prev(next);
    MKOS_EXPECTS(prev->start + prev->length <= start);  // double free guard
    if (prev->start + prev->length == start) {
      prev->length += length;
      // Coalesce with the following extent too.
      if (next != free_.end()) {
        MKOS_EXPECTS(prev->start + prev->length <= next->start);
        if (prev->start + prev->length == next->start) {
          prev->length += next->length;
          free_.erase(next);
        }
      }
      return;
    }
  }
  // Coalesce with the following extent — grow it downward in place.
  if (next != free_.end()) {
    MKOS_EXPECTS(start + length <= next->start);
    if (start + length == next->start) {
      next->start = start;
      next->length += length;
      return;
    }
  }
  free_.insert(next, FreeExtent{start, length});
}

sim::Bytes DomainAllocator::pin_unmovable(sim::Bytes total, int chunks, sim::Rng& rng) {
  MKOS_EXPECTS(chunks > 0);
  sim::Bytes pinned = 0;
  const sim::Bytes per_chunk = sim::align_up(total / static_cast<sim::Bytes>(chunks), 4 * sim::KiB);
  for (int i = 0; i < chunks && pinned < total; ++i) {
    // Pick a random free extent and pin a piece somewhere inside it so that
    // the remaining space is split — this is what destroys 1 GiB contiguity.
    if (free_.empty()) break;
    const auto it = free_.begin() +
                    static_cast<std::ptrdiff_t>(rng.uniform_index(free_.size()));
    const sim::Bytes start = it->start;
    const sim::Bytes len = it->length;
    if (len < per_chunk) continue;
    const sim::Bytes slack = len - per_chunk;
    const sim::Bytes offset =
        sim::align_down(slack > 0 ? rng.uniform_index(slack) : 0, 4 * sim::KiB);
    const sim::Bytes tail = start + offset + per_chunk;
    const sim::Bytes tail_len = start + len - tail;
    if (offset > 0 && tail_len > 0) {
      it->length = offset;
      free_.insert(it + 1, FreeExtent{tail, tail_len});
    } else if (offset > 0) {
      it->length = offset;
    } else if (tail_len > 0) {
      *it = FreeExtent{tail, tail_len};
    } else {
      free_.erase(it);
    }
    free_bytes_ -= per_chunk;
    ++rev_;
    pinned += per_chunk;
  }
  return pinned;
}

PhysMemory::PhysMemory(const hw::NodeTopology& topo) {
  domains_.reserve(topo.domains().size());
  for (const auto& d : topo.domains()) domains_.emplace_back(d.id, d.capacity);
}

sim::Bytes PhysMemory::free_bytes_of_kind(const hw::NodeTopology& topo,
                                          hw::MemKind kind) const {
  sim::Bytes total = 0;
  for (const auto& d : domains_) {
    if (topo.domain(d.id()).kind == kind) total += d.free_bytes();
  }
  return total;
}

}  // namespace mkos::mem
