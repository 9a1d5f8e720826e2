// Unit tests: physical allocator, address space, placement engine.

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "hw/knl.hpp"
#include "mem/address_space.hpp"
#include "mem/phys_allocator.hpp"
#include "mem/placement.hpp"
#include "sim/rng.hpp"

namespace {

using namespace mkos;
using namespace mkos::mem;
using mkos::sim::Bytes;
using mkos::sim::GiB;
using mkos::sim::KiB;
using mkos::sim::MiB;

// -------------------------------------------------------- DomainAllocator

TEST(DomainAllocator, ContiguousAllocFreeRoundTrip) {
  DomainAllocator a{0, 1 * GiB};
  EXPECT_EQ(a.free_bytes(), 1 * GiB);
  auto e = a.alloc_contiguous(100 * MiB, 2 * MiB);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->length, 100 * MiB);
  EXPECT_TRUE(sim::is_aligned(e->start, 2 * MiB));
  EXPECT_EQ(a.free_bytes(), 1 * GiB - 100 * MiB);
  a.free(*e);
  EXPECT_EQ(a.free_bytes(), 1 * GiB);
  EXPECT_EQ(a.free_extent_count(), 1u);  // coalesced back to one run
}

TEST(DomainAllocator, AlignmentWasteIsReturnedAsFreeSpace) {
  DomainAllocator a{0, 16 * MiB};
  auto first = a.alloc_contiguous(4 * KiB, 4 * KiB);  // offset 0
  ASSERT_TRUE(first.has_value());
  auto big = a.alloc_contiguous(2 * MiB, 2 * MiB);  // must skip to 2 MiB boundary
  ASSERT_TRUE(big.has_value());
  EXPECT_TRUE(sim::is_aligned(big->start, 2 * MiB));
  // The gap between 4 KiB and 2 MiB is still allocatable.
  auto gap = a.alloc_contiguous(1 * MiB, 4 * KiB);
  ASSERT_TRUE(gap.has_value());
  EXPECT_LT(gap->start, big->start);
}

TEST(DomainAllocator, ContiguousFailsWhenFragmented) {
  DomainAllocator a{0, 64 * MiB};
  // Allocate everything as 1 MiB pieces, free every other one.
  std::vector<Extent> pieces;
  for (int i = 0; i < 64; ++i) {
    auto e = a.alloc_contiguous(1 * MiB, 1 * MiB);
    ASSERT_TRUE(e.has_value());
    pieces.push_back(*e);
  }
  for (std::size_t i = 0; i < pieces.size(); i += 2) a.free(pieces[i]);
  EXPECT_EQ(a.free_bytes(), 32 * MiB);
  EXPECT_FALSE(a.alloc_contiguous(2 * MiB, 1 * MiB).has_value());
  EXPECT_EQ(a.largest_free_extent(), 1 * MiB);
}

TEST(DomainAllocator, BestEffortCollectsFragments) {
  DomainAllocator a{0, 8 * MiB};
  auto hold = a.alloc_contiguous(3 * MiB, 1 * MiB);
  ASSERT_TRUE(hold.has_value());
  auto got = a.alloc_best_effort(16 * MiB, 4 * KiB);  // asks for more than exists
  Bytes total = 0;
  for (const auto& e : got) total += e.length;
  EXPECT_EQ(total, 5 * MiB);  // everything that was left
  EXPECT_EQ(a.free_bytes(), 0u);
}

TEST(DomainAllocator, BestEffortHonorsGranule) {
  DomainAllocator a{0, 7 * MiB};
  auto got = a.alloc_best_effort(7 * MiB, 2 * MiB);
  Bytes total = 0;
  for (const auto& e : got) {
    EXPECT_TRUE(sim::is_aligned(e.start, 2 * MiB));
    EXPECT_TRUE(sim::is_aligned(e.length, 2 * MiB));
    total += e.length;
  }
  EXPECT_EQ(total, 6 * MiB);  // 7 MiB rounds down to three 2 MiB granules
}

TEST(DomainAllocator, PinUnmovableDestroysContiguity) {
  DomainAllocator a{0, 24 * GiB};
  sim::Rng rng{5};
  EXPECT_EQ(a.largest_free_extent(), 24 * GiB);
  const Bytes pinned = a.pin_unmovable(192 * MiB, 24, rng);
  EXPECT_GT(pinned, 0u);
  EXPECT_LT(a.largest_free_extent(), 24 * GiB);
  EXPECT_GT(a.free_extent_count(), 8u);
}

TEST(DomainAllocator, DoubleFreeAborts) {
  DomainAllocator a{0, 1 * GiB};
  auto e = a.alloc_contiguous(1 * MiB, 4 * KiB);
  ASSERT_TRUE(e.has_value());
  a.free(*e);
  EXPECT_DEATH(a.free(*e), "precondition");
}

// ------------------------------------------------------------ AddressSpace

TEST(AddressSpace, MapAssignsDisjointRanges) {
  AddressSpace as;
  Vma& a = as.map(1 * MiB, VmaKind::kAnon, MemPolicy::standard());
  Vma& b = as.map(2 * MiB, VmaKind::kAnon, MemPolicy::standard());
  EXPECT_GE(b.start, a.end());
  EXPECT_EQ(as.vma_count(), 2u);
  EXPECT_EQ(as.mapped_bytes(), 3 * MiB);
}

TEST(AddressSpace, LengthRoundsToPage) {
  AddressSpace as;
  Vma& v = as.map(100, VmaKind::kAnon, MemPolicy::standard());
  EXPECT_EQ(v.length, 4 * KiB);
}

TEST(AddressSpace, FindLocatesContainingVma) {
  AddressSpace as;
  Vma& v = as.map(1 * MiB, VmaKind::kHeap, MemPolicy::standard());
  EXPECT_EQ(as.find(v.start), &v);
  EXPECT_EQ(as.find(v.start + v.length / 2), &v);
  EXPECT_EQ(as.find(v.end()), nullptr);
  EXPECT_EQ(as.find(v.start - 1), nullptr);
}

TEST(AddressSpace, UnmapReturnsVmaWithExtents) {
  AddressSpace as;
  Vma& v = as.map(1 * MiB, VmaKind::kAnon, MemPolicy::standard());
  v.extents.push_back(Extent{0, 0, 1 * MiB});
  v.placement.add(0, PageSize::k4K, 1 * MiB);
  auto out = as.unmap(v.start);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->extents.size(), 1u);
  EXPECT_EQ(as.vma_count(), 0u);
  EXPECT_FALSE(as.unmap(0x1234).has_value());
}

TEST(Placement, FractionAccounting) {
  const hw::NodeTopology& topo = hw::knl_snc4_flat();
  Placement p;
  p.add(4, PageSize::k2M, 12 * MiB);  // MCDRAM
  p.add(0, PageSize::k4K, 4 * MiB);   // DDR4
  EXPECT_EQ(p.total(), 16 * MiB);
  EXPECT_DOUBLE_EQ(p.fraction_in_kind(topo, hw::MemKind::kMcdram), 0.75);
  EXPECT_EQ(p.bytes_with_page(PageSize::k4K), 4 * MiB);
  // Same (domain, page) chunks merge.
  p.add(4, PageSize::k2M, 2 * MiB);
  EXPECT_EQ(p.chunk_count(), 2u);
}

TEST(Placement, OwnsNoHeapMemory) {
  // Inline storage only: copying one is a memcpy, and a Vma carries it by value.
  static_assert(std::is_trivially_copyable_v<Placement>);
  static_assert(sizeof(Placement) <= 256);
  Placement p;
  p.add(hw::kMaxDomains - 1, PageSize::k1G, 1 * GiB);
  p.clear();
  EXPECT_EQ(p.total(), 0u);
  EXPECT_EQ(p.chunk_count(), 0u);
}

/// The vector-backed placement the inline one replaced: chunks in first-add
/// order, equal (domain, page) pairs merged, every aggregate a chunk scan.
class ReferencePlacement {
 public:
  void add(hw::DomainId domain, PageSize page, Bytes bytes) {
    if (bytes == 0) return;
    for (Placement::Chunk& c : chunks_) {
      if (c.domain == domain && c.page == page) {
        c.bytes += bytes;
        return;
      }
    }
    chunks_.push_back(Placement::Chunk{domain, page, bytes});
  }
  void clear() { chunks_.clear(); }
  [[nodiscard]] Bytes total() const {
    Bytes b = 0;
    for (const auto& c : chunks_) b += c.bytes;
    return b;
  }
  [[nodiscard]] Bytes bytes_with_page(PageSize p) const {
    Bytes b = 0;
    for (const auto& c : chunks_) b += c.page == p ? c.bytes : 0;
    return b;
  }
  [[nodiscard]] Bytes bytes_in_kind(const hw::NodeTopology& topo, hw::MemKind kind) const {
    Bytes b = 0;
    for (const auto& c : chunks_) b += topo.domain(c.domain).kind == kind ? c.bytes : 0;
    return b;
  }
  [[nodiscard]] const std::vector<Placement::Chunk>& chunks() const { return chunks_; }

 private:
  std::vector<Placement::Chunk> chunks_;
};

TEST(Placement, RandomSequencesMatchTheReferenceModel) {
  const hw::NodeTopology& topo = hw::knl_snc4_flat();
  constexpr PageSize kPages[] = {PageSize::k4K, PageSize::k2M, PageSize::k1G};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sim::Rng rng{seed};
    Placement got;
    ReferencePlacement want;
    for (int step = 0; step < 200; ++step) {
      if (rng.uniform_index(25) == 0) {
        got.clear();
        want.clear();
      } else {
        const auto domain = static_cast<hw::DomainId>(rng.uniform_index(hw::kMaxDomains));
        const PageSize page = kPages[rng.uniform_index(3)];
        // Zero-byte adds, single pages and multi-GiB runs.
        const Bytes bytes = rng.uniform_index(8) == 0
                                ? 0
                                : (rng.uniform_index(1 << 20) + 1) * page_bytes(page) / 8;
        got.add(domain, page, bytes);
        want.add(domain, page, bytes);
      }
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " + std::to_string(step));
      ASSERT_EQ(got.total(), want.total());
      for (const PageSize p : kPages) ASSERT_EQ(got.bytes_with_page(p), want.bytes_with_page(p));
      for (const hw::MemKind k : {hw::MemKind::kMcdram, hw::MemKind::kDdr4}) {
        ASSERT_EQ(got.bytes_in_kind(topo, k), want.bytes_in_kind(topo, k));
      }
      ASSERT_EQ(got.chunk_count(), want.chunks().size());
      std::size_t i = 0;
      got.for_each_chunk([&](const Placement::Chunk& c) {
        ASSERT_LT(i, want.chunks().size());
        const Placement::Chunk& w = want.chunks()[i++];
        EXPECT_EQ(c.domain, w.domain);
        EXPECT_EQ(c.page, w.page);
        EXPECT_EQ(c.bytes, w.bytes);
      });
      ASSERT_FALSE(HasFailure());
    }
  }
}

TEST(Placement, QuadrantFlatReadsOnlyItsTwoDomains) {
  const hw::NodeTopology& topo = hw::knl_quadrant_flat();
  Placement p;
  p.add(0, PageSize::k2M, 6 * MiB);  // DDR4
  p.add(1, PageSize::k4K, 2 * MiB);  // MCDRAM
  EXPECT_EQ(p.bytes_in_kind(topo, hw::MemKind::kDdr4), 6 * MiB);
  EXPECT_EQ(p.bytes_in_kind(topo, hw::MemKind::kMcdram), 2 * MiB);
  EXPECT_DOUBLE_EQ(p.fraction_in_kind(topo, hw::MemKind::kMcdram), 0.25);
}

// --------------------------------------------------------------- placement

class PlacementTest : public ::testing::Test {
 protected:
  hw::NodeTopology topo_ = hw::knl_snc4_flat();
  PhysMemory phys_{topo_};
  MemCostModel cost_;
};

TEST_F(PlacementTest, LwkOrderIsMcdramFirstThenDdr) {
  const auto order = lwk_domain_order(topo_, 1, true);
  ASSERT_EQ(order.size(), 8u);
  EXPECT_EQ(order[0], 5);  // local quadrant MCDRAM
  EXPECT_EQ(topo_.domain(order[1]).kind, hw::MemKind::kMcdram);
  EXPECT_EQ(order[4], 1);  // then local DDR
}

TEST_F(PlacementTest, LwkPlacesUpfrontWithLargePages) {
  PlaceRequest req;
  req.bytes = 64 * MiB;
  req.home_quadrant = 0;
  const PlaceResult r = place_lwk(phys_, topo_, cost_, req);
  EXPECT_EQ(r.err, 0);
  EXPECT_EQ(r.backed, 64 * MiB);
  EXPECT_EQ(r.deferred, 0u);
  EXPECT_EQ(r.placement.bytes_with_page(PageSize::k4K), 0u);
  EXPECT_DOUBLE_EQ(r.placement.fraction_in_kind(topo_, hw::MemKind::kMcdram), 1.0);
  EXPECT_GT(r.map_cost.ns(), 0);
}

TEST_F(PlacementTest, LwkUsesGigabytePagesWhenPossible) {
  PlaceRequest req;
  req.bytes = 2 * GiB;
  req.home_quadrant = 0;
  const PlaceResult r = place_lwk(phys_, topo_, cost_, req);
  EXPECT_GT(r.placement.bytes_with_page(PageSize::k1G), 0u);
}

TEST_F(PlacementTest, LwkSpillsToDdrWhenMcdramExhausted) {
  PlaceRequest req;
  req.bytes = 20 * GiB;  // > 16 GiB of MCDRAM
  req.home_quadrant = 0;
  const PlaceResult r = place_lwk(phys_, topo_, cost_, req);
  EXPECT_EQ(r.backed, 20 * GiB);
  const Bytes in_hbm = r.placement.bytes_in_kind(topo_, hw::MemKind::kMcdram);
  EXPECT_GT(in_hbm, 15 * GiB);  // essentially all MCDRAM used...
  EXPECT_GT(r.placement.bytes_in_kind(topo_, hw::MemKind::kDdr4), 3 * GiB);
}

TEST_F(PlacementTest, McdramQuotaCapsHbmUse) {
  PlaceRequest req;
  req.bytes = 8 * GiB;
  req.home_quadrant = 0;
  req.mcdram_quota = 1 * GiB;
  const PlaceResult r = place_lwk(phys_, topo_, cost_, req);
  EXPECT_EQ(r.backed, 8 * GiB);
  EXPECT_LE(r.placement.bytes_in_kind(topo_, hw::MemKind::kMcdram), 1 * GiB);
  EXPECT_EQ(r.mcdram_taken, r.placement.bytes_in_kind(topo_, hw::MemKind::kMcdram));
}

TEST_F(PlacementTest, RigidFailsWithEnomemOnExhaustion) {
  PlaceRequest req;
  req.bytes = 200 * GiB;  // more than the node has
  req.home_quadrant = 0;
  req.rigid = true;
  const PlaceResult r = place_lwk(phys_, topo_, cost_, req);
  EXPECT_EQ(r.err, 12);  // ENOMEM
}

TEST_F(PlacementTest, DemandFallbackDefersInsteadOfFailing) {
  PlaceRequest req;
  req.bytes = 200 * GiB;
  req.home_quadrant = 0;
  req.demand_fallback = true;
  const PlaceResult r = place_lwk(phys_, topo_, cost_, req);
  EXPECT_EQ(r.err, 0);
  EXPECT_TRUE(r.used_demand_fallback);
  EXPECT_GT(r.deferred, 0u);
}

TEST_F(PlacementTest, LinuxMapDefersEverything) {
  AddressSpace as;
  Vma& vma = as.map(64 * MiB, VmaKind::kAnon, MemPolicy::standard());
  PlaceRequest req;
  req.bytes = 64 * MiB;
  req.home_quadrant = 0;
  const PlaceResult r = place_linux(topo_, cost_, req, vma, true);
  EXPECT_EQ(r.backed, 0u);
  EXPECT_EQ(r.deferred, 64 * MiB);
  EXPECT_TRUE(vma.demand_paged);
  EXPECT_EQ(vma.touch_page, PageSize::k2M);  // THP for large anon
}

TEST_F(PlacementTest, LinuxSmallOrShmMapsGet4k) {
  AddressSpace as;
  Vma& small = as.map(1 * MiB, VmaKind::kAnon, MemPolicy::standard());
  PlaceRequest req;
  req.bytes = 1 * MiB;
  (void)place_linux(topo_, cost_, req, small, true);
  EXPECT_EQ(small.touch_page, PageSize::k4K);

  Vma& shm = as.map(64 * MiB, VmaKind::kShm, MemPolicy::standard());
  req.bytes = 64 * MiB;
  (void)place_linux(topo_, cost_, req, shm, true);
  EXPECT_EQ(shm.touch_page, PageSize::k4K);
}

TEST_F(PlacementTest, TouchDefaultPolicyLandsInDdrNotMcdram) {
  AddressSpace as;
  Vma& vma = as.map(64 * MiB, VmaKind::kAnon, MemPolicy::standard());
  PlaceRequest req;
  req.bytes = 64 * MiB;
  req.home_quadrant = 2;
  (void)place_linux(topo_, cost_, req, vma, true);
  const TouchResult t = touch(phys_, topo_, cost_, vma, 64 * MiB, 2, 1);
  EXPECT_EQ(t.newly_backed, 64 * MiB);
  EXPECT_GT(t.faults, 0u);
  // Linux first-touch walks DDR first in SNC-4 — the paper's CCS-QCD story.
  EXPECT_DOUBLE_EQ(vma.placement.fraction_in_kind(topo_, hw::MemKind::kMcdram), 0.0);
}

TEST_F(PlacementTest, TouchBindPolicyStaysInMcdram) {
  AddressSpace as;
  const auto hbm = topo_.domains_of_kind(hw::MemKind::kMcdram);
  Vma& vma = as.map(64 * MiB, VmaKind::kAnon, MemPolicy::bind(hbm));
  PlaceRequest req;
  req.bytes = 64 * MiB;
  (void)place_linux(topo_, cost_, req, vma, true);
  const TouchResult t = touch(phys_, topo_, cost_, vma, 64 * MiB, 0, 1);
  EXPECT_EQ(t.newly_backed, 64 * MiB);
  EXPECT_DOUBLE_EQ(vma.placement.fraction_in_kind(topo_, hw::MemKind::kMcdram), 1.0);
}

TEST_F(PlacementTest, TouchLwkOrderFillsMcdramFirst) {
  AddressSpace as;
  Vma& vma = as.map(64 * MiB, VmaKind::kAnon, MemPolicy::standard());
  vma.demand_paged = true;
  vma.touch_page = PageSize::k2M;
  vma.touch_lwk_order = true;
  const TouchResult t = touch(phys_, topo_, cost_, vma, 64 * MiB, 0, 1);
  EXPECT_EQ(t.newly_backed, 64 * MiB);
  EXPECT_DOUBLE_EQ(vma.placement.fraction_in_kind(topo_, hw::MemKind::kMcdram), 1.0);
}

TEST_F(PlacementTest, ContentionMultipliesFaultCost) {
  AddressSpace as;
  Vma& a = as.map(16 * MiB, VmaKind::kAnon, MemPolicy::standard());
  Vma& b = as.map(16 * MiB, VmaKind::kAnon, MemPolicy::standard());
  PlaceRequest req;
  req.bytes = 16 * MiB;
  (void)place_linux(topo_, cost_, req, a, false);  // force 4K
  (void)place_linux(topo_, cost_, req, b, false);
  const TouchResult alone = touch(phys_, topo_, cost_, a, 16 * MiB, 0, 1);
  const TouchResult crowded = touch(phys_, topo_, cost_, b, 16 * MiB, 0, 64);
  EXPECT_GT(crowded.cost.ns(), alone.cost.ns());
}

}  // namespace
