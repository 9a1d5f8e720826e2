// Reference-model property tests for the allocator model (DESIGN.md §17.1).
//
// VmemArena runs against ArenaModel, its per-call semantics restated on a
// std::map interval set with first-fit and four LIFO quantum-cache stacks.
// Seeded sim::Rng sequences of alloc, free, alloc_run and free_run drive the
// arena under test, the model, and a twin arena that runs every batch call
// as the plain per-call loop. After every step the returned offsets, ok
// flags and costs, the stats, the segment count and the span accounting
// must agree. The test also keeps its own map of held blocks, so overlap
// and quantum-cache hits are checked independently of both allocators.
//
// SlabCache keeps its live slabs as runs. SlabHarness drives it next to a
// per-slab reference (one offset and one alloc or free call per slab) on a
// twin arena, through random churn/drain/reclaim sequences under magazine
// hysteresis and through named run edge cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "alloc/slab.hpp"
#include "alloc/vmem.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/units.hpp"

namespace {

using namespace mkos;
using sim::Bytes;
using sim::KiB;
using sim::MiB;

constexpr sim::TimeNs kSegmentOp{50};
constexpr sim::TimeNs kImportCost{400};
constexpr Bytes kClasses = alloc::VmemArena::kQuantumCacheClasses;

// ------------------------------------------------------------ import sources

/// A backing source for an arena. It is copyable, so the arena under test,
/// the model and the twin each hold an identical copy: equal asks get equal
/// grants.
struct Source {
  enum class Kind { kFull, kShort, kDry };
  Kind kind = Kind::kFull;
  Bytes quantum = 4 * KiB;
  Bytes budget = 0;  ///< a quantum multiple; the source runs dry after it
  sim::Rng rng{1};

  Bytes operator()(Bytes ask) {
    Bytes give = ask;
    if (kind == Kind::kDry) {
      give = 0;
    } else if (kind == Kind::kShort && rng.uniform_index(2) == 0) {
      // Below the ask, and sometimes below what the arena wanted.
      give = quantum * rng.uniform_index(ask / quantum);
    }
    give = std::min(give, budget);
    budget -= give;
    return give;
  }
};

// ------------------------------------------------------------- the model

/// VmemArena's per-call semantics over a std::map interval set.
class ArenaModel {
 public:
  ArenaModel(Bytes quantum, Bytes import_quantum, Source source)
      : quantum_(quantum),
        import_quantum_(import_quantum),
        source_(std::move(source)) {}

  alloc::VmemAlloc alloc(Bytes bytes) {
    const Bytes size = sim::align_up(bytes, quantum_);
    const Bytes quanta = size / quantum_;
    alloc::VmemAlloc out;
    if (quanta <= kClasses && !stacks_[quanta - 1].empty()) {
      out = {true, stacks_[quanta - 1].back(), kSegmentOp};
      stacks_[quanta - 1].pop_back();
      ++stats_.allocs;
      ++stats_.qcache_hits;
      return out;
    }
    auto fit = first_fit(size);
    if (fit == segments_.end()) {
      out.cost = kImportCost;
      if (!import(size)) {
        ++stats_.import_fails;
        return out;
      }
      fit = first_fit(size);
    }
    const auto [offset, length] = *fit;
    segments_.erase(fit);
    if (length > size) segments_.emplace(offset + size, length - size);
    ++stats_.allocs;
    return {true, offset, out.cost + kSegmentOp};
  }

  sim::TimeNs free(Bytes offset, Bytes bytes) {
    const Bytes size = sim::align_up(bytes, quantum_);
    const Bytes quanta = size / quantum_;
    ++stats_.frees;
    if (quanta <= kClasses) {
      stacks_[quanta - 1].push_back(offset);
    } else {
      insert_free(offset, size);
    }
    return kSegmentOp;
  }

  [[nodiscard]] Bytes quantum() const { return quantum_; }
  [[nodiscard]] Bytes span_bytes() const { return span_; }
  [[nodiscard]] const alloc::VmemStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t free_segment_count() const {
    return segments_.size();
  }
  [[nodiscard]] Bytes free_bytes() const {
    Bytes sum = 0;
    for (const auto& [offset, length] : segments_) sum += length;
    return sum;
  }
  [[nodiscard]] Bytes cached_bytes() const {
    Bytes sum = 0;
    for (Bytes k = 0; k < kClasses; ++k) {
      sum += (k + 1) * quantum_ * stacks_[k].size();
    }
    return sum;
  }
  /// No two free segments touch: the list is fully coalesced.
  [[nodiscard]] bool coalesced() const {
    if (segments_.empty()) return true;
    for (auto it = segments_.begin(); std::next(it) != segments_.end(); ++it) {
      if (it->first + it->second >= std::next(it)->first) return false;
    }
    return true;
  }

 private:
  std::map<Bytes, Bytes>::iterator first_fit(Bytes size) {
    return std::find_if(segments_.begin(), segments_.end(),
                        [size](const auto& s) { return s.second >= size; });
  }

  bool import(Bytes want) {
    const Bytes ask =
        sim::align_up(std::max(want, import_quantum_), import_quantum_);
    const Bytes granted = source_(ask);
    if (granted < want) return false;
    ++stats_.imports;
    stats_.import_bytes += granted;
    insert_free(span_, granted);
    span_ += granted;
    return true;
  }

  void insert_free(Bytes offset, Bytes length) {
    auto next = segments_.lower_bound(offset);
    if (next != segments_.begin()) {
      auto prev = std::prev(next);
      if (prev->first + prev->second == offset) {
        offset = prev->first;
        length += prev->second;
        segments_.erase(prev);
      }
    }
    if (next != segments_.end() && offset + length == next->first) {
      length += next->second;
      segments_.erase(next);
    }
    segments_.emplace(offset, length);
  }

  Bytes quantum_;
  Bytes import_quantum_;
  Source source_;
  Bytes span_ = 0;
  std::map<Bytes, Bytes> segments_;  ///< offset -> length
  std::vector<Bytes> stacks_[kClasses];
  alloc::VmemStats stats_;
};

// ----------------------------------------------- the loops the batches equal

struct LoopAlloc {
  bool ok = true;
  std::vector<Bytes> offsets;
  sim::TimeNs cost{0};
};

/// What alloc_run must equal: `count` allocs, stopping at the first failure,
/// whose cost still counts.
template <class Arena>
LoopAlloc alloc_loop(Arena& arena, Bytes bytes, std::uint64_t count) {
  LoopAlloc out;
  for (std::uint64_t i = 0; i < count; ++i) {
    const alloc::VmemAlloc a = arena.alloc(bytes);
    out.cost += a.cost;
    if (!a.ok) {
      out.ok = false;
      break;
    }
    out.offsets.push_back(a.offset);
  }
  return out;
}

/// What free_run must equal: the highest block first, the order in which
/// SlabCache::reclaim pops slabs.
template <class Arena>
sim::TimeNs free_loop(Arena& arena, Bytes offset, Bytes bytes,
                      std::uint64_t count) {
  const Bytes size = sim::align_up(bytes, arena.quantum());
  sim::TimeNs cost{0};
  for (std::uint64_t i = count; i-- > 0;) {
    cost += arena.free(offset + i * size, bytes);
  }
  return cost;
}

bool operator==(const alloc::VmemStats& a, const alloc::VmemStats& b) {
  return a.allocs == b.allocs && a.frees == b.frees &&
         a.qcache_hits == b.qcache_hits && a.imports == b.imports &&
         a.import_fails == b.import_fails && a.import_bytes == b.import_bytes;
}

// ------------------------------------------------------------ the harness

struct ArenaCase {
  Bytes quantum;
  Bytes import_quantum;
  Source::Kind kind;
  Bytes budget_quanta;
};

std::string describe(const ArenaCase& c) {
  const char* kind = c.kind == Source::Kind::kFull    ? "Full"
                     : c.kind == Source::Kind::kShort ? "Short"
                                                      : "Dry";
  return std::string(kind) + "Q" + std::to_string(c.quantum / KiB) + "K" +
         "Import" + std::to_string(c.import_quantum / KiB) + "K" + "Budget" +
         std::to_string(c.budget_quanta);
}

std::string case_name(const ::testing::TestParamInfo<ArenaCase>& info) {
  return describe(info.param);
}

void PrintTo(const ArenaCase& c, std::ostream* os) { *os << describe(c); }

/// One seeded sequence over the arena under test, the model and the twin.
class ArenaHarness {
 public:
  ArenaHarness(const ArenaCase& c, std::uint64_t seed)
      : rng_(seed),
        quantum_(c.quantum),
        source_{c.kind, c.quantum, c.budget_quanta * c.quantum,
                sim::Rng(seed ^ 0x5eedULL)},
        real_("real", c.quantum, c.import_quantum, source_, kSegmentOp,
              kImportCost),
        twin_("twin", c.quantum, c.import_quantum, source_, kSegmentOp,
              kImportCost),
        model_(c.quantum, c.import_quantum, source_) {}

  /// One random operation; returns a description of it for failure output.
  std::string step() {
    const bool can_free = !pieces_.empty();
    const std::uint64_t op = rng_.uniform_index(can_free ? 4 : 2);
    if (op < 2) {
      const Bytes bytes = draw_bytes();
      const std::uint64_t count = 1 + rng_.uniform_index(12);
      if (op == 0) {
        do_alloc(bytes);
        return "alloc(" + std::to_string(bytes) + ")";
      }
      do_alloc_run(bytes, count);
      return "alloc_run(" + std::to_string(bytes) + ", " +
             std::to_string(count) + ")";
    }
    // Free a contiguous slice [first, first + n) of a held piece.
    const std::size_t p = rng_.uniform_index(pieces_.size());
    const Piece piece = pieces_[p];
    const std::uint64_t first = rng_.uniform_index(piece.count);
    const std::uint64_t n =
        op == 2 ? 1 : 1 + rng_.uniform_index(piece.count - first);
    pieces_[p] = pieces_.back();
    pieces_.pop_back();
    if (first > 0) pieces_.push_back({piece.offset, piece.bytes, first});
    const Bytes size = sim::align_up(piece.bytes, quantum_);
    if (first + n < piece.count) {
      pieces_.push_back({piece.offset + (first + n) * size, piece.bytes,
                         piece.count - first - n});
    }
    const Bytes offset = piece.offset + first * size;
    if (op == 2) {
      do_free(offset, piece.bytes);
      return "free(" + std::to_string(offset) + ", " +
             std::to_string(piece.bytes) + ")";
    }
    do_free_run(offset, piece.bytes, n);
    return "free_run(" + std::to_string(offset) + ", " +
           std::to_string(piece.bytes) + ", " + std::to_string(n) + ")";
  }

  /// The invariants that hold after every step.
  void check_state() const {
    ASSERT_EQ(real_.span_bytes(), model_.span_bytes());
    ASSERT_EQ(real_.free_segment_count(), model_.free_segment_count());
    ASSERT_TRUE(real_.stats() == model_.stats());
    ASSERT_TRUE(model_.coalesced());
    ASSERT_EQ(live_bytes_ + model_.free_bytes() + model_.cached_bytes(),
              real_.span_bytes());
    ASSERT_EQ(cached_bytes_, model_.cached_bytes());
    ASSERT_EQ(twin_.span_bytes(), real_.span_bytes());
    ASSERT_EQ(twin_.free_segment_count(), real_.free_segment_count());
    ASSERT_TRUE(twin_.stats() == real_.stats());
  }

  [[nodiscard]] const alloc::VmemArena& real() const { return real_; }

 private:
  /// A contiguous slice of live blocks of one byte count.
  struct Piece {
    Bytes offset;
    Bytes bytes;
    std::uint64_t count;
  };
  struct Held {
    Bytes size;
    bool cached;  ///< freed into a quantum cache, not yet handed out again
  };

  Bytes draw_bytes() {
    // 1-20 quanta, with the cacheable classes drawn often; half the byte
    // counts are not quantum multiples.
    const Bytes quanta = rng_.uniform_index(3) == 0
                             ? 1 + rng_.uniform_index(kClasses)
                             : 1 + rng_.uniform_index(20);
    const Bytes trim = rng_.uniform_index(2) == 0
                           ? rng_.uniform_index(quantum_)
                           : 0;
    return quanta * quantum_ - trim;
  }

  void do_alloc(Bytes bytes) {
    const std::uint64_t hits = real_.stats().qcache_hits;
    const alloc::VmemAlloc got = real_.alloc(bytes);
    const alloc::VmemAlloc want = model_.alloc(bytes);
    const alloc::VmemAlloc twin = twin_.alloc(bytes);
    ASSERT_EQ(got.ok, want.ok);
    ASSERT_EQ(got.cost.ns(), want.cost.ns());
    ASSERT_EQ(twin.cost.ns(), want.cost.ns());
    if (!got.ok) return;
    ASSERT_EQ(got.offset, want.offset);
    ASSERT_EQ(twin.offset, want.offset);
    std::uint64_t new_hits = 0;
    take(got.offset, sim::align_up(bytes, quantum_), new_hits);
    ASSERT_EQ(real_.stats().qcache_hits - hits, new_hits);
    pieces_.push_back({got.offset, bytes, 1});
  }

  void do_alloc_run(Bytes bytes, std::uint64_t count) {
    const std::uint64_t hits = real_.stats().qcache_hits;
    const Bytes size = sim::align_up(bytes, quantum_);
    const LoopAlloc want = alloc_loop(model_, bytes, count);
    const LoopAlloc twin = alloc_loop(twin_, bytes, count);
    ASSERT_EQ(twin.ok, want.ok);
    ASSERT_EQ(twin.cost.ns(), want.cost.ns());
    ASSERT_EQ(twin.offsets, want.offsets);

    // Half the time the caller's list already ends in a run that the first
    // new block extends, so the append must grow that run.
    std::vector<alloc::VmemRun> runs;
    const bool seeded = !want.offsets.empty() && want.offsets[0] >= size &&
                        rng_.uniform_index(2) == 0;
    if (seeded) runs.push_back({want.offsets[0] - size, 1});
    const alloc::VmemRunAlloc got = real_.alloc_run(bytes, count, runs);
    ASSERT_EQ(got.ok, want.ok);
    ASSERT_EQ(got.cost.ns(), want.cost.ns());
    ASSERT_EQ(got.granted, want.offsets.size());

    // The runs spell out the model's offsets, and no run could have grown.
    std::vector<Bytes> offsets;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      ASSERT_GT(runs[r].count, 0u);
      if (r > 0) {
        ASSERT_NE(runs[r - 1].offset + runs[r - 1].count * size,
                  runs[r].offset);
      }
      for (std::uint64_t i = 0; i < runs[r].count; ++i) {
        offsets.push_back(runs[r].offset + i * size);
      }
    }
    if (seeded) offsets.erase(offsets.begin());
    ASSERT_EQ(offsets, want.offsets);

    std::uint64_t new_hits = 0;
    for (Bytes offset : offsets) {
      take(offset, size, new_hits);
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_EQ(real_.stats().qcache_hits - hits, new_hits);
    if (seeded) {
      runs.front().offset += size;
      --runs.front().count;
    }
    for (const alloc::VmemRun& run : runs) {
      if (run.count > 0) pieces_.push_back({run.offset, bytes, run.count});
    }
  }

  void do_free(Bytes offset, Bytes bytes) {
    const sim::TimeNs got = real_.free(offset, bytes);
    ASSERT_EQ(got.ns(), model_.free(offset, bytes).ns());
    ASSERT_EQ(got.ns(), twin_.free(offset, bytes).ns());
    give_back(offset, sim::align_up(bytes, quantum_));
  }

  void do_free_run(Bytes offset, Bytes bytes, std::uint64_t count) {
    const sim::TimeNs got = real_.free_run(offset, bytes, count);
    ASSERT_EQ(got.ns(), free_loop(model_, offset, bytes, count).ns());
    ASSERT_EQ(got.ns(), free_loop(twin_, offset, bytes, count).ns());
    const Bytes size = sim::align_up(bytes, quantum_);
    for (std::uint64_t i = 0; i < count; ++i) give_back(offset + i * size, size);
  }

  /// Records [offset, offset + size) as live. A block that sits in the
  /// test's map as quantum-cached must have the requested size; that is a
  /// cache hit. Any other block must overlap nothing held.
  void take(Bytes offset, Bytes size, std::uint64_t& hits) {
    ASSERT_LE(offset + size, real_.span_bytes());
    auto it = held_.find(offset);
    if (it != held_.end() && it->second.cached) {
      ASSERT_EQ(it->second.size, size) << "cache hit of the wrong size";
      it->second.cached = false;
      cached_bytes_ -= size;
      live_bytes_ += size;
      ++hits;
      return;
    }
    auto next = held_.lower_bound(offset);
    if (next != held_.end()) {
      ASSERT_LE(offset + size, next->first) << "overlaps a held block";
    }
    if (next != held_.begin()) {
      const auto prev = std::prev(next);
      ASSERT_LE(prev->first + prev->second.size, offset)
          << "overlaps a held block";
    }
    held_.emplace(offset, Held{size, false});
    live_bytes_ += size;
  }

  void give_back(Bytes offset, Bytes size) {
    auto it = held_.find(offset);
    ASSERT_TRUE(it != held_.end() && !it->second.cached);
    live_bytes_ -= size;
    if (size / quantum_ <= kClasses) {
      it->second.cached = true;
      cached_bytes_ += size;
    } else {
      held_.erase(it);
    }
  }

  sim::Rng rng_;
  Bytes quantum_;
  Source source_;
  alloc::VmemArena real_;
  alloc::VmemArena twin_;
  ArenaModel model_;
  std::vector<Piece> pieces_;
  std::map<Bytes, Held> held_;  ///< live and quantum-cached blocks
  Bytes live_bytes_ = 0;
  Bytes cached_bytes_ = 0;
};

class VmemArenaModel : public ::testing::TestWithParam<ArenaCase> {};

TEST_P(VmemArenaModel, RandomSequencesMatchTheReferenceModel) {
  constexpr std::uint64_t kSeeds = 200;
  constexpr int kSteps = 200;
  std::uint64_t imports = 0;
  std::uint64_t fails = 0;
  std::uint64_t hits = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ArenaHarness h(GetParam(), seed);
    for (int i = 0; i < kSteps; ++i) {
      const std::string op = h.step();
      if (!HasFatalFailure()) h.check_state();
      if (HasFatalFailure()) {
        FAIL() << "seed " << seed << ", step " << i << ": " << op;
      }
    }
    imports += h.real().stats().imports;
    fails += h.real().stats().import_fails;
    hits += h.real().stats().qcache_hits;
  }
  // Every case reaches exhaustion; all but the dry source also reach the
  // import path and the quantum caches.
  EXPECT_GT(fails, 0u);
  if (GetParam().kind == Source::Kind::kDry) {
    EXPECT_EQ(imports, 0u);
  } else {
    EXPECT_GT(imports, 0u);
    EXPECT_GT(hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sources, VmemArenaModel,
    ::testing::Values(
        ArenaCase{4 * KiB, 64 * KiB, Source::Kind::kFull, 1024},
        ArenaCase{4 * KiB, 64 * KiB, Source::Kind::kFull, 160},
        ArenaCase{4 * KiB, 2 * MiB, Source::Kind::kShort, 2048},
        ArenaCase{4 * KiB, 16 * KiB, Source::Kind::kShort, 200},
        ArenaCase{4 * KiB, 64 * KiB, Source::Kind::kDry, 1024},
        ArenaCase{2 * MiB, 64 * MiB, Source::Kind::kFull, 256},
        ArenaCase{2 * MiB, 4 * MiB, Source::Kind::kShort, 120}),
    case_name);

// -------------------------------------------------------------- SlabCache

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

/// The geometry of one cache: its arena and what it carves from it.
struct SlabCase {
  Bytes quantum;
  Bytes import_quantum;
  Bytes obj_bytes;
  Bytes slab_span;
};

/// A SlabCache on one arena, and the per-slab reference it must equal on a
/// twin arena with an identical source. Lock costs are zero, so a churn's
/// cost is exactly its arena cost and can be compared with the reference.
class SlabHarness {
 public:
  SlabHarness(const SlabCase& c, const Source& source,
              alloc::MagazinePolicy policy, int cpus)
      : slab_span_(c.slab_span),
        rounds_per_slab_(c.slab_span / c.obj_bytes),
        policy_(policy),
        cpus_(cpus),
        arena_("slabs", c.quantum, c.import_quantum, source, kSegmentOp,
               kImportCost),
        twin_("per-slab", c.quantum, c.import_quantum, source, kSegmentOp,
              kImportCost),
        cache_(&arena_, c.obj_bytes, c.slab_span, alloc::SlabCosts{}, policy,
               cpus) {}

  void churn(int cpu, std::uint64_t pairs) {
    // The slabs this burst builds follow from the cache's state alone.
    const std::uint64_t need =
        pairs - std::min(pairs, cache_.cached_rounds(cpu));
    const std::uint64_t constructed =
        need - std::min(need, cache_.depot_rounds());
    const std::uint64_t slabs = ceil_div(constructed, rounds_per_slab_);
    const sim::TimeNs got = cache_.churn(cpu, pairs, cpus_, 1.0, 1.0);
    sim::TimeNs want{0};
    for (std::uint64_t s = 0; s < slabs; ++s) {
      const alloc::VmemAlloc a = twin_.alloc(slab_span_);
      want += a.cost;
      if (!a.ok) break;
      offsets_.push_back(a.offset);
      ++creates_;
    }
    ASSERT_EQ(got.ns(), want.ns());
  }

  void drain(int cpu) { cache_.drain(cpu); }

  void reclaim(std::uint64_t target) {
    std::uint64_t freeable =
        std::min(cache_.depot_rounds(), target) / rounds_per_slab_;
    const alloc::SlabCache::ReclaimResult r = cache_.reclaim(target);
    std::uint64_t freed = 0;
    for (; freeable > 0 && !offsets_.empty(); --freeable) {
      (void)twin_.free(offsets_.back(), slab_span_);
      offsets_.pop_back();
      ++freed;
    }
    frees_ += freed;
    ASSERT_EQ(r.freed_slabs, freed);
    if (r.trimmed_rounds > 0) trimmed_ = true;
  }

  /// The cache matches the reference, and the magazine bounds hold.
  void check() const {
    const alloc::SlabCache::Stats& s = cache_.stats();
    ASSERT_EQ(s.slab_creates, creates_);
    ASSERT_EQ(s.slab_frees, frees_);
    ASSERT_LE(s.slab_frees, s.slab_creates);
    ASSERT_TRUE(arena_.stats() == twin_.stats());
    ASSERT_EQ(arena_.span_bytes(), twin_.span_bytes());
    ASSERT_EQ(arena_.free_segment_count(), twin_.free_segment_count());
    for (int cpu = 0; cpu < cpus_; ++cpu) {
      const int mag = cache_.magazine_rounds(cpu);
      ASSERT_GE(mag, policy_.min_rounds);
      ASSERT_LE(mag, policy_.max_rounds);
      ASSERT_LE(cache_.cached_rounds(cpu), 2 * static_cast<std::uint64_t>(mag));
    }
  }

  /// Rounds held per-CPU and in the depot against the rounds in live slabs.
  /// Every round the cache holds came out of a slab it built, and a reclaim
  /// trims at least the rounds of the slabs it frees. So the sum never
  /// exceeds the live slabs' rounds, and it equals them until the first
  /// reclaim. That holds only while the source grants every import: once it
  /// runs dry, churn still adds the rounds of slabs it could not build (the
  /// model keeps going on fumes), and the sum overtakes the live slabs.
  void check_rounds_conserved() const {
    std::uint64_t held = cache_.depot_rounds();
    for (int cpu = 0; cpu < cpus_; ++cpu) held += cache_.cached_rounds(cpu);
    const alloc::SlabCache::Stats& s = cache_.stats();
    const std::uint64_t in_slabs =
        (s.slab_creates - s.slab_frees) * rounds_per_slab_;
    if (trimmed_) {
      ASSERT_LE(held, in_slabs);
    } else {
      ASSERT_EQ(held, in_slabs);
    }
  }

  /// Allocates one mixed sequence from both arenas: equal free lists and
  /// equal quantum-cache stacks hand out equal blocks.
  void expect_same_free_space() {
    const Bytes q = arena_.quantum();
    for (Bytes bytes : {q, 2 * q, slab_span_, 3 * q, 25 * q, 16 * q, q,
                        slab_span_, 5 * q, 4 * q, slab_span_}) {
      const alloc::VmemAlloc a = arena_.alloc(bytes);
      const alloc::VmemAlloc b = twin_.alloc(bytes);
      ASSERT_EQ(a.ok, b.ok);
      ASSERT_EQ(a.offset, b.offset) << "alloc(" << bytes << ")";
      ASSERT_EQ(a.cost.ns(), b.cost.ns());
    }
  }

  /// Takes `bytes` out of both arenas at the next first-fit spot, so the
  /// next slab cannot extend the last run.
  void wedge(Bytes bytes) {
    const alloc::VmemAlloc a = arena_.alloc(bytes);
    const alloc::VmemAlloc b = twin_.alloc(bytes);
    ASSERT_TRUE(a.ok && b.ok);
    ASSERT_EQ(a.offset, b.offset);
  }

  [[nodiscard]] const alloc::SlabCache& cache() const { return cache_; }
  [[nodiscard]] const alloc::VmemArena& arena() const { return arena_; }
  [[nodiscard]] const std::vector<Bytes>& reference_offsets() const {
    return offsets_;
  }

 private:
  Bytes slab_span_;
  std::uint64_t rounds_per_slab_;
  alloc::MagazinePolicy policy_;
  int cpus_;
  alloc::VmemArena arena_;
  alloc::VmemArena twin_;
  alloc::SlabCache cache_;
  std::vector<Bytes> offsets_;  ///< the reference's live slabs, oldest first
  std::uint64_t creates_ = 0;
  std::uint64_t frees_ = 0;
  bool trimmed_ = false;  ///< a reclaim has trimmed rounds
};

Source full_source(Bytes quantum) {
  return Source{Source::Kind::kFull, quantum, ~Bytes{0} / 2, sim::Rng(7)};
}

Source source_with_budget(Bytes quantum, Bytes budget) {
  return Source{Source::Kind::kFull, quantum, budget, sim::Rng(7)};
}

constexpr SlabCase kLinuxSlabs{4 * KiB, 2 * MiB, 4 * KiB, 64 * KiB};
constexpr SlabCase kLwkSlabs{2 * MiB, 64 * MiB, 4 * KiB, 2 * MiB};

/// Random churn/drain/reclaim sequences over four CPUs, with a small
/// magazine range so the grow/shrink hysteresis fires often.
void run_random_sequences(const SlabCase& c, bool source_runs_dry) {
  alloc::MagazinePolicy policy;
  policy.min_rounds = 2;
  policy.max_rounds = 32;
  policy.grow_trip_threshold = 2;
  policy.shrink_quiet_bursts = 3;
  constexpr int kCpus = 4;
  alloc::SlabCache::Stats totals;
  std::uint64_t import_fails = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sim::Rng rng(seed);
    const Source source =
        source_runs_dry
            ? source_with_budget(c.quantum,
                                 (2 + rng.uniform_index(40)) * c.slab_span)
            : full_source(c.quantum);
    SlabHarness h(c, source, policy, kCpus);
    for (int step = 0; step < 300; ++step) {
      const int cpu = static_cast<int>(rng.uniform_index(kCpus));
      const std::uint64_t op = rng.uniform_index(10);
      std::string what;
      if (op < 7) {
        const std::uint64_t pairs = rng.uniform_index(2) == 0
                                        ? 1 + rng.uniform_index(40)
                                        : 1 + rng.uniform_index(3000);
        what = "churn(" + std::to_string(cpu) + ", " +
               std::to_string(pairs) + ")";
        h.churn(cpu, pairs);
      } else if (op < 8) {
        what = "drain(" + std::to_string(cpu) + ")";
        h.drain(cpu);
      } else {
        const std::uint64_t target =
            rng.uniform_index(h.cache().depot_rounds() + 100);
        what = "reclaim(" + std::to_string(target) + ")";
        h.reclaim(target);
      }
      if (!::testing::Test::HasFatalFailure()) h.check();
      if (!::testing::Test::HasFatalFailure() && !source_runs_dry) {
        h.check_rounds_conserved();
      }
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "seed " << seed << ", step " << step << ": " << what;
      }
    }
    h.expect_same_free_space();
    if (::testing::Test::HasFatalFailure()) FAIL() << "seed " << seed;
    const alloc::SlabCache::Stats& s = h.cache().stats();
    totals.resizes_up += s.resizes_up;
    totals.resizes_down += s.resizes_down;
    totals.slab_frees += s.slab_frees;
    import_fails += h.arena().stats().import_fails;
  }
  // The sequences reach growth, shrinking and reclaim; only a source that
  // runs dry fails imports.
  EXPECT_GT(totals.resizes_up, 0u);
  EXPECT_GT(totals.resizes_down, 0u);
  EXPECT_GT(totals.slab_frees, 0u);
  EXPECT_EQ(import_fails > 0, source_runs_dry);
}

TEST(SlabCacheModel, LinuxSlabsNeverDrySource) {
  run_random_sequences(kLinuxSlabs, false);
}

TEST(SlabCacheModel, LinuxSlabsSourceRunsDry) {
  run_random_sequences(kLinuxSlabs, true);
}

TEST(SlabCacheModel, LwkSlabsNeverDrySource) {
  run_random_sequences(kLwkSlabs, false);
}

TEST(SlabCacheModel, LwkSlabsSourceRunsDry) {
  run_random_sequences(kLwkSlabs, true);
}

// Named run edge cases, each against the per-slab reference.

TEST(SlabRuns, UnalignedSlabSpanStepsByTheRoundedSize) {
  // A 100,000 B object gets a 100,000 B slab (NodeAllocModel uses
  // max(64 KiB, obj_bytes)); on a 4 KiB quantum each slab takes 102,400 B.
  const SlabCase c{4 * KiB, 2 * MiB, 100000, 100000};
  SlabHarness h(c, full_source(c.quantum), alloc::MagazinePolicy{}, 2);
  h.churn(0, 40);
  ASSERT_NO_FATAL_FAILURE(h.check());
  const std::vector<Bytes>& offsets = h.reference_offsets();
  ASSERT_GE(offsets.size(), 2u);
  EXPECT_EQ(offsets[1] - offsets[0], 102400u);
  h.reclaim(h.cache().depot_rounds() - 3);  // frees the run's tail
  ASSERT_NO_FATAL_FAILURE(h.check());
  EXPECT_GT(h.cache().stats().slab_frees, 0u);
  h.churn(1, 60);  // rebuilds into the freed tail
  ASSERT_NO_FATAL_FAILURE(h.check());
  h.expect_same_free_space();
}

TEST(SlabRuns, SourceRunningDryMidRunStopsShortAndKeepsTheCost) {
  // Five 64 KiB imports, then nothing: a burst wanting eight slabs builds
  // five and pays for the sixth's failed import.
  const SlabCase c{4 * KiB, 64 * KiB, 4 * KiB, 64 * KiB};
  SlabHarness h(c, source_with_budget(c.quantum, 5 * 64 * KiB),
                alloc::MagazinePolicy{}, 1);
  h.churn(0, 8 * 16);
  ASSERT_NO_FATAL_FAILURE(h.check());
  EXPECT_EQ(h.cache().stats().slab_creates, 5u);
  EXPECT_EQ(h.arena().stats().import_fails, 1u);
  h.reclaim(h.cache().depot_rounds());
  ASSERT_NO_FATAL_FAILURE(h.check());
  h.expect_same_free_space();
}

TEST(SlabRuns, ReclaimFreesAcrossTwoRuns) {
  const SlabCase c = kLinuxSlabs;
  SlabHarness h(c, full_source(c.quantum), alloc::MagazinePolicy{}, 1);
  h.churn(0, 4 * 16);  // run 1: four slabs
  h.drain(0);
  h.reclaim(0);
  ASSERT_NO_FATAL_FAILURE(h.wedge(c.slab_span));  // breaks the run
  h.churn(0, h.cache().depot_rounds() + 3 * 16);  // run 2: three slabs
  ASSERT_NO_FATAL_FAILURE(h.check());
  ASSERT_EQ(h.cache().stats().slab_creates, 7u);
  const std::vector<Bytes>& offsets = h.reference_offsets();
  ASSERT_NE(offsets[3] + c.slab_span, offsets[4]);  // two runs
  h.drain(0);
  h.reclaim(5 * 16);  // all of run 2 and two slabs of run 1
  ASSERT_NO_FATAL_FAILURE(h.check());
  EXPECT_EQ(h.cache().stats().slab_frees, 5u);
  h.expect_same_free_space();
}

TEST(SlabRuns, ReclaimOfQuantumCachedSlabsKeepsTheStackOrder) {
  // LWK-sized slabs (2 MiB on a 2 MiB quantum) are quantum-cache sized, so
  // both calls take the per-call path, and the order of the frees decides
  // which slab the next burst gets back.
  const SlabCase c = kLwkSlabs;
  SlabHarness h(c, full_source(c.quantum), alloc::MagazinePolicy{}, 1);
  h.churn(0, 6 * 512);
  h.drain(0);
  h.reclaim(4 * 512);
  ASSERT_NO_FATAL_FAILURE(h.check());
  EXPECT_EQ(h.cache().stats().slab_frees, 4u);
  h.churn(0, h.cache().depot_rounds() + 3 * 512);
  ASSERT_NO_FATAL_FAILURE(h.check());
  EXPECT_EQ(h.arena().stats().qcache_hits, 3u);
  h.expect_same_free_space();
}

}  // namespace
