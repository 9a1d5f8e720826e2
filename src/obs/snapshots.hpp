#pragma once
// Subsystem snapshots into a RunLedger.
//
// Each helper reads one subsystem's statistics and records them under the
// ledger naming convention (`<subsystem>.<metric>`). Helpers are pure
// readers: they never mutate the snapshotted object, and every value they
// record is deterministic (a function of the simulation inputs), so the
// results respect the ledger's determinism contract. Counters accumulate
// across calls — snapshotting the same kernel twice doubles its counts —
// so call each helper exactly once per scope being recorded.

#include "obs/ledger.hpp"

namespace mkos::mem {
struct HeapStats;
}  // namespace mkos::mem

namespace mkos::kernel {
class Kernel;
}  // namespace mkos::kernel

namespace mkos::runtime {
class MpiWorld;
class Job;
}  // namespace mkos::runtime

namespace mkos::fault {
struct Counters;
}  // namespace mkos::fault

namespace mkos::alloc {
struct AllocCounters;
}  // namespace mkos::alloc

namespace mkos::obs {

/// heap.* counters: brk traffic, faults, zeroing work.
void record_heap(RunLedger& ledger, const mem::HeapStats& stats);

/// kernel.* counters (local/offloaded calls, IKC round trips) and the
/// noise model's per-source rates as gauges (kernel.noise.<label>.rate_hz).
void record_kernel(RunLedger& ledger, const kernel::Kernel& k);

/// runtime.* counters: collectives, stages, phase breakdown (ns), stalls.
void record_world(RunLedger& ledger, const runtime::MpiWorld& world);

/// Whole-job snapshot: kernel + every lane's heap and address space, in
/// lane order (positional, hence deterministic).
void record_job(RunLedger& ledger, runtime::Job& job);

/// fault.* counters: injected/recovered event tallies and the time the run
/// absorbed for faults, recovery and checkpoint cadence. Only called when a
/// resilience spec is enabled — fault-free ledgers carry no fault section.
void record_faults(RunLedger& ledger, const fault::Counters& c);

/// alloc.* counters: magazine/depot/slab traffic, vmem activity and refill
/// bytes of the kernel-allocator model. Only called when an AllocSpec is
/// enabled — model-free ledgers carry no alloc section.
void record_alloc(RunLedger& ledger, const alloc::AllocCounters& c);

}  // namespace mkos::obs
