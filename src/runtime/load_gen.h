// Open-loop load generation: a deterministic arrival process decoupled from
// completions, the measurement shape closed-loop clients structurally cannot
// produce (a closed-loop client waits for its previous txn, so offered load
// self-throttles to capacity and the latency cliff near saturation never
// appears).
//
// Determinism contract: the arrival schedule is a pure function of
// (RuntimeOptions::faults.seed, txn id) — the same idiom as TxnTraceSampled
// and the fault injector — so the set of transactions offered, and at
// sub-saturation loads the set executed, is identical at any executor-thread
// count and on any transport backend. What is timing-dependent by design is
// *shedding*: an arrival that finds the bounded admission queue full is
// dropped (counted in RuntimeMetrics::shed, never executed). The invariant
// that always holds is
//
//   submitted == committed + failed + shed
//
// and whenever shed == 0 (target below capacity, or an unbounded admission
// queue) the committed set — and thus ReplayReport::OutcomeSignature() — is
// bit-identical to the closed-loop replay of the same trace.
//
// Sojourn accounting: every executed txn's latency is split at the admission
// dequeue point into queue_wait (scheduled arrival -> dequeue) and service
// (dequeue -> completion); sojourn is their sum, measured from the
// *scheduled* arrival so admission backlog is charged to the system, not
// hidden. Sampled txns additionally emit "openloop/queue_wait" and
// "openloop/service" spans for tools/trace_stats.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/executor.h"
#include "runtime/metrics.h"

namespace jecb {

/// Uniform (0,1) draw for arrival i: pure hash of (seed, txn id), same
/// construction as TxnTraceSampled with a distinct domain tag. Exposed for
/// the schedule-determinism tests.
double ArrivalUniform(uint64_t seed, uint64_t txn_id);

/// Arrival offsets in microseconds from the replay epoch for `count` txns
/// at options.target_tps. Fixed-rate: arrival i at exactly i/target_tps.
/// Poisson: exponential inter-arrivals from ArrivalUniform, prefix-summed
/// in submission order. Empty when target_tps <= 0 (closed loop).
std::vector<uint64_t> ComputeArrivalScheduleUs(const RuntimeOptions& options,
                                               size_t count);

struct OpenLoopResult {
  uint64_t submitted = 0;  ///< arrivals offered (== trace size)
  uint64_t admitted = 0;   ///< arrivals that entered the admission queue
  uint64_t shed = 0;       ///< arrivals dropped at a full admission queue
  /// Completion time of the last executed txn, microseconds after `epoch`
  /// (0 when nothing executed): the open-loop wall clock, teardown excluded.
  uint64_t last_completion_us = 0;
  /// When the arrival thread finished pushing or shedding the last arrival,
  /// microseconds after `epoch`: the window over which load was offered.
  uint64_t arrival_window_us = 0;
};

/// Runs the trace of `total_txns` transactions through the open-loop driver:
/// the calling thread becomes the arrival thread (walking the schedule by
/// wall clock against `epoch`, shedding — never blocking — on a full
/// admission queue), while options.num_clients executor threads drain the
/// queue and call `execute(executor_id, txn_index)` for each admitted txn.
/// `execute` must be thread-safe across executor ids; per-executor state
/// (e.g. a TransportSession) should be created on first use keyed by
/// executor_id, which is stable per thread. Updates metrics->shed and the
/// sojourn/queue_wait/service histograms; outcome counters are whatever
/// `execute` records.
OpenLoopResult RunOpenLoop(
    const RuntimeOptions& options, size_t total_txns,
    std::chrono::steady_clock::time_point epoch,
    const std::function<void(int executor_id, size_t txn_index)>& execute,
    RuntimeMetrics* metrics);

}  // namespace jecb
