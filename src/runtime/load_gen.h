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
// *shedding*: an arrival that finds admission_queue_depth admitted arrivals
// still waiting to start is dropped (counted in RuntimeMetrics::shed, never
// executed). The invariant that always holds is
//
//   submitted == committed + failed + shed
//
// and whenever shed == 0 (target below capacity, or unbounded admission)
// the committed set — and thus ReplayReport::OutcomeSignature() — is
// bit-identical to the closed-loop replay of the same trace.
//
// Sojourn accounting: every executed txn's latency is split where an
// executor starts it into queue_wait (scheduled arrival -> start) and
// service (start -> completion); sojourn is their sum, measured from the
// *scheduled* arrival so backlog and dispatch lateness are charged to the
// system, not hidden. Sampled txns additionally emit "openloop/queue_wait"
// and "openloop/service" spans for tools/trace_stats.
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
  uint64_t admitted = 0;   ///< arrivals admitted, and so executed
  uint64_t shed = 0;       ///< arrivals dropped at admission
  /// Completion time of the last executed txn, microseconds after `epoch`
  /// (0 when nothing executed): the open-loop wall clock, teardown excluded.
  uint64_t last_completion_us = 0;
  /// The last scheduled arrival, microseconds after `epoch`: the window the
  /// schedule offers load over. Executors running late show up as
  /// queue_wait, never here.
  uint64_t arrival_window_us = 0;
};

/// Runs the trace of `total_txns` transactions through the open-loop driver
/// on options.num_clients executor threads, each keeping its own arrival
/// clock: it claims the next arrival in schedule order, sleeps until that
/// arrival is due against `epoch` (at 1 ns timer slack, best effort), and
/// calls `execute(executor_id, txn_index)`. The calling thread only starts
/// and joins the executors.
///
/// Admission is FIFO: arrival i is admitted iff, at its scheduled time,
/// fewer than options.admission_queue_depth admitted arrivals have not yet
/// started (0 = unbounded). The rest are shed: counted (sampled ones also
/// traced as "openloop/shed" instants), never executed, and never a delay
/// to the schedule, which would silently turn open loop into closed loop.
///
/// `execute` must be thread-safe across executor ids; per-executor state
/// (e.g. a TransportSession) should be keyed by executor_id, which is
/// stable per thread. Updates metrics->shed and the
/// sojourn/queue_wait/service histograms; outcome counters are whatever
/// `execute` records.
OpenLoopResult RunOpenLoop(
    const RuntimeOptions& options, size_t total_txns,
    std::chrono::steady_clock::time_point epoch,
    const std::function<void(int executor_id, size_t txn_index)>& execute,
    RuntimeMetrics* metrics);

}  // namespace jecb
