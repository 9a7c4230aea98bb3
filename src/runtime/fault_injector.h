// Deterministic, seed-driven fault injection for the 2PC coordination path.
//
// The paper's argument is that distributed transactions are expensive because
// coordinated multi-shard commits are fragile: prepares get rejected, shards
// stall or go down, coordinators time out. The injector makes the runtime
// exercise those failure modes so that a solution with fewer distributed
// transactions measurably degrades less under faults (bench/fault_tolerance).
//
// Determinism contract: every decision is a pure function of
// (plan.seed, fault stream, txn id, attempt, shard) hashed through the
// stable integer hashes in common/hash.h — no wall clock, no global RNG, no
// per-thread state. Two replays of the same classified trace with the same
// plan therefore inject the *same* faults into the *same* transactions at
// any client/thread count, which is what makes fault replays bit-comparable
// (ReplayReport::OutcomeSignature) and TSan runs reproducible. Fault
// targeting reuses the shared Definition 5/6 classification: the injector is
// only consulted on the 2PC path (TransportSession::ExecuteDistributed and
// the prepares it sends), i.e. for transactions ClassifyTrace/IsDistributed
// (partition/evaluator.h) marked as requiring coordination — purely local
// transactions are never faulted.
#pragma once

#include <cstdint>

namespace jecb {

/// Knobs of the injected coordination faults. All rates are probabilities in
/// [0, 1] evaluated *per prepare attempt* (not per transaction), so a
/// transaction with more participants has proportionally more exposure.
struct FaultPlan {
  /// Root of every per-decision hash; same seed => same injected faults.
  uint64_t seed = 0x5ECB;

  /// (a) Shard stalls: a participant holds its lock for `stall_us` of extra
  /// simulated (non-CPU) time during prepare. Stalls slow the transaction
  /// and backpressure every other client of the shard; they never abort by
  /// themselves.
  double stall_rate = 0.0;
  uint32_t stall_us = 200;

  /// (b) 2PC prepare rejections: a participant votes "no"; the coordinator
  /// aborts the attempt immediately.
  double prepare_reject_rate = 0.0;

  /// (c) Coordinator timeouts: the coordinator gives up waiting for votes
  /// after `timeout_us` (locks stay held while it waits — the expensive
  /// abort) and aborts the attempt.
  double coordinator_timeout_rate = 0.0;
  uint32_t timeout_us = 500;

  /// (d) Transient shard-down windows: a shard refuses participation for
  /// whole windows of `down_window_txns` consecutive txn ids (one coin flip
  /// per (shard, window)). A retry re-evaluates the window shifted by
  /// `down_recovery_stride` txn ids, modeling the backoff wait giving the
  /// shard time to come back.
  double shard_down_rate = 0.0;
  uint64_t down_window_txns = 64;
  uint64_t down_recovery_stride = 37;

  /// Retry policy: total attempts per transaction (first try included;
  /// clamped to >= 1). After the budget is exhausted the transaction is
  /// recorded as failed — never silently dropped.
  uint32_t max_attempts = 4;
  /// Capped exponential backoff between attempts: attempt a waits
  /// min(backoff_cap_us, backoff_base_us << a) scaled by a deterministic
  /// jitter factor in [0.5, 1.0).
  uint32_t backoff_base_us = 50;
  uint32_t backoff_cap_us = 2000;

  /// (e) Transport-layer faults, consulted per *message send* by the socket
  /// backend only (the in-process backend has no wire). These are masked by
  /// the transport's reliability machinery — an injected drop is immediately
  /// retransmitted, duplicates are suppressed by per-connection sequence
  /// numbers, a disconnect reconnects before the message goes out — so they
  /// perturb timing and the transport counters but never the 2PC outcome:
  /// ReplayReport::OutcomeSignature stays identical with wire faults on or
  /// off, and identical to the in-process backend's. That separation is what
  /// keeps the cross-backend signature oracle meaningful.
  double wire_drop_rate = 0.0;
  uint32_t wire_retransmit_us = 30;  ///< pause modeling the retransmit timer
  double wire_delay_rate = 0.0;
  uint32_t wire_delay_us = 100;
  double wire_duplicate_rate = 0.0;
  /// Evaluated once per transaction per channel, before its first message:
  /// the connection is torn down and re-established (a reconnect), never cut
  /// mid-2PC where it would change the outcome.
  double wire_disconnect_rate = 0.0;

  bool enabled() const {
    return stall_rate > 0.0 || prepare_reject_rate > 0.0 ||
           coordinator_timeout_rate > 0.0 || shard_down_rate > 0.0;
  }

  /// True when any transport-layer fault is active (socket backend only).
  bool wire_enabled() const {
    return wire_drop_rate > 0.0 || wire_delay_rate > 0.0 ||
           wire_duplicate_rate > 0.0 || wire_disconnect_rate > 0.0;
  }
};

/// Stateless decision oracle over a FaultPlan. Safe to share across threads:
/// all methods are const and touch only immutable plan fields.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  const FaultPlan& plan() const { return plan_; }
  bool enabled() const { return plan_.enabled(); }

  /// True when `shard` is inside a down window for this (txn, attempt).
  bool ShardDown(uint64_t txn_id, uint32_t attempt, int32_t shard) const;

  /// True when `shard` stalls during this prepare attempt.
  bool ShardStalls(uint64_t txn_id, uint32_t attempt, int32_t shard) const;

  /// True when `shard` votes "no" on this prepare attempt.
  bool PrepareRejected(uint64_t txn_id, uint32_t attempt, int32_t shard) const;

  /// True when the coordinator times out waiting for this attempt's votes.
  bool CoordinatorTimesOut(uint64_t txn_id, uint32_t attempt) const;

  /// Backoff before attempt `attempt + 1`: capped exponential with
  /// deterministic jitter (see FaultPlan::backoff_base_us).
  uint32_t BackoffUs(uint64_t txn_id, uint32_t attempt) const;

  // Transport-layer decisions (socket backend). `kind` is the wire message
  // type, so drops/delays/dupes of prepares, commits and executes are
  // independent coin flips. Same purity contract as the 2PC decisions.
  bool WireDrops(uint64_t txn_id, uint32_t attempt, int32_t shard,
                 uint8_t kind) const;
  bool WireDelays(uint64_t txn_id, uint32_t attempt, int32_t shard,
                  uint8_t kind) const;
  bool WireDuplicates(uint64_t txn_id, uint32_t attempt, int32_t shard,
                      uint8_t kind) const;
  /// Per (txn, shard), attempt-independent: at most one reconnect per
  /// transaction per channel.
  bool WireDisconnects(uint64_t txn_id, int32_t shard) const;

 private:
  /// Uniform double in [0, 1) from the decision coordinates; `stream`
  /// separates the four fault kinds so their decisions are independent.
  double UnitUniform(uint64_t stream, uint64_t txn_id, uint32_t attempt,
                     uint64_t extra) const;

  FaultPlan plan_;
};

}  // namespace jecb
