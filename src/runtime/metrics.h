// Runtime metrics: lock-free counters and fixed-bucket latency histograms
// (obs/histogram.h) updated by worker/coordinator threads while the replay
// runs, snapshotted afterwards for reports and JSON export. All mutators are
// atomic with relaxed ordering — metrics never synchronize the execution
// itself. Reporting goes through Snapshot(): one quiesced copy of every
// counter that all renderers (JSON, Prometheus, ASCII) consume, so no two
// renderings of the same run can disagree.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/histogram.h"

namespace jecb {

/// Per-shard counters plus the latency distributions of transactions homed
/// at this shard (single-partition txns in `local_latency`; distributed
/// txns whose lowest participant id is this shard in `dist_latency`).
struct ShardMetrics {
  std::atomic<uint64_t> local_txns{0};
  std::atomic<uint64_t> dist_participations{0};
  std::atomic<uint64_t> busy_us{0};  ///< simulated work done under this shard's lock
  /// Times a coordinator tried to involve this shard in a prepare, whether
  /// or not the shard was reachable. Availability is derived as
  /// 1 - down_events / participation_attempts.
  std::atomic<uint64_t> participation_attempts{0};
  std::atomic<uint64_t> stalls{0};            ///< injected stalls served
  std::atomic<uint64_t> prepare_rejects{0};   ///< injected "no" votes
  std::atomic<uint64_t> down_events{0};       ///< prepares refused while down
  /// Remote read rows, attributed to the shard that OWNS the tuples (the
  /// shard whose vote shipped them), not the home they were read for.
  std::atomic<uint64_t> exchange_tuples_out{0};
  std::atomic<uint64_t> exchange_bytes_out{0};
  /// Topology block (pin_threads): the logical cpu the forked shard-server
  /// process was pinned to (-1 = unpinned, and always -1 in-process), and
  /// the child's getrusage context-switch counts, harvested at shutdown.
  /// Never part of OutcomeSignature — they are timing facts.
  std::atomic<int32_t> pinned_cpu{-1};
  std::atomic<uint64_t> ctx_voluntary{0};
  std::atomic<uint64_t> ctx_involuntary{0};
  LatencyHistogram local_latency;
  LatencyHistogram dist_latency;
};

/// Plain copy of one shard's counters at snapshot time.
struct ShardMetricsSnapshot {
  uint64_t local_txns = 0;
  uint64_t dist_participations = 0;
  uint64_t busy_us = 0;
  uint64_t participation_attempts = 0;
  uint64_t stalls = 0;
  uint64_t prepare_rejects = 0;
  uint64_t down_events = 0;
  uint64_t exchange_tuples_out = 0;
  uint64_t exchange_bytes_out = 0;
  int32_t pinned_cpu = -1;
  uint64_t ctx_voluntary = 0;
  uint64_t ctx_involuntary = 0;
  HistogramData local_latency;
  HistogramData dist_latency;
  /// local_latency and dist_latency merged: everything homed at this shard.
  HistogramData latency;
};

/// One quiesced copy of every replay counter. The process-wide local and
/// distributed distributions are aggregated from the per-shard histograms
/// with LatencyHistogram::Merge — the hot path records each latency exactly
/// once (into its shard), never twice.
struct MetricsSnapshot {
  uint64_t committed = 0;
  uint64_t distributed_committed = 0;
  uint64_t residency_faults = 0;
  uint64_t aborts = 0;
  uint64_t retries = 0;
  uint64_t failed = 0;
  uint64_t prepare_rejects = 0;
  uint64_t coordinator_timeouts = 0;
  uint64_t shard_down_aborts = 0;
  uint64_t stalls_injected = 0;
  // Exchange (tuple routing) accounting — backend-invariant: rows ship
  // exactly once per committed transaction, on every backend, so these
  // match bit-for-bit across inproc/unix/tcp for a fixed seed.
  uint64_t exchange_txns = 0;          ///< committed txns that assembled reads
  uint64_t exchange_tuples = 0;        ///< rows in assembled read sets
  uint64_t exchange_bytes = 0;         ///< encoded bytes of assembled rows
  uint64_t exchange_remote_tuples = 0; ///< rows pulled from a non-home shard
  uint64_t exchange_remote_bytes = 0;  ///< encoded bytes shipped shard-to-shard
  uint64_t exchange_batches = 0;       ///< bounded batches (greedy span rule)
  uint64_t exchange_digest = 0;        ///< order-independent payload digest
  // Open-loop driver accounting (all zero in closed-loop mode). The shed
  // conservation invariant is submitted = committed + failed + shed.
  uint64_t shed = 0;                 ///< arrivals dropped at admission
  HistogramData sojourn_latency;     ///< completion - scheduled arrival
  HistogramData queue_wait_latency;  ///< executor start - scheduled arrival
  HistogramData service_latency;     ///< completion - executor start
  HistogramData exchange_fanout;       ///< distinct remote source shards/txn
  HistogramData local_latency;        ///< merged over shards
  HistogramData distributed_latency;  ///< merged over shards
  HistogramData retry_latency;
  std::vector<ShardMetricsSnapshot> shards;
};

/// All counters for one replay run. Shards are heap-allocated once up front;
/// the vector is never resized while workers run.
class RuntimeMetrics {
 public:
  explicit RuntimeMetrics(int32_t num_shards);

  ShardMetrics& shard(int32_t i) { return *shards_[i]; }
  const ShardMetrics& shard(int32_t i) const { return *shards_[i]; }
  int32_t num_shards() const { return static_cast<int32_t>(shards_.size()); }

  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> distributed_committed{0};
  std::atomic<uint64_t> residency_faults{0};

  // Fault/recovery accounting (all zero when no FaultPlan is active).
  // Invariants the fault tests assert: committed + failed == submitted, and
  // aborts == retries + failed (every aborted attempt either retried or
  // exhausted the budget and became a recorded failure).
  std::atomic<uint64_t> aborts{0};    ///< 2PC attempts that aborted
  std::atomic<uint64_t> retries{0};   ///< aborted attempts that were retried
  std::atomic<uint64_t> failed{0};    ///< txns that exhausted the retry budget
  std::atomic<uint64_t> prepare_rejects{0};
  std::atomic<uint64_t> coordinator_timeouts{0};
  std::atomic<uint64_t> shard_down_aborts{0};
  std::atomic<uint64_t> stalls_injected{0};

  // Exchange accounting (see MetricsSnapshot for semantics). The digest is
  // accumulated commutatively (fetch_add of per-txn hashes) so it is
  // independent of commit order and therefore of client count.
  std::atomic<uint64_t> exchange_txns{0};
  std::atomic<uint64_t> exchange_tuples{0};
  std::atomic<uint64_t> exchange_bytes{0};
  std::atomic<uint64_t> exchange_remote_tuples{0};
  std::atomic<uint64_t> exchange_remote_bytes{0};
  std::atomic<uint64_t> exchange_batches{0};
  std::atomic<uint64_t> exchange_digest{0};

  /// Open-loop accounting: transactions dropped at admission (never
  /// executed), plus the sojourn split. The open-loop driver sheds
  /// deterministically only in the sense of the conservation invariant —
  /// whether a given txn sheds depends on how many admitted arrivals are
  /// still waiting to start, i.e. on timing — so saturated open-loop runs
  /// are load-dependent by design, and the cross-backend OutcomeSignature
  /// contract applies to sub-saturation runs where shed == 0.
  std::atomic<uint64_t> shed{0};
  LatencyHistogram sojourn_latency;
  LatencyHistogram queue_wait_latency;
  LatencyHistogram service_latency;

  /// Distinct remote source shards per assembled read set (the exchange
  /// fan-out of one committed transaction).
  LatencyHistogram exchange_fanout;

  /// Commit latency of distributed txns that needed at least one retry —
  /// the tail the retry/backoff machinery adds on top of the distributed
  /// distribution.
  LatencyHistogram retry_latency;

  /// Copies every counter once. Call after workers have joined (quiesced)
  /// for exact accounting; renderers must consume the snapshot, never the
  /// live atomics, so one report cannot mix values from different moments.
  MetricsSnapshot Snapshot() const;

 private:
  std::vector<std::unique_ptr<ShardMetrics>> shards_;
};

}  // namespace jecb
