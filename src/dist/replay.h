// Trace replay driver: classifies every trace transaction against a
// solution, materializes the shard layout, and replays the workload through
// an execution backend (shard mutexes on the client threads in-process, or
// forked shard-server processes over real sockets — see dist/transport.h)
// with closed-loop client threads. The report carries throughput, the
// measured distributed fraction (definitionally equal to the static
// evaluator's), per-shard load and latency quantiles, wire-level transport
// accounting, and JSON / Prometheus / ASCII exports for downstream plotting.
//
// Shutdown ordering (the contract every backend honors): client threads
// join first, then Transport::Drain() quiesces the backend — shard
// processes serve their last frames, report their counters and exit (the
// in-process backend has nothing left in flight) — and only then is the
// metrics snapshot taken. No late completion can ever be missing from the
// report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dist/transport.h"
#include "obs/histogram.h"
#include "partition/solution.h"
#include "runtime/executor.h"
#include "storage/database.h"
#include "trace/trace.h"

namespace jecb {

class MetricsRegistry;

/// Resolves each transaction's participant shards and static classification.
/// Replay() calls it once, before any client thread runs or the transport
/// forks, so the replay phase only reads its output.
std::vector<ClassifiedTxn> ClassifyTrace(const Database& db,
                                         const DatabaseSolution& solution,
                                         const Trace& trace);

/// Snapshot of one shard after a replay.
struct ShardReport {
  int32_t shard = 0;
  uint64_t stored_tuples = 0;
  uint64_t local_txns = 0;
  uint64_t dist_participations = 0;
  uint64_t busy_us = 0;
  uint64_t participation_attempts = 0;
  uint64_t stalls = 0;
  uint64_t prepare_rejects = 0;
  uint64_t down_events = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  /// Wire request->response latency against this shard's server (socket
  /// backends only; zero in-process).
  uint64_t rtt_count = 0;
  double rtt_p50_us = 0.0;
  double rtt_p99_us = 0.0;
  /// Exchange rows this shard OWNED and shipped to other shards' read-set
  /// assemblies (backend-invariant: the in-process backend accounts the
  /// same rows it would have shipped).
  uint64_t exchange_tuples_out = 0;
  uint64_t exchange_bytes_out = 0;
  /// Topology block (pin_threads): logical cpu the forked shard-server
  /// process ran pinned to (-1 = unpinned, and always -1 in-process), plus
  /// its getrusage context-switch counts. Timing facts — never in
  /// OutcomeSignature().
  int32_t pinned_cpu = -1;
  uint64_t ctx_voluntary = 0;
  uint64_t ctx_involuntary = 0;

  /// Fraction of prepare attempts that found the shard reachable; 1.0 when
  /// the shard was never asked to participate (vacuously available).
  double availability() const {
    return participation_attempts == 0
               ? 1.0
               : 1.0 - static_cast<double>(down_events) /
                           static_cast<double>(participation_attempts);
  }
};

/// Snapshot of one latency distribution after a replay.
struct LatencyReport {
  uint64_t count = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

/// CPU-topology and hardware-counter facts about the machine the replay ran
/// on (common/topology.h). Purely descriptive: nothing here may influence
/// outcomes, so none of it enters OutcomeSignature(). The perf fields are
/// zero whenever the kernel refuses perf_event_open (unprivileged
/// containers, CI), keeping deterministic-output tests stable.
struct TopologyReport {
  int32_t cpus = 0;
  int32_t physical_cores = 0;
  int32_t numa_nodes = 0;
  bool smt = false;
  bool from_sysfs = false;  ///< false = hardware_concurrency() fallback
  bool pinned = false;      ///< RuntimeOptions::pin_threads was requested
  bool perf_available = false;
  uint64_t cache_misses = 0;
  uint64_t instructions = 0;
};

/// Outcome of one replay run.
struct ReplayReport {
  std::string label;
  int32_t num_partitions = 0;
  uint64_t total_txns = 0;
  uint64_t committed = 0;
  uint64_t distributed_committed = 0;
  uint64_t residency_faults = 0;
  // Fault/recovery outcomes; all zero without an active FaultPlan.
  // Invariants: committed + failed == total_txns, aborts == retries + failed.
  uint64_t failed = 0;
  uint64_t aborts = 0;
  uint64_t retries = 0;
  uint64_t prepare_rejects = 0;
  uint64_t coordinator_timeouts = 0;
  uint64_t shard_down_aborts = 0;
  uint64_t stalls_injected = 0;
  /// Wall clock of the execution window: epoch -> last transaction
  /// completion, on both loop shapes. Backend teardown (queue drain, thread
  /// join, shard-process reaping) is deliberately excluded so throughput
  /// never depends on shutdown cost.
  double wall_seconds = 0.0;
  /// Processed rate: (committed + failed) / wall.
  double throughput_tps = 0.0;
  /// Useful-work rate: committed / wall. Equals throughput_tps when no
  /// faults are injected; the fault-tolerance bench compares this.
  double goodput_tps = 0.0;
  double replication_factor = 1.0;
  double storage_skew = 0.0;
  LatencyReport local;
  LatencyReport distributed;
  LatencyReport retry;  ///< committed txns that needed >= 1 retry

  /// Open-loop driver block (runtime/load_gen.h); all zero in closed-loop
  /// mode. Conservation invariant: total_txns == committed + failed + shed.
  /// Sojourn is measured from the *scheduled* arrival, so backlog and
  /// dispatch lateness show up as queue_wait instead of vanishing.
  double target_tps = 0.0;   ///< requested offered load (0 = closed loop)
  /// The schedule's arrival rate: total_txns over the span from the epoch
  /// to the last scheduled arrival. Executors running behind the schedule
  /// lengthen queue_wait, not this window.
  double offered_tps = 0.0;
  uint64_t shed = 0;         ///< arrivals dropped at admission
  LatencyReport sojourn;     ///< completion - scheduled arrival
  LatencyReport queue_wait;  ///< executor start - scheduled arrival
  LatencyReport service;     ///< completion - executor start
  HistogramData sojourn_hist;
  HistogramData queue_wait_hist;
  HistogramData service_hist;

  /// Machine/topology facts (pin_threads, perf counters); see TopologyReport.
  TopologyReport topology;

  bool open_loop() const { return target_tps > 0.0; }
  /// Full bucket data behind the summaries above, kept so renderers
  /// (Prometheus histograms) and aggregation across runs never have to
  /// recompute from live atomics. Everything in this report comes from one
  /// RuntimeMetrics::Snapshot() taken after Drain(), so ToJson(),
  /// ToPrometheus(), and ToAscii() always agree with each other.
  HistogramData local_hist;
  HistogramData distributed_hist;
  HistogramData retry_hist;
  std::vector<ShardReport> shards;

  /// Exchange-style tuple routing totals (runtime/exchange.h). All
  /// backend-invariant: every counter and the digest are computed by
  /// BuildExchangeOutcome from the committed read sets alone, so they match
  /// bit-for-bit across inproc/unix/tcp at any client count. Deliberately
  /// NOT folded into OutcomeSignature() — the parity tests compare
  /// exchange_digest separately so a payload bug is distinguishable from an
  /// outcome bug.
  uint64_t exchange_txns = 0;
  uint64_t exchange_tuples = 0;
  uint64_t exchange_bytes = 0;
  uint64_t exchange_remote_tuples = 0;
  uint64_t exchange_remote_bytes = 0;
  uint64_t exchange_batches = 0;
  uint64_t exchange_digest = 0;
  /// Distinct remote source shards per assembled read set.
  HistogramData exchange_fanout_hist;

  /// Per-shard child process exit statuses (socket backends only, recorded
  /// by the reap ladder; empty in-process).
  std::vector<ShardExitStatus> shard_exits;

  /// Shards whose child process did not exit cleanly (nonzero code, killed
  /// by a signal, or needed SIGKILL). Benches fail the run on this being
  /// nonzero: a shard that died in a TransportPanic abort must never look
  /// like a healthy replay.
  uint64_t abnormal_shard_exits() const {
    uint64_t n = 0;
    for (const ShardExitStatus& e : shard_exits) {
      if (e.shard >= 0 && !e.clean()) ++n;
    }
    return n;
  }

  /// Which backend executed the replay, its wire-level accounting, and the
  /// merged request->response latency distribution. All zero for the
  /// in-process backend; excluded from OutcomeSignature() by design (wire
  /// traffic differs between backends even when outcomes are identical).
  TransportKind transport = TransportKind::kInProcess;
  TransportCounters transport_counters;
  HistogramData transport_rtt_hist;
  LatencyReport transport_rtt;

  double distributed_fraction() const {
    return committed == 0 ? 0.0
                          : static_cast<double>(distributed_committed) /
                                static_cast<double>(committed);
  }

  /// Stable hash of every timing-independent outcome counter (commits,
  /// failures, aborts, retries, per-shard participation/fault counts —
  /// never latencies, wall time, or transport traffic). Because fault
  /// decisions are pure functions of (seed, txn id, attempt, shard), two
  /// replays of the same classified trace under the same FaultPlan produce
  /// the same signature at ANY client/thread count AND through ANY backend
  /// (in-process or socket, wire faults on or off) — the
  /// bit-reproducibility contract fault_injection_test, dist_runtime_test
  /// and bench/fault_tolerance assert.
  uint64_t OutcomeSignature() const;

  /// One self-contained JSON object (no trailing newline). The label is
  /// JSON-escaped, so arbitrary bench names cannot corrupt the document.
  std::string ToJson() const;

  /// Prometheus text exposition of this report: counters, gauges, and
  /// cumulative latency histograms, every series labeled {label="..."}.
  std::string ToPrometheus() const;

  /// Human-readable summary + per-shard AsciiTable.
  std::string ToAscii() const;

  /// Registers this report's series (counters, gauges, latency histograms,
  /// per-shard series with a shard label) in `registry` — used both by
  /// ToPrometheus() and to fold replay results into the process-wide
  /// MetricsRegistry::Default() for --metrics_out dumps.
  void PublishTo(MetricsRegistry& registry) const;
};

/// Replays `trace` against `solution` and returns the measured report.
/// `options.transport` selects the backend; the socket backends fork one
/// shard-server process per shard before any client thread starts and reap
/// them before returning. A backend that fails to start aborts loudly — a
/// silently degraded replay would report wrong numbers.
ReplayReport Replay(const Database& db, const DatabaseSolution& solution,
                    const Trace& trace, const RuntimeOptions& options,
                    std::string label = "replay");

}  // namespace jecb
