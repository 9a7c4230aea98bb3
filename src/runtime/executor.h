// The runtime's shared vocabulary: the backend Replay() drives
// (TransportKind), the simulated cluster's knobs (RuntimeOptions), a
// transaction resolved to its shards (ClassifiedTxn), and the simulated
// costs. In-process, the client thread's TransportSession
// (runtime/coordinator.h) locks the home shard of a single-partition
// transaction, and every participant of a 2PC one, through the in-process
// ShardChannel (dist/transport.cc) — which is exactly how distributed
// transactions steal throughput from local ones (paper Fig. 1).
//
// Costs are simulated, not measured from real I/O: CPU work spins the clock
// (it occupies the shard), network round trips sleep (they occupy nothing
// but wall time, while any held locks keep blocking).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "runtime/fault_injector.h"
#include "trace/trace.h"

namespace jecb {

/// Which execution backend Replay() drives the classified trace through.
/// The in-process backend is the deterministic-test reference; the socket
/// backends fork one ShardServer process per shard and run real 2PC message
/// rounds over the wire (src/dist). All backends share the fault-decision
/// machinery, so ReplayReport::OutcomeSignature() is backend-invariant —
/// the cross-backend correctness oracle tests/dist_runtime_test.cc asserts.
enum class TransportKind : uint8_t {
  kInProcess = 0,   ///< shard mutexes on client threads + simulated costs
  kUnixSocket = 1,  ///< shard-per-process over Unix-domain sockets
  kTcpSocket = 2,   ///< shard-per-process over TCP loopback
};

std::string_view TransportKindName(TransportKind kind);

/// Open-loop arrival process shape (see src/runtime/load_gen.h). Both are
/// pure functions of (faults.seed, txn id), so the schedule — and therefore
/// which txns exist to execute — is identical at any client count and on
/// any backend.
enum class ArrivalProcess : uint8_t {
  kFixedRate = 0,  ///< arrival i at exactly i / target_tps seconds
  kPoisson = 1,    ///< exponential inter-arrivals, seed-driven
};

std::string_view ArrivalProcessName(ArrivalProcess process);

/// Knobs of the simulated cluster.
struct RuntimeOptions {
  /// Execution backend (see TransportKind).
  TransportKind transport = TransportKind::kInProcess;
  /// Directory for Unix-domain socket files; empty picks a fresh private
  /// directory under $TMPDIR so concurrent replays never collide.
  std::string socket_dir;
  /// Closed-loop client threads submitting transactions.
  int num_clients = 4;
  /// Shard-side CPU cost of executing one transaction's local work.
  uint32_t local_work_us = 2;
  /// One 2PC message round trip (prepare+vote, commit+ack each cost one).
  uint32_t round_trip_us = 100;
  /// Extra shard-side lock hold during prepare (log flush, validation).
  uint32_t lock_hold_us = 0;
  /// Coordination faults to inject on the 2PC path; disabled by default
  /// (all rates zero). See runtime/fault_injector.h for the determinism
  /// contract.
  FaultPlan faults;
  /// Target encoded-row bytes per kTupleBatch frame of the exchange, which
  /// assembles each committed 2PC transaction's read set as tuple bytes
  /// (runtime/exchange.h); responses exceeding it are split into multiple
  /// batches. Clamped to [64 B, 256 KiB] (tiny values are how the tests
  /// force batches to straddle frame boundaries).
  uint32_t exchange_batch_bytes = 32 * 1024;
  /// Fraction of transactions that get a full per-txn span timeline
  /// (shard lock wait -> execute -> 2PC rounds -> retries) when the
  /// TraceRecorder is enabled. The decision is a pure hash of
  /// (faults.seed, txn id) — the same txn ids are sampled at any client
  /// count, and sampling never alters execution (OutcomeSignature is
  /// unchanged). 1.0 traces everything; 0.0 only the replay-level spans.
  double trace_sample_rate = 1.0;
  /// Socket backends: harvest each shard child's span ring + metrics
  /// snapshot over the wire (kTelemetryReq/kTelemetry) into the
  /// coordinator's ClusterTelemetry sink. The shutdown-time harvest always
  /// runs when this is on; a non-zero telemetry_period_ms additionally
  /// polls live during the replay. Telemetry rides out-of-band on its own
  /// control connections and never touches outcome counters, so
  /// OutcomeSignature() is identical with it on or off.
  bool telemetry_harvest = true;
  /// Live-harvest period in milliseconds; 0 = shutdown-only.
  uint32_t telemetry_period_ms = 0;
  /// Directory for per-shard postmortem flight-recorder dumps; empty picks
  /// a fresh private directory under $TMPDIR. Unlike socket_dir, the
  /// directory survives Drain() whenever a dump was written — the dump path
  /// is surfaced through ReplayReport::shard_exits.
  std::string postmortem_dir;
  /// Test knob: this shard ignores kShutdown, forcing the reap ladder to
  /// SIGTERM it — exercising the flight recorder's signal path. -1 = off.
  int32_t debug_wedge_shard = -1;
  /// Test knob: this shard dumps its flight recorder and _Exit(3)s on
  /// kShutdown — a reproducible abnormal exit. -1 = off.
  int32_t debug_crash_on_shutdown_shard = -1;

  // ---- Open-loop load generation (src/runtime/load_gen.h) ----

  /// Offered load in txn/sec. 0 (default) keeps the closed-loop clients:
  /// each of num_clients issues its next txn only after the previous one
  /// finishes. A positive value switches Replay() to the open-loop driver:
  /// arrivals follow the deterministic schedule regardless of completions,
  /// num_clients executor threads drain the admission queue, and arrivals
  /// that find it full are shed (counted, never executed).
  double target_tps = 0.0;
  /// Arrival schedule shape when target_tps > 0.
  ArrivalProcess arrival = ArrivalProcess::kFixedRate;
  /// Admission queue capacity for open-loop arrivals; 0 = unbounded (never
  /// sheds, arbitrary queueing delay — what you want when asserting
  /// cross-config OutcomeSignature identity under overload).
  uint32_t admission_queue_depth = 1024;

  // ---- CPU topology (src/common/topology.h) ----

  /// Pin forked shard-server children + their exchange threads (socket
  /// backends) to distinct logical cpus, physical cores first
  /// (BuildPinPlan). Does nothing in-process, where transactions run on the
  /// client threads. Best-effort and performance-only: outcomes are
  /// identical pinned or not.
  bool pin_threads = false;
};

/// Deterministic per-txn trace-sampling decision; thread-count independent
/// because it depends only on (seed, txn_id). Reuses the fault machinery's
/// seed so a traced faulted replay stays bit-identical to an untraced one.
inline bool TxnTraceSampled(uint64_t seed, uint64_t txn_id, double rate) {
  if (rate >= 1.0) return true;
  if (rate <= 0.0) return false;
  uint64_t h = HashCombine(HashCombine(seed, 0x0B5E7u), txn_id);
  return static_cast<double>(HashInt64(h) >> 11) * 0x1.0p-53 < rate;
}

/// A trace transaction resolved against a solution: the physical shards it
/// must run on, and its static Definition 5/6 classification.
struct ClassifiedTxn {
  const Transaction* txn = nullptr;
  /// Stable id (the transaction's index in the classified trace): the
  /// coordinate every fault-injection decision and backoff jitter is keyed
  /// on, which is what makes fault replays thread-count-independent.
  uint64_t txn_id = 0;
  /// Sorted distinct shards holding the txn's non-replicated accesses;
  /// all shards for replicated writes; never empty (replicated-read-only
  /// txns are assigned one shard round-robin).
  std::vector<int32_t> participants;
  /// participants.front(): the shard whose metrics this txn is homed to.
  int32_t home = 0;
  /// Static classification, identical to the evaluator's IsDistributed();
  /// the runtime counts distributed commits from this flag so the measured
  /// fraction agrees with Evaluate() exactly.
  bool distributed = false;

  bool RequiresTwoPhaseCommit() const {
    return distributed || participants.size() > 1;
  }
};

/// Burns CPU for `us` microseconds: simulated transaction execution work.
inline void SimulateCpuWork(uint32_t us) {
  if (us == 0) return;
  auto end = std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < end) {
  }
}

/// Waits out `us` microseconds without occupying a core: simulated network
/// latency. Held locks keep blocking while the sleeper waits.
inline void SimulateNetworkDelay(uint32_t us) {
  if (us == 0) return;
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

inline uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - since)
                                   .count());
}

}  // namespace jecb
