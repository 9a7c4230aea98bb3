// Transport: the seam between the replay driver and an execution backend.
// Replay() classifies the trace and spins up closed-loop clients; every
// transaction then goes through a TransportSession (runtime/coordinator.h),
// the one 2PC coordinator. A backend only supplies the session's
// ShardChannel: the in-process one locks shard mutexes and simulates costs
// on the calling client thread (the deterministic-test reference); the
// socket one sends real 2PC messages to forked shard-server processes
// (dist/socket_transport.h). Both model the same protocol — one round trip
// per prepare, whose yes votes carry the read rows, and a one-way commit —
// and feed the SAME RuntimeMetrics through the SAME session code, which is
// what makes ReplayReport::OutcomeSignature() backend-invariant.
//
// Lifecycle contract (Replay() enforces the order):
//   Start() -> NewSession() per client thread -> sessions destroyed ->
//   Drain() -> metrics snapshot.
// Drain() must not return until every submitted transaction's counters are
// final and all backend resources (shard processes, socket files) are
// released — the graceful-shutdown ordering that guarantees late
// completions are never dropped from the report. The in-process backend
// starts no thread, so its Start() and Drain() have nothing to do.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/histogram.h"
#include "runtime/coordinator.h"
#include "runtime/executor.h"
#include "runtime/metrics.h"
#include "runtime/sharded_database.h"

namespace jecb {

/// Wire-level accounting, all measured at the coordinator side of each
/// connection (plus shard-reported dedup/disconnect counts harvested at
/// shutdown). All zero for the in-process backend. Deliberately NOT part of
/// OutcomeSignature(): the signature is the cross-backend outcome oracle,
/// and transport traffic differs between backends by construction.
struct TransportCounters {
  uint64_t messages_sent = 0;
  uint64_t messages_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t reconnects = 0;
  uint64_t wire_drops = 0;       ///< injected drops (retransmitted)
  uint64_t wire_delays = 0;      ///< injected send delays
  uint64_t wire_duplicates = 0;  ///< injected duplicate sends
  uint64_t dedup_drops = 0;      ///< duplicates the receivers suppressed
  uint64_t shard_frames = 0;     ///< frames the shard servers processed
  uint64_t shard_bytes = 0;      ///< bytes the shard servers received
  // Read rows the shards shipped with their yes votes, harvested from the
  // ShardStatsMsg tails at shutdown. Wire-level like everything else here:
  // a vote whose attempt then aborts still counts. The backend-invariant
  // exchange accounting lives in RuntimeMetrics (jecb_exchange_*).
  uint64_t exchange_batches = 0;   ///< kTupleBatch frames shards emitted
  uint64_t exchange_tuples = 0;    ///< rows shards shipped
  uint64_t exchange_bytes = 0;     ///< encoded row bytes shards shipped

  void Merge(const TransportCounters& o);
};

/// What actually happened to one forked shard-server process at reap time.
/// `clean()` is the contract a healthy drain must meet: the child exited by
/// itself (before SIGKILL) with status 0. A SIGTERM that the child turned
/// into a clean exit still reports forced_term for visibility but stays
/// clean-able only via exit_code 0 — see ReapShard.
struct ShardExitStatus {
  int32_t shard = -1;
  bool exited = false;      ///< waitpid observed the child end
  int exit_code = -1;       ///< WEXITSTATUS when exited normally
  int term_signal = 0;      ///< WTERMSIG when signal-killed (0 otherwise)
  bool forced_term = false; ///< parent had to escalate to SIGTERM
  bool forced_kill = false; ///< parent had to escalate to SIGKILL
  /// Path of the flight-recorder dump the child wrote (empty when none).
  /// Written on SIGTERM-driven exits and injected crashes; deliberately not
  /// part of clean() — a postmortem is evidence, not a verdict.
  std::string postmortem_path;

  bool clean() const {
    return exited && exit_code == 0 && term_signal == 0 && !forced_kill;
  }
};

/// Snapshot of a transport after Drain(): identity, counters, and the
/// per-shard request->response latency distributions (merged into one
/// overall histogram via LatencyHistogram::Merge for the report summary).
struct TransportReport {
  TransportKind kind = TransportKind::kInProcess;
  TransportCounters counters;
  std::vector<HistogramData> shard_rtt;  ///< indexed by shard id
  HistogramData rtt;                     ///< all shards merged
  /// Per-shard process exit records (socket backends only; empty in-process).
  /// A non-clean() entry means a shard server crashed or had to be killed —
  /// bench/distributed_replay fails the run on it.
  std::vector<ShardExitStatus> shard_exits;

  bool real_wire() const { return kind != TransportKind::kInProcess; }
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Brings the backend up (forks the socket backends' shard processes; a
  /// no-op in-process).
  virtual Status Start() = 0;

  /// A session for one client thread. `client_id` identifies the client in
  /// handshakes and diagnostics. Only valid between Start() and Drain().
  virtual std::unique_ptr<TransportSession> NewSession(int client_id) = 0;

  /// Quiesces and tears down the backend: shuts down and reaps shard
  /// processes (a no-op in-process, where every transaction has finished
  /// when its session call returns). Idempotent. Every counter is final
  /// once this returns — call it BEFORE RuntimeMetrics::Snapshot().
  virtual void Drain() = 0;

  /// Final transport accounting; meaningful after Drain().
  virtual TransportReport Report() const = 0;

  virtual TransportKind kind() const = 0;
};

/// Builds the backend selected by `options.transport`. The returned
/// transport borrows `sharded`, `options` and `metrics`, which must outlive
/// it. Socket backends fork their shard processes inside Start() — call it
/// before spawning any client thread so the children never inherit a
/// multi-threaded address space.
std::unique_ptr<Transport> MakeTransport(const ShardedDatabase& sharded,
                                         const RuntimeOptions& options,
                                         RuntimeMetrics* metrics);

}  // namespace jecb
