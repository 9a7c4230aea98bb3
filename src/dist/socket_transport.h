// The real-wire backend: one forked ShardServer process per shard, one
// socket connection per (client session, shard), and on each client thread
// a TransportSession whose SocketChannel sends actual execute and
// prepare/vote rounds and one-way commits instead of the in-process
// backend's simulated sleeps. Each yes vote brings the read rows its shard
// serves, so the coordinator assembles the committed read set without any
// further message, and no shard ever talks to another.
//
// Process model: Start() binds one listener per shard and THEN forks,
// while the parent is still single-threaded: the children inherit the
// immutable ShardedDatabase copy-on-write (no serialization) and a clean,
// single-threaded address space (fork before client threads is what keeps
// this sanitizer-safe). Each child keeps only its own listener, installs
// the SIGTERM handler and serves until Drain() sends it kShutdown; Drain()
// shuts every shard down before waiting on any, then reaps each child with
// an escalating waitpid -> SIGTERM -> SIGKILL ladder so a wedged shard can
// never hang the replay, and records each child's exit status in
// TransportReport::shard_exits so abnormal deaths (a TransportPanic abort,
// an OOM kill) are never silently absorbed by the ladder.
//
// Accounting: the session's coordinator (runtime/coordinator.h) is the same
// code the in-process backend runs, fed by the shard's VoteMsg (which
// carries the shard-side fault decisions), so RuntimeMetrics — and
// therefore ReplayReport::OutcomeSignature() — is bit-identical to the
// in-process backend for the same seed. Wire-level traffic lands in
// TransportCounters instead, which the signature deliberately excludes.
//
// Wire fault injection (FaultPlan::wire_*) is applied in the coordinator's
// send path: drops are retransmitted after a simulated timer, duplicates
// are re-sent with the same sequence number (the shard's event loop dedups
// them), delays sleep before the send, and disconnects tear the channel
// down between transactions only. All four perturb timing and transport
// counters, never outcomes — see FaultPlan for the masking contract.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/transport.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/histogram.h"
#include "runtime/executor.h"
#include "runtime/fault_injector.h"
#include "runtime/metrics.h"
#include "runtime/sharded_database.h"

namespace jecb {

class SocketTransport : public Transport {
 public:
  SocketTransport(const ShardedDatabase& sharded, const RuntimeOptions& options,
                  RuntimeMetrics* metrics);
  ~SocketTransport() override;

  /// Binds one listener per shard and forks the shard-server processes.
  /// Must run before any client thread exists (the children must never
  /// inherit a multi-threaded address space).
  Status Start() override;

  std::unique_ptr<TransportSession> NewSession(int client_id) override;

  /// Shuts the shards down over control connections (kShutdown to every
  /// shard, then each kShardStats reply harvests its counters), reaps every
  /// child process, and removes the socket files. Idempotent.
  void Drain() override;

  TransportReport Report() const override;
  TransportKind kind() const override { return options_.transport; }

  /// Address of shard `i`'s listener (valid after Start()).
  const net::SocketAddr& shard_addr(int32_t i) const { return addrs_[i]; }

 private:
  friend class SocketChannel;

  struct ShardProc {
    pid_t pid = -1;
  };

  /// One shard's shutdown control connection, open from SendShutdown to
  /// CollectShardStats.
  struct ShutdownCall {
    net::Socket control;  ///< invalid when the shard could not be reached
    net::FrameBuffer in;
    TransportCounters counters;
  };

  /// Sessions fold their local wire counters in here when they die;
  /// Drain() adds the shard-reported stats.
  void MergeCounters(const TransportCounters& c);

  /// Runs the Hello handshake on `control` and refines shard `i`'s clock
  /// offset from the HelloAck's now_us tail (midpoint estimate, best RTT
  /// kept). `in` must be the connection's persistent frame buffer. Returns
  /// false if the handshake fails.
  bool HandshakeAndMeasureOffset(net::Socket& control, net::FrameBuffer& in,
                                 int32_t i, uint64_t* seq);
  /// Folds one Hello round-trip sample (t0 send, t1 ack receipt, shard
  /// recorder clock at ack) into the per-shard offset estimate.
  void RecordOffsetSample(int32_t shard, uint64_t t0, uint64_t t1,
                          uint64_t shard_now_us);
  int64_t ClockOffsetUs(int32_t shard) const;
  /// Background harvest thread: every telemetry_period_ms, connects to each
  /// live shard, sends kTelemetryReq and ingests the kTelemetry batches into
  /// the process-wide ClusterTelemetry sink. Runs on its own control
  /// connections — never touches session channels, so replay traffic (and
  /// therefore OutcomeSignature) is unaffected.
  void PollTelemetry();

  /// Connects to shard `i`, samples its clock offset with a Hello and sends
  /// kShutdown without waiting for the reply. Best effort: a dead shard
  /// leaves `call.control` invalid and is simply reaped.
  void SendShutdown(int32_t i, ShutdownCall& call);
  /// Folds shard `i`'s kShardStats reply (loop counters + exchange tail)
  /// into the transport counters; kTelemetry frames arriving before the
  /// stats are ingested into ClusterTelemetry. Returns whether the stats
  /// arrived.
  bool CollectShardStats(int32_t i, ShutdownCall& call);
  /// Waits for child `i`, escalating WNOHANG -> SIGTERM -> SIGKILL, and
  /// records its exit status (code, signal, which rung forced it) in
  /// shard_exits_. `replied`: the shard sent its stats, so it is exiting
  /// and is polled for in fine steps.
  void ReapShard(int32_t i, bool replied);

  const ShardedDatabase& sharded_;
  const RuntimeOptions options_;
  RuntimeMetrics* metrics_;
  const FaultInjector injector_;

  std::vector<net::SocketAddr> addrs_;
  std::vector<ShardProc> procs_;
  std::vector<ShardExitStatus> shard_exits_;
  std::string owned_socket_dir_;  ///< mkdtemp'd; removed by Drain()
  /// Where each child's flight recorder dumps (options_.postmortem_dir, or a
  /// mkdtemp'd fallback removed by Drain() when it stayed empty).
  std::string postmortem_dir_;
  bool owned_postmortem_dir_ = false;
  bool started_ = false;
  bool drained_ = false;

  /// Best (lowest-RTT) shard-clock-minus-coordinator-clock estimate per
  /// shard, in microseconds, refreshed on every Hello round trip the
  /// telemetry paths run. Guarded by offsets_mu_ (poller vs Drain).
  mutable std::mutex offsets_mu_;
  std::vector<int64_t> clock_offsets_us_;
  std::vector<uint64_t> offset_rtts_us_;

  std::thread poller_;
  std::atomic<bool> poller_stop_{false};

  /// Request->response latency per shard, recorded by every session
  /// (LatencyHistogram is concurrent).
  std::vector<std::unique_ptr<LatencyHistogram>> shard_rtt_;

  mutable std::mutex counters_mu_;
  TransportCounters counters_;
};

}  // namespace jecb
