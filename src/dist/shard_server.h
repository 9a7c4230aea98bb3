// ShardServer: the process that owns one shard of a ShardedDatabase and
// executes transaction fragments it receives over the wire. Replay()'s
// socket backend forks one of these per shard (the child inherits the
// immutable shard layout copy-on-write, so no database serialization is
// needed); the coordinator side talks to it through net/wire.h frames.
//
// Protocol state machine (per connection; see DESIGN.md "Distributed
// runtime" for the message flow diagrams):
//
//   Hello            -> HelloAck       identity + wire-version handshake
//   Execute(frag)    -> ExecuteAck     run a single-partition txn fragment
//   Prepare(frag)    -> TupleBatch*    run the shard-local prepare work,
//                       Vote(yes)      ship the rows of frag.exchange_reads,
//                       ... HOLD ...   vote, then block this shard on that
//   Commit or Abort     (no reply)     one connection until the
//                                      coordinator's one-way commit or
//                                      abort releases it
//   Prepare(frag)    -> Vote(reject|down)   injected 2PC faults: no rows,
//                                           no hold
//   Shutdown         -> ShardStats     reply final counters, stop serving
//
// The rows are read before the vote and shipped with it, yet they are the
// committed read set: the shard holds from the vote until the commit, so
// nothing can change them in between. The commit therefore needs no reply,
// and a distributed transaction costs one round trip per participant.
//
// The hold is the distributed equivalent of the in-process backend holding a
// shard's mutex across the prepare/vote round trip: the server is a
// single-threaded event loop, so while it waits for one coordinator's
// commit, every other client of this shard queues — exactly how distributed
// transactions steal throughput from local ones (paper Fig. 1), now paid in
// real socket latency instead of a sleep constant.
//
// Deadlock freedom: coordinators prepare participants in ascending shard-id
// order. A holding shard waits only for its holder's commit/abort; that
// holder can only be waiting on votes from HIGHER-numbered shards, so the
// wait-for graph follows a strict total order and has no cycles — the same
// argument that makes the in-process lock order deadlock-free.
//
// Fault injection: the server rebuilds the deterministic FaultInjector from
// the same FaultPlan the coordinator holds, so its down/stall/reject
// decisions for (txn, attempt, shard) are bit-identical to the ones the
// in-process backend would have made — the foundation of the cross-backend
// OutcomeSignature oracle. SIGTERM/SIGINT set the event loop's stop flag,
// so an orphaned or force-killed server drains and exits cleanly.
#pragma once

#include <cstdint>

#include "net/event_loop.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/executor.h"
#include "runtime/fault_injector.h"
#include "runtime/sharded_database.h"

namespace jecb {

class ShardServer {
 public:
  ShardServer(int32_t shard_id, const ShardedDatabase& sharded,
              const RuntimeOptions& options);

  /// Serves `listener` until a Shutdown frame or SIGTERM/SIGINT. Returns the
  /// final shard-side counters (also sent to the Shutdown peer). Clears
  /// MetricsRegistry::Default() first, so call it only in the forked shard
  /// process.
  net::ShardStatsMsg Serve(net::Socket listener);

 private:
  void HandleExecute(net::EventLoop& loop, int64_t peer, const net::Frame& frame);
  void HandlePrepare(net::EventLoop& loop, int64_t peer, const net::Frame& frame);
  /// Ships the rows of frag.exchange_reads (access order) to `peer` as
  /// kTupleBatch frames; the yes vote the caller sends next terminates them.
  void SendReads(net::EventLoop& loop, int64_t peer,
                 const net::FragmentMsg& frag);
  /// Protocol and loop counters, without the topology tail.
  net::ShardStatsMsg ControlStats(const net::EventLoop& loop) const;
  net::ShardStatsMsg FinalStats(const net::EventLoop& loop) const;
  /// Publishes `snapshot` into the child's metrics registry (shard-labeled)
  /// and streams the recorder drain + metrics snapshot to `peer` as
  /// kTelemetry batches. Used for both periodic harvests (kTelemetryReq)
  /// and the final pre-ShardStats flush at shutdown.
  void SendTelemetry(net::EventLoop& loop, int64_t peer,
                     const net::ShardStatsMsg& snapshot);

  /// Replies on `peer`, assigning the next server-side sequence number.
  void Reply(net::EventLoop& loop, int64_t peer, net::MsgType type,
             const std::string& payload);

  const int32_t shard_id_;
  const ShardedDatabase& sharded_;
  const RuntimeOptions options_;
  const FaultInjector injector_;
  const uint32_t prepare_us_;

  uint64_t reply_seq_ = 0;
  net::ShardStatsMsg stats_;
  /// Logical cpu this child pinned itself to at Serve() entry; -1 when
  /// pinning is off or the kernel refused.
  int32_t pinned_cpu_ = -1;
};

}  // namespace jecb
