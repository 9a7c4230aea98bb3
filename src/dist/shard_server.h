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
//   Prepare(frag)    -> Vote(yes)      run the shard-local prepare work,
//                       ... HOLD ...   then block this shard on that one
//   Commit           -> [TupleBatch*]  connection until the coordinator's
//                       CommitAck      commit/abort releases it; if this
//                       (or Abort)     shard is the txn's home, the commit
//                                      first pulls remote read rows over
//                                      the data plane and streams the
//                                      assembled read set back
//   Prepare(frag)    -> Vote(reject|down)   injected 2PC faults: no hold
//   Shutdown         -> ShardStats     reply final counters, stop serving
//
// Exchange data plane: each child also serves a second listener from a
// dedicated ExchangeNode thread (dist/exchange.h) and owns an ExchangeClient
// with channels to every peer's data listener, established at fork time.
// The control thread is the only user of the client; the node thread only
// reads immutable storage — the two never share mutable state, so the child
// stays data-race-free with exactly one deliberate synchronization point:
// Stop()'s join at shutdown.
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
#include <vector>

#include "dist/exchange.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/executor.h"
#include "runtime/fault_injector.h"
#include "runtime/sharded_database.h"

namespace jecb {

class ShardServer {
 public:
  /// `data_addrs[i]` is shard i's data-plane listener address.
  ShardServer(int32_t shard_id, const ShardedDatabase& sharded,
              const RuntimeOptions& options,
              std::vector<net::SocketAddr> data_addrs);

  /// Serves `listener` until a Shutdown frame or SIGTERM/SIGINT, and
  /// `data_listener` from the ExchangeNode thread for the same lifetime.
  /// Returns the final shard-side counters (also sent to the Shutdown peer).
  /// Clears MetricsRegistry::Default() first, so call it only in the forked
  /// shard process.
  net::ShardStatsMsg Serve(net::Socket listener, net::Socket data_listener);

 private:
  void HandleExecute(net::EventLoop& loop, int64_t peer, const net::Frame& frame);
  void HandlePrepare(net::EventLoop& loop, int64_t peer, const net::Frame& frame);
  /// Home-shard commit work: pull remote read rows over the data plane,
  /// stream the assembled read set (access order) to `peer` as kTupleBatch
  /// frames. The CommitAck the caller sends afterwards terminates the
  /// stream on the coordinator side.
  void StreamAssembledReads(net::EventLoop& loop, int64_t peer,
                            const net::FragmentMsg& frag);
  /// Folds exchange node/client accounting into `out`'s exchange tail.
  void MergeExchangeStats(net::ShardStatsMsg& out) const;
  /// Control-plane counters only — safe while the exchange node is live.
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

  ExchangeNode node_;
  ExchangeClient client_;
  /// kTupleBatch frames streamed to coordinators over the control plane
  /// (the node counts its own data-plane batches separately).
  uint64_t stream_batches_ = 0;
  uint64_t stream_tuples_ = 0;
  uint64_t stream_bytes_ = 0;

  uint64_t reply_seq_ = 0;
  net::ShardStatsMsg stats_;
  /// Logical cpu this child pinned itself (and its exchange thread) to at
  /// Serve() entry; -1 when pinning is off or the kernel refused.
  int32_t pinned_cpu_ = -1;
};

}  // namespace jecb
