// Wire half of exchange-style tuple routing (the storage/accounting half is
// runtime/exchange.h).
//
// Channel topology: every shard-server child binds a SECOND listener — the
// data plane — before fork, and serves it from a dedicated ExchangeNode
// thread. When a committing distributed transaction needs rows owned by a
// peer shard, the HOME shard (blocked in its control-plane hold) pulls them
// with kExchangeReq over a shard-to-shard FaultyChannel to the peer's data
// listener, bypassing the coordinator entirely; the peer's node answers with
// bounded kTupleBatch frames. The node thread only reads the immutable
// copy-on-write encoded-row store and never blocks on the control plane, so
// data-plane waits can never join the 2PC wait-for graph — exchange adds no
// deadlock edges to the ascending-shard-id argument.
//
// Fault masking: the pulling side applies the SAME injector discipline as
// coordinator control channels (FaultyChannel), keyed on (txn, attempt,
// owner shard, kExchangeReq) — drops retransmit, duplicates are suppressed
// by the node's per-connection dedup watermark, disconnects only strike
// between transactions. Batches therefore arrive exactly once, in order,
// regardless of injected wire faults.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "dist/wire_channel.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/exchange.h"
#include "runtime/sharded_database.h"

namespace jecb {

/// Splits `entries` into TupleBatchMsg frames via the shared greedy span
/// rule (runtime/exchange.h), so wire frame counts equal the batch counts
/// the in-process accounting predicts. Always returns at least one batch
/// (an empty read set still yields one empty, `last`-flagged batch — the
/// receiver needs a terminator).
std::vector<net::TupleBatchMsg> BuildTupleBatches(
    uint64_t txn_id, uint32_t attempt, int32_t source_shard,
    const std::vector<ExchangeEntry>& entries, uint32_t batch_bytes);

/// The data-plane server of one shard: a poll loop on the shard's data
/// listener, run on its own thread, answering kExchangeReq with kTupleBatch
/// streams served from the encoded-row store. Started after fork (the child is
/// single-threaded at fork; the thread is spawned afterwards, which keeps
/// the fork sanitizer-clean).
class ExchangeNode {
 public:
  /// Post-Stop() accounting, merged into the shard's ShardStatsMsg.
  struct Stats {
    uint64_t reqs_served = 0;   ///< unique requests (duplicates deduped)
    uint64_t batches_sent = 0;
    uint64_t tuples_sent = 0;
    uint64_t bytes_sent = 0;    ///< encoded row bytes (not frame bytes)
    net::EventLoopStats loop;
  };

  /// Serves rows from `sharded`'s encoded-row store (inherited
  /// copy-on-write at fork), so a pull never re-encodes a row.
  ExchangeNode(int32_t shard_id, const ShardedDatabase& sharded,
               uint32_t batch_bytes);
  ~ExchangeNode();

  ExchangeNode(const ExchangeNode&) = delete;
  ExchangeNode& operator=(const ExchangeNode&) = delete;

  /// Takes ownership of the data listener and spawns the serve thread.
  void Start(net::Socket listener);

  /// Requests the loop to stop (atomic, cross-thread) and joins the thread.
  /// Idempotent. stats() is valid — and safe to read — only after this
  /// returns (the join is the happens-before edge).
  void Stop();

  const Stats& stats() const { return stats_; }

 private:
  void Run();

  const int32_t shard_id_;
  const ShardedDatabase& sharded_;
  const uint32_t batch_bytes_;

  std::unique_ptr<net::EventLoop> loop_;
  std::thread thread_;
  uint64_t reply_seq_ = 0;
  Stats stats_;
  bool running_ = false;
};

/// The pulling side, owned by each shard server's control thread: one lazily
/// (re)connected FaultyChannel per peer data listener. Channels are
/// established eagerly at fork time (ConnectAll) so steady-state pulls pay
/// no connection setup; injected disconnect faults tear individual channels
/// down between transactions and the next pull transparently reconnects.
class ExchangeClient {
 public:
  /// `data_addrs[i]` is shard i's data listener. `injector` may be null when
  /// `wire_faults` is false; both must outlive the client.
  void Configure(int32_t shard_id, std::vector<net::SocketAddr> data_addrs,
                 const FaultInjector* injector, bool wire_faults);

  /// Eagerly connects to every peer (skipping self). Call once, right after
  /// fork, while every data listener is guaranteed bound.
  void ConnectAll();

  /// Pulls `reads` (all owned by `owner`) for (txn_id, attempt). Blocks
  /// until the full batch stream arrives; panics (killing the shard child,
  /// which surfaces as an abnormal exit) on truncation or txn mismatch.
  /// Returns entries in request order, viewing the received frames, which
  /// are appended to `frames`: the caller keeps them while it uses the
  /// entries (a deque never moves its elements, so the views stay valid).
  std::vector<net::TupleBatchEntry> Pull(
      int32_t owner, uint64_t txn_id, uint32_t attempt,
      const std::vector<net::WireAccess>& reads, std::deque<net::Frame>* frames);

  /// Requests sent, fault events, bytes — folded into ShardStatsMsg's
  /// exchange tail by the owning ShardServer.
  const TransportCounters& counters() const { return counters_; }

 private:
  int32_t shard_id_ = -1;
  std::vector<FaultyChannel> channels_;
  TransportCounters counters_;
};

}  // namespace jecb
