// The one two-phase-commit coordinator (the cost the paper's partitioning
// minimizes), shared by every execution backend. A TransportSession runs on
// the submitting client thread and owns everything that must be identical
// across backends: residency counting, the attempt budget and backoff, every
// per-vote counter, the coordinator-timeout decision, local and distributed
// commit accounting, and the txn.* / 2pc.* / backoff / fault spans. What
// differs between backends sits behind ShardChannel, which has exactly two
// implementations:
//
//   - in-process (dist/transport.cc): per-shard mutexes taken on the client
//     thread, with simulated CPU work and network round trips;
//   - socket (dist/socket_transport.cc): prepare/vote frames and one-way
//     commits to forked shard-server processes over FaultyChannels.
//
// Because one class does the accounting, ReplayReport::OutcomeSignature() is
// backend-invariant by construction; tests/coordinator_test.cc pins the
// counters and the channel call sequence against a scripted channel.
//
// Protocol per attempt: prepare participants in ascending shard id (the
// deadlock-free total order), stop at the first `down` or `reject` vote and
// abort; after every yes vote, the coordinator may time out (an abort with
// every participant still held); otherwise commit. An aborted attempt retries
// under capped exponential backoff with deterministic jitter, up to the
// FaultPlan's attempt budget; exhausting it records the transaction as
// failed in RuntimeMetrics — never a silent drop.
#pragma once

#include <cstdint>
#include <memory>

#include "runtime/executor.h"
#include "runtime/fault_injector.h"
#include "runtime/metrics.h"
#include "runtime/sharded_database.h"

namespace jecb {

/// One participant's answer to a prepare.
struct Vote {
  enum Decision : uint8_t {
    kYes = 0,
    kReject = 1,  ///< the shard voted "no"
    kDown = 2,    ///< the shard refused before doing any work
  };
  Decision decision = kYes;
  /// The shard served an injected stall before answering (never aborts).
  bool stalled = false;
};

/// The per-backend half of a session: how one client reaches the shards.
/// One instance per session, so implementations need no locking of their
/// own; they remember which shards the current attempt prepared.
class ShardChannel {
 public:
  virtual ~ShardChannel() = default;

  /// Runs the single-shard transaction `txn` at txn.home and blocks until
  /// the shard has executed it.
  virtual void Execute(const ClassifiedTxn& txn) = 0;

  /// Prepares `shard`'s part of `txn` for this attempt. A yes vote leaves
  /// the shard prepared (held) until Abort or Commit.
  virtual Vote Prepare(const ClassifiedTxn& txn, uint32_t attempt,
                       int32_t shard) = 0;

  /// Releases every shard this attempt prepared.
  virtual void Abort(const ClassifiedTxn& txn, uint32_t attempt) = 0;

  /// Commits every shard this attempt prepared. Only the committing attempt
  /// gets here, so it also assembles the transaction's read set as tuple
  /// bytes and accounts it via BuildExchangeOutcome.
  virtual void Commit(const ClassifiedTxn& txn, uint32_t attempt) = 0;
};

/// One client thread's coordinator. Not thread-safe; each client owns one.
class TransportSession {
 public:
  /// Borrows `sharded`, `options`, `injector` and `metrics`, which must
  /// outlive the session.
  TransportSession(std::unique_ptr<ShardChannel> channel,
                   const ShardedDatabase& sharded, const RuntimeOptions& options,
                   const FaultInjector& injector, RuntimeMetrics* metrics);

  /// Runs a single-partition transaction to commit; blocks (closed loop).
  void ExecuteLocal(const ClassifiedTxn& txn);

  /// Runs a multi-partition transaction through 2PC to commit or recorded
  /// failure, including retries and backoff.
  void ExecuteDistributed(const ClassifiedTxn& txn);

 private:
  /// One 2PC attempt; true on commit. `traced` gates span emission.
  bool AttemptOnce(const ClassifiedTxn& txn, uint32_t attempt, bool traced);
  bool Sampled(const ClassifiedTxn& txn) const;
  void CountResidency(const ClassifiedTxn& txn);

  std::unique_ptr<ShardChannel> channel_;
  const ShardedDatabase& sharded_;
  const RuntimeOptions& options_;
  const FaultInjector& injector_;
  RuntimeMetrics* metrics_;
  /// Shard-side CPU cost of one prepare, credited to busy_us per vote.
  const uint32_t prepare_us_;
};

}  // namespace jecb
