#include "dist/transport.h"

#include <mutex>
#include <vector>

#include "dist/socket_transport.h"
#include "runtime/exchange.h"

namespace jecb {

void TransportCounters::Merge(const TransportCounters& o) {
  messages_sent += o.messages_sent;
  messages_received += o.messages_received;
  bytes_sent += o.bytes_sent;
  bytes_received += o.bytes_received;
  reconnects += o.reconnects;
  wire_drops += o.wire_drops;
  wire_delays += o.wire_delays;
  wire_duplicates += o.wire_duplicates;
  dedup_drops += o.dedup_drops;
  shard_frames += o.shard_frames;
  shard_bytes += o.shard_bytes;
  exchange_requests += o.exchange_requests;
  exchange_batches += o.exchange_batches;
  exchange_tuples += o.exchange_tuples;
  exchange_bytes += o.exchange_bytes;
}

namespace {

/// The in-process ShardChannel: shard mutexes and simulated costs. A
/// prepare takes the participant's lock and spins the prepare work under
/// it; the locks stay held across the simulated vote round trip and are
/// released before the exchange and the commit round trip. While a
/// transaction holds a shard's lock, that shard's worker cannot execute
/// local transactions.
class InProcessChannel : public ShardChannel {
 public:
  InProcessChannel(ShardExecutor* executor, const FaultInjector& injector)
      : executor_(executor),
        injector_(injector.enabled() ? &injector : nullptr),
        options_(executor->options()),
        prepare_us_(options_.local_work_us + options_.lock_hold_us) {}

  void Execute(const ClassifiedTxn& txn) override { executor_->ExecuteLocal(txn); }

  Vote Prepare(const ClassifiedTxn& txn, uint32_t attempt,
               int32_t shard) override {
    Vote vote;
    // A down shard refuses the connection before any lock is taken.
    if (injector_ && injector_->ShardDown(txn.txn_id, attempt, shard)) {
      vote.decision = Vote::kDown;
      return vote;
    }
    held_.emplace_back(executor_->shard_lock(shard));
    SimulateCpuWork(prepare_us_);
    if (injector_ && injector_->ShardStalls(txn.txn_id, attempt, shard)) {
      // The stall holds the lock (blocking the worker) without burning CPU.
      vote.stalled = true;
      SimulateNetworkDelay(injector_->plan().stall_us);
    }
    if (injector_ && injector_->PrepareRejected(txn.txn_id, attempt, shard)) {
      vote.decision = Vote::kReject;
    }
    return vote;
  }

  void Abort(const ClassifiedTxn& /*txn*/, uint32_t /*attempt*/) override {
    held_.clear();
  }

  void Commit(const ClassifiedTxn& txn, uint32_t /*attempt*/) override {
    // Votes travel back while every participant still holds its lock.
    SimulateNetworkDelay(options_.round_trip_us);
    held_.clear();
    // The committing attempt assembles the read set straight from storage:
    // the same entries and the same BuildExchangeOutcome accounting as the
    // socket backends' home-shard assembly.
    if (options_.exchange_enabled) {
      AssembleLocalExchange(executor_->sharded_db(), txn,
                            options_.exchange_batch_bytes, executor_->metrics());
    }
    // Commit messages out, acks back: latency the client still observes,
    // but the shards are already free.
    SimulateNetworkDelay(options_.round_trip_us);
  }

 private:
  ShardExecutor* executor_;
  const FaultInjector* injector_;  ///< null when no fault is planned
  const RuntimeOptions& options_;
  const uint32_t prepare_us_;
  std::vector<std::unique_lock<std::mutex>> held_;
};

/// The deterministic-test backend: the per-shard worker pool plus one
/// InProcessChannel per session.
class InProcessTransport : public Transport {
 public:
  InProcessTransport(const ShardedDatabase& sharded,
                     const RuntimeOptions& options, RuntimeMetrics* metrics)
      : executor_(sharded, options, metrics), injector_(options.faults) {}

  Status Start() override {
    executor_.Start();
    return Status::OK();
  }

  std::unique_ptr<TransportSession> NewSession(int /*client_id*/) override {
    return std::make_unique<TransportSession>(
        std::make_unique<InProcessChannel>(&executor_, injector_),
        executor_.sharded_db(), executor_.options(), injector_,
        executor_.metrics());
  }

  /// Closes the shard queues and joins every worker; queued transactions
  /// all execute before this returns (WorkQueue drains on Close).
  void Drain() override { executor_.Shutdown(); }

  TransportReport Report() const override {
    TransportReport r;
    r.kind = TransportKind::kInProcess;
    r.shard_rtt.resize(static_cast<size_t>(executor_.num_shards()));
    return r;
  }

  TransportKind kind() const override { return TransportKind::kInProcess; }

 private:
  ShardExecutor executor_;
  FaultInjector injector_;
};

}  // namespace

std::unique_ptr<Transport> MakeTransport(const ShardedDatabase& sharded,
                                         const RuntimeOptions& options,
                                         RuntimeMetrics* metrics) {
  if (options.transport == TransportKind::kInProcess) {
    return std::make_unique<InProcessTransport>(sharded, options, metrics);
  }
  return std::make_unique<SocketTransport>(sharded, options, metrics);
}

}  // namespace jecb
