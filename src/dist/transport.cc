#include "dist/transport.h"

#include <mutex>
#include <vector>

#include "dist/socket_transport.h"
#include "obs/trace_recorder.h"
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
  exchange_batches += o.exchange_batches;
  exchange_tuples += o.exchange_tuples;
  exchange_bytes += o.exchange_bytes;
}

namespace {

/// The in-process ShardChannel: shard mutexes and simulated costs, all on
/// the calling client thread. An execute takes the home shard's lock and
/// spins the local work under it. A prepare takes the participant's lock and
/// spins the prepare work under it; the locks stay held across the simulated
/// vote round trip and are released by the commit, which, like the socket
/// backend's, is one-way. While a transaction holds a shard's lock, no other
/// transaction executes or prepares on that shard.
class InProcessChannel : public ShardChannel {
 public:
  InProcessChannel(const ShardedDatabase& sharded,
                   const RuntimeOptions& options,
                   std::vector<std::mutex>& shard_locks,
                   const FaultInjector& injector, RuntimeMetrics* metrics)
      : sharded_(sharded),
        options_(options),
        shard_locks_(shard_locks),
        injector_(injector.enabled() ? &injector : nullptr),
        metrics_(metrics),
        prepare_us_(options_.local_work_us + options_.lock_hold_us) {}

  void Execute(const ClassifiedTxn& txn) override {
    TraceRecorder& rec = TraceRecorder::Default();
    const bool traced =
        rec.enabled() && TxnTraceSampled(options_.faults.seed, txn.txn_id,
                                         options_.trace_sample_rate);
    const uint64_t wait_ts = traced ? rec.NowUs() : 0;
    uint64_t exec_ts = 0;
    uint64_t done_ts = 0;
    {
      std::lock_guard<std::mutex> guard(shard_locks_[txn.home]);
      if (traced) exec_ts = rec.NowUs();
      SimulateCpuWork(options_.local_work_us);
      if (traced) done_ts = rec.NowUs();
    }
    if (traced) {
      const int64_t tid = static_cast<int64_t>(txn.txn_id);
      rec.Span("shard", "shard.lock_wait", wait_ts, exec_ts - wait_ts, "txn",
               tid, "shard", txn.home);
      rec.Span("shard", "shard.execute", exec_ts, done_ts - exec_ts, "txn",
               tid, "shard", txn.home);
    }
  }

  Vote Prepare(const ClassifiedTxn& txn, uint32_t attempt,
               int32_t shard) override {
    Vote vote;
    // A down shard refuses the connection before any lock is taken.
    if (injector_ && injector_->ShardDown(txn.txn_id, attempt, shard)) {
      vote.decision = Vote::kDown;
      return vote;
    }
    held_.emplace_back(shard_locks_[shard]);
    SimulateCpuWork(prepare_us_);
    if (injector_ && injector_->ShardStalls(txn.txn_id, attempt, shard)) {
      // The stall holds the lock (blocking the shard) without burning CPU.
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
    // Votes, and the read rows with them, travel back while every
    // participant still holds its lock.
    SimulateNetworkDelay(options_.round_trip_us);
    held_.clear();
    // The committing attempt assembles the read set straight from storage:
    // the same entries and the same BuildExchangeOutcome accounting as the
    // socket backends' assembly of the rows their votes brought.
    AssembleLocalExchange(sharded_, txn, options_.exchange_batch_bytes,
                          metrics_);
  }

 private:
  const ShardedDatabase& sharded_;
  const RuntimeOptions& options_;
  std::vector<std::mutex>& shard_locks_;
  const FaultInjector* injector_;  ///< null when no fault is planned
  RuntimeMetrics* metrics_;
  const uint32_t prepare_us_;
  std::vector<std::unique_lock<std::mutex>> held_;
};

/// The deterministic-test backend: one mutex per shard, shared by every
/// session's InProcessChannel. It starts no thread, so there is nothing to
/// bring up or drain: each transaction has finished when its session call
/// returns.
class InProcessTransport : public Transport {
 public:
  InProcessTransport(const ShardedDatabase& sharded,
                     const RuntimeOptions& options, RuntimeMetrics* metrics)
      : sharded_(sharded),
        options_(options),
        metrics_(metrics),
        shard_locks_(static_cast<size_t>(sharded.num_shards())),
        injector_(options.faults) {}

  Status Start() override { return Status::OK(); }

  std::unique_ptr<TransportSession> NewSession(int /*client_id*/) override {
    return std::make_unique<TransportSession>(
        std::make_unique<InProcessChannel>(sharded_, options_, shard_locks_,
                                           injector_, metrics_),
        sharded_, options_, injector_, metrics_);
  }

  void Drain() override {}

  TransportReport Report() const override {
    TransportReport r;
    r.kind = TransportKind::kInProcess;
    r.shard_rtt.resize(shard_locks_.size());
    return r;
  }

  TransportKind kind() const override { return TransportKind::kInProcess; }

 private:
  const ShardedDatabase& sharded_;
  const RuntimeOptions options_;
  RuntimeMetrics* metrics_;
  /// Locked in ascending shard-id order by every 2PC attempt, which keeps
  /// the in-process protocol deadlock-free.
  std::vector<std::mutex> shard_locks_;
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
