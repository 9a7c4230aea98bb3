#include "runtime/coordinator.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/trace_recorder.h"

namespace jecb {

TransportSession::TransportSession(std::unique_ptr<ShardChannel> channel,
                                   const ShardedDatabase& sharded,
                                   const RuntimeOptions& options,
                                   const FaultInjector& injector,
                                   RuntimeMetrics* metrics)
    : channel_(std::move(channel)),
      sharded_(sharded),
      options_(options),
      injector_(injector),
      metrics_(metrics),
      prepare_us_(options.local_work_us + options.lock_hold_us) {}

bool TransportSession::Sampled(const ClassifiedTxn& txn) const {
  return TraceRecorder::Default().enabled() &&
         TxnTraceSampled(options_.faults.seed, txn.txn_id,
                         options_.trace_sample_rate);
}

void TransportSession::CountResidency(const ClassifiedTxn& txn) {
  // Accesses whose owning shard is not a participant; replicated tuples are
  // resident everywhere. Lock-free: the shard layout is immutable.
  uint64_t faults = 0;
  for (const Access& a : txn.txn->accesses) {
    int32_t p = sharded_.PrimaryShardOf(a.tuple);
    if (p == kReplicated) continue;
    if (!std::binary_search(txn.participants.begin(), txn.participants.end(), p)) {
      ++faults;
    }
  }
  if (faults > 0) {
    metrics_->residency_faults.fetch_add(faults, std::memory_order_relaxed);
  }
}

void TransportSession::ExecuteLocal(const ClassifiedTxn& txn) {
  const bool traced = Sampled(txn);
  const auto start = std::chrono::steady_clock::now();
  CountResidency(txn);

  channel_->Execute(txn);

  // The shard burned local_work_us executing the transaction.
  ShardMetrics& sm = metrics_->shard(txn.home);
  sm.busy_us.fetch_add(options_.local_work_us, std::memory_order_relaxed);
  const uint64_t latency_us = ElapsedUs(start);
  sm.local_txns.fetch_add(1, std::memory_order_relaxed);
  sm.local_latency.Record(latency_us);
  metrics_->committed.fetch_add(1, std::memory_order_relaxed);
  if (traced) {
    // The full client-observed latency: dur equals the value recorded in
    // local_latency exactly, so trace rollups reconcile with the report.
    TraceRecorder& rec = TraceRecorder::Default();
    rec.Span("runtime", "txn.local", rec.ToTraceUs(start), latency_us, "txn",
             static_cast<int64_t>(txn.txn_id), "shard", txn.home);
  }
}

bool TransportSession::AttemptOnce(const ClassifiedTxn& txn, uint32_t attempt,
                                   bool traced) {
  TraceRecorder& rec = TraceRecorder::Default();
  const int64_t tid = static_cast<int64_t>(txn.txn_id);
  const uint64_t prepare_ts = traced ? rec.NowUs() : 0;

  for (int32_t p : txn.participants) {
    ShardMetrics& sm = metrics_->shard(p);
    sm.participation_attempts.fetch_add(1, std::memory_order_relaxed);
    const Vote vote = channel_->Prepare(txn, attempt, p);
    if (vote.decision == Vote::kDown) {
      // Refused before any work: the cheapest abort.
      sm.down_events.fetch_add(1, std::memory_order_relaxed);
      metrics_->shard_down_aborts.fetch_add(1, std::memory_order_relaxed);
      if (traced) rec.Instant("fault", "fault.shard_down", "txn", tid, "shard", p);
      channel_->Abort(txn, attempt);
      return false;
    }
    sm.busy_us.fetch_add(prepare_us_, std::memory_order_relaxed);
    if (vote.stalled) {
      // A stall occupies the shard without burning CPU: backpressure, not
      // an abort.
      sm.stalls.fetch_add(1, std::memory_order_relaxed);
      metrics_->stalls_injected.fetch_add(1, std::memory_order_relaxed);
      if (traced) rec.Instant("fault", "fault.stall", "txn", tid, "shard", p);
    }
    if (vote.decision == Vote::kReject) {
      sm.prepare_rejects.fetch_add(1, std::memory_order_relaxed);
      metrics_->prepare_rejects.fetch_add(1, std::memory_order_relaxed);
      if (traced) {
        rec.Instant("fault", "fault.prepare_reject", "txn", tid, "shard", p);
      }
      channel_->Abort(txn, attempt);
      return false;
    }
    sm.dist_participations.fetch_add(1, std::memory_order_relaxed);
  }

  if (injector_.enabled() && injector_.CoordinatorTimesOut(txn.txn_id, attempt)) {
    // The expensive abort: every participant stays prepared (holding) while
    // the coordinator waits out the vote timeout.
    metrics_->coordinator_timeouts.fetch_add(1, std::memory_order_relaxed);
    if (traced) {
      rec.Instant("fault", "fault.timeout", "txn", tid, "attempt",
                  static_cast<int64_t>(attempt));
    }
    SimulateNetworkDelay(injector_.plan().timeout_us);
    channel_->Abort(txn, attempt);
    return false;
  }
  if (traced) {
    rec.Span("runtime", "2pc.prepare", prepare_ts, rec.NowUs() - prepare_ts,
             "txn", tid, "attempt", static_cast<int64_t>(attempt));
  }
  const uint64_t commit_ts = traced ? rec.NowUs() : 0;
  channel_->Commit(txn, attempt);
  if (traced) {
    rec.Span("runtime", "2pc.commit", commit_ts, rec.NowUs() - commit_ts, "txn",
             tid, "attempt", static_cast<int64_t>(attempt));
  }
  return true;
}

void TransportSession::ExecuteDistributed(const ClassifiedTxn& txn) {
  TraceRecorder& rec = TraceRecorder::Default();
  const bool traced = Sampled(txn);
  const int64_t tid = static_cast<int64_t>(txn.txn_id);
  const auto start = std::chrono::steady_clock::now();
  const uint64_t start_ts = traced ? rec.ToTraceUs(start) : 0;
  CountResidency(txn);

  const uint32_t budget = std::max(injector_.plan().max_attempts, 1u);
  for (uint32_t attempt = 0; attempt < budget; ++attempt) {
    if (AttemptOnce(txn, attempt, traced)) {
      const uint64_t latency_us = ElapsedUs(start);
      metrics_->shard(txn.home).dist_latency.Record(latency_us);
      if (attempt > 0) metrics_->retry_latency.Record(latency_us);
      // Count from the static classification so the measured distributed
      // fraction agrees with Evaluate() on the same (solution, trace) pair.
      if (txn.distributed) {
        metrics_->distributed_committed.fetch_add(1, std::memory_order_relaxed);
      }
      metrics_->committed.fetch_add(1, std::memory_order_relaxed);
      if (traced) {
        // dur equals the value recorded in dist_latency exactly.
        rec.Span("runtime", "txn.dist", start_ts, latency_us, "txn", tid,
                 "attempts", static_cast<int64_t>(attempt) + 1);
      }
      return;
    }
    metrics_->aborts.fetch_add(1, std::memory_order_relaxed);
    if (attempt + 1 < budget) {
      metrics_->retries.fetch_add(1, std::memory_order_relaxed);
      const uint64_t backoff_ts = traced ? rec.NowUs() : 0;
      SimulateNetworkDelay(injector_.BackoffUs(txn.txn_id, attempt));
      if (traced) {
        rec.Span("runtime", "backoff", backoff_ts, rec.NowUs() - backoff_ts,
                 "txn", tid, "attempt", static_cast<int64_t>(attempt));
      }
    }
  }

  // Retry budget exhausted: the failure is recorded, so conservation
  // (committed + failed == submitted) still holds.
  metrics_->failed.fetch_add(1, std::memory_order_relaxed);
  if (traced) {
    rec.Span("runtime", "txn.failed", start_ts, ElapsedUs(start), "txn", tid,
             "attempts", static_cast<int64_t>(budget));
  }
}

}  // namespace jecb
