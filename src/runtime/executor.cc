#include "runtime/executor.h"

#include "common/topology.h"

namespace jecb {

std::string_view TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProcess: return "inproc";
    case TransportKind::kUnixSocket: return "unix";
    case TransportKind::kTcpSocket: return "tcp";
  }
  return "unknown";
}

ShardExecutor::ShardExecutor(const ShardedDatabase& sharded_db,
                             const RuntimeOptions& options, RuntimeMetrics* metrics)
    : sharded_db_(sharded_db), options_(options), metrics_(metrics) {
  shards_.reserve(sharded_db_.num_shards());
  for (int32_t i = 0; i < sharded_db_.num_shards(); ++i) {
    shards_.push_back(std::make_unique<ShardState>());
    shards_.back()->queue.SetCapacity(options_.max_queue_depth);
  }
}

ShardExecutor::~ShardExecutor() { Shutdown(); }

void ShardExecutor::Start() {
  if (started_) return;
  started_ = true;
  if (options_.pin_threads) {
    pin_plan_ = BuildPinPlan(DetectCpuTopology(), num_shards());
  }
  for (int32_t i = 0; i < num_shards(); ++i) {
    shards_[i]->worker = std::thread([this, i] { WorkerLoop(i); });
  }
}

void ShardExecutor::ExecuteLocal(const ClassifiedTxn& txn) {
  Job job;
  job.txn = &txn;
  // Decide sampling on the client thread so the worker never re-hashes; the
  // decision is observational only and never alters execution.
  job.traced = TraceRecorder::Default().enabled() &&
               TxnTraceSampled(options_.faults.seed, txn.txn_id,
                               options_.trace_sample_rate);
  job.enqueued = std::chrono::steady_clock::now();
  shards_[txn.home]->queue.Push(&job);
  job.done.acquire();
}

void ShardExecutor::Shutdown() {
  if (!started_) return;
  for (auto& shard : shards_) shard->queue.Close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  started_ = false;
}

void ShardExecutor::WorkerLoop(int32_t shard_id) {
  ShardState& shard = *shards_[shard_id];
  ShardMetrics& sm = metrics_->shard(shard_id);
  TraceRecorder& rec = TraceRecorder::Default();
  // Pinning is best-effort and performance-only: a refused affinity call
  // (restricted cpuset) just leaves the worker floating and pinned_cpu at
  // -1. Context switches are measured as the worker-lifetime delta so
  // thread-startup noise stays out of the report.
  if (static_cast<size_t>(shard_id) < pin_plan_.size() &&
      PinCurrentThreadToCpu(pin_plan_[shard_id])) {
    sm.pinned_cpu.store(pin_plan_[shard_id], std::memory_order_relaxed);
  }
  const ContextSwitchCounts csw_start = ThreadContextSwitches();
  while (auto job_opt = shard.queue.Pop()) {
    Job* job = *job_opt;
    const bool traced = job->traced;
    // Timeline anchors for sampled txns: enqueue time (came from the client
    // thread) and dequeue time, both on the recorder's clock.
    const uint64_t enq_ts = traced ? rec.ToTraceUs(job->enqueued) : 0;
    const uint64_t exec_ts = traced ? rec.NowUs() : 0;
    {
      std::lock_guard<std::mutex> guard(shard.lock);
      SimulateCpuWork(options_.local_work_us);
    }
    if (traced) {
      const int64_t tid = static_cast<int64_t>(job->txn->txn_id);
      rec.Span("runtime", "queue_wait", enq_ts,
               exec_ts > enq_ts ? exec_ts - enq_ts : 0, "txn", tid, "shard",
               shard_id);
      rec.Span("runtime", "exec", exec_ts, rec.NowUs() - exec_ts, "txn", tid,
               "shard", shard_id);
    }
    job->done.release();
  }
  const ContextSwitchCounts csw_end = ThreadContextSwitches();
  sm.ctx_voluntary.fetch_add(csw_end.voluntary - csw_start.voluntary,
                             std::memory_order_relaxed);
  sm.ctx_involuntary.fetch_add(csw_end.involuntary - csw_start.involuntary,
                               std::memory_order_relaxed);
}

}  // namespace jecb
