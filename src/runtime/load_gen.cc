#include "runtime/load_gen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "obs/trace_recorder.h"
#include "runtime/work_queue.h"

namespace jecb {

std::string_view ArrivalProcessName(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kFixedRate: return "fixed";
    case ArrivalProcess::kPoisson: return "poisson";
  }
  return "unknown";
}

double ArrivalUniform(uint64_t seed, uint64_t txn_id) {
  // Distinct domain tag so arrival draws never correlate with the fault
  // injector's or the trace sampler's decisions for the same txn.
  uint64_t h = HashCombine(HashCombine(seed, 0xA441Fu), txn_id);
  return static_cast<double>(HashInt64(h) >> 11) * 0x1.0p-53;
}

std::vector<uint64_t> ComputeArrivalScheduleUs(const RuntimeOptions& options,
                                               size_t count) {
  std::vector<uint64_t> schedule;
  if (options.target_tps <= 0.0 || count == 0) return schedule;
  schedule.reserve(count);
  const double us_per_txn = 1e6 / options.target_tps;
  if (options.arrival == ArrivalProcess::kFixedRate) {
    for (size_t i = 0; i < count; ++i) {
      schedule.push_back(
          static_cast<uint64_t>(std::llround(static_cast<double>(i) * us_per_txn)));
    }
    return schedule;
  }
  // Poisson: exponential inter-arrival gaps. The prefix sum runs in double
  // (exact enough: 2^53 us is ~285 years of trace) and each draw depends
  // only on (seed, i), so the schedule is reproducible regardless of who
  // computes it.
  double now_us = 0.0;
  for (size_t i = 0; i < count; ++i) {
    double u = ArrivalUniform(options.faults.seed, i);
    // u is in [0, 1); guard the log's singularity at exactly 0.
    double gap = -std::log(1.0 - std::min(u, 0x1.fffffffffffffp-1)) * us_per_txn;
    now_us += gap;
    schedule.push_back(static_cast<uint64_t>(std::llround(now_us)));
  }
  return schedule;
}

namespace {

/// What the arrival thread hands an executor: which txn, and when the
/// schedule said it arrived (the sojourn clock's zero).
struct Admitted {
  size_t index = 0;
  uint64_t scheduled_us = 0;
};

}  // namespace

OpenLoopResult RunOpenLoop(
    const RuntimeOptions& options, size_t total_txns,
    std::chrono::steady_clock::time_point epoch,
    const std::function<void(int executor_id, size_t txn_index)>& execute,
    RuntimeMetrics* metrics) {
  OpenLoopResult result;
  result.submitted = total_txns;
  const std::vector<uint64_t> schedule = ComputeArrivalScheduleUs(options, total_txns);

  WorkQueue<Admitted> admission;
  admission.SetCapacity(options.admission_queue_depth);

  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> last_done_us{0};
  TraceRecorder& rec = TraceRecorder::Default();

  auto run_executor = [&](int executor_id) {
    while (auto item = admission.Pop()) {
      const uint64_t dequeue_us = ElapsedUs(epoch);
      execute(executor_id, item->index);
      const uint64_t done_us = ElapsedUs(epoch);

      // Charge admission backlog to the system: the split is anchored at
      // the *scheduled* arrival, so a txn that sat in the admission queue
      // shows up as queue_wait even though no shard ever saw it.
      const uint64_t queue_wait =
          dequeue_us > item->scheduled_us ? dequeue_us - item->scheduled_us : 0;
      const uint64_t service = done_us - dequeue_us;
      metrics->queue_wait_latency.Record(queue_wait);
      metrics->service_latency.Record(service);
      metrics->sojourn_latency.Record(queue_wait + service);

      // Publish the completion clock: wall time stops at the last commit,
      // not at executor join (mirrors the closed-loop fix in replay.cc).
      uint64_t prev = last_done_us.load(std::memory_order_relaxed);
      while (prev < done_us &&
             !last_done_us.compare_exchange_weak(prev, done_us,
                                                 std::memory_order_relaxed)) {
      }

      if (rec.enabled() && TxnTraceSampled(options.faults.seed, item->index,
                                           options.trace_sample_rate)) {
        const int64_t tid = static_cast<int64_t>(item->index);
        rec.Span("openloop", "queue_wait", item->scheduled_us, queue_wait,
                 "txn", tid);
        rec.Span("openloop", "service", dequeue_us, service, "txn", tid);
      }
    }
  };

  const int num_executors = std::max(options.num_clients, 1);
  std::vector<std::thread> executors;
  executors.reserve(static_cast<size_t>(num_executors));
  for (int i = 0; i < num_executors; ++i) {
    executors.emplace_back(run_executor, i);
  }

  // The calling thread is the arrival thread. Deadline-accurate by
  // construction: it only ever sleeps until the next scheduled arrival and
  // uses TryPush, so a saturated admission queue sheds instantly instead of
  // stalling the schedule (which would silently convert open loop back into
  // closed loop).
  for (size_t i = 0; i < total_txns; ++i) {
    const uint64_t due_us = schedule[i];
    std::this_thread::sleep_until(epoch + std::chrono::microseconds(due_us));
    if (admission.TryPush(Admitted{i, due_us})) {
      ++result.admitted;
    } else {
      shed.fetch_add(1, std::memory_order_relaxed);
      if (rec.enabled() && TxnTraceSampled(options.faults.seed, i,
                                           options.trace_sample_rate)) {
        rec.Instant("openloop", "shed", "txn", static_cast<int64_t>(i));
      }
    }
  }
  result.arrival_window_us = ElapsedUs(epoch);
  admission.Close();
  for (std::thread& t : executors) t.join();

  result.shed = shed.load(std::memory_order_relaxed);
  result.last_completion_us = last_done_us.load(std::memory_order_relaxed);
  metrics->shed.fetch_add(result.shed, std::memory_order_relaxed);
  return result;
}

}  // namespace jecb
