#include "runtime/load_gen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "obs/trace_recorder.h"

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

OpenLoopResult RunOpenLoop(
    const RuntimeOptions& options, size_t total_txns,
    std::chrono::steady_clock::time_point epoch,
    const std::function<void(int executor_id, size_t txn_index)>& execute,
    RuntimeMetrics* metrics) {
  OpenLoopResult result;
  result.submitted = total_txns;
  const std::vector<uint64_t> schedule = ComputeArrivalScheduleUs(options, total_txns);
  if (!schedule.empty()) result.arrival_window_us = schedule.back();

  // Claim state, guarded by claim_mu. Arrivals are claimed in schedule
  // order and claim times never decrease, so the admitted start times in
  // `waiting` (each max(due, claim time)) stay sorted: popping those <= due_i
  // leaves exactly the admitted arrivals that had not started when arrival
  // i was due.
  std::mutex claim_mu;
  size_t next = 0;
  std::deque<uint64_t> waiting;
  const size_t depth = options.admission_queue_depth;

  std::atomic<uint64_t> last_done_us{0};
  TraceRecorder& rec = TraceRecorder::Default();

  // The next arrival admitted by the FIFO rule, shedding the ones before it
  // that found `depth` admitted arrivals still waiting to start; nullopt
  // once the schedule is exhausted.
  auto claim = [&]() -> std::optional<size_t> {
    std::lock_guard<std::mutex> guard(claim_mu);
    for (; next < total_txns; ++next) {
      if (depth != 0) {
        const uint64_t due_us = schedule[next];
        while (!waiting.empty() && waiting.front() <= due_us) {
          waiting.pop_front();
        }
        if (waiting.size() >= depth) {
          ++result.shed;
          if (rec.enabled() && TxnTraceSampled(options.faults.seed, next,
                                               options.trace_sample_rate)) {
            rec.Instant("openloop", "shed", "txn", static_cast<int64_t>(next));
          }
          continue;
        }
        waiting.push_back(std::max(due_us, ElapsedUs(epoch)));
      }
      ++result.admitted;
      return next++;
    }
    return std::nullopt;
  };

  auto run_executor = [&](int executor_id) {
#if defined(__linux__)
    // Timer slack is per thread, and Linux's default 50 us would let every
    // sleep_until below wake that much late. Best effort: a refusal costs
    // only accuracy, and shows up as queue_wait.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
    while (std::optional<size_t> i = claim()) {
      const uint64_t due_us = schedule[*i];
      std::this_thread::sleep_until(epoch + std::chrono::microseconds(due_us));
      const uint64_t start_us = ElapsedUs(epoch);
      execute(executor_id, *i);
      const uint64_t done_us = ElapsedUs(epoch);

      // Charge backlog and dispatch lateness to the system: the split is
      // anchored at the *scheduled* arrival, so a txn that waited for a free
      // executor shows up as queue_wait even though no shard ever saw it.
      const uint64_t queue_wait = start_us > due_us ? start_us - due_us : 0;
      const uint64_t service = done_us - start_us;
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

      if (rec.enabled() && TxnTraceSampled(options.faults.seed, *i,
                                           options.trace_sample_rate)) {
        const int64_t tid = static_cast<int64_t>(*i);
        rec.Span("openloop", "queue_wait", due_us, queue_wait, "txn", tid);
        rec.Span("openloop", "service", start_us, service, "txn", tid);
      }
    }
  };

  // The calling thread only starts and joins the executors: each keeps its
  // own arrival clock, so no hand-off sits between an arrival's due time and
  // its start.
  const int num_executors = std::max(options.num_clients, 1);
  std::vector<std::thread> executors;
  executors.reserve(static_cast<size_t>(num_executors));
  for (int i = 0; i < num_executors; ++i) {
    executors.emplace_back(run_executor, i);
  }
  for (std::thread& t : executors) t.join();

  result.last_completion_us = last_done_us.load(std::memory_order_relaxed);
  metrics->shed.fetch_add(result.shed, std::memory_order_relaxed);
  return result;
}

}  // namespace jecb
