// jecb_bench: one benchmark for the JECB partitioner and the real-wire
// runtime. Every workload runs the pipeline a user runs -- partition a
// training trace with Jecb::Partition, then replay the held-out trace over
// forked Unix-socket shard servers -- so every metric means the same thing on
// every workload. README.md lists the workloads, the metrics and which layer
// should move which end-to-end number.
//
//   jecb_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--smoke] [--json PATH] [--trace_out PATH] [--spec BENCHMARK.json]
//   jecb_bench --summarize --spec BENCHMARK.json RESULT.json...
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "dist/replay.h"
#include "jecb/jecb.h"
#include "json.h"
#include "partition/evaluator.h"
#include "partition/solution.h"
#include "partition_mirror.h"
#include "replay_driver.h"
#include "spans.h"
#include "stats.h"
#include "trace/flat_trace.h"
#include "workloads/tpcc.h"
#include "workloads/tpce.h"

namespace jecb::benchmark {
namespace {

using Clock = std::chrono::steady_clock;

// Load limits, sized for a 4-core machine: 2 partitioner threads; 2 clients
// against 2 shard servers (4 coordinator connections); in the open loop the
// arrival thread plus 2 executors. At 4 partitioner threads every core is
// busy, so any other process on the machine stalls a pass: on TPC-C with 8
// warehouses, partition_s over six seeds spread 0.25 of its median at 4
// threads and 0.05 at 2.
constexpr int32_t kShards = 2;
constexpr int kPartitionThreads = 2;
constexpr int kClients = 2;
// Equal offered load on every workload, well below every layout's capacity:
// the slowest, naive hash on TPC-C, sustains 14k-18k txn/s closed loop, but
// only 6k-12k while the shared host is loaded, and at 5,000 txn/s its queue
// then ran away (sojourn p50 3-11 ms instead of 0.25 ms).
constexpr double kOpenLoopTps = 2000.0;
constexpr double kTestFraction = 0.3;
// The inputs are made this many times and setup_s takes the median.
constexpr int kSetups = 5;
// Passes before partition_s is timed. The first passes in a process run
// slower while the allocator adapts (glibc raises its mmap threshold as large
// blocks are freed); the first one is reported as jecb.cold_partition_s.
constexpr int kWarmupPasses = 3;
// Open-loop arrivals left out of sojourn: the first calls of a run open the
// sessions' connections, a once-per-cluster cost.
constexpr size_t kWarmupArrivals = 500;
// Sojourn quantiles are taken per window of this many consecutive arrivals
// (0.25 s at kOpenLoopTps), and the metric is their median over the run's
// windows: a stall of the shared machine then spoils the windows it falls in,
// not the quantile of the whole run.
constexpr size_t kSojournWindow = 500;
// One-thread Jecb::Partition passes, each followed by a mirrored pass, in a
// traced run; the layer times are means over them.
constexpr int kTracedPasses = 3;

std::unique_ptr<Workload> Tpcc(int warehouses) {
  TpccConfig config;
  config.warehouses = warehouses;
  return std::make_unique<TpccWorkload>(config);
}

// TPC-E's brokers and customers are near-tied as partitioning attributes
// (paper Sec. 7.5). With the default 30 brokers JECB partitions by customer
// instead of broker on about one seed in ten, which ships a tenth of the
// remote tuples and lifts goodput by half. These broker counts make it pick
// the broker on seeds 1-50 alike, so a metric's spread over seeds measures
// the system, not which layout a seed happened to get.
std::unique_ptr<Workload> Tpce(int customers, int brokers) {
  TpceConfig config;
  config.customers = customers;
  config.brokers = brokers;
  return std::make_unique<TpceWorkload>(config);
}

struct WorkloadSpec {
  std::string_view name;
  std::unique_ptr<Workload> (*make)();
  size_t txns;       ///< whole trace: 70% trains the partitioner, 30% is replayed
  bool hash_layout;  ///< replay the naive-hash layout instead of JECB's
  /// Share of --seconds spent on partition passes; of the rest, one third
  /// replays closed loop and two thirds open loop.
  double partition_share;
};

// Why each workload is here is in README.md. The hash workload partitions the
// same trace as tpcc-jecb, so it spends most of its window on its replays.
constexpr WorkloadSpec kWorkloads[] = {
    {"tpcc-jecb", [] { return Tpcc(8); }, 40000, false, 0.5},
    {"tpcc-hash", [] { return Tpcc(8); }, 40000, true, 0.3},
    {"tpce-jecb", [] { return Tpce(2400, 24); }, 45000, false, 0.5},
};

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;  ///< printed with --trace 0; the rest with --trace 1
};

constexpr MetricDef kMetrics[] = {
    {"setup_s", "s", true},
    {"partition_s", "s", true},
    {"dist_frac", "ratio", true},
    {"peak_rss_mb", "MB", true},
    {"goodput_tps", "txn/s", true},
    {"sojourn_p50_us", "us", true},
    {"workload.generate_s", "s", false},
    {"jecb.cold_partition_s", "s", false},
    {"jecb.serial_s", "s", false},
    {"jecb.parallel_speedup", "x", false},
    {"jecb.phase1_s", "s", false},
    {"trace.flatten_s", "s", false},
    {"sql.analyze_s", "s", false},
    {"jecb.phase2_s", "s", false},
    {"jecb.phase2_max_class_s", "s", false},
    {"jecb.phase2_solutions", "count", false},
    {"jecb.phase3_s", "s", false},
    {"jecb.phase3_combinations", "count", false},
    {"jecb.phase3_ms_per_combination", "ms", false},
    {"jecb.layer_residual_frac", "ratio", false},
    {"partition.evaluate_s", "s", false},
    {"partition.evaluate_ns_per_txn", "ns", false},
    {"dist.classify_s", "s", false},
    {"runtime.layout_s", "s", false},
    {"dist.start_s", "s", false},
    {"dist.drain_s", "s", false},
    {"dist.replay_overhead_s", "s", false},
    {"dist.local_calls", "count", false},
    {"dist.local_call_p50_us", "us", false},
    {"dist.local_call_p99_us", "us", false},
    {"dist.dist_calls", "count", false},
    {"dist.dist_call_p50_us", "us", false},
    {"dist.dist_call_p99_us", "us", false},
    {"dist.readonly_call_p50_us", "us", false},
    {"dist.write_call_p50_us", "us", false},
    {"runtime.queue_wait_p50_us", "us", false},
    {"runtime.queue_wait_p99_us", "us", false},
    {"runtime.service_p50_us", "us", false},
    {"runtime.service_p99_us", "us", false},
    {"runtime.sojourn_p90_us", "us", false},
    {"runtime.sojourn_p99_us", "us", false},
    {"net.msgs_per_txn", "count", false},
    {"net.bytes_per_txn", "B", false},
    {"net.rtt_mean_us", "us", false},
    {"exchange.remote_tuples_per_txn", "count", false},
    {"exchange.remote_frac", "ratio", false},
    {"exchange.bytes_per_txn", "B", false},
    {"exchange.batches_per_txn", "count", false},
    {"bench.trace_overhead_frac", "ratio", false},
};

const MetricDef* FindMetric(std::string_view name) {
  for (const MetricDef& m : kMetrics) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

Clock::time_point After(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

uint64_t TraceDigest(const Trace& trace) {
  uint64_t h = HashInt64(trace.size());
  for (const Transaction& txn : trace.transactions()) {
    h = HashCombine(h, txn.class_id);
    for (const Access& a : txn.accesses) {
      h = HashCombine(h, HashCombine(TupleIdHash{}(a.tuple), a.write ? 1 : 0));
    }
  }
  return h;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string json_path;
  std::string trace_out;
  std::string spec_path;
  bool summarize = false;
  std::vector<std::string> files;
};

/// One run's results and verdict.
class Run {
 public:
  void Set(const std::string& name, double value) {
    if (FindMetric(name) == nullptr) {
      Fail(name + " is not a metric of this benchmark");
    } else if (!std::isfinite(value)) {
      Fail(name + " is not finite");
    } else {
      values_[name] = value;
    }
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  void Fail(const std::string& what) {
    std::fprintf(stderr, "jecb_bench: CHECK FAILED: %s\n", what.c_str());
    failures_.push_back(what);
  }
  /// Nearest-rank quantile over raw samples (negative = did not run). A
  /// tail quantile needs at least 10 samples beyond it.
  void SetQuantile(const std::string& name, std::vector<double> samples, double q) {
    std::erase_if(samples, [](double s) { return s < 0.0; });
    std::sort(samples.begin(), samples.end());
    if (samples.empty() || (q > 0.5 && SamplesBeyond(samples, q) < 10)) {
      Fail(name + ": " + std::to_string(samples.size()) + " samples are too few");
      return;
    }
    Set(name, NearestRank(samples, q));
    std::fprintf(stderr, "jecb_bench: %s over n=%zu\n", name.c_str(), samples.size());
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool correct() const { return failures_.empty(); }
  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
};

/// Socket files and shard postmortems go to a directory of this run under the
/// working directory, not to $TMPDIR. The path is relative, which keeps it
/// short of the Unix socket path limit however deep the working directory is.
const std::string& RunDir() {
  static const std::string dir = "jecb_bench-" + std::to_string(getpid());
  return dir;
}

RuntimeOptions ClosedLoopRuntime(uint64_t seed) {
  RuntimeOptions o;
  o.transport = TransportKind::kUnixSocket;
  o.socket_dir = RunDir();
  o.postmortem_dir = RunDir();
  o.num_clients = kClients;
  o.local_work_us = 0;
  o.round_trip_us = 0;
  o.lock_hold_us = 0;
  o.faults.seed = seed;
  return o;
}

RuntimeOptions OpenLoopRuntime(uint64_t seed) {
  RuntimeOptions o = ClosedLoopRuntime(seed);
  o.target_tps = kOpenLoopTps;
  o.arrival = ArrivalProcess::kPoisson;
  // Unbounded admission: a stall on a shared machine shows up as sojourn
  // instead of as shed (dropped) transactions.
  o.admission_queue_depth = 0;
  return o;
}

/// What a run builds up: the inputs, the layout, the reference replay and
/// the samples of the timed steps.
struct Measured {
  WorkloadBundle bundle;
  Trace train;
  Trace test;
  std::string jecb_describe;
  std::optional<DatabaseSolution> layout;
  EvalResult eval;
  std::optional<ReplayReport> closed;  ///< the first closed-loop Replay()
  std::vector<double> pass_s;
  std::vector<double> goodput;
  std::vector<double> overhead_s;
  std::vector<double> sojourn_us;  ///< every measured open-loop arrival
  std::vector<double> window_p50_us;
  std::vector<double> window_p90_us;
};

/// Set-up: the inputs, made kSetups times from the seed.
void Setup(const WorkloadSpec& w, const Args& args, Run& run, Measured& m) {
  std::vector<double> generate_s;
  uint64_t digest = 0;
  for (int i = 0; i < kSetups; ++i) {
    m.bundle = WorkloadBundle{};
    const Clock::time_point t = Clock::now();
    m.bundle = w.make()->Make(w.txns, args.seed);
    generate_s.push_back(Seconds(t));
    const uint64_t d = TraceDigest(m.bundle.trace);
    run.Check(i == 0 || d == digest, "the same seed generated a different trace");
    digest = d;
  }
  std::tie(m.train, m.test) = m.bundle.trace.SplitTrainTest(kTestFraction);
  run.Set("workload.generate_s", Median(generate_s));
}

/// One Jecb::Partition pass at kPartitionThreads; every pass must reach the
/// same solution.
std::optional<DatabaseSolution> PartitionPass(Run& run, Measured& m) {
  Database* db = m.bundle.db.get();
  JecbOptions options;
  options.num_partitions = kShards;
  options.num_threads = kPartitionThreads;
  const Clock::time_point t = Clock::now();
  Result<JecbResult> r = Jecb(options).Partition(db, m.bundle.procedures, m.train);
  m.pass_s.push_back(Seconds(t));
  ++run.attempted;
  if (!r.ok()) {
    ++run.failed;
    run.Fail("Jecb::Partition: " + r.status().ToString());
    return std::nullopt;
  }
  const std::string d = r.value().solution.Describe(db->schema());
  run.Check(m.jecb_describe.empty() || d == m.jecb_describe, "partition passes disagree");
  m.jecb_describe = d;
  return std::move(r).value().solution;
}

/// One closed-loop Replay(), checked against Evaluate() and the first one.
void ClosedReplay(const WorkloadSpec& w, const Args& args, Run& run, Measured& m) {
  const Clock::time_point t = Clock::now();
  ReplayReport r = Replay(*m.bundle.db, *m.layout, m.test, ClosedLoopRuntime(args.seed),
                          std::string(w.name));
  m.overhead_s.push_back(Seconds(t) - r.wall_seconds);
  m.goodput.push_back(r.goodput_tps);
  run.attempted += r.total_txns;
  run.failed += r.failed;
  run.Check(r.committed + r.failed == r.total_txns, "Replay(): committed + failed != total");
  run.Check(r.residency_faults == 0, "Replay(): residency faults");
  run.Check(r.abnormal_shard_exits() == 0, "Replay(): abnormal shard exits");
  run.Check(r.total_txns == m.eval.total_txns &&
                r.distributed_committed == m.eval.distributed_txns,
            "Replay(): measured distributed fraction differs from Evaluate");
  run.Check(!m.closed || r.OutcomeSignature() == m.closed->OutcomeSignature(),
            "Replay(): OutcomeSignature differs between passes");
  if (!m.closed) m.closed = std::move(r);
}

/// Checks one Drive() against the closed-loop Replay() of the same trace.
void CheckDrive(Run& run, const DriveResult& d, const ReplayReport& closed,
                const std::string& what) {
  run.attempted += d.txns;
  run.failed += d.snapshot.failed + d.shed;
  run.Check(d.shed == 0, what + " shed " + std::to_string(d.shed) + " transactions");
  run.Check(d.snapshot.committed == closed.committed,
            what + " committed a different count than Replay()");
  run.Check(d.snapshot.exchange_digest == closed.exchange_digest,
            what + " exchange digest differs from Replay()");
  run.Check(d.snapshot.residency_faults == 0, what + " has residency faults");
  for (const ShardExitStatus& e : d.transport.shard_exits) {
    run.Check(e.clean(), what + ": shard " + std::to_string(e.shard) + " did not exit cleanly");
  }
}

/// One open-loop pass through the benchmark's own driver, which times each
/// transaction from its scheduled arrival.
void OpenReplay(const Args& args, Run& run, Measured& m) {
  const DriveResult d =
      Drive(*m.bundle.db, *m.layout, m.test, OpenLoopRuntime(args.seed), nullptr);
  CheckDrive(run, d, *m.closed, "open loop");
  // Arrivals are scheduled in index order, so consecutive indices are a
  // window of time.
  for (size_t begin = kWarmupArrivals; begin < d.sojourn_us.size(); begin += kSojournWindow) {
    const size_t end = std::min(begin + kSojournWindow, d.sojourn_us.size());
    std::vector<double> window(d.sojourn_us.begin() + begin, d.sojourn_us.begin() + end);
    m.sojourn_us.insert(m.sojourn_us.end(), window.begin(), window.end());
    if (window.size() < kSojournWindow) break;
    std::sort(window.begin(), window.end());
    m.window_p50_us.push_back(NearestRank(window, 0.50));
    m.window_p90_us.push_back(NearestRank(window, 0.90));
  }
}

/// A timed step of a run and its share of the run's time.
struct Step {
  double share = 0.0;
  int min_count = 0;
  std::function<void()> call;
  double spent_s = 0.0;
  double last_s = 0.0;
  int count = 0;
};

/// Runs the steps interleaved until `deadline`: each turn goes to the step
/// furthest below its share of the time spent so far, so every metric samples
/// the whole run rather than one slice of it (slow periods on a shared
/// machine last seconds). Stops when every step has run its minimum count and
/// the next turn, taking as long as that step's last one, would overrun.
void Interleave(Clock::time_point deadline, std::vector<Step>& steps) {
  for (;;) {
    const bool mins_met = std::all_of(steps.begin(), steps.end(),
                                      [](const Step& s) { return s.count >= s.min_count; });
    Step* next = nullptr;
    for (Step& s : steps) {
      if (!mins_met && s.count >= s.min_count) continue;
      if (next == nullptr || s.spent_s / s.share < next->spent_s / next->share) next = &s;
    }
    if (mins_met && Clock::now() + std::chrono::duration<double>(next->last_s) > deadline) {
      return;
    }
    const Clock::time_point t = Clock::now();
    next->call();
    next->last_s = Seconds(t);
    next->spent_s += next->last_s;
    ++next->count;
  }
}

/// The partitioner layer by layer at one thread, checked against a
/// one-thread Jecb::Partition of the same trace.
void TracedPartition(Run& run, Measured& m, double partition_s, SpanLog& spans) {
  Database* db = m.bundle.db.get();
  JecbOptions serial;
  serial.num_partitions = kShards;
  serial.num_threads = 1;
  double serial_s = 0.0;
  uint64_t class_solutions = 0;
  uint64_t combinations = 0;
  for (int i = 0; i < kTracedPasses; ++i) {
    const Clock::time_point t = Clock::now();
    Result<JecbResult> ref = Jecb(serial).Partition(db, m.bundle.procedures, m.train);
    serial_s += Seconds(t) / kTracedPasses;
    Result<MirrorResult> mirror =
        MirrorPartition(db, m.bundle.procedures, m.train, kShards, &spans);
    run.attempted += 2;
    if (!ref.ok() || !mirror.ok()) {
      ++run.failed;
      run.Fail("traced partition failed");
      return;
    }
    run.Check(ref.value().solution.Describe(db->schema()) == m.jecb_describe &&
                  mirror.value().solution.Describe(db->schema()) == m.jecb_describe,
              "the one-thread and mirrored partitions differ from Jecb::Partition");
    class_solutions = mirror.value().class_solutions;
    combinations = mirror.value().combinations;
  }

  // Layer times are means per mirrored pass.
  auto per_pass = [&](const char* name) { return spans.TotalSeconds(name) / kTracedPasses; };
  const double phase1_s = per_pass("jecb.phase1");
  const double flatten_s = per_pass("trace.flatten");
  const double analyze_s = per_pass("sql.analyze");
  const double phase2_s = per_pass("jecb.class_partition");
  const double phase3_s = per_pass("jecb.phase3");
  // The slowest class, by its mean over the passes (spans come pass by pass,
  // classes in the same order each time).
  const std::vector<double> class_spans = spans.Seconds("jecb.class");
  std::vector<double> class_s(class_spans.size() / kTracedPasses, 0.0);
  for (size_t i = 0; i < class_spans.size(); ++i) {
    class_s[i % class_s.size()] += class_spans[i] / kTracedPasses;
  }
  run.Set("jecb.serial_s", serial_s);
  run.Set("jecb.parallel_speedup", serial_s / partition_s);
  run.Set("jecb.phase1_s", phase1_s);
  run.Set("trace.flatten_s", flatten_s);
  run.Set("sql.analyze_s", analyze_s);
  run.Set("jecb.phase2_s", phase2_s);
  run.Set("jecb.phase2_max_class_s", *std::max_element(class_s.begin(), class_s.end()));
  run.Set("jecb.phase2_solutions", static_cast<double>(class_solutions));
  run.Set("jecb.phase3_s", phase3_s);
  run.Set("jecb.phase3_combinations", static_cast<double>(combinations));
  run.Set("jecb.phase3_ms_per_combination",
          1e3 * phase3_s / static_cast<double>(std::max<uint64_t>(combinations, 1)));
  run.Set("jecb.layer_residual_frac",
          std::abs(serial_s - (phase1_s + flatten_s + analyze_s + phase2_s + phase3_s)) /
              serial_s);

  const int32_t span = spans.Begin("partition.evaluate");
  const EvalResult eval = Evaluate(*db, *m.layout, m.test);
  spans.End(span);
  run.Check(eval == m.eval, "traced Evaluate differs");
  const double evaluate_s = spans.TotalSeconds("partition.evaluate");
  run.Set("partition.evaluate_s", evaluate_s);
  run.Set("partition.evaluate_ns_per_txn",
          1e9 * evaluate_s / static_cast<double>(m.test.size()));
}

/// The runtime layer by layer: traced closed-loop drives (their outcome must
/// match Replay()'s) and one traced open-loop drive.
void TracedReplay(const Args& args, double budget_s, Run& run, Measured& m,
                  double goodput_tps, SpanLog& spans) {
  const Database& db = *m.bundle.db;
  std::vector<double> goodput;
  const Clock::time_point deadline = After(budget_s / 3.0);
  do {
    const DriveResult d = Drive(db, *m.layout, m.test, ClosedLoopRuntime(args.seed), &spans);
    CheckDrive(run, d, *m.closed, "traced closed loop");
    run.Check(d.OutcomeSignature() == m.closed->OutcomeSignature(),
              "traced OutcomeSignature differs from Replay()");
    goodput.push_back(static_cast<double>(d.snapshot.committed) / d.wall_s);
  } while (Clock::now() < deadline);
  const DriveResult open = Drive(db, *m.layout, m.test, OpenLoopRuntime(args.seed), &spans);
  CheckDrive(run, open, *m.closed, "traced open loop");
  run.Set("bench.trace_overhead_frac", 1.0 - Median(goodput) / goodput_tps);

  run.Set("dist.classify_s", Median(spans.Seconds("dist.classify")));
  run.Set("runtime.layout_s", Median(spans.Seconds("runtime.layout")));
  run.Set("dist.start_s", Median(spans.Seconds("dist.start")));
  run.Set("dist.drain_s", Median(spans.Seconds("dist.drain")));

  std::vector<double> local_us, dist_us, readonly_us, write_us;
  for (const Span& s : spans.spans()) {
    if (s.txn < 0) continue;
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    (s.name == "call.local" ? local_us : dist_us).push_back(us);
    const Transaction& txn = m.test.transactions()[static_cast<size_t>(s.txn)];
    const bool writes = std::any_of(txn.accesses.begin(), txn.accesses.end(),
                                    [](const Access& a) { return a.write; });
    (writes ? write_us : readonly_us).push_back(us);
  }
  const double txns = static_cast<double>(open.txns);
  const double two_phase = static_cast<double>(
      std::count(open.two_phase.begin(), open.two_phase.end(), uint8_t{1}));
  run.Set("dist.local_calls", txns - two_phase);
  run.Set("dist.dist_calls", two_phase);
  run.SetQuantile("dist.local_call_p50_us", local_us, 0.50);
  run.SetQuantile("dist.local_call_p99_us", local_us, 0.99);
  run.SetQuantile("dist.dist_call_p50_us", dist_us, 0.50);
  run.SetQuantile("dist.dist_call_p99_us", dist_us, 0.99);
  run.SetQuantile("dist.readonly_call_p50_us", readonly_us, 0.50);
  run.SetQuantile("dist.write_call_p50_us", write_us, 0.50);
  run.SetQuantile("runtime.queue_wait_p50_us", open.queue_us, 0.50);
  run.SetQuantile("runtime.queue_wait_p99_us", open.queue_us, 0.99);
  run.SetQuantile("runtime.service_p50_us", open.call_us, 0.50);
  run.SetQuantile("runtime.service_p99_us", open.call_us, 0.99);

  const TransportCounters& net = open.transport.counters;
  run.Set("net.msgs_per_txn",
          static_cast<double>(net.messages_sent + net.messages_received) / txns);
  run.Set("net.bytes_per_txn", static_cast<double>(net.bytes_sent + net.bytes_received) / txns);
  run.Set("net.rtt_mean_us", open.transport.rtt.mean_us());
  const MetricsSnapshot& ex = open.snapshot;
  run.Set("exchange.remote_tuples_per_txn",
          static_cast<double>(ex.exchange_remote_tuples) / txns);
  run.Set("exchange.remote_frac",
          static_cast<double>(ex.exchange_remote_tuples) /
              static_cast<double>(std::max<uint64_t>(ex.exchange_tuples, 1)));
  run.Set("exchange.bytes_per_txn", static_cast<double>(ex.exchange_bytes) / txns);
  run.Set("exchange.batches_per_txn", static_cast<double>(ex.exchange_batches) / txns);
}

void RunWorkload(const WorkloadSpec& w, const Args& args, Run& run) {
  Measured m;
  Setup(w, args, run, m);

  // The measured window opens with the warm-up passes, which also settle the
  // layout and the reference Replay(). A traced run gives half of it to the
  // untraced steps it is compared with; --smoke runs each step the minimum
  // number of times.
  const double window_s = args.smoke ? 0.0 : args.seconds * (args.trace ? 0.5 : 1.0);
  const Clock::time_point deadline = After(window_s);
  std::optional<DatabaseSolution> solution;
  for (int i = 0; i < kWarmupPasses; ++i) solution = PartitionPass(run, m);
  if (!solution) return;
  run.Set("jecb.cold_partition_s", m.pass_s.front());
  m.pass_s.clear();
  Database& db = *m.bundle.db;
  m.layout = w.hash_layout ? MakeNaiveHashSolution(db, kShards) : *solution;
  m.eval = Evaluate(db, *m.layout, m.test);
  run.Check(m.eval == Evaluate(db, *m.layout, FlatTrace::FromTrace(m.test)),
            "Evaluate(Trace) != Evaluate(FlatTrace)");
  run.Set("dist_frac", m.eval.cost());
  ClosedReplay(w, args, run, m);

  const double replay_share = 1.0 - w.partition_share;
  std::vector<Step> steps = {
      {w.partition_share, args.smoke ? 1 : 3, [&] { PartitionPass(run, m); }},
      {replay_share / 3.0, 1, [&] { ClosedReplay(w, args, run, m); }},
      {replay_share * 2.0 / 3.0, 1, [&] { OpenReplay(args, run, m); }},
  };
  Interleave(deadline, steps);

  const double partition_s = Median(m.pass_s);
  const double goodput_tps = Median(m.goodput);
  run.Set("partition_s", partition_s);
  run.Set("goodput_tps", goodput_tps);
  run.Set("dist.replay_overhead_s", Median(m.overhead_s));
  run.Set("setup_s", run.values().at("workload.generate_s") + Median(m.overhead_s));
  run.Check(!m.window_p50_us.empty(), "no open-loop window of sojourn samples");
  run.Set("sojourn_p50_us", Median(m.window_p50_us));
  run.Set("runtime.sojourn_p90_us", Median(m.window_p90_us));
  std::fprintf(stderr, "jecb_bench: sojourn quantiles over %zu windows of %zu arrivals\n",
               m.window_p50_us.size(), kSojournWindow);
  run.SetQuantile("runtime.sojourn_p99_us", m.sojourn_us, 0.99);
  if (!args.trace) return;

  SpanLog spans;
  TracedPartition(run, m, partition_s, spans);
  TracedReplay(args, window_s * replay_share, run, m, goodput_tps, spans);
  if (!args.trace_out.empty()) {
    run.Check(spans.WriteChromeTrace(args.trace_out), "cannot write " + args.trace_out);
  }
}

double PeakRssMb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

/// Shortest text that reads back as exactly `v`.
std::string FormatValue(double v) {
  char buf[64];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// BENCHMARK.json must list this program's workloads and metrics, name for
/// name and unit for unit.
void CheckSpec(const std::string& path, Run& run) {
  std::optional<Json> spec = ReadJsonFile(path);
  if (!spec) {
    run.Fail("cannot read " + path);
    return;
  }
  auto names = [&](const char* key, bool with_unit) {
    std::vector<std::string> out;
    const Json* list = spec->Find(key);
    for (const Json& item : list ? list->items : std::vector<Json>{}) {
      const Json* name = item.Find("name");
      const Json* unit = item.Find("unit");
      out.push_back((name ? name->string : "?") +
                    (with_unit ? " " + (unit ? unit->string : "?") : ""));
    }
    return out;
  };
  std::vector<std::string> workloads;
  for (const WorkloadSpec& w : kWorkloads) workloads.emplace_back(w.name);
  run.Check(names("workloads", false) == workloads,
            "workloads in " + path + " differ from the program's");
  for (const bool end_to_end : {true, false}) {
    std::vector<std::string> want;
    for (const MetricDef& m : kMetrics) {
      if (m.end_to_end == end_to_end) want.push_back(std::string(m.name) + " " + m.unit);
    }
    const char* key = end_to_end ? "end_to_end" : "per_layer";
    run.Check(names(key, true) == want,
              std::string(key) + " metrics in " + path + " differ from the program's");
  }
  for (const MetricDef& m : kMetrics) {
    const std::string_view name = m.name;
    run.Check(!name.empty() && name.find_first_not_of(
                                   "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                                   "0123456789_.-") == std::string_view::npos,
              "metric name " + std::string(name) + " has characters outside [A-Za-z0-9_.-]");
  }
}

/// Median, Q1 and Q3 of every metric per workload over the result files;
/// fails when an end-to-end metric's spread (Q3-Q1)/median exceeds its bound.
int Summarize(const Args& args) {
  std::optional<Json> spec = ReadJsonFile(args.spec_path);
  const Json* end_to_end = spec ? spec->Find("end_to_end") : nullptr;
  if (end_to_end == nullptr) {
    std::fprintf(stderr, "jecb_bench: --summarize needs --spec BENCHMARK.json\n");
    return 2;
  }
  std::map<std::string, double> bounds;
  for (const Json& m : end_to_end->items) {
    if (m.Find("name") && m.Find("bound")) bounds[m.Find("name")->string] = m.Find("bound")->number;
  }
  // workload -> metric -> one value per result file
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  for (const std::string& file : args.files) {
    std::optional<Json> r = ReadJsonFile(file);
    const Json* workload = r ? r->Find("workload") : nullptr;
    const Json* metrics = r ? r->Find("metrics") : nullptr;
    if (!workload || !metrics) {
      std::fprintf(stderr, "jecb_bench: %s is not a result file\n", file.c_str());
      return 2;
    }
    for (const auto& [name, metric] : metrics->fields) {
      if (const Json* v = metric.Find("value")) {
        values[workload->string][name].push_back(v->number);
      }
    }
  }
  bool ok = true;
  std::printf("%-18s %-32s %3s %12s %12s %12s %7s %5s\n", "workload", "metric", "n", "median",
              "q1", "q3", "spread", "bound");
  for (const auto& [workload, metrics] : values) {
    for (const auto& [name, v] : metrics) {
      double q1 = 0.0, q3 = 0.0;
      Quartiles(v, &q1, &q3);
      const double median = Median(v);
      const double spread = median != 0.0 ? (q3 - q1) / std::abs(median) : 0.0;
      const auto bound = bounds.find(name);
      // setup_s is exempt: its bound limits the drift of the median, not the
      // spread between seeds.
      const bool over = bound != bounds.end() && name != "setup_s" && spread > bound->second;
      ok = ok && !over;
      std::printf("%-18s %-32s %3zu %12.6g %12.6g %12.6g %7.4f %5s%s\n", workload.c_str(),
                  name.c_str(), v.size(), median, q1, q3, spread,
                  bound != bounds.end() ? FormatValue(bound->second).c_str() : "-",
                  over ? "  OVER" : "");
    }
  }
  return ok ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--smoke") {
      args->smoke = true;
    } else if (a == "--summarize") {
      args->summarize = true;
    } else if (a.substr(0, 2) != "--") {
      args->files.emplace_back(a);
    } else if (i + 1 == argc) {
      return false;
    } else {
      const char* v = argv[++i];
      if (a == "--workload") {
        args->workload = v;
      } else if (a == "--seed") {
        args->seed = std::strtoull(v, nullptr, 10);
      } else if (a == "--seconds") {
        args->seconds = std::strtod(v, nullptr);
      } else if (a == "--trace" && (std::string_view(v) == "0" || std::string_view(v) == "1")) {
        args->trace = std::string_view(v) == "1";
      } else if (a == "--json") {
        args->json_path = v;
      } else if (a == "--trace_out") {
        args->trace_out = v;
      } else if (a == "--spec") {
        args->spec_path = v;
      } else {
        return false;
      }
    }
  }
  return args->summarize || !args->workload.empty();
}

std::string MetricsJson(const std::vector<std::pair<std::string, double>>& metrics) {
  std::string out;
  for (const auto& [name, value] : metrics) {
    out += std::string(out.empty() ? "" : ", ") + "\"" + name + "\": {\"value\": " +
           FormatValue(value) + ", \"unit\": \"" + FindMetric(name)->unit + "\"}";
  }
  return "{" + out + "}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: jecb_bench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--smoke] [--json PATH] [--trace_out PATH] "
                 "[--spec BENCHMARK.json]\n"
                 "       jecb_bench --summarize --spec BENCHMARK.json RESULT.json...\n");
    return 2;
  }
  if (args.summarize) return Summarize(args);
  const WorkloadSpec* workload = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == args.workload) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "jecb_bench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  Run run;
  if (!args.spec_path.empty()) CheckSpec(args.spec_path, run);
  if (mkdir(RunDir().c_str(), 0700) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "jecb_bench: cannot create %s\n", RunDir().c_str());
    return 1;
  }
  RunWorkload(*workload, args, run);
  rmdir(RunDir().c_str());  // stays when a shard left a postmortem in it
  run.Set("peak_rss_mb", PeakRssMb());

  // stdout gets the metrics --trace selects; --json gets all that were measured.
  std::vector<std::pair<std::string, double>> printed;
  for (const MetricDef& m : kMetrics) {
    const auto it = run.values().find(m.name);
    const bool selected = m.end_to_end != args.trace;
    if (it == run.values().end()) {
      // A traced run measures every metric; an untraced one only its own.
      if (selected || args.trace) run.Fail(std::string("metric ") + m.name + " was not measured");
      continue;
    }
    if (!selected) continue;
    std::printf("metric %s %s %s\n", m.name, FormatValue(it->second).c_str(), m.unit);
    printed.emplace_back(m.name, it->second);
  }
  if (!args.json_path.empty()) {
    bool written = false;
    if (std::FILE* f = std::fopen(args.json_path.c_str(), "w")) {
      written = std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                             "\"metrics\": %s}\n",
                             workload->name.data(), static_cast<unsigned long long>(args.seed),
                             args.trace ? 1 : 0,
                             MetricsJson({run.values().begin(), run.values().end()}).c_str()) > 0;
      written = std::fclose(f) == 0 && written;
    }
    run.Check(written, "cannot write " + args.json_path);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              run.correct() ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(run.attempted, 1)),
              static_cast<unsigned long long>(run.failed), MetricsJson(printed).c_str());
  return run.correct() ? 0 : 1;
}

}  // namespace
}  // namespace jecb::benchmark

int main(int argc, char** argv) { return jecb::benchmark::Main(argc, argv); }
