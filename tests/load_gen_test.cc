// Tests for the open-loop load generator (runtime/load_gen.h) and the CPU
// topology layer (common/topology.h, common/arena.h):
//   - arrival schedules are pure functions of (seed, txn id): identical at
//     any executor-thread count, monotone, and exactly i/target_tps for the
//     fixed-rate process;
//   - a sub-saturation open-loop replay (unbounded admission queue, so shed
//     is structurally zero) reproduces the closed-loop OutcomeSignature
//     bit-for-bit across 1/4/8 clients and the inproc/unix/tcp backends;
//   - the shed conservation invariant total = committed + failed + shed
//     holds under a saturating target with a tiny admission queue;
//   - offered_tps is the schedule's arrival rate even when service lags far
//     behind the schedule;
//   - every executor runs its arrivals at 1 ns timer slack, and admission
//     sheds exactly the arrivals that find admission_queue_depth admitted
//     ones still waiting to start;
//   - pin_threads is performance-only: signatures are identical with it on
//     or off;
//   - the sysfs topology parser golden-tests against a fabricated tree and
//     degrades to the flat fallback when the tree is absent;
//   - Arena allocation keeps returned memory contiguous, aligned and stable.
// Runs under ThreadSanitizer (label: tsan).
#include <gtest/gtest.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/topology.h"
#include "dist/replay.h"
#include "partition/solution.h"
#include "runtime/load_gen.h"
#include "workloads/tpcc.h"

namespace jecb {
namespace {

WorkloadBundle SmallTpcc(size_t txns = 300, uint64_t seed = 7) {
  TpccConfig cfg;
  cfg.warehouses = 4;
  cfg.districts_per_warehouse = 2;
  cfg.customers_per_district = 6;
  cfg.items = 20;
  cfg.initial_orders_per_district = 2;
  return TpccWorkload(cfg).Make(txns, seed);
}

DatabaseSolution MixedSolution(const Database& db, int32_t k) {
  DatabaseSolution s = MakeNaiveHashSolution(db, k);
  TableId wh = db.schema().FindTable("WAREHOUSE").value();
  s.Set(wh, std::make_shared<ReplicatedTable>());
  return s;
}

RuntimeOptions FastOptions(TransportKind transport, int clients) {
  RuntimeOptions opt;
  opt.transport = transport;
  opt.num_clients = clients;
  opt.local_work_us = 0;
  opt.round_trip_us = 0;
  opt.lock_hold_us = 0;
  return opt;
}

ReplayReport RunReplay(const WorkloadBundle& bundle,
                       const DatabaseSolution& solution,
                       const RuntimeOptions& opt, const std::string& label) {
  return Replay(*bundle.db, solution, bundle.trace, opt, label);
}

// ---------------------------------------------------------------------------
// Arrival schedule

TEST(ArrivalScheduleTest, FixedRateIsExactlyLinear) {
  RuntimeOptions opt;
  opt.target_tps = 2500.0;
  opt.arrival = ArrivalProcess::kFixedRate;
  std::vector<uint64_t> s = ComputeArrivalScheduleUs(opt, 100);
  ASSERT_EQ(s.size(), 100u);
  EXPECT_EQ(s[0], 0u);
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s[i], static_cast<uint64_t>(
                        std::llround(static_cast<double>(i) * 1e6 / 2500.0)));
  }
}

TEST(ArrivalScheduleTest, PoissonIsDeterministicMonotoneAndSeedSensitive) {
  RuntimeOptions opt;
  opt.target_tps = 10000.0;
  opt.arrival = ArrivalProcess::kPoisson;
  opt.faults.seed = 42;
  std::vector<uint64_t> a = ComputeArrivalScheduleUs(opt, 500);
  std::vector<uint64_t> b = ComputeArrivalScheduleUs(opt, 500);
  EXPECT_EQ(a, b) << "schedule must be a pure function of (seed, txn id)";
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));

  opt.faults.seed = 43;
  std::vector<uint64_t> c = ComputeArrivalScheduleUs(opt, 500);
  EXPECT_NE(a, c) << "different seeds must draw different gaps";

  // Mean inter-arrival should be in the right ballpark (1/λ = 100 us);
  // 500 draws keep the sample mean within a loose factor-of-2 band.
  double mean_gap = static_cast<double>(a.back()) / 499.0;
  EXPECT_GT(mean_gap, 50.0);
  EXPECT_LT(mean_gap, 200.0);
}

TEST(ArrivalScheduleTest, ClosedLoopAndEmptyTraceYieldNoSchedule) {
  RuntimeOptions opt;
  EXPECT_TRUE(ComputeArrivalScheduleUs(opt, 100).empty());
  opt.target_tps = 1000.0;
  EXPECT_TRUE(ComputeArrivalScheduleUs(opt, 0).empty());
}

TEST(ArrivalScheduleTest, ArrivalUniformIsInHalfOpenUnitInterval) {
  for (uint64_t i = 0; i < 1000; ++i) {
    double u = ArrivalUniform(7, i);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_EQ(u, ArrivalUniform(7, i));
  }
}

// ---------------------------------------------------------------------------
// Open-loop replay: determinism + conservation

// Sub-saturation contract: with an unbounded admission queue nothing sheds,
// so the executed set is the whole trace and the outcome signature matches
// the closed-loop replay — at every client count, on every backend.
TEST(OpenLoopReplayTest, SignatureMatchesClosedLoopAcrossClientsAndBackends) {
  WorkloadBundle bundle = SmallTpcc(200);
  DatabaseSolution solution = MixedSolution(*bundle.db, 2);

  ReplayReport closed = RunReplay(
      bundle, solution, FastOptions(TransportKind::kInProcess, 4), "closed");
  const uint64_t want = closed.OutcomeSignature();
  ASSERT_EQ(closed.committed + closed.failed, closed.total_txns);

  for (TransportKind transport :
       {TransportKind::kInProcess, TransportKind::kUnixSocket,
        TransportKind::kTcpSocket}) {
    for (int clients : {1, 4, 8}) {
      RuntimeOptions opt = FastOptions(transport, clients);
      opt.target_tps = 50000.0;  // far above capacity: stresses admission
      opt.arrival = ArrivalProcess::kPoisson;
      opt.admission_queue_depth = 0;  // unbounded: shed structurally zero
      ReplayReport open = RunReplay(bundle, solution, opt, "open");
      EXPECT_EQ(open.shed, 0u);
      EXPECT_EQ(open.OutcomeSignature(), want)
          << "transport=" << TransportKindName(transport)
          << " clients=" << clients;
      EXPECT_EQ(open.committed + open.failed, open.total_txns);
      EXPECT_GT(open.sojourn.count, 0u);
      EXPECT_EQ(open.sojourn.count, open.queue_wait.count);
      EXPECT_EQ(open.sojourn.count, open.service.count);
    }
  }
}

// Saturating target + tiny admission queue: arrivals outpace service, some
// are shed, and the ledger still balances exactly.
TEST(OpenLoopReplayTest, ShedConservationUnderSaturation) {
  WorkloadBundle bundle = SmallTpcc(400);
  DatabaseSolution solution = MixedSolution(*bundle.db, 2);

  RuntimeOptions opt = FastOptions(TransportKind::kInProcess, 1);
  opt.local_work_us = 200;  // slow service so the queue actually fills
  opt.target_tps = 1e6;     // arrivals are effectively instantaneous
  opt.arrival = ArrivalProcess::kFixedRate;
  opt.admission_queue_depth = 1;
  ReplayReport r = RunReplay(bundle, solution, opt, "saturated");

  EXPECT_GT(r.shed, 0u) << "a depth-1 queue at 1M tps must shed";
  EXPECT_EQ(r.committed + r.failed + r.shed, r.total_txns)
      << "conservation: every arrival commits, fails, or is shed";
  EXPECT_LT(r.committed, r.total_txns);
}

// Offered load is the arrival rate, not throughput: service (one client,
// 500 us per transaction) is ten times slower than the schedule, so the
// replay ends long after the last arrival, yet offered_tps must still be
// the schedule's rate.
TEST(OpenLoopReplayTest, OfferedLoadIsTheArrivalRateUnderOverload) {
  WorkloadBundle bundle = SmallTpcc(200);
  DatabaseSolution solution = MixedSolution(*bundle.db, 2);

  RuntimeOptions opt = FastOptions(TransportKind::kInProcess, 1);
  opt.local_work_us = 500;
  opt.target_tps = 20000.0;
  opt.arrival = ArrivalProcess::kFixedRate;
  opt.admission_queue_depth = 0;
  ReplayReport r = RunReplay(bundle, solution, opt, "overload");

  EXPECT_EQ(r.shed, 0u);
  EXPECT_EQ(r.total_txns, 200u);
  EXPECT_LT(r.goodput_tps, 0.5 * opt.target_tps) << "the run must be overloaded";
  const std::vector<uint64_t> schedule =
      ComputeArrivalScheduleUs(opt, r.total_txns);
  const double window_s = static_cast<double>(schedule.back()) / 1e6;
  EXPECT_DOUBLE_EQ(r.offered_tps,
                   static_cast<double>(r.total_txns) / window_s);
}

TEST(OpenLoopReplayTest, FixedRateAndPoissonBothReproduceClosedLoop) {
  WorkloadBundle bundle = SmallTpcc(150);
  DatabaseSolution solution = MixedSolution(*bundle.db, 2);
  ReplayReport closed = RunReplay(
      bundle, solution, FastOptions(TransportKind::kInProcess, 2), "closed");
  for (ArrivalProcess arrival :
       {ArrivalProcess::kFixedRate, ArrivalProcess::kPoisson}) {
    RuntimeOptions opt = FastOptions(TransportKind::kInProcess, 2);
    opt.target_tps = 20000.0;
    opt.arrival = arrival;
    opt.admission_queue_depth = 0;
    ReplayReport open = RunReplay(bundle, solution, opt, "open");
    EXPECT_EQ(open.OutcomeSignature(), closed.OutcomeSignature())
        << ArrivalProcessName(arrival);
  }
}

// ---------------------------------------------------------------------------
// Open-loop dispatch: fake `execute`s against RunOpenLoop directly

// Each executor sleeps to its own arrival, so each must have cut its timer
// slack from Linux's default 50 us to 1 ns before it runs one.
TEST(OpenLoopDispatchTest, EveryExecutorRunsAtOneNanosecondTimerSlack) {
  constexpr size_t kExecutors = 4;
  RuntimeOptions opt;
  opt.num_clients = static_cast<int>(kExecutors);
  opt.target_tps = 1000.0;
  opt.arrival = ArrivalProcess::kFixedRate;
  opt.admission_queue_depth = 0;

  std::mutex mu;
  std::condition_variable all_in;
  std::map<int, int> slack_by_executor;
  auto execute = [&](int executor_id, size_t) {
    std::unique_lock<std::mutex> lock(mu);
    slack_by_executor[executor_id] = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
    all_in.notify_all();
    // Hold each executor until all have run one, so that none can take
    // every arrival and leave another unchecked.
    all_in.wait_for(lock, std::chrono::seconds(10),
                    [&] { return slack_by_executor.size() == kExecutors; });
  };
  RuntimeMetrics metrics(1);
  OpenLoopResult r = RunOpenLoop(
      opt, kExecutors, std::chrono::steady_clock::now(), execute, &metrics);

  EXPECT_EQ(r.admitted, kExecutors);
  ASSERT_EQ(slack_by_executor.size(), kExecutors);
  for (const auto& [executor_id, slack] : slack_by_executor) {
    EXPECT_EQ(slack, 1) << "executor " << executor_id;
  }
}

// FIFO admission, exactly: one executor, depth 1, arrivals 100 ms apart and
// txn 0 busy for 250 ms. Arrival 1 (due at 100) waits behind txn 0;
// arrival 2 (due at 200) finds it still waiting and is shed; arrival 3 (due
// at 300) comes after arrival 1 started (at 250) and runs. Each decision
// has 50 ms of margin.
TEST(OpenLoopDispatchTest, ShedsExactlyTheArrivalThatFindsTheQueueFull) {
  RuntimeOptions opt;
  opt.num_clients = 1;
  opt.target_tps = 10.0;
  opt.arrival = ArrivalProcess::kFixedRate;
  opt.admission_queue_depth = 1;

  std::vector<size_t> ran;  // one executor: only its thread appends
  auto execute = [&](int, size_t i) {
    ran.push_back(i);
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(250));
  };
  RuntimeMetrics metrics(1);
  OpenLoopResult r =
      RunOpenLoop(opt, 4, std::chrono::steady_clock::now(), execute, &metrics);

  EXPECT_EQ(ran, (std::vector<size_t>{0, 1, 3}));
  EXPECT_EQ(r.submitted, 4u);
  EXPECT_EQ(r.admitted, 3u);
  EXPECT_EQ(r.shed, 1u);
  EXPECT_EQ(metrics.shed.load(), 1u);
}

// ---------------------------------------------------------------------------
// Pinning + arenas are performance-only

TEST(TopologyRuntimeTest, PinningNeverChangesOutcomes) {
  WorkloadBundle bundle = SmallTpcc(200);
  DatabaseSolution solution = MixedSolution(*bundle.db, 2);
  uint64_t want = 0;
  for (TransportKind transport :
       {TransportKind::kInProcess, TransportKind::kUnixSocket}) {
    for (bool pin : {false, true}) {
      RuntimeOptions opt = FastOptions(transport, 4);
      opt.pin_threads = pin;
      ReplayReport r = RunReplay(bundle, solution, opt, "pin");
      if (want == 0) want = r.OutcomeSignature();
      EXPECT_EQ(r.OutcomeSignature(), want)
          << "transport=" << TransportKindName(transport) << " pin=" << pin;
      if (pin) {
        // Best-effort contract: when pinning succeeded the report says
        // where each shard landed; when the kernel refused, -1 is honest.
        for (const ShardReport& s : r.shards) {
          EXPECT_GE(s.pinned_cpu, -1);
        }
        EXPECT_TRUE(r.topology.pinned);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Topology detection

class FakeSysfs {
 public:
  FakeSysfs() {
    root_ = std::filesystem::temp_directory_path() /
            ("jecb_topo_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    cpu_root_ = (root_ / "cpu").string();
    node_root_ = (root_ / "node").string();
  }
  ~FakeSysfs() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  void AddCpu(int cpu, int core, int package) {
    auto dir = std::filesystem::path(cpu_root_) /
               ("cpu" + std::to_string(cpu)) / "topology";
    std::filesystem::create_directories(dir);
    Write(dir / "core_id", std::to_string(core));
    Write(dir / "physical_package_id", std::to_string(package));
  }
  void SetPresent(const std::string& list) {
    std::filesystem::create_directories(cpu_root_);
    Write(std::filesystem::path(cpu_root_) / "present", list);
  }
  void AddNode(int node, const std::string& cpulist) {
    auto dir = std::filesystem::path(node_root_) / ("node" + std::to_string(node));
    std::filesystem::create_directories(dir);
    Write(dir / "cpulist", cpulist);
  }

  const std::string& cpu_root() const { return cpu_root_; }
  const std::string& node_root() const { return node_root_; }

 private:
  static void Write(const std::filesystem::path& p, const std::string& text) {
    std::ofstream out(p);
    out << text << "\n";
  }
  static int counter_;
  std::filesystem::path root_;
  std::string cpu_root_;
  std::string node_root_;
};

int FakeSysfs::counter_ = 0;

TEST(TopologyDetectTest, GoldenSmtDualSocketNuma) {
  // 8 logical cpus: package 0 holds cores 0/1 as (0,4) and (1,5); package 1
  // holds cores 0/1 as (2,6) and (3,7). NUMA node per package.
  FakeSysfs fs;
  fs.SetPresent("0-7");
  fs.AddCpu(0, 0, 0);
  fs.AddCpu(1, 1, 0);
  fs.AddCpu(2, 0, 1);
  fs.AddCpu(3, 1, 1);
  fs.AddCpu(4, 0, 0);
  fs.AddCpu(5, 1, 0);
  fs.AddCpu(6, 0, 1);
  fs.AddCpu(7, 1, 1);
  fs.AddNode(0, "0-1,4-5");
  fs.AddNode(1, "2-3,6-7");

  CpuTopology topo = DetectCpuTopologyFrom(fs.cpu_root(), fs.node_root());
  ASSERT_TRUE(topo.from_sysfs);
  EXPECT_EQ(topo.logical_cpus(), 8);
  EXPECT_EQ(topo.physical_cores, 4);
  EXPECT_EQ(topo.packages, 2);
  EXPECT_EQ(topo.numa_nodes, 2);
  EXPECT_TRUE(topo.smt);
  // cpus 0-3 own their cores; 4-7 are the SMT siblings.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(topo.cpus[i].smt_sibling) << i;
  for (int i = 4; i < 8; ++i) EXPECT_TRUE(topo.cpus[i].smt_sibling) << i;
  EXPECT_EQ(topo.cpus[2].node, 1);
  EXPECT_EQ(topo.cpus[5].node, 0);

  // Pin plan: all four physical cores get a worker before any SMT sibling,
  // packages alternating; extra workers wrap deterministically.
  std::vector<int32_t> plan = BuildPinPlan(topo, 8);
  ASSERT_EQ(plan.size(), 8u);
  std::set<int32_t> first_four(plan.begin(), plan.begin() + 4);
  EXPECT_EQ(first_four, (std::set<int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(plan[0], 0);
  EXPECT_EQ(plan[1], 2) << "second worker goes to the other package";
  std::set<int32_t> all(plan.begin(), plan.end());
  EXPECT_EQ(all.size(), 8u) << "8 workers on 8 cpus: no sharing";

  std::vector<int32_t> wrapped = BuildPinPlan(topo, 10);
  ASSERT_EQ(wrapped.size(), 10u);
  EXPECT_EQ(wrapped[8], wrapped[0]);
  EXPECT_EQ(wrapped[9], wrapped[1]);
}

TEST(TopologyDetectTest, MissingSysfsFallsBackGracefully) {
  CpuTopology topo =
      DetectCpuTopologyFrom("/nonexistent/cpu", "/nonexistent/node");
  EXPECT_FALSE(topo.from_sysfs);
  EXPECT_GE(topo.logical_cpus(), 1);
  EXPECT_EQ(topo.numa_nodes, 1);
  EXPECT_FALSE(topo.smt);
  // The pin plan still exists — pinning just degrades to cpu-per-worker
  // modulo whatever the fallback saw.
  EXPECT_FALSE(BuildPinPlan(topo, 4).empty());
}

TEST(TopologyDetectTest, CpuDirScanWhenPresentFileMissing) {
  FakeSysfs fs;
  fs.AddCpu(0, 0, 0);
  fs.AddCpu(1, 1, 0);
  CpuTopology topo = DetectCpuTopologyFrom(fs.cpu_root(), fs.node_root());
  ASSERT_TRUE(topo.from_sysfs);
  EXPECT_EQ(topo.logical_cpus(), 2);
  EXPECT_EQ(topo.physical_cores, 2);
  EXPECT_FALSE(topo.smt);
  EXPECT_EQ(topo.numa_nodes, 1);  // no node tree: everything on node 0
}

TEST(ParseCpuListTest, RangesSinglesAndGarbage) {
  EXPECT_EQ(ParseCpuList("0-3,8,10-11"),
            (std::vector<int32_t>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(ParseCpuList("5"), (std::vector<int32_t>{5}));
  EXPECT_EQ(ParseCpuList("0-1\n"), (std::vector<int32_t>{0, 1}));
  EXPECT_TRUE(ParseCpuList("").empty());
  EXPECT_TRUE(ParseCpuList("banana").empty());
  EXPECT_TRUE(ParseCpuList("3-1").empty()) << "inverted range";
  EXPECT_TRUE(ParseCpuList("0-99999999").empty()) << "range bomb guard";
}

TEST(TopologyDetectTest, FingerprintIsWellFormedJson) {
  std::string fp = TopologyFingerprintJson();
  EXPECT_EQ(fp.front(), '{');
  EXPECT_EQ(fp.back(), '}');
  EXPECT_NE(fp.find("\"cpus\":"), std::string::npos);
  EXPECT_NE(fp.find("\"source\":"), std::string::npos);
}

TEST(TopologyDetectTest, ContextSwitchCountersAreMonotoneFacts) {
  ContextSwitchCounts a = ProcessContextSwitches();
  ContextSwitchCounts b = ProcessContextSwitches();
  EXPECT_GE(b.voluntary + b.involuntary, a.voluntary + a.involuntary);
}

// ---------------------------------------------------------------------------
// Arena

TEST(ArenaTest, CopyStringRoundTripsAndPacks) {
  Arena arena(256);
  std::vector<std::string_view> views;
  std::vector<std::string> originals;
  for (int i = 0; i < 100; ++i) {
    originals.push_back("row-" + std::to_string(i) + std::string(i % 7, 'x'));
  }
  for (const std::string& s : originals) views.push_back(arena.CopyString(s));
  for (size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i], originals[i]) << i;
  }
  EXPECT_GT(arena.blocks(), 1u) << "100 rows must overflow a 256-byte block";
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_allocated());
}

TEST(ArenaTest, OversizedAllocationGetsContiguousBlock) {
  Arena arena(64);
  std::string big(10000, 'z');
  std::string_view v = arena.CopyString(big);
  EXPECT_EQ(v, big);
  EXPECT_EQ(arena.CopyString(""), std::string_view());
}

TEST(ArenaTest, AllocateRespectsAlignment) {
  Arena arena(128);
  arena.CopyString("x");  // misalign the bump pointer
  void* p = arena.Allocate(sizeof(uint64_t), alignof(uint64_t));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(uint64_t), 0u);
  *static_cast<uint64_t*>(p) = 0xDEADBEEF;  // must be writable
}

}  // namespace
}  // namespace jecb
