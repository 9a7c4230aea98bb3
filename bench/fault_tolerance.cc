// Fault-tolerance replay: the paper's whole value proposition is that fewer
// distributed transactions means less exposure to coordination failures
// (Sec. 2), so this bench injects deterministic 2PC faults — prepare
// rejections, shard stalls, coordinator timeouts, transient shard-down
// windows — at increasing rates and measures how JECB's and naive-hash's
// *goodput* (committed txns per second) degrade. JECB, with ~10% distributed
// transactions, should pay fewer faults than naive hash, whose ~100%
// distributed workload pays every fault, retry, and backoff. The exit code
// rests on counts that are deterministic per seed: at a 5% fault rate JECB
// must have strictly fewer aborts + retries + failures per committed
// transaction, and no more failures. The goodput degradation is printed and
// written, but a short replay's wall-clock ratio is too noisy to gate on.
//
// Also asserts the determinism contract: a faulted replay's outcome
// signature (commits, failures, aborts, per-shard fault counts) is
// bit-identical at 1/4/8 client threads for a fixed seed, and prints the
// analytic CoordinationExposure from the static evaluator next to the
// measured exposure. Emits BENCH_fault_tolerance.json to --out_dir
// (default: the build directory); --txns scales the trace for CI smoke.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "dist/replay.h"
#include "workloads/tpcc.h"

using namespace jecb;
using namespace jecb::bench;

namespace {

struct FaultRow {
  std::string approach;
  double fault_rate = 0.0;
  ReplayReport report;
  double degradation = 0.0;  // 1 - goodput / fault-free goodput
  double fault_events_per_commit = 0.0;  // (aborts + retries + failed) / committed
  double exposure_analytic = 0.0;
  double min_availability = 1.0;
};

RuntimeOptions BaseOptions(int clients) {
  RuntimeOptions opt;
  opt.num_clients = clients;
  opt.local_work_us = 2;
  opt.round_trip_us = 60;
  opt.lock_hold_us = 2;
  return opt;
}

FaultPlan PlanAtRate(double rate) {
  FaultPlan plan;
  plan.stall_rate = rate;
  plan.stall_us = 150;
  plan.prepare_reject_rate = rate;
  plan.coordinator_timeout_rate = rate / 2.0;
  plan.timeout_us = 300;
  plan.shard_down_rate = rate;
  plan.max_attempts = 4;
  plan.backoff_base_us = 50;
  plan.backoff_cap_us = 1000;
  return plan;
}

double MinAvailability(const ReplayReport& r) {
  double m = 1.0;
  for (const ShardReport& s : r.shards) m = std::min(m, s.availability());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  InitObs(argc, argv);
  PrintHeader("Fault tolerance: goodput under injected 2PC coordination faults",
              "JECB's low distributed fraction shields it — it pays fewer "
              "aborts, retries and failures per commit than naive-hash");
  const std::string out_dir = OutDir(argc, argv);
  const size_t num_txns = static_cast<size_t>(ArgInt(argc, argv, "--txns", 4000));
  const int clients = static_cast<int>(ArgInt(argc, argv, "--clients", 8));
  const int k = 8;

  TpccConfig cfg;
  cfg.warehouses = 16;
  cfg.districts_per_warehouse = 2;
  cfg.customers_per_district = 6;
  cfg.items = 30;
  cfg.initial_orders_per_district = 2;
  WorkloadBundle bundle = TpccWorkload(cfg).Make(num_txns, 1);
  auto [train, test] = bundle.trace.SplitTrainTest(0.25);
  std::printf("trace: %zu txns total, %zu train / %zu test, k=%d, %d clients\n",
              bundle.trace.size(), train.size(), test.size(), k, clients);

  JecbOptions jopt;
  jopt.num_partitions = k;
  auto jecb_res = Jecb(jopt).Partition(bundle.db.get(), bundle.procedures, train);
  CheckOk(jecb_res.status(), "jecb");
  const DatabaseSolution& jecb_solution = jecb_res.value().solution;
  DatabaseSolution hash_solution = MakeNaiveHashSolution(*bundle.db, k);

  EvalResult jecb_eval = Evaluate(*bundle.db, jecb_solution, test);
  EvalResult hash_eval = Evaluate(*bundle.db, hash_solution, test);
  std::printf("static cost: JECB %s, naive-hash %s\n\n",
              Pct(jecb_eval.cost()).c_str(), Pct(hash_eval.cost()).c_str());

  const std::vector<double> rates = {0.0, 0.01, 0.05, 0.10};
  AsciiTable table({"approach", "fault rate", "goodput (txn/s)", "degradation",
                    "failed", "aborts", "retries", "events/commit",
                    "exposure (analytic)", "min shard avail"});
  std::vector<FaultRow> rows;

  auto run_series = [&](const std::string& label,
                        const DatabaseSolution& solution,
                        const EvalResult& eval) {
    double baseline_goodput = 0.0;
    for (double rate : rates) {
      RuntimeOptions opt = BaseOptions(clients);
      opt.faults = PlanAtRate(rate);
      FaultRow row;
      row.approach = label;
      row.fault_rate = rate;
      row.report = Replay(*bundle.db, solution, test, opt,
                          label + "-fault" + FormatDouble(rate, 2));
      row.report.PublishTo(MetricsRegistry::Default());  // for --metrics_out
      if (rate == 0.0) baseline_goodput = row.report.goodput_tps;
      row.degradation = baseline_goodput > 0.0
                            ? 1.0 - row.report.goodput_tps / baseline_goodput
                            : 0.0;
      const ReplayReport& rep = row.report;
      row.fault_events_per_commit =
          static_cast<double>(rep.aborts + rep.retries + rep.failed) /
          static_cast<double>(std::max<uint64_t>(rep.committed, 1));
      row.exposure_analytic = CoordinationExposure(eval, rate);
      row.min_availability = MinAvailability(row.report);
      table.AddRow({label, Pct(rate), FormatDouble(row.report.goodput_tps, 0),
                    Pct(row.degradation), std::to_string(row.report.failed),
                    std::to_string(row.report.aborts),
                    std::to_string(row.report.retries),
                    FormatDouble(row.fault_events_per_commit, 4),
                    Pct(row.exposure_analytic), Pct(row.min_availability)});
      rows.push_back(row);
    }
  };
  run_series("JECB", jecb_solution, jecb_eval);
  run_series("naive-hash", hash_solution, hash_eval);
  std::printf("%s\n", table.ToString().c_str());

  // Acceptance check 1: at a 5% fault rate JECB pays strictly fewer fault
  // events per committed transaction than naive hash. The counts depend only
  // on the seed, so unlike the goodput degradation (printed for reference)
  // this claim cannot flip with host timing.
  auto find_row = [&](const std::string& approach, double rate) -> const FaultRow& {
    for (const FaultRow& r : rows) {
      if (r.approach == approach && r.fault_rate == rate) return r;
    }
    std::fprintf(stderr, "FATAL: missing row %s@%.2f\n", approach.c_str(), rate);
    std::exit(1);
  };
  const FaultRow& jecb5 = find_row("JECB", 0.05);
  const FaultRow& hash5 = find_row("naive-hash", 0.05);
  std::printf("degradation at 5%% faults: JECB %s vs naive-hash %s\n",
              Pct(jecb5.degradation).c_str(), Pct(hash5.degradation).c_str());
  std::printf("aborts + retries + failed per commit at 5%% faults: JECB %.4f "
              "vs naive-hash %.4f\n",
              jecb5.fault_events_per_commit, hash5.fault_events_per_commit);
  if (!(jecb5.fault_events_per_commit < hash5.fault_events_per_commit)) {
    std::fprintf(stderr,
                 "FATAL: JECB's fault events per commit (%.4f) are not "
                 "strictly below naive-hash's (%.4f) at a 5%% fault rate\n",
                 jecb5.fault_events_per_commit, hash5.fault_events_per_commit);
    return 1;
  }
  // Failed-txn exposure should order the same way (JECB coordinates less).
  if (jecb5.report.failed > hash5.report.failed) {
    std::fprintf(stderr, "FATAL: JECB failed more txns than naive-hash (%llu > %llu)\n",
                 static_cast<unsigned long long>(jecb5.report.failed),
                 static_cast<unsigned long long>(hash5.report.failed));
    return 1;
  }

  // Acceptance check 2: faulted replay outcomes are bit-identical across
  // client thread counts for the fixed seed.
  uint64_t signature = 0;
  for (int c : {1, 4, 8}) {
    RuntimeOptions opt = BaseOptions(c);
    opt.faults = PlanAtRate(0.05);
    ReplayReport r = Replay(*bundle.db, jecb_solution, test, opt, "determinism");
    if (c == 1) {
      signature = r.OutcomeSignature();
    } else if (r.OutcomeSignature() != signature) {
      std::fprintf(stderr,
                   "FATAL: fault replay outcome diverged at %d clients "
                   "(signature %llx != %llx)\n",
                   c, static_cast<unsigned long long>(r.OutcomeSignature()),
                   static_cast<unsigned long long>(signature));
      return 1;
    }
  }
  std::printf("determinism: outcome signature %llx identical at 1/4/8 clients\n",
              static_cast<unsigned long long>(signature));

  std::string json = "{\n  \"bench\": \"fault_tolerance\",\n  \"partitions\": " +
                     std::to_string(k) + ",\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const FaultRow& r = rows[i];
    json += "    {\"approach\": \"" + r.approach + "\", \"fault_rate\": " +
            FormatDouble(r.fault_rate, 2) + ", \"degradation\": " +
            FormatDouble(r.degradation, 4) + ", \"fault_events_per_commit\": " +
            FormatDouble(r.fault_events_per_commit, 4) +
            ", \"exposure_analytic\": " +
            FormatDouble(r.exposure_analytic, 4) + ", \"min_availability\": " +
            FormatDouble(r.min_availability, 4) + ",\n     \"report\": " +
            r.report.ToJson() + "}";
    json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  WriteBenchJson(out_dir, "fault_tolerance", json);
  FinishObs(argc, argv);
  return 0;
}
