// Saturation curves: open-loop replay (runtime/load_gen.h) of the same
// JECB-partitioned TPC-C workload at a sweep of offered loads, JECB vs a
// naive-hash layout, at 2/4/8 shards. A closed-loop client self-throttles
// to capacity, so it can never show the latency cliff; the open-loop driver
// offers load on a schedule regardless of completions, which is the shape
// that makes "JECB sustains 2x the offered load of hash partitioning at
// equal p99" a measurable sentence.
//
// Per (layout, shard count):
//   1. measure closed-loop capacity (the usual racing clients), then
//   2. sweep target_tps over fractions of that capacity (~10% -> ~130%),
//      Poisson arrivals, bounded admission queue, recording goodput and the
//      sojourn split (queue_wait vs service) at each point.
//
// Also asserts two identity contracts on the way:
//   - a sub-saturation open-loop run (unbounded admission queue, so
//     shed == 0) reproduces the closed-loop OutcomeSignature bit-for-bit;
//   - --pin_threads changes timing only: pinned and unpinned closed-loop
//     runs have identical signatures.
//
// Emits BENCH_latency_curve.json and exits non-zero when either identity
// contract fails. `--quick` (CI bench-smoke) restricts to 2 shards, a short
// trace and 3 sweep points.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dist/replay.h"
#include "partition/solution.h"
#include "workloads/tpcc.h"

using namespace jecb;
using namespace jecb::bench;

namespace {

struct CurvePoint {
  double fraction = 0.0;    ///< of measured closed-loop capacity
  double target_tps = 0.0;
  double offered_tps = 0.0;
  double goodput_tps = 0.0;
  uint64_t shed = 0;
  double sojourn_p50_us = 0.0;
  double sojourn_p95_us = 0.0;
  double sojourn_p99_us = 0.0;
  double queue_wait_p99_us = 0.0;
};

struct Curve {
  std::string layout;  ///< "jecb" | "hash"
  int shards = 0;
  double capacity_tps = 0.0;  ///< closed-loop goodput
  std::vector<CurvePoint> points;
};

RuntimeOptions BaseOptions(int clients, bool pin) {
  RuntimeOptions opt;
  opt.num_clients = clients;
  opt.local_work_us = 2;
  opt.round_trip_us = 60;
  opt.lock_hold_us = 2;
  opt.pin_threads = pin;
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  InitObs(argc, argv);
  // --quick is a bare flag (no value), so scan argv directly rather than
  // going through ArgValue's --flag value convention.
  bool is_quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") is_quick = true;
  }

  PrintHeader("Open-loop saturation curves: JECB vs naive hash",
              "throughput tracks offered load until capacity then plateaus; "
              "JECB's curve plateaus at a higher offered load than hash at "
              "equal p99 sojourn");
  const std::string out_dir = OutDir(argc, argv);
  const size_t num_txns = static_cast<size_t>(
      ArgInt(argc, argv, "--txns", is_quick ? 800 : 3000));
  const int clients = static_cast<int>(ArgInt(argc, argv, "--clients", 4));
  const int only_shards = static_cast<int>(ArgInt(argc, argv, "--shards", 0));
  const bool pin = ArgInt(argc, argv, "--pin_threads", 0) != 0;

  TpccConfig cfg;
  cfg.warehouses = 8;
  cfg.districts_per_warehouse = 2;
  cfg.customers_per_district = 6;
  cfg.items = 25;
  WorkloadBundle bundle = TpccWorkload(cfg).Make(num_txns, 42);
  std::printf("trace: %zu txns, %d clients%s\n\n", bundle.trace.size(), clients,
              pin ? ", pinned" : "");

  std::vector<int> shard_counts;
  for (int k : is_quick ? std::vector<int>{2} : std::vector<int>{2, 4, 8}) {
    if (only_shards == 0 || only_shards == k) shard_counts.push_back(k);
  }
  const std::vector<double> fractions =
      is_quick ? std::vector<double>{0.5, 0.8, 1.2}
               : std::vector<double>{0.1, 0.25, 0.5, 0.8, 1.0, 1.15, 1.3};

  bool open_loop_signature_identical = true;
  bool pinned_signature_identical = true;
  std::vector<Curve> curves;

  AsciiTable table({"layout", "shards", "offered/capacity", "target_tps",
                    "goodput_tps", "shed", "sojourn p50/p95/p99 us",
                    "queue_wait p99 us"});

  for (int k : shard_counts) {
    JecbOptions jopt;
    jopt.num_partitions = k;
    auto res =
        Jecb(jopt).Partition(bundle.db.get(), bundle.procedures, bundle.trace);
    CheckOk(res.status(), "jecb");
    const DatabaseSolution jecb_solution = res.value().solution;
    const DatabaseSolution hash_solution =
        MakeNaiveHashSolution(*bundle.db, k);

    struct Layout {
      const char* name;
      const DatabaseSolution* solution;
    };
    for (const Layout& layout : {Layout{"jecb", &jecb_solution},
                                 Layout{"hash", &hash_solution}}) {
      Curve curve;
      curve.layout = layout.name;
      curve.shards = k;

      // 1. Closed-loop capacity.
      RuntimeOptions copt = BaseOptions(clients, pin);
      ReplayReport closed =
          Replay(*bundle.db, *layout.solution, bundle.trace, copt,
                 std::string(layout.name) + "-k" + std::to_string(k) +
                     "-closed");
      curve.capacity_tps = closed.goodput_tps;

      // Identity contract: pinning is performance-only. One unpinned
      // counter-run per curve when pinning is on (and vice versa once,
      // cheaply, on the first curve when it is off).
      if (curves.empty()) {
        RuntimeOptions alt = BaseOptions(clients, !pin);
        ReplayReport other = Replay(*bundle.db, *layout.solution, bundle.trace,
                                    alt, "pin-identity");
        if (other.OutcomeSignature() != closed.OutcomeSignature()) {
          pinned_signature_identical = false;
        }
      }

      // Identity contract: sub-saturation open loop == closed loop. The
      // admission queue is unbounded here so shed is structurally zero and
      // the executed set is exactly the trace.
      {
        RuntimeOptions oopt = BaseOptions(clients, pin);
        oopt.target_tps = std::max(curve.capacity_tps * 0.5, 1.0);
        oopt.arrival = ArrivalProcess::kPoisson;
        oopt.admission_queue_depth = 0;  // unbounded: never sheds
        ReplayReport open = Replay(*bundle.db, *layout.solution, bundle.trace,
                                   oopt,
                                   std::string(layout.name) + "-k" +
                                       std::to_string(k) + "-identity");
        if (open.shed != 0 ||
            open.OutcomeSignature() != closed.OutcomeSignature()) {
          open_loop_signature_identical = false;
          std::fprintf(stderr,
                       "FATAL: open-loop signature diverged (%s k=%d, "
                       "shed=%llu)\n",
                       layout.name, k,
                       static_cast<unsigned long long>(open.shed));
        }
      }

      // 2. The sweep. Bounded admission queue: above capacity the queue
      // fills and arrivals shed, which is exactly the behavior under test.
      for (double f : fractions) {
        RuntimeOptions oopt = BaseOptions(clients, pin);
        oopt.target_tps = std::max(curve.capacity_tps * f, 1.0);
        oopt.arrival = ArrivalProcess::kPoisson;
        oopt.admission_queue_depth = 256;
        ReplayReport r = Replay(
            *bundle.db, *layout.solution, bundle.trace, oopt,
            std::string(layout.name) + "-k" + std::to_string(k) + "-f" +
                FormatDouble(f, 2));
        CurvePoint p;
        p.fraction = f;
        p.target_tps = oopt.target_tps;
        p.offered_tps = r.offered_tps;
        p.goodput_tps = r.goodput_tps;
        p.shed = r.shed;
        p.sojourn_p50_us = r.sojourn.p50_us;
        p.sojourn_p95_us = r.sojourn.p95_us;
        p.sojourn_p99_us = r.sojourn.p99_us;
        p.queue_wait_p99_us = r.queue_wait.p99_us;
        curve.points.push_back(p);
        table.AddRow({curve.layout, std::to_string(k), Pct(f),
                      FormatDouble(p.target_tps, 0),
                      FormatDouble(p.goodput_tps, 0), std::to_string(p.shed),
                      FormatDouble(p.sojourn_p50_us, 0) + "/" +
                          FormatDouble(p.sojourn_p95_us, 0) + "/" +
                          FormatDouble(p.sojourn_p99_us, 0),
                      FormatDouble(p.queue_wait_p99_us, 0)});
      }
      curves.push_back(std::move(curve));
    }

    // Headline comparison at this shard count: the offered load each layout
    // absorbed without shedding, and the p99 sojourn it paid at 80%.
    const Curve& jc = curves[curves.size() - 2];
    const Curve& hc = curves.back();
    std::printf(
        "k=%d: capacity jecb %.0f tps vs hash %.0f tps (%.2fx)\n", k,
        jc.capacity_tps, hc.capacity_tps,
        hc.capacity_tps > 0 ? jc.capacity_tps / hc.capacity_tps : 0.0);
  }
  std::printf("\n%s\n", table.ToString().c_str());
  std::printf("open_loop_signature_identical: %s\n",
              open_loop_signature_identical ? "true" : "false");
  std::printf("pinned_signature_identical: %s\n",
              pinned_signature_identical ? "true" : "false");
  if (!open_loop_signature_identical || !pinned_signature_identical) return 1;

  std::string json = "{\n  \"bench\": \"latency_curve\",\n";
  json += "  \"mode\": \"" + std::string(is_quick ? "quick" : "full") + "\",\n";
  json += "  \"txns\": " + std::to_string(bundle.trace.size()) + ",\n";
  json += "  \"clients\": " + std::to_string(clients) + ",\n";
  json += "  \"open_loop_signature_identical\": " +
          std::string(open_loop_signature_identical ? "true" : "false") + ",\n";
  json += "  \"pinned_signature_identical\": " +
          std::string(pinned_signature_identical ? "true" : "false") + ",\n";
  json += "  \"curves\": [\n";
  for (size_t c = 0; c < curves.size(); ++c) {
    const Curve& curve = curves[c];
    json += "    {\"layout\": \"" + curve.layout +
            "\", \"shards\": " + std::to_string(curve.shards) +
            ", \"capacity_tps\": " + FormatDouble(curve.capacity_tps, 0) +
            ", \"points\": [";
    for (size_t i = 0; i < curve.points.size(); ++i) {
      const CurvePoint& p = curve.points[i];
      if (i > 0) json += ", ";
      json += "{\"fraction\": " + FormatDouble(p.fraction, 2) +
              ", \"target_tps\": " + FormatDouble(p.target_tps, 0) +
              ", \"offered_tps\": " + FormatDouble(p.offered_tps, 0) +
              ", \"goodput_tps\": " + FormatDouble(p.goodput_tps, 0) +
              ", \"shed\": " + std::to_string(p.shed) +
              ", \"sojourn_p50_us\": " + FormatDouble(p.sojourn_p50_us, 1) +
              ", \"sojourn_p95_us\": " + FormatDouble(p.sojourn_p95_us, 1) +
              ", \"sojourn_p99_us\": " + FormatDouble(p.sojourn_p99_us, 1) +
              ", \"queue_wait_p99_us\": " +
              FormatDouble(p.queue_wait_p99_us, 1) + "}";
    }
    json += "]}";
    json += c + 1 < curves.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  WriteBenchJson(out_dir, "latency_curve", json);

  FinishObs(argc, argv);
  return 0;
}
