// Shared plumbing for the experiment binaries: run each partitioning
// approach on a workload bundle, measure resources, and print paper-style
// tables and series.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/ascii_table.h"
#include "common/string_util.h"
#include "common/topology.h"
#include "expr/meter.h"
#include "obs/cluster_telemetry.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "horticulture/horticulture.h"
#include "jecb/jecb.h"
#include "partition/evaluator.h"
#include "schism/schism.h"
#include "workloads/workload.h"

namespace jecb::bench {

/// Outcome of running one approach on one configuration.
struct RunResult {
  std::string approach;
  double test_cost = 0.0;
  double train_cost = 0.0;
  double cpu_seconds = 0.0;
  uint64_t rss_delta_mb = 0;
  uint64_t peak_rss_mb = 0;
  std::string detail;  // chosen attribute, graph size, ...
  EvalResult eval;     // full evaluation on the test trace
};

/// Fraction of database tuples the trace touches (the paper's "coverage").
inline double Coverage(const Database& db, const Trace& trace) {
  std::set<TupleId> seen;
  for (const auto& txn : trace.transactions()) {
    for (const auto& a : txn.accesses) seen.insert(a.tuple);
  }
  size_t total = db.TotalRows();
  return total == 0 ? 0.0
                    : static_cast<double>(seen.size()) / static_cast<double>(total);
}

inline RunResult RunJecb(Database* db, const std::vector<sql::Procedure>& procs,
                         const Trace& train, const Trace& test, int32_t k,
                         JecbOptions opt = {}) {
  opt.num_partitions = k;
  ResourceMeter meter;
  auto res = Jecb(opt).Partition(db, procs, train);
  auto usage = meter.Stop();
  CheckOk(res.status(), "RunJecb");
  RunResult out;
  out.approach = "JECB";
  out.train_cost = res.value().combiner_report.best_train_cost;
  out.eval = Evaluate(*db, res.value().solution, test);
  out.test_cost = out.eval.cost();
  out.cpu_seconds = usage.cpu_seconds;
  out.rss_delta_mb = usage.rss_delta_mb;
  out.peak_rss_mb = usage.peak_rss_mb;
  out.detail = res.value().combiner_report.chosen_attr;
  return out;
}

inline RunResult RunSchism(Database* db, const Trace& train, const Trace& test,
                           int32_t k, std::string label = "Schism") {
  SchismOptions opt;
  opt.num_partitions = k;
  ResourceMeter meter;
  auto res = Schism(opt).Partition(db, train);
  auto usage = meter.Stop();
  CheckOk(res.status(), "RunSchism");
  RunResult out;
  out.approach = std::move(label);
  out.eval = Evaluate(*db, res.value().solution, test);
  out.test_cost = out.eval.cost();
  out.cpu_seconds = usage.cpu_seconds;
  out.rss_delta_mb = usage.rss_delta_mb;
  out.peak_rss_mb = usage.peak_rss_mb;
  out.detail = "nodes=" + std::to_string(res.value().graph_nodes) +
               " edges=" + std::to_string(res.value().graph_edges) +
               " cut=" + std::to_string(res.value().edge_cut);
  return out;
}

inline RunResult RunHorticulture(Database* db, const Trace& train, const Trace& test,
                                 int32_t k) {
  HorticultureOptions opt;
  opt.num_partitions = k;
  ResourceMeter meter;
  auto res = Horticulture(opt).Partition(db, train);
  auto usage = meter.Stop();
  CheckOk(res.status(), "RunHorticulture");
  RunResult out;
  out.approach = "Horticulture";
  out.train_cost = res.value().train_cost;
  out.eval = Evaluate(*db, res.value().solution, test);
  out.test_cost = out.eval.cost();
  out.cpu_seconds = usage.cpu_seconds;
  out.rss_delta_mb = usage.rss_delta_mb;
  out.peak_rss_mb = usage.peak_rss_mb;
  out.detail = std::to_string(res.value().evaluations) + " evaluations";
  return out;
}

/// Evaluates a fixed (externally supplied) solution, e.g. the paper's
/// Horticulture TPC-E solution.
inline RunResult RunFixedSolution(const Database& db, const DatabaseSolution& solution,
                                  const Trace& test, std::string label) {
  RunResult out;
  out.approach = std::move(label);
  out.eval = Evaluate(db, solution, test);
  out.test_cost = out.eval.cost();
  return out;
}

inline std::string Pct(double v) { return FormatDouble(v * 100.0, 1) + "%"; }

/// Value of `--flag value` or `--flag=value` in argv, or `def` when absent.
inline std::string ArgValue(int argc, char** argv, std::string_view flag,
                            std::string def = "") {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == flag) {
      if (i + 1 < argc) return argv[i + 1];
    } else if (arg.size() > flag.size() + 1 && arg.substr(0, flag.size()) == flag &&
               arg[flag.size()] == '=') {
      return std::string(arg.substr(flag.size() + 1));
    }
  }
  return def;
}

inline int64_t ArgInt(int argc, char** argv, std::string_view flag, int64_t def) {
  std::string v = ArgValue(argc, argv, flag);
  return v.empty() ? def : std::strtoll(v.c_str(), nullptr, 10);
}

/// Output directory for bench JSON: `--out_dir DIR` if given, otherwise the
/// directory the binary lives in (the build tree) — never the source tree,
/// so repeated runs cannot litter the repo root with untracked files.
inline std::string OutDir(int argc, char** argv) {
  std::string dir = ArgValue(argc, argv, "--out_dir");
  if (dir.empty()) {
    std::string self = argv[0];
    size_t slash = self.find_last_of('/');
    dir = slash == std::string::npos ? "." : self.substr(0, slash);
  }
  if (!dir.empty() && dir.back() == '/') dir.pop_back();
  return dir;
}

/// Writes `content` to <out_dir>/BENCH_<bench>.json (the uniform bench
/// output naming) and returns the path; prints where it wrote.
inline std::string WriteBenchJson(const std::string& out_dir,
                                  const std::string& bench,
                                  const std::string& content) {
  // A silent write failure here would surface later as a confusing missing
  // artifact, so create the directory and fail loudly.
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  std::string path = out_dir + "/BENCH_" + bench + ".json";
  // Stamp the machine's topology fingerprint into every bench artifact so
  // numbers from different machines are explainable from the JSON alone.
  std::string stamped = content;
  if (!stamped.empty() && stamped.front() == '{') {
    stamped.insert(1, "\"machine\":" + TopologyFingerprintJson() + ",");
  }
  std::ofstream out(path);
  out << stamped;
  if (!out) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s\n", path.c_str());
  return path;
}

/// Turns on the span recorder when `--trace_out PATH` was passed. Call
/// before any measured work so the whole run lands in the trace. Returns
/// whether tracing is on.
inline bool InitObs(int argc, char** argv) {
  if (ArgValue(argc, argv, "--trace_out").empty()) return false;
  TraceRecorder::Default().Enable();
  return true;
}

/// Writes the Chrome trace (`--trace_out`) and/or the Prometheus metrics
/// dump (`--metrics_out`) if requested. Call once at the end of main(),
/// after all workers have quiesced (the collection contract). When the run
/// harvested telemetry from shard child processes (multi-process replay),
/// the trace is the merged cluster trace — one process track per pid — and
/// the metrics dump appends the shard-labeled remote series after the local
/// registry, so the artifacts cover the whole cluster, not just this
/// process.
inline void FinishObs(int argc, char** argv) {
  const ClusterTelemetry& cluster = ClusterTelemetry::Default();
  std::string trace_path = ArgValue(argc, argv, "--trace_out");
  if (!trace_path.empty()) {
    const bool merged = cluster.num_processes() > 0;
    const bool ok = merged ? cluster.WriteClusterTrace(trace_path)
                           : TraceRecorder::Default().WriteChromeTrace(trace_path);
    if (ok) {
      std::printf("wrote %s (%zu remote processes, %llu local events dropped)\n",
                  trace_path.c_str(), cluster.num_processes(),
                  static_cast<unsigned long long>(TraceRecorder::Default().dropped()));
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_path.c_str());
    }
  }
  std::string metrics_path = ArgValue(argc, argv, "--metrics_out");
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    out << MetricsRegistry::Default().RenderPrometheus()
        << cluster.RenderRemoteMetrics();
    if (out) {
      std::printf("wrote %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write metrics to %s\n", metrics_path.c_str());
    }
  }
}

/// Prints "series <name>: x1=y1 x2=y2 ..." — one line per plotted curve.
inline void PrintSeries(const std::string& name, const std::vector<int>& xs,
                        const std::vector<double>& ys) {
  std::printf("series %-24s", (name + ":").c_str());
  for (size_t i = 0; i < xs.size(); ++i) {
    std::printf(" %d=%s", xs[i], Pct(ys[i]).c_str());
  }
  std::printf("\n");
}

inline void PrintHeader(const std::string& title, const std::string& paper_shape) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("paper expectation: %s\n\n", paper_shape.c_str());
}

}  // namespace jecb::bench
