// Minimal tour of the execution runtime: partition a small TPC-C database
// with JECB, replay the workload from four client threads that lock the
// shards they touch (first fault-free, then under a deterministic fault
// plan with 2PC prepare rejections, shard stalls, and transient shard-down
// windows), and print the measured reports (the JSON line is the
// ReplayReport::ToJson() record that bench/distributed_replay and
// bench/fault_tolerance embed in their BENCH_<name>.json).
// Pass --trace_out trace.json to capture the per-txn replay timelines
// (shard lock wait, execution, 2PC prepare/commit rounds, retries, fault
// instants) as a Chrome trace, and --metrics_out metrics.prom for a
// Prometheus dump of both replays' counters and latency histograms.
// Pass --transport unix (or tcp) to run the same replay through the real
// multi-process backend: Replay() forks one shard-server process per
// partition, drives 2PC over length-prefixed socket frames, and reaps the
// children on drain — the reported outcome is bit-identical to the default
// in-process backend for the same seed.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "jecb/jecb.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "dist/replay.h"
#include "workloads/tpcc.h"

using namespace jecb;

int main(int argc, char** argv) {
  std::string trace_out;
  std::string metrics_out;
  double target_tps = 0.0;
  bool pin_threads = false;
  TransportKind transport = TransportKind::kInProcess;
  for (int i = 1; i < argc; i += 2) {
    // --pin_threads takes no value; everything else is --flag value.
    if (std::strcmp(argv[i], "--pin_threads") == 0) {
      pin_threads = true;
      i -= 1;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return 2;
    }
    if (std::strcmp(argv[i], "--trace_out") == 0) {
      trace_out = argv[i + 1];
    } else if (std::strcmp(argv[i], "--metrics_out") == 0) {
      metrics_out = argv[i + 1];
    } else if (std::strcmp(argv[i], "--target_tps") == 0) {
      target_tps = std::strtod(argv[i + 1], nullptr);
    } else if (std::strcmp(argv[i], "--transport") == 0) {
      if (std::strcmp(argv[i + 1], "inproc") == 0) {
        transport = TransportKind::kInProcess;
      } else if (std::strcmp(argv[i + 1], "unix") == 0) {
        transport = TransportKind::kUnixSocket;
      } else if (std::strcmp(argv[i + 1], "tcp") == 0) {
        transport = TransportKind::kTcpSocket;
      } else {
        std::fprintf(stderr, "unknown --transport %s (inproc|unix|tcp)\n",
                     argv[i + 1]);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--transport inproc|unix|tcp] "
                   "[--target_tps N] [--pin_threads] "
                   "[--trace_out trace.json] [--metrics_out metrics.prom]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!trace_out.empty()) TraceRecorder::Default().Enable();
  TpccConfig cfg;
  cfg.warehouses = 8;
  cfg.districts_per_warehouse = 2;
  cfg.customers_per_district = 6;
  cfg.items = 25;
  WorkloadBundle bundle = TpccWorkload(cfg).Make(3000, 42);

  JecbOptions jopt;
  jopt.num_partitions = 4;
  auto result = Jecb(jopt).Partition(bundle.db.get(), bundle.procedures, bundle.trace);
  if (!result.ok()) {
    std::fprintf(stderr, "partitioning failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  RuntimeOptions ropt;
  ropt.transport = transport;
  ropt.num_clients = 4;
  ropt.local_work_us = 2;
  ropt.round_trip_us = 100;
  // --target_tps switches the replay from closed-loop clients to the
  // open-loop arrival schedule (see runtime/load_gen.h); --pin_threads pins
  // forked shard servers to distinct physical cores (a no-op in-process).
  ropt.target_tps = target_tps;
  ropt.pin_threads = pin_threads;
  ReplayReport report =
      Replay(*bundle.db, result.value().solution, bundle.trace, ropt, "jecb-tpcc-k4");

  std::printf(
      "replayed %llu txns on %d shards (%s transport): %.0f txn/s, "
      "%.2f%% distributed\n",
      static_cast<unsigned long long>(report.committed), report.num_partitions,
      std::string(TransportKindName(report.transport)).c_str(),
      report.throughput_tps,
      report.distributed_fraction() * 100.0);
  if (report.transport != TransportKind::kInProcess) {
    std::printf("wire: %llu msgs / %llu bytes sent, rtt p50/p99 %.0f/%.0f us\n",
                static_cast<unsigned long long>(
                    report.transport_counters.messages_sent),
                static_cast<unsigned long long>(
                    report.transport_counters.bytes_sent),
                report.transport_rtt.p50_us, report.transport_rtt.p99_us);
  }
  if (report.exchange_txns > 0) {
    std::printf(
        "exchange: %llu read sets assembled, %llu tuples / %llu bytes shipped "
        "(%llu remote) in %llu batches, digest %016llx\n",
        static_cast<unsigned long long>(report.exchange_txns),
        static_cast<unsigned long long>(report.exchange_tuples),
        static_cast<unsigned long long>(report.exchange_bytes),
        static_cast<unsigned long long>(report.exchange_remote_tuples),
        static_cast<unsigned long long>(report.exchange_batches),
        static_cast<unsigned long long>(report.exchange_digest));
  }
  std::printf("local  p50/p95/p99: %.0f/%.0f/%.0f us\n", report.local.p50_us,
              report.local.p95_us, report.local.p99_us);
  std::printf("dist   p50/p95/p99: %.0f/%.0f/%.0f us\n", report.distributed.p50_us,
              report.distributed.p95_us, report.distributed.p99_us);
  if (report.open_loop()) {
    std::printf(
        "open loop: offered %.0f/%.0f tps, shed %llu, "
        "sojourn p50/p99 %.0f/%.0f us (queue_wait p99 %.0f us)\n",
        report.offered_tps, report.target_tps,
        static_cast<unsigned long long>(report.shed), report.sojourn.p50_us,
        report.sojourn.p99_us, report.queue_wait.p99_us);
  }
  std::printf("%s\n", report.ToJson().c_str());

  // Same replay under injected coordination faults: every fault decision is
  // a pure function of (seed, txn id, attempt), so this report — commits,
  // failures, aborts, per-shard availability — is bit-identical at any
  // num_clients. Distributed transactions that hit a fault abort, back off,
  // and retry up to FaultPlan::max_attempts before being recorded as failed.
  ropt.faults.seed = 0x5ECB;
  ropt.faults.prepare_reject_rate = 0.05;
  ropt.faults.stall_rate = 0.05;
  ropt.faults.stall_us = 100;
  ropt.faults.shard_down_rate = 0.05;
  ReplayReport faulted =
      Replay(*bundle.db, result.value().solution, bundle.trace, ropt,
             "jecb-tpcc-k4-faults");
  double min_avail = 1.0;
  for (const ShardReport& s : faulted.shards)
    min_avail = std::min(min_avail, s.availability());
  std::printf(
      "\nwith 5%% injected 2PC faults: goodput %.0f txn/s, %llu committed, "
      "%llu failed, %llu aborts (%llu retried), min shard availability %.1f%%\n",
      faulted.goodput_tps, static_cast<unsigned long long>(faulted.committed),
      static_cast<unsigned long long>(faulted.failed),
      static_cast<unsigned long long>(faulted.aborts),
      static_cast<unsigned long long>(faulted.retries), min_avail * 100.0);
  std::printf("retry p50/p95/p99: %.0f/%.0f/%.0f us\n", faulted.retry.p50_us,
              faulted.retry.p95_us, faulted.retry.p99_us);

  if (!trace_out.empty()) {
    if (!TraceRecorder::Default().WriteChromeTrace(trace_out)) {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("\nwrote %s — open it at https://ui.perfetto.dev\n",
                trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    MetricsRegistry& registry = MetricsRegistry::Default();
    report.PublishTo(registry);
    faulted.PublishTo(registry);
    if (!registry.WritePrometheus(metrics_out)) {
      std::fprintf(stderr, "failed to write metrics to %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", metrics_out.c_str());
  }
  return 0;
}
