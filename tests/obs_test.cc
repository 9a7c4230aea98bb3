// Tests for the observability layer: the lock-free thread-local span
// recorder (wraparound, cross-thread collection, disabled-mode inertness),
// the Chrome-trace exporter round trip, histogram merging, the Prometheus
// renderer (golden output — MetricsRegistry iterates an ordered map, so the
// exposition text is deterministic), and the replay integration contracts:
// per-txn sampling is a pure function of (seed, txn id) so the sampled set
// is identical at any client count, tracing never changes a replay's
// outcome signature, traced txn span durations reconcile exactly with the
// report's latency histograms, and an in-process local txn executes on the
// client thread that submitted it. Runs under ThreadSanitizer via the
// `tsan` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/cluster_telemetry.h"
#include "obs/flight_recorder.h"
#include "obs/histogram.h"
#include "obs/metrics_registry.h"
#include "obs/trace_export.h"
#include "obs/trace_recorder.h"
#include "dist/replay.h"
#include "workloads/tpcc.h"

namespace jecb {
namespace {

WorkloadBundle SmallTpcc(size_t txns = 600, uint64_t seed = 7) {
  TpccConfig cfg;
  cfg.warehouses = 4;
  cfg.districts_per_warehouse = 2;
  cfg.customers_per_district = 6;
  cfg.items = 20;
  cfg.initial_orders_per_district = 2;
  return TpccWorkload(cfg).Make(txns, seed);
}

RuntimeOptions FastOptions() {
  RuntimeOptions opt;
  opt.num_clients = 4;
  opt.local_work_us = 0;
  opt.round_trip_us = 0;
  opt.lock_hold_us = 0;
  return opt;
}

TraceEvent MakeSpan(const char* name, uint64_t ts, uint64_t dur) {
  TraceEvent e;
  e.name = name;
  e.cat = "test";
  e.ts_us = ts;
  e.dur_us = dur;
  e.kind = TraceEventKind::kSpan;
  return e;
}

TEST(TraceRecorderTest, RingBufferWrapsAndCountsDrops) {
  if (!kObsCompiledIn) GTEST_SKIP() << "obs compiled out";
  TraceRecorder rec;
  rec.Enable(/*events_per_thread=*/64);
  for (uint64_t i = 0; i < 200; ++i) {
    rec.Emit(MakeSpan("wrap", i, 1));
  }
  std::vector<CollectedEvent> events = rec.Collect();
  ASSERT_EQ(events.size(), 64u);
  EXPECT_EQ(rec.dropped(), 200u - 64u);
  EXPECT_EQ(rec.num_thread_buffers(), 1u);
  // The ring keeps the newest events, in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].event.ts_us, 200 - 64 + i);
  }
}

TEST(TraceRecorderTest, CollectMergesThreadsSortedByTimestamp) {
  if (!kObsCompiledIn) GTEST_SKIP() << "obs compiled out";
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  TraceRecorder rec;
  rec.Enable();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ScopedSpan span("test", "work", "thread", t, rec);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  std::vector<CollectedEvent> events = rec.Collect();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(rec.num_thread_buffers(), static_cast<size_t>(kThreads));
  EXPECT_EQ(rec.dropped(), 0u);

  std::set<uint32_t> tids;
  for (size_t i = 0; i < events.size(); ++i) {
    tids.insert(events[i].tid);
    if (i > 0) {
      EXPECT_GE(events[i].event.ts_us, events[i - 1].event.ts_us);
    }
  }
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
  // Each thread attached its index as arg1, so every index shows up
  // kPerThread times.
  std::array<int, kThreads> per_thread{};
  for (const CollectedEvent& e : events) {
    ASSERT_STREQ(e.event.arg1_name, "thread");
    per_thread[static_cast<size_t>(e.event.arg1)]++;
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_thread[t], kPerThread);
}

TEST(TraceRecorderTest, DisabledRecorderAllocatesNothing) {
  TraceRecorder rec;  // never enabled
  EXPECT_FALSE(rec.enabled());
  rec.Emit(MakeSpan("ignored", 0, 1));
  rec.Instant("test", "ignored");
  rec.Counter("test", "ignored", 7);
  { ScopedSpan span("test", "ignored", rec); }
  EXPECT_EQ(rec.num_thread_buffers(), 0u);
  EXPECT_TRUE(rec.Collect().empty());
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TraceRecorderTest, MacrosAreInertWhileDefaultRecorderDisabled) {
  TraceRecorder& rec = TraceRecorder::Default();
  rec.Reset();  // disables and drops any buffers earlier tests created
  ASSERT_FALSE(rec.enabled());
  {
    JECB_SPAN("test", "inert");
    JECB_SPAN2("test", "inert2", "a", 1, "b", 2);
    JECB_INSTANT1("test", "inert3", "a", 1);
    JECB_COUNTER("test", "inert4", 42);
  }
  EXPECT_EQ(rec.num_thread_buffers(), 0u);
  EXPECT_TRUE(rec.Collect().empty());
}

TEST(TraceRecorderTest, InternIsIdempotentAndSurvivesReset) {
  TraceRecorder rec;
  const char* a = rec.Intern("NewOrder/5");
  const char* b = rec.Intern(std::string("NewOrder/") + "5");
  EXPECT_EQ(a, b);
  rec.Enable(16);
  rec.Emit(MakeSpan(a, 1, 2));
  rec.Reset();
  EXPECT_EQ(rec.Intern("NewOrder/5"), a);
}

TEST(TraceRecorderTest, ScopedSpanLateArgsAttachInOrder) {
  if (!kObsCompiledIn) GTEST_SKIP() << "obs compiled out";
  TraceRecorder rec;
  rec.Enable(16);
  {
    ScopedSpan span("test", "late", rec);
    span.Arg("first", 11);
    span.Arg("second", 22);
    span.Arg("ignored", 33);  // both slots taken
  }
  std::vector<CollectedEvent> events = rec.Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].event.arg1_name, "first");
  EXPECT_EQ(events[0].event.arg1, 11);
  EXPECT_STREQ(events[0].event.arg2_name, "second");
  EXPECT_EQ(events[0].event.arg2, 22);
}

TEST(TraceExportTest, ChromeTraceRoundTripsThroughParser) {
  if (!kObsCompiledIn) GTEST_SKIP() << "obs compiled out";
  TraceRecorder rec;
  rec.Enable(256);
  rec.Span("runtime", "txn.local", 10, 5, "txn", 1, "shard", 2);
  rec.Span("runtime", "txn.local", 20, 7, "txn", 3, "shard", 0);
  rec.Span("jecb", "phase1.preprocess", 5, 100, "tables", 9);
  rec.Instant("fault", "fault.stall", "txn", 4, "shard", 1);
  rec.Counter("runtime", "queue_depth", 17);

  std::string json = rec.RenderChromeTrace();
  std::vector<ChromeTraceEvent> parsed;
  std::string error;
  ASSERT_TRUE(ParseChromeTrace(json, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), 5u);

  size_t spans = 0, instants = 0, counters = 0;
  for (const ChromeTraceEvent& e : parsed) {
    if (e.ph == "X") ++spans;
    if (e.ph == "i" || e.ph == "I") ++instants;
    if (e.ph == "C") ++counters;
  }
  EXPECT_EQ(spans, 3u);
  EXPECT_EQ(instants, 1u);
  EXPECT_EQ(counters, 1u);

  std::vector<SpanRollup> rollups = RollupSpans(parsed);
  ASSERT_EQ(rollups.size(), 2u);
  // Sorted by total duration descending: phase1 (100us) before txn.local
  // (12us total across two spans).
  EXPECT_EQ(rollups[0].name, "phase1.preprocess");
  EXPECT_EQ(rollups[0].count, 1u);
  EXPECT_EQ(rollups[0].total_us, 100u);
  EXPECT_EQ(rollups[1].name, "txn.local");
  EXPECT_EQ(rollups[1].count, 2u);
  EXPECT_EQ(rollups[1].total_us, 12u);
  EXPECT_EQ(rollups[1].max_us, 7u);

  // Arg values survive the round trip.
  for (const ChromeTraceEvent& e : parsed) {
    if (e.ph == "X" && e.ts_us == 10) {
      ASSERT_EQ(e.args.size(), 2u);
      EXPECT_EQ(e.args[0].first, "txn");
      EXPECT_EQ(e.args[0].second, 1.0);
      EXPECT_EQ(e.args[1].first, "shard");
      EXPECT_EQ(e.args[1].second, 2.0);
    }
  }
}

TEST(TraceExportTest, JsonEscapingRoundTripsHostileNames) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string_view("nul\0byte", 8)), "nul\\u0000byte");

  // An interned class name containing quotes/newlines must not corrupt the
  // trace document.
  if (kObsCompiledIn) {
    TraceRecorder rec;
    rec.Enable(16);
    const char* hostile = rec.Intern("class \"A\"\njoins B");
    rec.Span("jecb", hostile, 1, 2);
    std::vector<ChromeTraceEvent> parsed;
    std::string error;
    ASSERT_TRUE(ParseChromeTrace(rec.RenderChromeTrace(), &parsed, &error)) << error;
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].name, "class \"A\"\njoins B");
  }
}

TEST(HistogramTest, MergeAccumulatesExactly) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(0);
  a.Record(3);
  a.Record(100);
  b.Record(7);
  b.Record(5000);

  a.Merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_EQ(a.sum_us(), 0u + 3 + 100 + 7 + 5000);
  EXPECT_EQ(a.max_us(), 5000u);
  EXPECT_GE(a.Quantile(0.99), a.Quantile(0.5));

  // Merging an empty histogram is a no-op.
  LatencyHistogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_EQ(a.sum_us(), 5110u);

  // Self-merge snapshots first, so it exactly doubles every counter.
  a.Merge(a);
  EXPECT_EQ(a.count(), 10u);
  EXPECT_EQ(a.sum_us(), 2u * 5110u);
  EXPECT_EQ(a.max_us(), 5000u);
}

TEST(HistogramTest, MergeOfDataSnapshotsMatchesDirectRecording) {
  LatencyHistogram direct;
  LatencyHistogram left;
  LatencyHistogram right;
  for (uint64_t v : {1u, 2u, 17u, 300u}) {
    direct.Record(v);
    left.Record(v);
  }
  for (uint64_t v : {4u, 9000u}) {
    direct.Record(v);
    right.Record(v);
  }
  HistogramData merged = left.Snapshot();
  merged.Merge(right.Snapshot());
  HistogramData expected = direct.Snapshot();
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.sum_us, expected.sum_us);
  EXPECT_EQ(merged.buckets, expected.buckets);
  EXPECT_DOUBLE_EQ(merged.Quantile(0.5), expected.Quantile(0.5));
}

TEST(MetricsRegistryTest, PrometheusGoldenOutput) {
  MetricsRegistry reg;
  reg.Counter("jecb_test_total{label=\"a\"}", "things counted")
      .fetch_add(3, std::memory_order_relaxed);
  reg.Counter("jecb_test_total{label=\"b\"}")
      .fetch_add(5, std::memory_order_relaxed);
  reg.SetGauge("jecb_test_ratio", 0.25);
  reg.Gauge("jecb_test_ratio", "fraction of things");  // attach help
  LatencyHistogram& h = reg.Histogram("jecb_test_us", "latency");
  h.Record(0);
  h.Record(3);
  h.Record(100);

  const char* expected =
      "# HELP jecb_test_ratio fraction of things\n"
      "# TYPE jecb_test_ratio gauge\n"
      "jecb_test_ratio 0.25\n"
      "# HELP jecb_test_total things counted\n"
      "# TYPE jecb_test_total counter\n"
      "jecb_test_total{label=\"a\"} 3\n"
      "jecb_test_total{label=\"b\"} 5\n"
      "# HELP jecb_test_us latency\n"
      "# TYPE jecb_test_us histogram\n"
      "jecb_test_us_bucket{le=\"1\"} 1\n"
      "jecb_test_us_bucket{le=\"2\"} 1\n"
      "jecb_test_us_bucket{le=\"4\"} 2\n"
      "jecb_test_us_bucket{le=\"8\"} 2\n"
      "jecb_test_us_bucket{le=\"16\"} 2\n"
      "jecb_test_us_bucket{le=\"32\"} 2\n"
      "jecb_test_us_bucket{le=\"64\"} 2\n"
      "jecb_test_us_bucket{le=\"128\"} 3\n"
      "jecb_test_us_bucket{le=\"+Inf\"} 3\n"
      "jecb_test_us_sum 103\n"
      "jecb_test_us_count 3\n";
  EXPECT_EQ(reg.RenderPrometheus(), expected);
}

TEST(MetricsRegistryTest, LabeledHistogramMergesLabelsWithLe) {
  MetricsRegistry reg;
  reg.Histogram("jecb_lat_us{label=\"x\"}").Record(2);
  std::string out = reg.RenderPrometheus();
  EXPECT_NE(out.find("jecb_lat_us_bucket{label=\"x\",le=\"4\"} 1"),
            std::string::npos);
  EXPECT_NE(out.find("jecb_lat_us_bucket{label=\"x\",le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(out.find("jecb_lat_us_sum{label=\"x\"} 2"), std::string::npos);
  EXPECT_NE(out.find("jecb_lat_us_count{label=\"x\"} 1"), std::string::npos);
}

TEST(MetricsRegistryTest, KindMismatchKeepsOriginalMetric) {
  MetricsRegistry reg;
  reg.Counter("jecb_mismatch").fetch_add(4, std::memory_order_relaxed);
  // Asking for the same name as a gauge must not crash or clobber.
  reg.SetGauge("jecb_mismatch", 99.0);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_NE(reg.RenderPrometheus().find("jecb_mismatch 4"), std::string::npos);
}

TEST(SamplingTest, TxnTraceSampledIsPureAndRateBounded) {
  // Pure function: identical inputs, identical verdicts.
  for (uint64_t txn = 0; txn < 100; ++txn) {
    EXPECT_EQ(TxnTraceSampled(0x5ECB, txn, 0.5), TxnTraceSampled(0x5ECB, txn, 0.5));
  }
  // Degenerate rates short-circuit.
  EXPECT_TRUE(TxnTraceSampled(1, 42, 1.0));
  EXPECT_TRUE(TxnTraceSampled(1, 42, 2.0));
  EXPECT_FALSE(TxnTraceSampled(1, 42, 0.0));
  EXPECT_FALSE(TxnTraceSampled(1, 42, -1.0));
  // The hash keeps the sampled fraction near the requested rate.
  size_t sampled = 0;
  for (uint64_t txn = 0; txn < 10000; ++txn) {
    sampled += TxnTraceSampled(7, txn, 0.25) ? 1 : 0;
  }
  EXPECT_GT(sampled, 2000u);
  EXPECT_LT(sampled, 3000u);
  // Different seeds pick different subsets.
  size_t agree = 0;
  for (uint64_t txn = 0; txn < 1000; ++txn) {
    agree += TxnTraceSampled(1, txn, 0.5) == TxnTraceSampled(2, txn, 0.5) ? 1 : 0;
  }
  EXPECT_LT(agree, 1000u);
}

/// Replays with the default recorder enabled and returns the set of txn ids
/// that produced a terminal span (txn.local / txn.dist / txn.failed), plus
/// the report, resetting the recorder afterwards.
std::pair<std::set<int64_t>, ReplayReport> TracedReplay(
    const WorkloadBundle& b, const DatabaseSolution& solution,
    RuntimeOptions opt) {
  TraceRecorder& rec = TraceRecorder::Default();
  rec.Reset();
  rec.Enable();
  ReplayReport report = Replay(*b.db, solution, b.trace, opt, "obs-test");
  std::set<int64_t> sampled;
  for (const CollectedEvent& e : rec.Collect()) {
    std::string_view name = e.event.name;
    if (name == "txn.local" || name == "txn.dist" || name == "txn.failed") {
      sampled.insert(e.event.arg1);  // arg1 is the txn id
    }
  }
  EXPECT_EQ(rec.dropped(), 0u);
  rec.Reset();
  return {std::move(sampled), std::move(report)};
}

TEST(SamplingTest, SampledSetIdenticalAcrossClientCountsAndOutcomeUnchanged) {
  WorkloadBundle b = SmallTpcc();
  DatabaseSolution solution = MakeNaiveHashSolution(*b.db, 4);

  RuntimeOptions base = FastOptions();
  base.trace_sample_rate = 0.5;
  base.faults.seed = 0xBEEF;

  // Baseline outcome with tracing fully off.
  TraceRecorder::Default().Reset();
  ReplayReport untraced = Replay(*b.db, solution, b.trace, base, "obs-test");
  const uint64_t untraced_sig = untraced.OutcomeSignature();

  std::set<int64_t> first_set;
  for (int clients : {1, 4, 8}) {
    RuntimeOptions opt = base;
    opt.num_clients = clients;
    auto [sampled, report] = TracedReplay(b, solution, opt);
    // Sampling is keyed on (seed, txn id) only — the sampled set cannot
    // depend on scheduling.
    if (clients == 1) {
      first_set = sampled;
      if (kObsCompiledIn) {
        EXPECT_GT(sampled.size(), b.trace.size() / 4);
        EXPECT_LT(sampled.size(), 3 * b.trace.size() / 4);
      }
    } else {
      EXPECT_EQ(sampled, first_set) << "sampled txn set diverged at "
                                    << clients << " clients";
    }
    // Tracing is observational: the outcome signature matches the untraced
    // replay at every client count.
    EXPECT_EQ(report.OutcomeSignature(), untraced_sig);
  }
}

TEST(SamplingTest, SampleRateZeroEmitsNoTxnSpans) {
  WorkloadBundle b = SmallTpcc(300);
  DatabaseSolution solution = MakeNaiveHashSolution(*b.db, 4);
  RuntimeOptions opt = FastOptions();
  opt.trace_sample_rate = 0.0;
  auto [sampled, report] = TracedReplay(b, solution, opt);
  EXPECT_TRUE(sampled.empty());
  EXPECT_EQ(report.committed, 300u);
}

TEST(ReconciliationTest, TxnSpanDurationsMatchReportHistograms) {
  if (!kObsCompiledIn) GTEST_SKIP() << "obs compiled out";
  WorkloadBundle b = SmallTpcc();
  // 2 shards, not 4: at 4 every txn of this trace is distributed, and the
  // local half of the reconciliation would compare zero with zero.
  DatabaseSolution solution = MakeNaiveHashSolution(*b.db, 2);
  RuntimeOptions opt = FastOptions();
  opt.trace_sample_rate = 1.0;  // trace every txn

  TraceRecorder& rec = TraceRecorder::Default();
  rec.Reset();
  rec.Enable();
  ReplayReport report = Replay(*b.db, solution, b.trace, opt, "obs-test");
  std::vector<CollectedEvent> events = rec.Collect();
  EXPECT_EQ(rec.dropped(), 0u);
  rec.Reset();

  uint64_t local_spans = 0, local_dur = 0;
  uint64_t dist_spans = 0, dist_dur = 0;
  uint64_t lock_waits = 0;
  std::map<int64_t, const CollectedEvent*> local_by_txn;
  std::vector<const CollectedEvent*> executes;
  for (const CollectedEvent& e : events) {
    std::string_view name = e.event.name;
    if (name == "txn.local") {
      ++local_spans;
      local_dur += e.event.dur_us;
      local_by_txn[e.event.arg1] = &e;
    } else if (name == "txn.dist") {
      ++dist_spans;
      dist_dur += e.event.dur_us;
    } else if (name == "shard.lock_wait") {
      ++lock_waits;
    } else if (name == "shard.execute") {
      executes.push_back(&e);
    }
  }
  // In-process, a local txn executes on the client thread that submitted
  // it, inside its txn.local span (up to the 1 us the two spans' separate
  // truncations to whole microseconds can put between their ends).
  EXPECT_EQ(lock_waits, report.local.count);
  EXPECT_EQ(executes.size(), report.local.count);
  for (const CollectedEvent* exec : executes) {
    auto it = local_by_txn.find(exec->event.arg1);
    ASSERT_NE(it, local_by_txn.end()) << "txn " << exec->event.arg1;
    const CollectedEvent& local = *it->second;
    EXPECT_EQ(exec->tid, local.tid) << "txn " << exec->event.arg1;
    EXPECT_GE(exec->event.ts_us, local.event.ts_us);
    EXPECT_LE(exec->event.ts_us + exec->event.dur_us,
              local.event.ts_us + local.event.dur_us + 1);
  }
  // Every committed txn produced exactly one terminal span whose duration
  // is the same latency value the report's histograms recorded — the trace
  // and the metrics cannot disagree.
  EXPECT_EQ(local_spans, report.local.count);
  EXPECT_EQ(local_dur, report.local_hist.sum_us);
  EXPECT_EQ(dist_spans, report.distributed.count);
  EXPECT_EQ(dist_dur, report.distributed_hist.sum_us);
  EXPECT_EQ(local_spans + dist_spans, report.committed);
  EXPECT_GT(dist_spans, 0u);  // naive hash makes plenty of distributed txns
  EXPECT_GT(local_spans, 0u);  // and, at 2 shards, a few single-shard ones
}

TEST(ReplayRenderersTest, PrometheusAndAsciiAgreeWithReport) {
  WorkloadBundle b = SmallTpcc(300);
  DatabaseSolution solution = MakeNaiveHashSolution(*b.db, 2);
  TraceRecorder::Default().Reset();
  ReplayReport report = Replay(*b.db, solution, b.trace, FastOptions(), "r\"x");

  std::string prom = report.ToPrometheus();
  // The label is JSON-escaped so the quote cannot break the series name.
  EXPECT_NE(prom.find("label=\"r\\\"x\""), std::string::npos);
  EXPECT_NE(prom.find("jecb_replay_txns_total{label=\"r\\\"x\"} 300"),
            std::string::npos);
  EXPECT_NE(prom.find("jecb_replay_local_latency_us_count"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE jecb_replay_local_latency_us histogram"),
            std::string::npos);
  // Per-shard series carry both labels.
  EXPECT_NE(prom.find("shard=\"0\""), std::string::npos);
  EXPECT_NE(prom.find("shard=\"1\""), std::string::npos);

  std::string ascii = report.ToAscii();
  EXPECT_NE(ascii.find("r\"x"), std::string::npos);
  EXPECT_NE(ascii.find("committed"), std::string::npos);
}

TEST(TraceRecorderTest, DrainDeliversEachEventOnceAndKeepsCollectIntact) {
  if (!kObsCompiledIn) GTEST_SKIP() << "obs compiled out";
  TraceRecorder rec;
  rec.Enable(64);
  for (uint64_t i = 0; i < 3; ++i) rec.Emit(MakeSpan("first", i, 1));
  EXPECT_EQ(rec.Drain().size(), 3u);
  // The watermark advanced: nothing new means nothing drained.
  EXPECT_TRUE(rec.Drain().empty());
  for (uint64_t i = 10; i < 12; ++i) rec.Emit(MakeSpan("second", i, 1));
  std::vector<CollectedEvent> second = rec.Drain();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_STREQ(second[0].event.name, "second");
  // Drain is non-destructive: the postmortem path (Collect) still sees the
  // full surviving window.
  EXPECT_EQ(rec.Collect().size(), 5u);
}

TEST(TraceRecorderTest, ThreadNamesRegisterPerBuffer) {
  if (!kObsCompiledIn) GTEST_SKIP() << "obs compiled out";
  TraceRecorder rec;
  rec.Enable(16);
  rec.SetThreadName("control-loop");
  rec.Emit(MakeSpan("named", 1, 1));
  std::vector<std::pair<uint32_t, std::string>> names = rec.ThreadNames();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0].second, "control-loop");
  std::vector<CollectedEvent> events = rec.Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].tid, names[0].first);
}

TEST(ClusterTraceTest, MergedTraceCarriesProcessTracksAndShiftsClocks) {
  // Hand-built tracks, so this is exporter-only and runs in both configs.
  ProcessTrace coord;
  coord.pid = 100;
  coord.name = "coordinator";
  CollectedEvent e;
  e.event = MakeSpan("drive", 500, 10);
  e.tid = 1;
  coord.events.push_back(e);

  ProcessTrace shard;
  shard.pid = 200;
  shard.name = "shard-3";
  shard.clock_offset_us = 400;  // shard clock runs 400us ahead
  shard.thread_names = {{7, "control"}};
  e.event = MakeSpan("serve", 900, 10);  // = 500 in coordinator time
  e.tid = 7;
  shard.events.push_back(e);

  std::string json = ClusterTraceJson({coord, shard});
  std::vector<ChromeTraceEvent> parsed;
  std::string error;
  ASSERT_TRUE(ParseChromeTrace(json, &parsed, &error)) << error;

  std::map<int64_t, std::string> process_names;
  std::map<std::pair<int64_t, int64_t>, std::string> thread_names;
  std::map<int64_t, uint64_t> span_ts;
  for (const ChromeTraceEvent& ev : parsed) {
    if (ev.ph == "M" && ev.name == "process_name") {
      for (const auto& [k, v] : ev.sargs) {
        if (k == "name") process_names[ev.pid] = v;
      }
    } else if (ev.ph == "M" && ev.name == "thread_name") {
      for (const auto& [k, v] : ev.sargs) {
        if (k == "name") thread_names[{ev.pid, ev.tid}] = v;
      }
    } else if (ev.ph == "X") {
      span_ts[ev.pid] = ev.ts_us;
    }
  }
  EXPECT_EQ(process_names[100], "coordinator");
  EXPECT_EQ(process_names[200], "shard-3");
  EXPECT_EQ((thread_names[{200, 7}]), "control");
  // The remote track was shifted into the coordinator timebase.
  EXPECT_EQ(span_ts[100], 500u);
  EXPECT_EQ(span_ts[200], 500u);
}

TEST(ClusterTelemetryTest, IngestMergesBatchesAndRendersRemoteMetrics) {
  ClusterTelemetry sink;
  TraceRecorder interner;

  RemoteProcessTelemetry batch;
  batch.pid = 4242;
  batch.shard = 1;
  batch.name = "shard-1";
  batch.clock_offset_us = -25;
  CollectedEvent e;
  e.event = MakeSpan(interner.Intern("exec"), 100, 5);
  batch.events.push_back(e);
  MetricsRegistry::ScalarSample s;
  s.name = "jecb_shard_frames_total{shard=\"1\"}";
  s.is_gauge = false;
  s.count = 17;
  batch.metrics.push_back(s);
  sink.Ingest(std::move(batch));

  // A second batch from the same pid appends events, replaces metrics, and
  // carries the latest clock-offset estimate (latest wins — every harvest
  // ships the coordinator's current best estimate for that shard).
  RemoteProcessTelemetry more;
  more.pid = 4242;
  more.shard = 1;
  more.name = "shard-1";
  more.clock_offset_us = -30;
  e.event = MakeSpan(interner.Intern("exec"), 200, 5);
  more.events.push_back(e);
  s.count = 34;
  more.metrics.push_back(s);
  sink.Ingest(std::move(more));

  EXPECT_EQ(sink.num_processes(), 1u);
  EXPECT_EQ(sink.num_events(), 2u);
  std::vector<RemoteProcessTelemetry> snap = sink.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].pid, 4242);
  EXPECT_EQ(snap[0].clock_offset_us, -30);
  std::string prom = sink.RenderRemoteMetrics();
  EXPECT_NE(prom.find("jecb_shard_frames_total{shard=\"1\"} 34"),
            std::string::npos);
  EXPECT_EQ(prom.find(" 17"), std::string::npos);
}

TEST(FlightRecorderTest, DumpWritesParseableDocumentWithHeader) {
  std::string path = "obs_test_postmortem.json";
  ConfigureFlightRecorder(path, /*shard=*/3);
  ASSERT_TRUE(FlightRecorderConfigured());
  EXPECT_EQ(FlightRecorderPath(), path);

  TraceRecorder& rec = TraceRecorder::Default();
  rec.Reset();
  rec.Enable(64);
  rec.Emit(MakeSpan("last.words", 1, 2));
  ASSERT_TRUE(DumpFlightRecorder("test sigterm"));
  rec.Reset();

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string doc = buf.str();
  std::remove(path.c_str());

  // Perfetto-compatible: the extra keys do not break the trace parser.
  std::vector<ChromeTraceEvent> events;
  std::string error;
  ASSERT_TRUE(ParseChromeTrace(doc, &events, &error)) << error;
  if (kObsCompiledIn) {
    bool found = false;
    for (const ChromeTraceEvent& ev : events) found |= ev.name == "last.words";
    EXPECT_TRUE(found);
  }

  PostmortemHeader header;
  ASSERT_TRUE(ParsePostmortemHeader(doc, &header));
  EXPECT_EQ(header.shard, 3);
  EXPECT_EQ(header.reason, "test sigterm");
  EXPECT_GT(header.pid, 0);

  ConfigureFlightRecorder("", -1);  // disarm
  EXPECT_FALSE(FlightRecorderConfigured());
  EXPECT_FALSE(DumpFlightRecorder("disarmed"));
}

}  // namespace
}  // namespace jecb
