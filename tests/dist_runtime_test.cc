// Tests for the multi-process distributed shard runtime (src/dist): the
// cross-backend outcome oracle — ReplayReport::OutcomeSignature() must be
// bit-identical between the in-process backend and the forked shard-server
// socket backends for the same seed, at any client count, with and without
// injected 2PC faults, and with wire faults (drops, delays, duplicates,
// disconnects) layered on top — plus transport accounting, conservation
// invariants, exchange-style tuple routing parity (identical assembled
// read-set digests and jecb_exchange_* counters across backends), and clean
// shard-process shutdown with per-child exit statuses. Runs under
// ThreadSanitizer via tools/run_tsan.sh (label: tsan); children are forked
// single-threaded, before any client thread exists, and stay single-threaded
// — so the whole protocol stays sanitizer-clean.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/metrics_http.h"
#include "dist/replay.h"
#include "dist/transport.h"
#include "jecb/jecb.h"
#include "net/wire.h"
#include "obs/cluster_telemetry.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/trace_export.h"
#include "obs/trace_recorder.h"
#include "partition/evaluator.h"
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

/// Hash everything except WAREHOUSE, which is replicated — so the replay
/// mixes local txns, ordinary multi-shard 2PC, and replicated-write
/// (all-shards 2PC) traffic over the wire.
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

/// 2PC faults at meaningful rates but near-zero simulated durations, so the
/// fault *logic* crosses the wire without spending wall time.
FaultPlan CoordinationFaults() {
  FaultPlan plan;
  plan.stall_rate = 0.10;
  plan.stall_us = 0;
  plan.prepare_reject_rate = 0.15;
  plan.coordinator_timeout_rate = 0.10;
  plan.timeout_us = 0;
  plan.shard_down_rate = 0.10;
  plan.max_attempts = 3;
  plan.backoff_base_us = 0;
  plan.backoff_cap_us = 0;
  return plan;
}

FaultPlan WireFaults(FaultPlan plan = {}) {
  plan.wire_drop_rate = 0.05;
  plan.wire_retransmit_us = 0;
  plan.wire_delay_rate = 0.05;
  plan.wire_delay_us = 0;
  plan.wire_duplicate_rate = 0.05;
  plan.wire_disconnect_rate = 0.02;
  return plan;
}

ReplayReport RunReplay(const WorkloadBundle& b, const DatabaseSolution& solution,
                 TransportKind transport, int clients, const FaultPlan& faults,
                 const std::string& label) {
  RuntimeOptions opt = FastOptions(transport, clients);
  opt.faults = faults;
  return Replay(*b.db, solution, b.trace, opt, label);
}

void ExpectConservation(const ReplayReport& r) {
  EXPECT_EQ(r.committed + r.failed, r.total_txns);
  EXPECT_EQ(r.aborts, r.retries + r.failed);
}

TEST(DistRuntimeTest, SocketBackendMatchesInProcessSignatureWithoutFaults) {
  WorkloadBundle b = SmallTpcc();
  DatabaseSolution solution = MixedSolution(*b.db, 4);
  ReplayReport ref =
      RunReplay(b, solution, TransportKind::kInProcess, 4, {}, "inproc");
  ExpectConservation(ref);
  EXPECT_EQ(ref.committed, ref.total_txns);
  EXPECT_GT(ref.distributed_committed, 0u);

  // ISSUE contract: equality at 1, 4 and 8 clients — the signature must be
  // independent of both the backend and the client count.
  for (int clients : {1, 4, 8}) {
    ReplayReport dist = RunReplay(b, solution, TransportKind::kUnixSocket, clients,
                            {}, "unix-" + std::to_string(clients));
    ExpectConservation(dist);
    EXPECT_EQ(dist.OutcomeSignature(), ref.OutcomeSignature())
        << "clients=" << clients;
    EXPECT_EQ(dist.committed, ref.committed);
    EXPECT_EQ(dist.distributed_committed, ref.distributed_committed);
    EXPECT_EQ(dist.residency_faults, ref.residency_faults);
  }
}

TEST(DistRuntimeTest, SocketBackendMatchesInProcessSignatureUnderFaults) {
  WorkloadBundle b = SmallTpcc();
  DatabaseSolution solution = MixedSolution(*b.db, 4);
  const FaultPlan faults = CoordinationFaults();
  ReplayReport ref =
      RunReplay(b, solution, TransportKind::kInProcess, 4, faults, "inproc-faults");
  ExpectConservation(ref);
  // The plan's rates must actually bite for this test to mean anything.
  EXPECT_GT(ref.aborts, 0u);
  EXPECT_GT(ref.prepare_rejects, 0u);
  EXPECT_GT(ref.shard_down_aborts, 0u);
  EXPECT_GT(ref.stalls_injected, 0u);

  for (int clients : {1, 4, 8}) {
    ReplayReport dist = RunReplay(b, solution, TransportKind::kUnixSocket, clients,
                            faults, "unix-faults-" + std::to_string(clients));
    ExpectConservation(dist);
    EXPECT_EQ(dist.OutcomeSignature(), ref.OutcomeSignature())
        << "clients=" << clients;
    EXPECT_EQ(dist.coordinator_timeouts, ref.coordinator_timeouts);
    EXPECT_EQ(dist.shard_down_aborts, ref.shard_down_aborts);
    EXPECT_EQ(dist.failed, ref.failed);
  }
}

TEST(DistRuntimeTest, WireFaultsPerturbTransportCountersButNeverOutcomes) {
  WorkloadBundle b = SmallTpcc();
  DatabaseSolution solution = MixedSolution(*b.db, 4);
  const FaultPlan coordination = CoordinationFaults();
  ReplayReport ref = RunReplay(b, solution, TransportKind::kInProcess, 4,
                         coordination, "inproc-ref");

  ReplayReport wired = RunReplay(b, solution, TransportKind::kUnixSocket, 4,
                           WireFaults(coordination), "unix-wire-faults");
  ExpectConservation(wired);
  // The masking contract: drops retransmit, duplicates dedup, disconnects
  // reconnect between transactions — so the wire chaos shows up ONLY in the
  // transport counters, never in the 2PC outcome.
  EXPECT_EQ(wired.OutcomeSignature(), ref.OutcomeSignature());
  EXPECT_GT(wired.transport_counters.wire_drops, 0u);
  EXPECT_GT(wired.transport_counters.wire_delays, 0u);
  EXPECT_GT(wired.transport_counters.wire_duplicates, 0u);
  EXPECT_GT(wired.transport_counters.reconnects, 0u);
  // Every injected duplicate must have been suppressed by a shard server.
  EXPECT_GE(wired.transport_counters.dedup_drops,
            wired.transport_counters.wire_duplicates);
}

TEST(DistRuntimeTest, TcpBackendMatchesInProcessSignature) {
  WorkloadBundle b = SmallTpcc(200);
  DatabaseSolution solution = MixedSolution(*b.db, 2);
  ReplayReport ref =
      RunReplay(b, solution, TransportKind::kInProcess, 2, {}, "inproc-tcp-ref");
  ReplayReport tcp = RunReplay(b, solution, TransportKind::kTcpSocket, 2, {}, "tcp");
  ExpectConservation(tcp);
  EXPECT_EQ(tcp.OutcomeSignature(), ref.OutcomeSignature());
  EXPECT_EQ(tcp.transport, TransportKind::kTcpSocket);
  EXPECT_GT(tcp.transport_counters.messages_sent, 0u);
}

TEST(DistRuntimeTest, SocketTransportReportsWireAccounting) {
  WorkloadBundle b = SmallTpcc(200);
  DatabaseSolution solution = MixedSolution(*b.db, 4);
  ReplayReport r =
      RunReplay(b, solution, TransportKind::kUnixSocket, 4, {}, "unix-accounting");

  EXPECT_EQ(r.transport, TransportKind::kUnixSocket);
  const TransportCounters& c = r.transport_counters;
  // The coordinators' exact frame budget in a fault-free replay: one Execute
  // per local txn, one Prepare and one one-way Commit per 2PC participant,
  // and one kShutdown per shard — plus at most one lazy Hello per (session,
  // shard).
  uint64_t local = 0;
  uint64_t participants = 0;
  for (const ClassifiedTxn& ct : ClassifyTrace(*b.db, solution, b.trace)) {
    if (ct.RequiresTwoPhaseCommit()) {
      participants += ct.participants.size();
    } else {
      ++local;
    }
  }
  const uint64_t shards = 4;
  const uint64_t clients = 4;
  const uint64_t floor = local + 2 * participants + shards;
  EXPECT_GE(c.messages_sent, floor);
  EXPECT_LE(c.messages_sent, floor + clients * shards);
  EXPECT_GT(c.messages_received, r.total_txns);
  EXPECT_GT(c.bytes_sent, c.messages_sent * net::kFrameHeaderBytes);
  EXPECT_GT(c.bytes_received, 0u);
  // The shard servers confirmed processing what the coordinators sent
  // (shutdown-control frames are not echoed in shard_frames' sender count,
  // so allow the harvested number to exceed the sessions' sends).
  EXPECT_GE(c.shard_frames, c.messages_sent);
  EXPECT_GT(c.shard_bytes, 0u);
  EXPECT_EQ(c.wire_drops, 0u);
  EXPECT_EQ(c.reconnects, 0u);

  // One round trip per Execute and per Prepare, none per Commit: a yes vote
  // brings the shard's read rows, so the commit needs no reply.
  EXPECT_EQ(r.transport_rtt.count, local + participants);
  // Per-shard wire RTT histograms made it into the report and its renderers.
  uint64_t per_shard = 0;
  for (const ShardReport& s : r.shards) per_shard += s.rtt_count;
  EXPECT_EQ(per_shard, r.transport_rtt.count);
  EXPECT_NE(r.ToJson().find("\"transport\":{\"kind\":\"unix\""), std::string::npos);
  EXPECT_NE(r.ToPrometheus().find("jecb_transport_rtt_us"), std::string::npos);
  EXPECT_NE(r.ToAscii().find("rtt_p50/p95/p99_us"), std::string::npos);
}

TEST(DistRuntimeTest, InProcessBackendHasNoWireTraffic) {
  WorkloadBundle b = SmallTpcc(100);
  DatabaseSolution solution = MixedSolution(*b.db, 2);
  ReplayReport r =
      RunReplay(b, solution, TransportKind::kInProcess, 2, {}, "inproc-quiet");
  EXPECT_EQ(r.transport, TransportKind::kInProcess);
  EXPECT_EQ(r.transport_counters.messages_sent, 0u);
  EXPECT_EQ(r.transport_counters.bytes_sent, 0u);
  EXPECT_EQ(r.transport_rtt.count, 0u);
  for (const ShardReport& s : r.shards) EXPECT_EQ(s.rtt_count, 0u);
}

// ---------------------------------------------------------------------------
// Exchange-style tuple routing

/// Compares every backend-invariant exchange quantity, the payload digest
/// chief among them: equal digests mean the assembled tuple BYTES were
/// identical entry for entry (the digest hashes table, row and encoded bytes
/// of every read, folded per txn), which is the cross-backend contract.
void ExpectExchangeParity(const ReplayReport& got, const ReplayReport& ref,
                          const std::string& ctx) {
  EXPECT_EQ(got.exchange_digest, ref.exchange_digest) << ctx;
  EXPECT_EQ(got.exchange_txns, ref.exchange_txns) << ctx;
  EXPECT_EQ(got.exchange_tuples, ref.exchange_tuples) << ctx;
  EXPECT_EQ(got.exchange_bytes, ref.exchange_bytes) << ctx;
  EXPECT_EQ(got.exchange_remote_tuples, ref.exchange_remote_tuples) << ctx;
  EXPECT_EQ(got.exchange_remote_bytes, ref.exchange_remote_bytes) << ctx;
  EXPECT_EQ(got.exchange_batches, ref.exchange_batches) << ctx;
  EXPECT_EQ(got.exchange_fanout_hist.count, ref.exchange_fanout_hist.count)
      << ctx;
  ASSERT_EQ(got.shards.size(), ref.shards.size()) << ctx;
  for (size_t s = 0; s < got.shards.size(); ++s) {
    EXPECT_EQ(got.shards[s].exchange_tuples_out, ref.shards[s].exchange_tuples_out)
        << ctx << " shard=" << s;
    EXPECT_EQ(got.shards[s].exchange_bytes_out, ref.shards[s].exchange_bytes_out)
        << ctx << " shard=" << s;
  }
}

TEST(DistRuntimeTest, ExchangeParityAcrossBackendsAndClientCounts) {
  WorkloadBundle b = SmallTpcc();
  JecbOptions jopt;
  jopt.num_partitions = 4;
  Result<JecbResult> jecb =
      Jecb(jopt).Partition(b.db.get(), b.procedures, b.trace);
  ASSERT_TRUE(jecb.ok()) << jecb.status().ToString();
  // Two layouts over 4 shards: the mixed one sends most transactions through
  // 2PC; JECB's, the layout the benchmark replays, keeps most local, so only
  // its remote-warehouse residue exchanges rows.
  const std::pair<std::string, DatabaseSolution> layouts[] = {
      {"mixed", MixedSolution(*b.db, 4)}, {"jecb", jecb.value().solution}};
  for (const auto& [layout, solution] : layouts) {
    ReplayReport ref = RunReplay(b, solution, TransportKind::kInProcess, 4, {},
                                 "inproc-exch-" + layout);
    // The workload must actually move rows for this test to mean anything.
    EXPECT_GT(ref.exchange_txns, 0u) << layout;
    EXPECT_GT(ref.exchange_tuples, 0u) << layout;
    EXPECT_GT(ref.exchange_remote_tuples, 0u) << layout;
    EXPECT_GT(ref.exchange_batches, 0u) << layout;
    EXPECT_NE(ref.exchange_digest, 0u) << layout;

    for (TransportKind kind :
         {TransportKind::kUnixSocket, TransportKind::kTcpSocket}) {
      for (int clients : {1, 4, 8}) {
        const std::string ctx = layout + "-" +
                                std::string(TransportKindName(kind)) + "-" +
                                std::to_string(clients);
        ReplayReport dist = RunReplay(b, solution, kind, clients, {}, ctx);
        EXPECT_EQ(dist.OutcomeSignature(), ref.OutcomeSignature()) << ctx;
        ExpectExchangeParity(dist, ref, ctx);
        // The wire actually carried the rows: every participant's yes vote
        // brought the reads it serves to the coordinator.
        EXPECT_GE(dist.transport_counters.exchange_tuples, dist.exchange_tuples)
            << ctx;
        EXPECT_GT(dist.transport_counters.exchange_batches, 0u) << ctx;
        EXPECT_GT(dist.transport_counters.exchange_bytes, 0u) << ctx;
      }
    }
  }
}

TEST(DistRuntimeTest, ExchangeParitySurvivesWireFaultMixes) {
  WorkloadBundle b = SmallTpcc();
  DatabaseSolution solution = MixedSolution(*b.db, 4);
  const FaultPlan coordination = CoordinationFaults();
  ReplayReport ref = RunReplay(b, solution, TransportKind::kInProcess, 4,
                               coordination, "inproc-exch-faults");
  EXPECT_GT(ref.exchange_txns, 0u);
  EXPECT_GT(ref.aborts, 0u);  // exchange must fire on committing attempts only

  for (int clients : {1, 4, 8}) {
    const std::string ctx = "unix-wire-exch-" + std::to_string(clients);
    ReplayReport dist = RunReplay(b, solution, TransportKind::kUnixSocket,
                                  clients, WireFaults(coordination), ctx);
    EXPECT_EQ(dist.OutcomeSignature(), ref.OutcomeSignature()) << ctx;
    ExpectExchangeParity(dist, ref, ctx);
    // Every injected duplicate, the one-way commits' and aborts' included,
    // was suppressed by a shard's watermark.
    EXPECT_GE(dist.transport_counters.dedup_drops,
              dist.transport_counters.wire_duplicates)
        << ctx;
  }
}

TEST(DistRuntimeTest, ExchangeBatchesStraddleFrameBoundaries) {
  WorkloadBundle b = SmallTpcc(150);
  DatabaseSolution solution = MixedSolution(*b.db, 4);
  RuntimeOptions tiny = FastOptions(TransportKind::kInProcess, 2);
  tiny.exchange_batch_bytes = 64;  // clamp floor: nearly every row its own batch
  ReplayReport ref = Replay(*b.db, solution, b.trace, tiny, "inproc-tiny-batch");
  RuntimeOptions coarse = FastOptions(TransportKind::kInProcess, 2);
  ReplayReport coarse_ref =
      Replay(*b.db, solution, b.trace, coarse, "inproc-default-batch");
  // Same rows, same digest; the tiny budget only fragments the stream.
  EXPECT_EQ(ref.exchange_digest, coarse_ref.exchange_digest);
  EXPECT_EQ(ref.exchange_tuples, coarse_ref.exchange_tuples);
  EXPECT_GT(ref.exchange_batches, coarse_ref.exchange_batches);

  // The wire backend splits identically: multi-batch shares arrive ahead of
  // their votes without losing or reordering rows.
  tiny.transport = TransportKind::kUnixSocket;
  ReplayReport dist = Replay(*b.db, solution, b.trace, tiny, "unix-tiny-batch");
  EXPECT_EQ(dist.OutcomeSignature(), ref.OutcomeSignature());
  ExpectExchangeParity(dist, ref, "unix-tiny-batch");
}

TEST(DistRuntimeTest, ForcedReconnectsMidReplayKeepParity) {
  // Satellite regression for the watermark-vs-reconnect contract: tear every
  // channel down between transactions (disconnect rate 1.0) so the replay is
  // wall-to-wall reconnects. If a reconnected channel kept its old send
  // sequence — or the server kept the old connection's watermark — frames
  // after the reconnect would be swallowed as duplicates and the replay
  // would hang or diverge.
  WorkloadBundle b = SmallTpcc(150);
  DatabaseSolution solution = MixedSolution(*b.db, 4);
  ReplayReport ref =
      RunReplay(b, solution, TransportKind::kInProcess, 2, {}, "inproc-reconn");
  FaultPlan always_reconnect;
  always_reconnect.wire_disconnect_rate = 1.0;
  ReplayReport dist = RunReplay(b, solution, TransportKind::kUnixSocket, 2,
                                always_reconnect, "unix-reconn");
  ExpectConservation(dist);
  EXPECT_EQ(dist.OutcomeSignature(), ref.OutcomeSignature());
  ExpectExchangeParity(dist, ref, "unix-reconn");
  EXPECT_GT(dist.transport_counters.reconnects, 0u);
}

TEST(DistRuntimeTest, ShardExitStatusesAreRecordedAndClean) {
  WorkloadBundle b = SmallTpcc(120);
  DatabaseSolution solution = MixedSolution(*b.db, 4);
  ReplayReport r =
      RunReplay(b, solution, TransportKind::kUnixSocket, 2, {}, "unix-exits");
  ASSERT_EQ(r.shard_exits.size(), r.shards.size());
  for (const ShardExitStatus& e : r.shard_exits) {
    EXPECT_GE(e.shard, 0);
    EXPECT_TRUE(e.clean()) << "shard=" << e.shard
                           << " exit_code=" << e.exit_code
                           << " term_signal=" << e.term_signal;
    EXPECT_FALSE(e.forced_kill);
  }
  EXPECT_EQ(r.abnormal_shard_exits(), 0u);
  EXPECT_NE(r.ToJson().find("\"shard_exits\":["), std::string::npos);

  ReplayReport inproc =
      RunReplay(b, solution, TransportKind::kInProcess, 2, {}, "inproc-exits");
  EXPECT_TRUE(inproc.shard_exits.empty());
  EXPECT_EQ(inproc.abnormal_shard_exits(), 0u);
}

// ---------------------------------------------------------------------------
// Distributed telemetry, merged cluster traces, and the flight recorder

TEST(DistTelemetryTest, ShutdownHarvestBuildsMergedClusterTrace) {
  WorkloadBundle b = SmallTpcc();
  DatabaseSolution solution = MixedSolution(*b.db, 4);
  ClusterTelemetry::Default().Reset();
  TraceRecorder& rec = TraceRecorder::Default();
  rec.Reset();
  rec.Enable();
  rec.SetThreadName("coordinator/main");
  // A series only the coordinator records: the forked children must not
  // ship it back as shard telemetry.
  const std::string coordinator_only = "jecb_test_coordinator_only_total";
  MetricsRegistry::Default().AddCounter(coordinator_only, 1);

  ReplayReport r = RunReplay(b, solution, TransportKind::kUnixSocket, 4, {},
                             "unix-cluster-trace");
  EXPECT_EQ(r.abnormal_shard_exits(), 0u);
  // The shutdown harvest delivered one telemetry record per shard child.
  EXPECT_EQ(ClusterTelemetry::Default().num_processes(), 4u);
  for (const RemoteProcessTelemetry& proc :
       ClusterTelemetry::Default().Snapshot()) {
    const std::string own = "jecb_shard_executed_local_total{shard=\"" +
                            std::to_string(proc.shard) + "\"}";
    bool has_own = false;
    for (const MetricsRegistry::ScalarSample& s : proc.metrics) {
      EXPECT_NE(PrometheusFamily(s.name), coordinator_only)
          << "shard " << proc.shard << " shipped a coordinator series";
      if (s.name == own) has_own = true;
    }
    EXPECT_TRUE(has_own) << "shard " << proc.shard << " lacks " << own;
  }

  std::string json = ClusterTelemetry::Default().RenderClusterTrace();
  rec.Reset();
  ClusterTelemetry::Default().Reset();

  std::vector<ChromeTraceEvent> events;
  std::string error;
  ASSERT_TRUE(ParseChromeTrace(json, &events, &error)) << error;

  std::map<int64_t, std::string> process_names;
  std::set<int64_t> span_pids;
  std::set<int64_t> txn_pids;  // pids contributing txn-correlated spans
  for (const ChromeTraceEvent& e : events) {
    if (e.ph == "M" && e.name == "process_name") {
      for (const auto& [k, v] : e.sargs) {
        if (k == "name") process_names[e.pid] = v;
      }
    } else if (e.ph == "X") {
      span_pids.insert(e.pid);
      for (const auto& [k, v] : e.args) {
        if (k == "txn") txn_pids.insert(e.pid);
      }
    }
  }
  // One labeled track per process: the coordinator plus all 4 shard children.
  ASSERT_EQ(process_names.size(), 5u);
  size_t shard_tracks = 0;
  bool has_coordinator = false;
  for (const auto& [pid, name] : process_names) {
    if (name == "coordinator") has_coordinator = true;
    if (name.rfind("shard-", 0) == 0) ++shard_tracks;
  }
  EXPECT_TRUE(has_coordinator);
  EXPECT_EQ(shard_tracks, 4u);

  if (kObsCompiledIn) {
    // The acceptance bar: actual spans from the coordinator AND every shard
    // child in one loadable document, correlated by txn id across tracks.
    EXPECT_EQ(span_pids.size(), 5u);
    EXPECT_GE(txn_pids.size(), 5u);
  } else {
    EXPECT_TRUE(span_pids.empty());
  }
}

TEST(DistTelemetryTest, TelemetryOnOffAndLivePollingKeepSignature) {
  WorkloadBundle b = SmallTpcc(200);
  DatabaseSolution solution = MixedSolution(*b.db, 4);
  const FaultPlan faults = CoordinationFaults();

  // The full acceptance matrix: inproc/unix/tcp at 1/4/8 clients, with the
  // shutdown harvest on (the default), off, and an aggressive live poller.
  // Outcomes are a pure function of (seed, txn id, attempt), so every cell
  // must land on the same signature as the 1-client in-process reference.
  RuntimeOptions base = FastOptions(TransportKind::kInProcess, 1);
  base.faults = faults;
  ASSERT_TRUE(base.telemetry_harvest);  // harvest-at-shutdown is the default
  const uint64_t ref =
      Replay(*b.db, solution, b.trace, base, "inproc-tel-ref").OutcomeSignature();

  for (TransportKind t : {TransportKind::kInProcess, TransportKind::kUnixSocket,
                          TransportKind::kTcpSocket}) {
    for (int clients : {1, 4, 8}) {
      for (int mode = 0; mode < 3; ++mode) {
        // Socket-only telemetry modes are no-ops in-process; one inproc pass
        // per client count is enough.
        if (t == TransportKind::kInProcess && mode > 0) continue;
        RuntimeOptions opt = FastOptions(t, clients);
        opt.faults = faults;
        if (mode == 1) opt.telemetry_harvest = false;
        if (mode == 2) opt.telemetry_period_ms = 5;  // live poll during replay
        const std::string label = std::string(TransportKindName(t)) + "-c" +
                                  std::to_string(clients) + "-m" +
                                  std::to_string(mode);
        ReplayReport r = Replay(*b.db, solution, b.trace, opt, label);
        EXPECT_EQ(r.OutcomeSignature(), ref) << label;
      }
    }
  }
}

TEST(DistTelemetryTest, InjectedCrashLeavesParseablePostmortem) {
  WorkloadBundle b = SmallTpcc(150);
  DatabaseSolution solution = MixedSolution(*b.db, 2);
  ReplayReport ref =
      RunReplay(b, solution, TransportKind::kInProcess, 2, {}, "inproc-crash-ref");

  RuntimeOptions opt = FastOptions(TransportKind::kUnixSocket, 2);
  opt.debug_crash_on_shutdown_shard = 1;
  ReplayReport r = Replay(*b.db, solution, b.trace, opt, "unix-crash");

  // The crash fires at shutdown, after the workload — outcomes are intact,
  // the exit record is not.
  EXPECT_EQ(r.OutcomeSignature(), ref.OutcomeSignature());
  EXPECT_GT(r.abnormal_shard_exits(), 0u);
  ASSERT_EQ(r.shard_exits.size(), 2u);
  const ShardExitStatus& crashed = r.shard_exits[1];
  EXPECT_FALSE(crashed.clean());
  EXPECT_EQ(crashed.exit_code, 3);
  ASSERT_FALSE(crashed.postmortem_path.empty());
  // The healthy shard shut down normally and left no dump.
  EXPECT_TRUE(r.shard_exits[0].clean());
  EXPECT_TRUE(r.shard_exits[0].postmortem_path.empty());
  // The report surfaces the path.
  EXPECT_NE(r.ToJson().find("\"postmortem\":"), std::string::npos);

  std::ifstream in(crashed.postmortem_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << crashed.postmortem_path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();

  std::vector<ChromeTraceEvent> events;
  std::string error;
  EXPECT_TRUE(ParseChromeTrace(doc, &events, &error)) << error;
  PostmortemHeader header;
  ASSERT_TRUE(ParsePostmortemHeader(doc, &header));
  EXPECT_EQ(header.shard, 1);
  EXPECT_EQ(header.reason, "injected-crash");
  EXPECT_GT(header.pid, 0);

  std::remove(crashed.postmortem_path.c_str());
}

TEST(DistTelemetryTest, WedgedShardIsTermedAndLeavesSigtermPostmortem) {
  WorkloadBundle b = SmallTpcc(100);
  DatabaseSolution solution = MixedSolution(*b.db, 2);
  RuntimeOptions opt = FastOptions(TransportKind::kUnixSocket, 2);
  opt.debug_wedge_shard = 0;  // ignores kShutdown; reap ladder must SIGTERM
  ReplayReport r = Replay(*b.db, solution, b.trace, opt, "unix-wedge");

  ASSERT_EQ(r.shard_exits.size(), 2u);
  const ShardExitStatus& wedged = r.shard_exits[0];
  EXPECT_TRUE(wedged.forced_term);
  EXPECT_FALSE(wedged.forced_kill);  // SIGTERM sufficed: dump, then exit
  ASSERT_FALSE(wedged.postmortem_path.empty());

  std::ifstream in(wedged.postmortem_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << wedged.postmortem_path;
  std::ostringstream buf;
  buf << in.rdbuf();
  PostmortemHeader header;
  ASSERT_TRUE(ParsePostmortemHeader(buf.str(), &header));
  EXPECT_EQ(header.shard, 0);
  EXPECT_EQ(header.reason, "sigterm");

  std::remove(wedged.postmortem_path.c_str());
}

TEST(DistTelemetryTest, LiveMetricsEndpointServesClusterSeriesMidReplay) {
  WorkloadBundle b = SmallTpcc(200);
  DatabaseSolution solution = MixedSolution(*b.db, 2);
  ClusterTelemetry::Default().Reset();

  // Replay()'s steps, spelled out so that the endpoint and the scraper
  // start only after Start() has forked the shard servers: the process
  // must still be single-threaded when it forks (dist/transport.h).
  std::vector<ClassifiedTxn> classified =
      ClassifyTrace(*b.db, solution, b.trace);
  ShardedDatabase sharded(*b.db, solution);
  RuntimeMetrics metrics(sharded.num_shards());
  RuntimeOptions opt = FastOptions(TransportKind::kUnixSocket, 2);
  opt.telemetry_period_ms = 10;
  std::unique_ptr<Transport> transport = MakeTransport(sharded, opt, &metrics);
  ASSERT_TRUE(transport->Start().ok());

  dist::MetricsHttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  // Scrape WHILE the replay runs (the poller feeds shard snapshots in), and
  // again after shutdown when the final harvest has landed.
  std::string mid_body;
  bool mid_ok = false;
  std::thread scraper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    Result<std::string> res = dist::ScrapeMetricsOnce(server.port());
    mid_ok = res.ok();
    if (res.ok()) mid_body = std::move(res).value();
  });
  {
    std::unique_ptr<TransportSession> session = transport->NewSession(0);
    for (const ClassifiedTxn& ct : classified) {
      if (ct.RequiresTwoPhaseCommit()) {
        session->ExecuteDistributed(ct);
      } else {
        session->ExecuteLocal(ct);
      }
    }
  }
  transport->Drain();
  scraper.join();
  const std::vector<ShardExitStatus> exits = transport->Report().shard_exits;
  ASSERT_EQ(exits.size(), 2u);
  for (const ShardExitStatus& e : exits) {
    EXPECT_TRUE(e.clean()) << "shard=" << e.shard;
  }
  EXPECT_EQ(metrics.Snapshot().committed, classified.size());
  EXPECT_TRUE(mid_ok);

  Result<std::string> final_scrape = dist::ScrapeMetricsOnce(server.port());
  ASSERT_TRUE(final_scrape.ok());
  // After the shutdown harvest, the aggregated body carries shard-labeled
  // series rebuilt from the children's registries.
  EXPECT_NE(final_scrape.value().find(
                "jecb_shard_executed_local_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(final_scrape.value().find(
                "jecb_shard_executed_local_total{shard=\"1\"}"),
            std::string::npos);
  server.Stop();
  EXPECT_FALSE(dist::ScrapeMetricsOnce(server.port()).ok());
  ClusterTelemetry::Default().Reset();
}

TEST(DistRuntimeTest, BackToBackSocketReplaysReuseNothingStale) {
  // Two consecutive socket replays: the first Drain() must have reaped its
  // shard processes and unlinked its socket files, or the second would
  // collide (bind failure -> loud abort) or talk to orphaned servers.
  WorkloadBundle b = SmallTpcc(120);
  DatabaseSolution solution = MixedSolution(*b.db, 2);
  ReplayReport a =
      RunReplay(b, solution, TransportKind::kUnixSocket, 2, {}, "unix-a");
  ReplayReport c =
      RunReplay(b, solution, TransportKind::kUnixSocket, 2, {}, "unix-b");
  EXPECT_EQ(a.OutcomeSignature(), c.OutcomeSignature());
  EXPECT_EQ(a.committed, c.committed);
}

}  // namespace
}  // namespace jecb
