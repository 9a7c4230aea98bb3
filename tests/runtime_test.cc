// Tests for the partitioned execution runtime: shard materialization,
// latency histograms, and trace replay (conservation, determinism, and
// agreement between the measured distributed fraction and the static
// Definition 5/6 evaluator). Latency knobs are kept near zero so the tests
// maximize interleaving instead of wall time; tools/run_tsan.sh runs this
// binary under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "partition/evaluator.h"
#include "partition/router.h"
#include "dist/replay.h"
#include "runtime/exchange.h"
#include "runtime/metrics.h"
#include "runtime/sharded_database.h"
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

/// Hash everything except WAREHOUSE, which is replicated — so Payment's
/// warehouse write exercises the replicated-write (all-shards 2PC) path.
DatabaseSolution HashWithReplicatedWarehouse(const Database& db, int32_t k) {
  DatabaseSolution s = MakeNaiveHashSolution(db, k);
  TableId wh = db.schema().FindTable("WAREHOUSE").value();
  s.Set(wh, std::make_shared<ReplicatedTable>());
  return s;
}

TEST(RuntimeShardedDatabaseTest, PartitionedTuplesLiveOnExactlyOneShard) {
  WorkloadBundle b = SmallTpcc();
  DatabaseSolution solution = MakeNaiveHashSolution(*b.db, 4);
  ShardedDatabase sharded(*b.db, solution);

  ASSERT_EQ(sharded.num_shards(), 4);
  EXPECT_EQ(sharded.base_tuples(), b.db->TotalRows());
  EXPECT_EQ(sharded.replicated_tuples(), 0u);
  EXPECT_EQ(sharded.unknown_placements(), 0u);
  EXPECT_DOUBLE_EQ(sharded.ReplicationFactor(), 1.0);

  uint64_t stored = 0;
  for (int32_t s = 0; s < 4; ++s) stored += sharded.shard_tuples(s);
  EXPECT_EQ(stored, b.db->TotalRows());

  // Every tuple is on its primary shard and nowhere else, and its stored
  // bytes are exactly its row encoding.
  for (TableId t = 0; t < b.db->schema().num_tables(); ++t) {
    for (RowId r = 0; r < b.db->table_data(t).num_rows(); ++r) {
      TupleId id{t, r};
      int32_t home = sharded.PrimaryShardOf(id);
      ASSERT_GE(home, 0);
      ASSERT_LT(home, 4);
      for (int32_t s = 0; s < 4; ++s) {
        EXPECT_EQ(sharded.Contains(s, id), s == home);
      }
      ASSERT_EQ(sharded.EncodedRow(id), EncodeRowBytes(b.db->table_data(t).row(r)));
    }
  }
}

TEST(RuntimeShardedDatabaseTest, ReplicatedTablesCopyToAllShards) {
  WorkloadBundle b = SmallTpcc();
  DatabaseSolution solution = HashWithReplicatedWarehouse(*b.db, 3);
  ShardedDatabase sharded(*b.db, solution);

  TableId wh = b.db->schema().FindTable("WAREHOUSE").value();
  uint64_t warehouses = b.db->table_data(wh).num_rows();
  EXPECT_EQ(sharded.replicated_tuples(), warehouses);
  EXPECT_GT(sharded.ReplicationFactor(), 1.0);
  for (int32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(sharded.shard_table_tuples(s, wh), warehouses);
    for (RowId r = 0; r < warehouses; ++r) {
      EXPECT_TRUE(sharded.Contains(s, TupleId{wh, static_cast<RowId>(r)}));
    }
  }
  // The constructor built the encoded-row store; a second build is a no-op
  // that keeps every view valid.
  const char* first_row = sharded.EncodedRow(TupleId{wh, 0}).data();
  sharded.BuildEncodedRows();
  EXPECT_EQ(sharded.EncodedRow(TupleId{wh, 0}).data(), first_row);
  // Replicated and partitioned tuples alike store exactly their row encoding.
  for (TableId t = 0; t < b.db->schema().num_tables(); ++t) {
    for (RowId r = 0; r < b.db->table_data(t).num_rows(); ++r) {
      ASSERT_EQ(sharded.EncodedRow(TupleId{t, r}),
                EncodeRowBytes(b.db->table_data(t).row(r)));
    }
  }
}

TEST(RuntimeMetricsTest, HistogramQuantilesBracketRecordedValues) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.max_us(), 1000u);
  EXPECT_NEAR(h.mean_us(), 500.5, 0.01);
  // Power-of-two buckets: quantiles are exact to within one octave.
  double p50 = h.Quantile(0.50);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1024.0);
  double p99 = h.Quantile(0.99);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1024.0);
  EXPECT_LE(h.Quantile(0.50), h.Quantile(0.95));
  EXPECT_LE(h.Quantile(0.95), h.Quantile(0.99));
}

TEST(RuntimeMetricsTest, QuantileRankUsesCeiling) {
  // Regression: the rank was truncated (q*n cast to integer) instead of
  // ceiled, picking one observation too low for small counts. With 9
  // observations of 1us and one of 1000us, p95 must select the 10th
  // observation (rank ceil(0.95 * 10) = 10), i.e. the [512, 1024) bucket.
  LatencyHistogram h;
  for (int i = 0; i < 9; ++i) h.Record(1);
  h.Record(1000);
  // rank 10: seen = 9 in bucket [1,2), the 10th is the 1000us observation.
  EXPECT_DOUBLE_EQ(h.Quantile(0.95), 1024.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1024.0);
  // rank ceil(0.9 * 10) = 9: still inside the [1,2) bucket.
  EXPECT_DOUBLE_EQ(h.Quantile(0.9), 2.0);
  // rank ceil(0.5 * 10) = 5: interpolated 5/9 into [1,2).
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1.0 + 5.0 / 9.0);
}

TEST(RuntimeMetricsTest, QuantileHandComputedSmallCounts) {
  // 4 observations at 1, 2, 3, 4us: buckets [1,2)x1, [2,4)x2, [4,8)x1.
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 4; ++v) h.Record(v);
  // p25 -> rank 1 -> whole [1,2) bucket interpolated to its upper edge.
  EXPECT_DOUBLE_EQ(h.Quantile(0.25), 2.0);
  // p50 -> rank 2 -> first of two observations in [2,4).
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 3.0);
  // p75 -> rank 3 -> second observation in [2,4).
  EXPECT_DOUBLE_EQ(h.Quantile(0.75), 4.0);
  // p99 -> rank ceil(3.96) = 4 -> the [4,8) bucket.
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 8.0);
}

TEST(RuntimeMetricsTest, HistogramEmptyAndZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.Quantile(0.99), 0.0);
  h.Record(0);
  EXPECT_EQ(h.count(), 1u);
  // A 0us observation lands in bucket [0, 1); its quantile reports at most
  // the bucket's upper edge.
  EXPECT_LE(h.Quantile(0.5), 1.0);
}

TEST(RuntimeReplayTest, ConservationUnderContention) {
  WorkloadBundle b = SmallTpcc(800);
  DatabaseSolution solution = MakeNaiveHashSolution(*b.db, 4);
  RuntimeOptions opt = FastOptions();
  opt.num_clients = 8;  // more clients than shards: heavy queue contention
  ReplayReport report = Replay(*b.db, solution, b.trace, opt, "conservation");

  EXPECT_EQ(report.total_txns, b.trace.size());
  EXPECT_EQ(report.committed, b.trace.size());  // nothing lost, nothing doubled
  EXPECT_EQ(report.residency_faults, 0u);
  uint64_t homed = 0;
  for (const ShardReport& s : report.shards) homed += s.local_txns;
  homed += report.distributed.count;
  EXPECT_EQ(homed, report.committed);
}

TEST(RuntimeReplayTest, DeterministicCommitCountsAcrossRuns) {
  WorkloadBundle b1 = SmallTpcc(500, 21);
  WorkloadBundle b2 = SmallTpcc(500, 21);
  DatabaseSolution s1 = MakeNaiveHashSolution(*b1.db, 4);
  DatabaseSolution s2 = MakeNaiveHashSolution(*b2.db, 4);
  ReplayReport r1 = Replay(*b1.db, s1, b1.trace, FastOptions());
  ReplayReport r2 = Replay(*b2.db, s2, b2.trace, FastOptions());
  EXPECT_EQ(r1.committed, r2.committed);
  EXPECT_EQ(r1.distributed_committed, r2.distributed_committed);
  // Thread scheduling may vary, but the per-shard homes are decided by
  // classification, which is deterministic.
  for (size_t s = 0; s < r1.shards.size(); ++s) {
    EXPECT_EQ(r1.shards[s].local_txns, r2.shards[s].local_txns);
    EXPECT_EQ(r1.shards[s].dist_participations, r2.shards[s].dist_participations);
  }
}

TEST(RuntimeReplayTest, MeasuredDistributedFractionMatchesStaticEvaluator) {
  WorkloadBundle b = SmallTpcc(700);
  for (int32_t k : {2, 4}) {
    DatabaseSolution hash = MakeNaiveHashSolution(*b.db, k);
    EvalResult expected = Evaluate(*b.db, hash, b.trace);
    ReplayReport measured = Replay(*b.db, hash, b.trace, FastOptions());
    EXPECT_EQ(measured.distributed_committed, expected.distributed_txns)
        << "hash solution, k=" << k;
    EXPECT_DOUBLE_EQ(measured.distributed_fraction(), expected.cost());

    // Replicated-write path must agree too (WAREHOUSE writes hit all shards).
    DatabaseSolution repl = HashWithReplicatedWarehouse(*b.db, k);
    EvalResult expected_repl = Evaluate(*b.db, repl, b.trace);
    ReplayReport measured_repl = Replay(*b.db, repl, b.trace, FastOptions());
    EXPECT_EQ(measured_repl.distributed_committed, expected_repl.distributed_txns)
        << "replicated-warehouse solution, k=" << k;
  }
}

TEST(RuntimeReplayTest, SimulatedCostsShowUpInLatencies) {
  WorkloadBundle b = SmallTpcc(120);
  DatabaseSolution solution = MakeNaiveHashSolution(*b.db, 2);
  RuntimeOptions opt = FastOptions();
  opt.round_trip_us = 300;
  ReplayReport report = Replay(*b.db, solution, b.trace, opt);
  ASSERT_GT(report.distributed.count, 0u);
  // One round trip of 300us, the votes' (the commit is one-way): no
  // distributed txn can finish faster.
  EXPECT_GE(report.distributed.p50_us, 300.0);
  EXPECT_GE(report.distributed.mean_us, 300.0);
}

TEST(RuntimeReplayTest, JsonExportContainsPerShardQuantiles) {
  WorkloadBundle b = SmallTpcc(200);
  DatabaseSolution solution = MakeNaiveHashSolution(*b.db, 2);
  ReplayReport report = Replay(*b.db, solution, b.trace, FastOptions(), "json-check");
  std::string json = report.ToJson();
  EXPECT_NE(json.find("\"label\":\"json-check\""), std::string::npos);
  EXPECT_NE(json.find("\"distributed_txns\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"shards\":[{\"shard\":0"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(RuntimeReplayTest, ClassifyTraceAssignsEveryTxnAHome) {
  WorkloadBundle b = SmallTpcc(300);
  DatabaseSolution solution = HashWithReplicatedWarehouse(*b.db, 3);
  std::vector<ClassifiedTxn> classified = ClassifyTrace(*b.db, solution, b.trace);
  ASSERT_EQ(classified.size(), b.trace.size());
  for (const ClassifiedTxn& ct : classified) {
    ASSERT_FALSE(ct.participants.empty());
    EXPECT_TRUE(std::is_sorted(ct.participants.begin(), ct.participants.end()));
    EXPECT_EQ(ct.home, ct.participants.front());
    for (int32_t p : ct.participants) {
      EXPECT_GE(p, 0);
      EXPECT_LT(p, 3);
    }
    if (ct.participants.size() > 1) {
      EXPECT_TRUE(ct.RequiresTwoPhaseCommit());
    }
  }
}

TEST(RuntimeRouterTest, ConcurrentRouteValueIsSafe) {
  WorkloadBundle b = SmallTpcc(200);
  DatabaseSolution solution = MakeNaiveHashSolution(*b.db, 4);
  Router router(b.db.get(), &solution);

  const Schema& schema = b.db->schema();
  TableId wh = schema.FindTable("WAREHOUSE").value();
  TableId dist = schema.FindTable("DISTRICT").value();
  ColumnRef wh_id{wh, schema.table(wh).FindColumn("W_ID").value()};
  ColumnRef d_w_id{dist, schema.table(dist).FindColumn("D_W_ID").value()};

  // Lazy build raced from many threads: ThreadSanitizer validates the lock.
  std::vector<std::thread> threads;
  std::atomic<size_t> routed{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        ColumnRef attr = (t + i) % 2 == 0 ? wh_id : d_w_id;
        std::vector<int32_t> parts =
            router.RouteValue(attr, Value(static_cast<int64_t>(i % 4 + 1)));
        if (!parts.empty()) routed.fetch_add(1);
        ASSERT_TRUE(std::is_sorted(parts.begin(), parts.end()));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(routed.load(), 8u * 50u);
}

TEST(RuntimeRouterTest, WarmPrebuildsTables) {
  WorkloadBundle b = SmallTpcc(100);
  DatabaseSolution solution = MakeNaiveHashSolution(*b.db, 2);
  Router router(b.db.get(), &solution);
  const Schema& schema = b.db->schema();
  TableId wh = schema.FindTable("WAREHOUSE").value();
  ColumnRef wh_id{wh, schema.table(wh).FindColumn("W_ID").value()};
  router.Warm({wh_id});
  EXPECT_GT(router.LookupTableSize(wh_id), 0u);
}

TEST(RuntimeEvaluatorTest, ClassCostOutOfRangeIsZero) {
  EvalResult r;
  r.class_total = {10, 0};
  r.class_distributed = {5, 0};
  EXPECT_DOUBLE_EQ(r.class_cost(0), 0.5);
  EXPECT_DOUBLE_EQ(r.class_cost(1), 0.0);
  EXPECT_DOUBLE_EQ(r.class_cost(99), 0.0);  // beyond the trace's class count
  EXPECT_EQ(r.class_total_of(99), 0u);
  EXPECT_EQ(r.class_distributed_of(99), 0u);
}

}  // namespace
}  // namespace jecb
