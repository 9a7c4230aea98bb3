// Delta evaluation contract (partition/delta_evaluator.h): the delta
// result must be bit-identical to a full Evaluate() of the candidate — for
// empty affected sets, across the >8-distinct-partition heap spill, through
// repeated apply/revert round-trips, and at every thread count. Most tests
// additionally run with set_self_check(true), which re-proves the identity
// inside the evaluator on every candidate.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "horticulture/horticulture.h"
#include "jecb/jecb.h"
#include "partition/delta_evaluator.h"
#include "partition/evaluator.h"
#include "test_util.h"
#include "trace/flat_trace.h"
#include "workloads/tatp.h"
#include "workloads/tpcc.h"

namespace jecb {
namespace {

void ExpectEvalEqual(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.total_txns, b.total_txns);
  EXPECT_EQ(a.distributed_txns, b.distributed_txns);
  EXPECT_EQ(a.partitions_touched, b.partitions_touched);
  EXPECT_EQ(a.class_total, b.class_total);
  EXPECT_EQ(a.class_distributed, b.class_distributed);
  EXPECT_EQ(a.partition_load, b.partition_load);
  EXPECT_TRUE(a == b);  // the defaulted operator must agree field-wise
}

/// All-replicated solution over `db`'s schema.
DatabaseSolution ReplicateAll(const Database& db, int32_t k) {
  DatabaseSolution sol(k, db.schema().num_tables());
  auto replicated = std::make_shared<ReplicatedTable>();
  for (size_t t = 0; t < db.schema().num_tables(); ++t) {
    sol.Set(static_cast<TableId>(t), replicated);
  }
  return sol;
}

TEST(DeltaEvalTest, MatchesFullEvaluateOnCustInfo) {
  testing::CustInfoDb fixture = testing::MakeCustInfoDb();
  Trace trace = testing::MakeCustInfoTrace(fixture, 6);
  FlatTrace flat = FlatTrace::FromTrace(trace);
  const Database& db = *fixture.db;

  DatabaseSolution base = MakeNaiveHashSolution(db, 4);
  DeltaEvaluator delta(&db, &flat);
  delta.set_self_check(true);
  const EvalResult& base_ev = delta.Rebase(base);
  ExpectEvalEqual(base_ev, Evaluate(db, base, flat));

  // Change one table at a time to replication; the delta result must match
  // the full evaluation of the modified solution exactly.
  auto replicated = std::make_shared<ReplicatedTable>();
  for (size_t t = 0; t < db.schema().num_tables(); ++t) {
    DatabaseSolution cand = base;
    cand.Set(static_cast<TableId>(t), replicated);
    const std::array<TableId, 1> changed = {static_cast<TableId>(t)};
    EvalResult dv = delta.EvaluateCandidate(cand, changed);
    ExpectEvalEqual(dv, Evaluate(db, cand, flat));
  }
}

TEST(DeltaEvalTest, EmptyAffectedSetReturnsBaseExactly) {
  testing::CustInfoDb fixture = testing::MakeCustInfoDb();
  Trace trace = testing::MakeCustInfoTrace(fixture, 3);
  FlatTrace flat = FlatTrace::FromTrace(trace);
  const Database& db = *fixture.db;

  DatabaseSolution base = MakeNaiveHashSolution(db, 4);
  DeltaEvaluator delta(&db, &flat);
  delta.set_self_check(true);
  EvalResult base_ev = delta.Rebase(base);

  // CUSTOMER is never accessed by the CustInfo trace (only its accounts,
  // trades and holding summaries are read), so "changing" it affects no
  // transaction: the candidate must score exactly the base result.
  Result<TableId> customer = db.schema().FindTable("CUSTOMER");
  ASSERT_TRUE(customer.ok());
  ASSERT_EQ(delta.AffectedTxns(customer.value()), 0u);
  DatabaseSolution cand = base;
  cand.Set(customer.value(), std::make_shared<ReplicatedTable>());
  const std::array<TableId, 1> changed = {customer.value()};
  ExpectEvalEqual(delta.EvaluateCandidate(cand, changed), base_ev);

  // An empty changed list is a no-op too.
  ExpectEvalEqual(delta.EvaluateCandidate(base, {}), base_ev);
}

TEST(DeltaEvalTest, EmptyClassViewScansToZero) {
  testing::CustInfoDb fixture = testing::MakeCustInfoDb();
  Trace trace = testing::MakeCustInfoTrace(fixture, 2);
  FlatTrace flat = FlatTrace::FromTrace(trace);
  // Class id 1 does not exist: FilterClass yields an empty view, which the
  // scan must handle (zero counters, correctly sized vectors).
  TraceView empty = TraceView(&flat).FilterClass(1);
  ASSERT_TRUE(empty.empty());
  DatabaseSolution sol = MakeNaiveHashSolution(*fixture.db, 4);
  std::vector<int32_t> part = ResolvePartitions(*fixture.db, sol, flat);
  EvalResult ev = EvaluateWithPartitions(empty, part, 4);
  EXPECT_EQ(ev.total_txns, 0u);
  EXPECT_EQ(ev.distributed_txns, 0u);
  EXPECT_EQ(ev.class_total, std::vector<uint64_t>(flat.num_classes(), 0));
  EXPECT_EQ(ev.partition_load, std::vector<uint64_t>(4, 0));
}

TEST(DeltaEvalTest, FlipsDistributedAcrossEightPartitionHeapSpill) {
  // One table, 16 rows, and transactions reading all 16 tuples: under a
  // 16-way per-row placement every such transaction touches 16 distinct
  // partitions — past the evaluator's 8-slot inline buffer, into the heap
  // spill. Toggling the table between replication (0 partitions, local) and
  // per-row placement (16, distributed) must stay exact in both directions.
  Schema schema;
  TableId tid = schema.AddTable("WIDE").value();
  CheckOk(schema.AddColumn(tid, "ID", ValueType::kInt64), "delta test");
  CheckOk(schema.SetPrimaryKey(tid, {"ID"}), "delta test");
  Database db(schema);
  std::vector<TupleId> rows;
  for (int64_t i = 0; i < 16; ++i) rows.push_back(db.MustInsert("WIDE", {i}));

  Trace trace;
  uint32_t cls = trace.InternClass("ScanAll");
  for (int rep = 0; rep < 5; ++rep) {
    Transaction txn;
    txn.class_id = cls;
    for (TupleId r : rows) txn.Read(r);
    trace.Add(std::move(txn));
  }
  FlatTrace flat = FlatTrace::FromTrace(trace);

  const int32_t k = 16;
  DatabaseSolution replicated = ReplicateAll(db, k);
  DatabaseSolution per_row = ReplicateAll(db, k);
  per_row.Set(tid, std::make_shared<CallbackPartitioner>(
                       [](const Database&, TupleId t) {
                         return static_cast<int32_t>(t.row % 16);
                       },
                       "row % 16"));

  DeltaEvaluator delta(&db, &flat);
  delta.set_self_check(true);
  const std::array<TableId, 1> changed = {tid};

  // Replicated base -> per-row candidate: every txn becomes distributed,
  // touching 16 partitions (spill exercised in the candidate scan).
  delta.Rebase(replicated);
  EvalResult spread = delta.EvaluateCandidate(per_row, changed);
  ExpectEvalEqual(spread, Evaluate(db, per_row, flat));
  EXPECT_EQ(spread.distributed_txns, 5u);
  EXPECT_EQ(spread.partitions_touched, 5u * 16u);

  // Per-row base -> replicated candidate: the spill now happens in the
  // base-side subtraction; everything flips back to local.
  delta.Rebase(per_row);
  EvalResult local = delta.EvaluateCandidate(replicated, changed);
  ExpectEvalEqual(local, Evaluate(db, replicated, flat));
  EXPECT_EQ(local.distributed_txns, 0u);
}

TEST(DeltaEvalTest, RepeatedApplyRevertRoundTripsAreExact) {
  testing::CustInfoDb fixture = testing::MakeCustInfoDb();
  Trace trace = testing::MakeCustInfoTrace(fixture, 8);
  FlatTrace flat = FlatTrace::FromTrace(trace);
  const Database& db = *fixture.db;

  DatabaseSolution base = MakeNaiveHashSolution(db, 8);
  Result<TableId> trade = db.schema().FindTable("TRADE");
  ASSERT_TRUE(trade.ok());
  DatabaseSolution cand = base;
  cand.Set(trade.value(), std::make_shared<ReplicatedTable>());

  DeltaEvaluator delta(&db, &flat);
  delta.set_self_check(true);
  EvalResult base_ev = delta.Rebase(base);
  EvalResult cand_full = Evaluate(db, cand, flat);

  // The scratch mirror is patched and restored on every call: alternating
  // candidate and base evaluations many times must keep returning the exact
  // original results (any leaked patch would corrupt all later calls).
  const std::array<TableId, 1> changed = {trade.value()};
  for (int i = 0; i < 10; ++i) {
    ExpectEvalEqual(delta.EvaluateCandidate(cand, changed), cand_full);
    ExpectEvalEqual(delta.EvaluateCandidate(base, changed), base_ev);
  }
}

/// Full-pipeline determinism on TPC-C at 1/4/8 threads. Every run has
/// delta_self_check on, so each memoized Phase-2 fit is re-measured by
/// MeasureTreeFit and each delta-scored Phase-3 combination by a full
/// Evaluate; the reference is the self-checked 1-thread run.
TEST(DeltaPipelineTest, JecbTpccDeterministicAcrossThreadsAndModes) {
  TpccConfig cfg;
  cfg.warehouses = 4;
  cfg.districts_per_warehouse = 2;
  cfg.customers_per_district = 6;
  cfg.items = 30;
  cfg.initial_orders_per_district = 2;
  WorkloadBundle bundle = TpccWorkload(cfg).Make(6000, 7);

  auto run_with = [&](int32_t threads) {
    JecbOptions opt;
    opt.num_partitions = 8;
    opt.num_threads = threads;
    opt.delta_self_check = true;
    Result<JecbResult> res =
        Jecb(opt).Partition(bundle.db.get(), bundle.procedures, bundle.trace);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    return res.value();
  };

  JecbResult ref = run_with(1);
  const std::string ref_tables = ref.solution.Describe(bundle.db->schema());
  EXPECT_FALSE(ref.combiner_report.chosen_attr.empty());
  for (int32_t threads : {4, 8}) {
    JecbResult got = run_with(threads);
    EXPECT_EQ(got.solution.Describe(bundle.db->schema()), ref_tables)
        << "threads=" << threads;
    EXPECT_EQ(got.combiner_report.chosen_attr, ref.combiner_report.chosen_attr);
    EXPECT_EQ(got.combiner_report.evaluated_combinations,
              ref.combiner_report.evaluated_combinations);
    EXPECT_EQ(got.combiner_report.best_train_cost,
              ref.combiner_report.best_train_cost);
  }
}

/// Same contract for the Horticulture LNS on TATP: the whole search
/// trajectory (final design, costs, evaluation count) must be identical at
/// 1/4/8 threads, with every delta-scored trial re-proved against a full
/// Evaluate.
TEST(DeltaPipelineTest, HorticultureTatpDeterministicAcrossThreadsAndModes) {
  TatpConfig cfg;
  WorkloadBundle bundle = TatpWorkload(cfg).Make(4000, 13);

  auto run_with = [&](int32_t threads) {
    HorticultureOptions opt;
    opt.num_partitions = 8;
    opt.num_threads = threads;
    opt.rounds = 6;
    opt.sample_txns = 2000;
    opt.delta_self_check = true;
    Result<HorticultureResult> res =
        Horticulture(opt).Partition(bundle.db.get(), bundle.trace);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    return res;
  };

  Result<HorticultureResult> ref = run_with(1);
  const std::string ref_tables =
      ref.value().solution.Describe(bundle.db->schema());
  for (int32_t threads : {4, 8}) {
    Result<HorticultureResult> got = run_with(threads);
    EXPECT_EQ(got.value().solution.Describe(bundle.db->schema()), ref_tables)
        << "threads=" << threads;
    EXPECT_EQ(got.value().train_cost, ref.value().train_cost);
    EXPECT_EQ(got.value().model_cost, ref.value().model_cost);
    EXPECT_EQ(got.value().evaluations, ref.value().evaluations);
  }
}

}  // namespace
}  // namespace jecb
