#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/string_util.h"
#include "sql/analyzer.h"
#include "workloads/auctionmark.h"
#include "workloads/seats.h"
#include "workloads/synthetic.h"
#include "workloads/tatp.h"
#include "workloads/tpcc.h"
#include "workloads/tpce.h"

namespace jecb {
namespace {

std::vector<std::unique_ptr<Workload>> AllWorkloads() {
  std::vector<std::unique_ptr<Workload>> out;
  TpccConfig tpcc;
  tpcc.warehouses = 4;
  out.push_back(std::make_unique<TpccWorkload>(tpcc));
  TatpConfig tatp;
  tatp.subscribers = 300;
  out.push_back(std::make_unique<TatpWorkload>(tatp));
  SeatsConfig seats;
  seats.customers = 200;
  out.push_back(std::make_unique<SeatsWorkload>(seats));
  AuctionMarkConfig am;
  am.users = 200;
  out.push_back(std::make_unique<AuctionMarkWorkload>(am));
  TpceConfig tpce;
  tpce.customers = 80;
  out.push_back(std::make_unique<TpceWorkload>(tpce));
  SyntheticConfig syn;
  syn.parents = 100;
  syn.groups = 100;
  out.push_back(std::make_unique<SyntheticWorkload>(syn));
  return out;
}

// Property tests that must hold for EVERY workload generator.
class WorkloadPropertyTest : public ::testing::TestWithParam<size_t> {
 protected:
  WorkloadBundle Make(size_t txns = 800, uint64_t seed = 7) {
    return AllWorkloads()[GetParam()]->Make(txns, seed);
  }
};

TEST_P(WorkloadPropertyTest, GeneratesRequestedTransactionCount) {
  WorkloadBundle b = Make(800);
  EXPECT_EQ(b.trace.size(), 800u);
}

TEST_P(WorkloadPropertyTest, DeterministicForSeed) {
  WorkloadBundle a = Make(200, 42);
  WorkloadBundle b = Make(200, 42);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    const Transaction& ta = a.trace.transactions()[i];
    const Transaction& tb = b.trace.transactions()[i];
    ASSERT_EQ(ta.class_id, tb.class_id) << "txn " << i;
    ASSERT_EQ(ta.accesses.size(), tb.accesses.size()) << "txn " << i;
    for (size_t j = 0; j < ta.accesses.size(); ++j) {
      EXPECT_EQ(ta.accesses[j].tuple, tb.accesses[j].tuple);
      EXPECT_EQ(ta.accesses[j].write, tb.accesses[j].write);
    }
  }
  EXPECT_EQ(a.db->TotalRows(), b.db->TotalRows());
}

// Also the dense foreign-key array parity: every entry of every FK's
// child-row -> parent-row array equals the unique-key lookup of the child's
// FK columns, and is kNoRow exactly when that lookup fails.
TEST_P(WorkloadPropertyTest, ReferentialIntegrityOfPopulatedData) {
  WorkloadBundle b = Make(600);
  const Schema& schema = b.db->schema();
  for (FkIdx f = 0; f < schema.foreign_keys().size(); ++f) {
    const ForeignKey& fk = schema.foreign_keys()[f];
    const TableData& child = b.db->table_data(fk.table);
    const TableData& parent = b.db->table_data(fk.ref_table);
    for (RowId r = 0; r < child.num_rows(); ++r) {
      ASSERT_TRUE(b.db->FollowForeignKey(fk, TupleId{fk.table, r}).ok())
          << schema.table(fk.table).name << " row " << r << " dangling";
      Row key;
      for (ColumnIdx c : fk.columns) key.push_back(child.At(r, c));
      const Result<RowId> want = parent.LookupUnique(fk.ref_columns, key);
      ASSERT_EQ(b.db->ParentRow(f, r), want.ok() ? want.value() : kNoRow)
          << schema.table(fk.table).name << " row " << r << " fk " << f;
    }
  }
}

TEST_P(WorkloadPropertyTest, TraceAccessesValidTuples) {
  WorkloadBundle b = Make(600);
  for (const Transaction& txn : b.trace.transactions()) {
    EXPECT_FALSE(txn.accesses.empty());
    for (const Access& a : txn.accesses) {
      ASSERT_LT(a.tuple.table, b.db->schema().num_tables());
      ASSERT_LT(a.tuple.row, b.db->table_data(a.tuple.table).num_rows());
    }
  }
}

TEST_P(WorkloadPropertyTest, EveryClassHasAProcedure) {
  WorkloadBundle b = Make(600);
  for (const std::string& cls : b.trace.class_names()) {
    bool found = false;
    for (const auto& p : b.procedures) {
      if (EqualsIgnoreCase(p.name, cls)) found = true;
    }
    EXPECT_TRUE(found) << "class " << cls << " has no stored procedure";
  }
}

TEST_P(WorkloadPropertyTest, ProceduresAnalyzeCleanly) {
  WorkloadBundle b = Make(50);
  for (const auto& proc : b.procedures) {
    auto info = sql::AnalyzeProcedure(b.db->schema(), proc);
    ASSERT_TRUE(info.ok()) << proc.name << ": " << info.status().ToString();
    EXPECT_FALSE(info.value().AllTables().empty()) << proc.name;
  }
}

TEST_P(WorkloadPropertyTest, AllClassesAppearInLongTraces) {
  WorkloadBundle b = Make(4000);
  std::set<uint32_t> seen;
  for (const Transaction& txn : b.trace.transactions()) seen.insert(txn.class_id);
  EXPECT_EQ(seen.size(), b.trace.num_classes());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadPropertyTest,
                         ::testing::Range<size_t>(0, 6));

// ------------------------------------------------------- benchmark-specific

TEST(TpccWorkloadTest, MixRoughlyMatchesSpec) {
  TpccConfig cfg;
  cfg.warehouses = 4;
  WorkloadBundle b = TpccWorkload(cfg).Make(10000, 3);
  std::vector<int> counts(b.trace.num_classes(), 0);
  for (const auto& txn : b.trace.transactions()) ++counts[txn.class_id];
  uint32_t no = b.trace.FindClass("NewOrder").value();
  uint32_t pay = b.trace.FindClass("Payment").value();
  EXPECT_NEAR(counts[no] / 10000.0, 0.45, 0.03);
  EXPECT_NEAR(counts[pay] / 10000.0, 0.43, 0.03);
}

TEST(TpccWorkloadTest, RemotePaymentFractionRespected) {
  TpccConfig cfg;
  cfg.warehouses = 4;
  cfg.remote_payment_prob = 0.0;
  cfg.remote_order_line_prob = 0.0;
  WorkloadBundle b = TpccWorkload(cfg).Make(4000, 3);
  // With no remote accesses, every transaction touches one warehouse: the
  // w-column of every accessed partitioned tuple is constant per txn.
  const Schema& s = b.db->schema();
  TableId item = s.FindTable("ITEM").value();
  TableId hist = s.FindTable("HISTORY").value();
  for (const auto& txn : b.trace.transactions()) {
    std::set<int64_t> warehouses;
    for (const Access& a : txn.accesses) {
      if (a.tuple.table == item || a.tuple.table == hist) continue;
      warehouses.insert(b.db->GetValue(a.tuple, 0).AsInt());
    }
    EXPECT_LE(warehouses.size(), 1u);
  }
}

TEST(TpceWorkloadTest, TableCountMatchesSpec) {
  WorkloadBundle b = TpceWorkload(TpceConfig{.customers = 40}).Make(50, 1);
  EXPECT_EQ(b.db->schema().num_tables(), 33u);
  EXPECT_GE(b.db->schema().foreign_keys().size(), 40u);
  EXPECT_EQ(b.procedures.size(), 15u);
}

TEST(TpceWorkloadTest, PaperHorticultureSolutionConstructs) {
  WorkloadBundle b = TpceWorkload(TpceConfig{.customers = 40}).Make(50, 1);
  DatabaseSolution hc = HorticulturePaperTpceSolution(*b.db, 8);
  const Schema& s = b.db->schema();
  // TRADE partitioned by T_CA_ID; CUSTOMER_ACCOUNT and BROKER replicated.
  auto* trade = hc.Get(s.FindTable("TRADE").value());
  ASSERT_NE(trade, nullptr);
  EXPECT_NE(trade->Describe(s).find("T_CA_ID"), std::string::npos);
  EXPECT_EQ(hc.Get(s.FindTable("BROKER").value())->Describe(s), "replicated");
  EXPECT_EQ(hc.Get(s.FindTable("CUSTOMER_ACCOUNT").value())->Describe(s),
            "replicated");
}

TEST(TatpWorkloadTest, SingleSubscriberPerTransaction) {
  TatpConfig cfg;
  cfg.subscribers = 100;
  WorkloadBundle b = TatpWorkload(cfg).Make(2000, 9);
  for (const auto& txn : b.trace.transactions()) {
    std::set<int64_t> subs;
    for (const Access& a : txn.accesses) {
      subs.insert(b.db->GetValue(a.tuple, 0).AsInt());
    }
    EXPECT_LE(subs.size(), 1u);
  }
}

TEST(SyntheticWorkloadTest, MixFollowsConfig) {
  SyntheticConfig cfg;
  cfg.implicit_join_fraction = 0.8;
  WorkloadBundle b = SyntheticWorkload(cfg).Make(5000, 1);
  uint32_t implicit = b.trace.FindClass("ImplicitJoin").value();
  int count = 0;
  for (const auto& txn : b.trace.transactions()) {
    if (txn.class_id == implicit) ++count;
  }
  EXPECT_NEAR(count / 5000.0, 0.8, 0.03);
}

TEST(SyntheticWorkloadTest, GroupingColumnIsNotAForeignKey) {
  WorkloadBundle b = SyntheticWorkload().Make(10, 1);
  const Schema& s = b.db->schema();
  TableId grouping = s.FindTable("GROUPING").value();
  EXPECT_TRUE(s.ForeignKeysFrom(grouping).empty());
}

}  // namespace
}  // namespace jecb
