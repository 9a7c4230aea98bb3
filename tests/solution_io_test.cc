#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "jecb/jecb.h"
#include "partition/evaluator.h"
#include "partition/solution_io.h"
#include "test_util.h"
#include "workloads/tpcc.h"
#include "workloads/tpce.h"

namespace jecb {
namespace {

class SolutionIoTest : public ::testing::Test {
 protected:
  SolutionIoTest() : fixture_(testing::MakeCustInfoDb()) {}

  /// A representative solution: one replication, one multi-hop path with a
  /// lookup mapping, one zero-hop path with range.
  DatabaseSolution MakeSolution() {
    const Schema& s = schema();
    DatabaseSolution sol(2, s.num_tables());
    sol.Set(s.FindTable("CUSTOMER").value(), std::make_shared<ReplicatedTable>());
    sol.Set(s.FindTable("HOLDING_SUMMARY").value(), std::make_shared<ReplicatedTable>());

    JoinPath ca_path;
    ca_path.source_table = s.FindTable("CUSTOMER_ACCOUNT").value();
    ca_path.dest = s.ResolveQualified("CUSTOMER_ACCOUNT.CA_C_ID").value();
    sol.Set(ca_path.source_table,
            std::make_shared<JoinPathPartitioner>(
                ca_path, std::make_shared<RangeMapping>(2, 1, 2)));

    FkIdx trade_ca = 0;
    for (FkIdx f = 0; f < s.foreign_keys().size(); ++f) {
      if (s.foreign_keys()[f].table == s.FindTable("TRADE").value()) trade_ca = f;
    }
    JoinPath trade_path;
    trade_path.source_table = s.FindTable("TRADE").value();
    trade_path.hops = {trade_ca};
    trade_path.dest = s.ResolveQualified("CUSTOMER_ACCOUNT.CA_C_ID").value();
    std::unordered_map<Value, int32_t, ValueHashFunctor> lookup;
    lookup[Value(1)] = 0;
    lookup[Value(2)] = 1;
    sol.Set(trade_path.source_table,
            std::make_shared<JoinPathPartitioner>(
                trade_path, std::make_shared<LookupMapping>(2, std::move(lookup))));
    return sol;
  }

  const Schema& schema() const { return fixture_.db->schema(); }
  testing::CustInfoDb fixture_;
};

TEST_F(SolutionIoTest, RoundTripPreservesPlacement) {
  DatabaseSolution original = MakeSolution();
  auto text = SolutionToString(schema(), original);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto loaded = SolutionFromString(text.value(), schema());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_partitions(), 2);
  // Every stored tuple must land on the same partition after the round trip.
  for (size_t t = 0; t < schema().num_tables(); ++t) {
    auto tid = static_cast<TableId>(t);
    const TableData& data = fixture_.db->table_data(tid);
    for (RowId r = 0; r < data.num_rows(); ++r) {
      TupleId tuple{tid, r};
      EXPECT_EQ(original.PartitionOf(*fixture_.db, tuple),
                loaded.value().PartitionOf(*fixture_.db, tuple))
          << schema().table(tid).name << " row " << r;
    }
  }
}

TEST_F(SolutionIoTest, FileRoundTrip) {
  DatabaseSolution original = MakeSolution();
  std::string path = ::testing::TempDir() + "/jecb_solution_io_test.sol";
  ASSERT_TRUE(SaveSolution(path, schema(), original).ok());
  auto loaded = LoadSolution(path, schema());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST_F(SolutionIoTest, JecbOutputRoundTrips) {
  Trace trace = testing::MakeCustInfoTrace(fixture_, 6);
  for (auto& txn : trace.mutable_transactions()) {
    for (auto& a : txn.accesses) a.write = true;
  }
  auto procs = sql::ParseProcedures(testing::CustInfoSql()).value();
  JecbOptions opt;
  opt.num_partitions = 2;
  auto res = Jecb(opt).Partition(fixture_.db.get(), procs, trace);
  ASSERT_TRUE(res.ok());
  auto text = SolutionToString(schema(), res.value().solution);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto loaded = SolutionFromString(text.value(), schema());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_DOUBLE_EQ(Evaluate(*fixture_.db, loaded.value(), trace).cost(),
                   Evaluate(*fixture_.db, res.value().solution, trace).cost());
}

TEST_F(SolutionIoTest, ClassifierSolutionsAreUnsupported) {
  DatabaseSolution sol(2, schema().num_tables());
  sol.Set(0, std::make_shared<CallbackPartitioner>(
                 [](const Database&, TupleId) { return 0; }, "classifier"));
  auto text = SolutionToString(schema(), sol);
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), StatusCode::kUnsupported);
}

TEST_F(SolutionIoTest, MalformedInputsRejected) {
  for (const char* text : {
           "",
           "REPLICATE TRADE\n",  // K first
           "K 0\n",
           "K 2\nREPLICATE NOPE\n",
           "K 2\nPATH TRADE 1 TRADE\n",
           "K 2\nPATH TRADE 0 TRADE.T_ID frobnicate\n",
           "K 2\nPATH TRADE 0 TRADE.T_ID range 5 1\n",
           "K 2\nPATH TRADE 0 TRADE.T_ID lookup 2 i:1 0\n",
           // Lookup partition id out of range.
           "K 2\nPATH TRADE 0 TRADE.T_ID lookup 1 i:1 7\n",
           // Hop whose foreign key does not exist.
           "K 2\nPATH TRADE 1 TRADE T_QTY CUSTOMER_ACCOUNT.CA_ID hash\n",
           // Numbers must fill their whole token and fit their type.
           "K 2x\n",
           "K 99999999999\n",
           "K 2\nPATH TRADE 0x TRADE.T_ID hash\n",
           "K 2\nPATH TRADE 0 TRADE.T_ID range 1 9223372036854775808\n",
           "K 2\nPATH TRADE 0 TRADE.T_ID range 1 5z\n",
           "K 2\nPATH TRADE 0 TRADE.T_ID lookup 1x i:1 0\n",
           "K 2\nPATH TRADE 0 TRADE.T_ID lookup 1 i:12abc 0\n",
           "K 2\nPATH TRADE 0 TRADE.T_ID lookup 1 i:1 1x\n",
           "K 2\nPATH TRADE 0 TRADE.T_ID lookup 1 d:1.5q 0\n",
       }) {
    auto loaded = SolutionFromString(text, schema());
    ASSERT_FALSE(loaded.ok()) << text;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError) << text;
  }
}

TEST_F(SolutionIoTest, RangeBoundsMaySpanTheWholeInt64Domain) {
  auto loaded = SolutionFromString(
      "K 2\nPATH TRADE 0 TRADE.T_ID range -9223372036854775808 "
      "9223372036854775807\n",
      schema());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const int32_t p = loaded.value().PartitionOf(*fixture_.db, fixture_.trades[0]);
  EXPECT_GE(p, 0);
  EXPECT_LT(p, 2);
}

TEST_F(SolutionIoTest, UnlistedTablesDefaultToReplication) {
  auto loaded = SolutionFromString("K 2\nPATH TRADE 0 TRADE.T_ID hash\n", schema());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().PartitionOf(*fixture_.db, fixture_.customers[0]),
            kReplicated);
  EXPECT_GE(loaded.value().PartitionOf(*fixture_.db, fixture_.trades[0]), 0);
}

/// A solution over every table of `db` that exercises each record shape:
/// zero- and one-hop paths, hash, range and lookup mappings (int, double
/// and string keys), and replication.
DatabaseSolution MixedSolution(const Database& db, int32_t k) {
  const Schema& schema = db.schema();
  DatabaseSolution sol(k, schema.num_tables());
  for (TableId t = 0; t < schema.num_tables(); ++t) {
    JoinPath path;
    path.source_table = t;
    path.dest = ColumnRef{t, schema.table(t).primary_key.empty()
                                 ? ColumnIdx{0}
                                 : schema.table(t).primary_key[0]};
    for (FkIdx f = 0; f < schema.foreign_keys().size(); ++f) {
      const ForeignKey& fk = schema.foreign_keys()[f];
      if (fk.table == t) {
        path.hops = {f};
        path.dest = ColumnRef{fk.ref_table, fk.ref_columns[0]};
        break;
      }
    }
    std::shared_ptr<const MappingFunction> mapping;
    switch (t % 4) {
      case 0:
        mapping = std::make_shared<HashMapping>(k);
        break;
      case 1:
        mapping = std::make_shared<RangeMapping>(k, -3, 1000 + t);
        break;
      case 2: {
        std::unordered_map<Value, int32_t, ValueHashFunctor> table;
        table[Value(int64_t{1})] = 0;
        table[Value(int64_t{-7})] = k - 1;
        table[Value(2.5)] = 1 % k;
        table[Value(std::string("a b"))] = 0;
        mapping = std::make_shared<LookupMapping>(k, std::move(table));
        break;
      }
      default:
        sol.Set(t, std::make_shared<ReplicatedTable>());
        continue;
    }
    sol.Set(t, std::make_shared<JoinPathPartitioner>(path, mapping));
  }
  return sol;
}

/// Whitespace-separated tokens of `text` with their byte offsets.
std::vector<std::pair<size_t, size_t>> TokenSpans(const std::string& text) {
  std::vector<std::pair<size_t, size_t>> spans;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\n')) ++i;
    const size_t begin = i;
    while (i < text.size() && text[i] != ' ' && text[i] != '\n') ++i;
    if (i > begin) spans.emplace_back(begin, i - begin);
  }
  return spans;
}

/// Seeded mutation sweep over a round-tripped solution: byte flips,
/// truncations, and duplicated or dropped tokens. Every mutant must either
/// fail with kParseError or load a solution that places every sample tuple
/// in [0, K) or replicates it.
void FuzzSolutionText(const Database& db, uint64_t seed, int iterations) {
  const Schema& schema = db.schema();
  Result<std::string> base = SolutionToString(schema, MixedSolution(db, 4));
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_TRUE(SolutionFromString(base.value(), schema).ok());

  std::vector<TupleId> samples;
  for (TableId t = 0; t < schema.num_tables(); ++t) {
    const auto rows = static_cast<RowId>(db.table_data(t).num_rows());
    if (rows == 0) continue;
    for (RowId r : {RowId{0}, rows / 2, rows - 1}) samples.push_back({t, r});
  }

  std::mt19937_64 rng(seed);
  int loaded_count = 0;
  for (int iter = 0; iter < iterations; ++iter) {
    std::string text = base.value();
    // Mostly single mutations, so a useful share of mutants still loads.
    const int mutations = rng() % 4 == 0 ? 2 : 1;
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const auto spans = TokenSpans(text);
      switch (rng() % 4) {
        case 0:  // bit flip in one byte
          text[rng() % text.size()] ^= static_cast<char>(1 << (rng() % 8));
          break;
        case 1:  // truncation
          text.resize(rng() % text.size());
          break;
        case 2: {  // duplicated token
          if (spans.empty()) break;
          const auto [at, len] = spans[rng() % spans.size()];
          text.insert(at, text.substr(at, len) + " ");
          break;
        }
        default: {  // dropped token
          if (spans.empty()) break;
          const auto [at, len] = spans[rng() % spans.size()];
          text.erase(at, len);
          break;
        }
      }
    }
    Result<DatabaseSolution> loaded = SolutionFromString(text, schema);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
          << loaded.status().ToString();
      continue;
    }
    ++loaded_count;
    const int32_t k = loaded.value().num_partitions();
    for (TupleId tuple : samples) {
      const int32_t p = loaded.value().PartitionOf(db, tuple);
      EXPECT_TRUE(p == kReplicated || (p >= 0 && p < k))
          << "partition " << p << " of K=" << k << " for table "
          << schema.table(tuple.table).name << " row " << tuple.row
          << "\n" << text;
    }
  }
  // The sweep must exercise the load path, not only the error paths.
  EXPECT_GT(loaded_count, 0);
}

TEST(SolutionIoFuzzTest, TpccMutantsFailCleanlyOrPlaceInRange) {
  TpccConfig cfg;
  cfg.warehouses = 2;
  cfg.districts_per_warehouse = 2;
  cfg.customers_per_district = 6;
  cfg.items = 30;
  cfg.initial_orders_per_district = 2;
  WorkloadBundle bundle = TpccWorkload(cfg).Make(200, 3);
  FuzzSolutionText(*bundle.db, 20141001, 1000);
}

TEST(SolutionIoFuzzTest, TpceMutantsFailCleanlyOrPlaceInRange) {
  TpceConfig cfg;
  cfg.customers = 60;
  cfg.brokers = 6;
  cfg.companies = 10;
  cfg.securities = 20;
  WorkloadBundle bundle = TpceWorkload(cfg).Make(200, 5);
  FuzzSolutionText(*bundle.db, 20141002, 1000);
}

}  // namespace
}  // namespace jecb
