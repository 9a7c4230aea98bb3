#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "storage/database.h"
#include "test_util.h"
#include "workloads/tpcc.h"

namespace jecb {
namespace {

TEST(ValueTest, TypePredicatesAndAccessors) {
  Value i(int64_t{7});
  Value d(2.5);
  Value s(std::string("abc"));
  EXPECT_TRUE(i.is_int());
  EXPECT_TRUE(d.is_double());
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(i.AsInt(), 7);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 2.5);
  EXPECT_EQ(s.AsString(), "abc");
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_NE(Value(1), Value(2));
  EXPECT_NE(Value(1), Value("1"));
  EXPECT_LT(Value(1), Value(2));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(42).Hash(), Value(42).Hash());
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
  EXPECT_NE(Value(42).Hash(), Value(43).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(5).ToString(), "5");
  EXPECT_EQ(Value("hi").ToString(), "hi");
  EXPECT_EQ(RowToString({Value(1), Value("a")}), "(1, a)");
}

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() : fixture_(testing::MakeCustInfoDb()) {}
  testing::CustInfoDb fixture_;
  Database& db() { return *fixture_.db; }
};

TEST_F(DatabaseTest, InsertAndLookupByPk) {
  TableId trade = db().schema().FindTable("TRADE").value();
  const TableData& data = db().table_data(trade);
  EXPECT_EQ(data.num_rows(), 8u);
  auto row = data.LookupPk({Value(3)});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(data.At(row.value(), 1).AsInt(), 10);  // T_CA_ID of trade 3
}

TEST_F(DatabaseTest, DuplicatePrimaryKeyRejected) {
  TableId trade = db().schema().FindTable("TRADE").value();
  auto dup = db().Insert(trade, {Value(1), Value(1), Value(9)});
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(db().table_data(trade).num_rows(), 8u);
}

TEST_F(DatabaseTest, DuplicateAlternateKeyRejected) {
  TableId cust = db().schema().FindTable("CUSTOMER").value();
  // C_ID 3 is new but C_TAX_ID 901 belongs to customer 1.
  auto dup = db().Insert(cust, {Value(3), Value(901)});
  EXPECT_FALSE(dup.ok());
  // Rollback: inserting with fresh keys still works.
  EXPECT_TRUE(db().Insert(cust, {Value(3), Value(903)}).ok());
}

TEST_F(DatabaseTest, ArityMismatchRejected) {
  TableId trade = db().schema().FindTable("TRADE").value();
  EXPECT_FALSE(db().Insert(trade, {Value(99)}).ok());
}

TEST_F(DatabaseTest, CompositeKeyLookup) {
  TableId hs = db().schema().FindTable("HOLDING_SUMMARY").value();
  const TableData& data = db().table_data(hs);
  auto row = data.LookupPk({Value("BLS"), Value(8)});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(data.At(row.value(), 2).AsInt(), 9);
  EXPECT_FALSE(data.LookupPk({Value("BLS"), Value(7)}).ok());
}

TEST_F(DatabaseTest, LookupUniqueOnAlternateKey) {
  TableId cust = db().schema().FindTable("CUSTOMER").value();
  const Table& meta = db().schema().table(cust);
  std::vector<ColumnIdx> alt = {meta.FindColumn("C_TAX_ID").value()};
  auto row = db().table_data(cust).LookupUnique(alt, {Value(902)});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(db().table_data(cust).At(row.value(), 0).AsInt(), 2);
  // No index on a non-key column list.
  EXPECT_FALSE(db().table_data(cust).LookupUnique({1, 0}, {Value(1), Value(2)}).ok());
}

TEST_F(DatabaseTest, FollowForeignKey) {
  const Schema& schema = db().schema();
  TableId trade = schema.FindTable("TRADE").value();
  const ForeignKey* fk = schema.ForeignKeysFrom(trade)[0];
  // Trade 2 (row 1) has T_CA_ID = 7 -> account 7 owned by customer 2.
  auto parent = db().FollowForeignKey(*fk, fixture_.trades[1]);
  ASSERT_TRUE(parent.ok());
  EXPECT_EQ(db().GetValue(parent.value(), 0).AsInt(), 7);
  EXPECT_EQ(db().GetValue(parent.value(), 1).AsInt(), 2);
}

TEST_F(DatabaseTest, FollowForeignKeyWrongTable) {
  const Schema& schema = db().schema();
  TableId trade = schema.FindTable("TRADE").value();
  const ForeignKey* fk = schema.ForeignKeysFrom(trade)[0];
  EXPECT_FALSE(db().FollowForeignKey(*fk, fixture_.customers[0]).ok());
}

TEST_F(DatabaseTest, FollowDanglingForeignKey) {
  TableId trade = db().schema().FindTable("TRADE").value();
  TupleId dangling = db().Insert(trade, {Value(99), Value(404), Value(1)}).value();
  const ForeignKey* fk = db().schema().ForeignKeysFrom(trade)[0];
  auto parent = db().FollowForeignKey(*fk, dangling);
  EXPECT_FALSE(parent.ok());
  EXPECT_EQ(parent.status().code(), StatusCode::kNotFound);
  const FkIdx idx = static_cast<FkIdx>(fk - db().schema().foreign_keys().data());
  EXPECT_EQ(db().ParentRow(idx, dangling.row), kNoRow);
  // Its neighbours still resolve.
  EXPECT_NE(db().ParentRow(idx, fixture_.trades[0].row), kNoRow);
}

TEST_F(DatabaseTest, ForeignKeyOutsideTheSchemaRejected) {
  const Schema& schema = db().schema();
  TableId trade = schema.FindTable("TRADE").value();
  ForeignKey other = *schema.ForeignKeysFrom(trade)[0];
  other.ref_columns = {1};  // CUSTOMER_ACCOUNT.CA_C_ID: not a declared FK
  auto parent = db().FollowForeignKey(other, fixture_.trades[0]);
  EXPECT_EQ(parent.status().code(), StatusCode::kInvalidArgument);
}

// The arrays are built on first use; an insert after that must be seen,
// both as a new child row and as the parent a dangling key was missing.
TEST_F(DatabaseTest, InsertAfterFirstUseIsSeen) {
  const Schema& schema = db().schema();
  TableId trade = schema.FindTable("TRADE").value();
  TableId account = schema.FindTable("CUSTOMER_ACCOUNT").value();
  const ForeignKey& fk = *schema.ForeignKeysFrom(trade)[0];
  ASSERT_TRUE(db().FollowForeignKey(fk, fixture_.trades[0]).ok());  // first use

  TupleId child = db().Insert(trade, {Value(77), Value(55), Value(1)}).value();
  auto missing = db().FollowForeignKey(fk, child);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  TupleId parent = db().Insert(account, {Value(55), Value(2)}).value();
  auto found = db().FollowForeignKey(fk, child);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), parent);
  // Rows resolved before the inserts still resolve the same way.
  EXPECT_EQ(db().FollowForeignKey(fk, fixture_.trades[1]).value(),
            fixture_.accounts[1]);
}

TEST_F(DatabaseTest, TotalRows) {
  EXPECT_EQ(db().TotalRows(), 2u + 4u + 8u + 8u);
}

// Property: every foreign key of every stored tuple resolves in the fixture.
TEST_F(DatabaseTest, ReferentialIntegrityHolds) {
  const Schema& schema = db().schema();
  for (const ForeignKey& fk : schema.foreign_keys()) {
    const TableData& child = db().table_data(fk.table);
    for (RowId r = 0; r < child.num_rows(); ++r) {
      EXPECT_TRUE(db().FollowForeignKey(fk, TupleId{fk.table, r}).ok())
          << schema.table(fk.table).name << " row " << r;
    }
  }
}

// Every (foreign key, child row) answer of a database, in FK order.
std::vector<RowId> AllParentRows(const Database& db, FkIdx first) {
  const std::vector<ForeignKey>& fks = db.schema().foreign_keys();
  std::vector<RowId> out;
  for (size_t i = 0; i < fks.size(); ++i) {
    const FkIdx f = static_cast<FkIdx>((first + i) % fks.size());
    for (RowId r = 0; r < db.table_data(fks[f].table).num_rows(); ++r) {
      out.push_back(db.ParentRow(f, r));
    }
  }
  return out;
}

// Several threads race the first use of every foreign key of a fresh
// database, each starting at a different key; every answer must match a
// serial run over an identically generated database.
TEST(DatabaseRaceTest, RacingFirstUsesMatchSerialAnswers) {
  TpccConfig config;
  config.warehouses = 2;
  const WorkloadBundle serial = TpccWorkload(config).Make(10, 5);
  const WorkloadBundle raced = TpccWorkload(config).Make(10, 5);
  const size_t num_fks = serial.db->schema().foreign_keys().size();
  ASSERT_GT(num_fks, 1u);

  constexpr int kThreads = 4;
  std::vector<std::vector<RowId>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      got[i] = AllParentRows(*raced.db, static_cast<FkIdx>(i % num_fks));
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(got[i], AllParentRows(*serial.db, static_cast<FkIdx>(i % num_fks)))
        << "thread " << i;
  }
}

}  // namespace
}  // namespace jecb
