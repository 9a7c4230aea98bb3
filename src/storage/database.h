// In-memory row store over a Schema, with key indexes and foreign-key
// navigation. This is the substrate the paper ran on SQL Server: enough of a
// database to populate benchmark data, evaluate join paths, and resolve the
// tuples a transaction touches.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "storage/value.h"

namespace jecb {

using RowId = uint32_t;

/// No row: what a dangling foreign key leads to.
inline constexpr RowId kNoRow = UINT32_MAX;

/// Identity of one stored tuple; the unit the workload trace records.
struct TupleId {
  TableId table = 0;
  RowId row = 0;

  bool operator==(const TupleId&) const = default;
  auto operator<=>(const TupleId&) const = default;
};

struct TupleIdHash {
  size_t operator()(const TupleId& t) const {
    return HashCombine(HashInt64(t.table), HashInt64(t.row));
  }
};

/// Rows of one table plus hash indexes on the primary key and every declared
/// alternate unique key (foreign keys may target alternates).
class TableData {
 public:
  TableData() = default;
  TableData(const Table* meta) : meta_(meta) {}  // NOLINT(runtime/explicit)

  /// Inserts a full row; enforces arity and key uniqueness.
  Result<RowId> Insert(Row row);

  /// RowId by primary-key values, or NotFound.
  Result<RowId> LookupPk(const Row& key) const;

  /// RowId by the values of an arbitrary unique key (identified by its
  /// column indexes), or NotFound.
  Result<RowId> LookupUnique(const std::vector<ColumnIdx>& key_cols,
                             const Row& key) const;

  const Row& row(RowId id) const { return rows_[id]; }
  const Value& At(RowId id, ColumnIdx col) const { return rows_[id][col]; }
  size_t num_rows() const { return rows_.size(); }
  const Table& meta() const { return *meta_; }

 private:
  // One hash index per unique key, keyed by the key's column list.
  struct KeyIndex {
    std::vector<ColumnIdx> cols;
    std::unordered_map<Row, RowId, RowHash> map;
  };

  Row ExtractKey(const Row& row, const std::vector<ColumnIdx>& cols) const;
  const KeyIndex* FindIndex(const std::vector<ColumnIdx>& cols) const;

  const Table* meta_ = nullptr;
  std::vector<Row> rows_;
  std::vector<KeyIndex> indexes_;  // [0] is the PK index when a PK exists
};

/// A populated database: schema + data + FK navigation.
///
/// Foreign keys are followed through one dense array per foreign key that
/// maps each child row to its parent row (kNoRow when the key dangles). An
/// array is built from the unique-key index on its first use after the last
/// Insert and is read-only after that, so any number of threads may follow
/// foreign keys at once. Inserts must not run concurrently with reads; all
/// foreign keys must be declared in the schema the Database is built from.
class Database {
 public:
  explicit Database(Schema schema);

  const Schema& schema() const { return schema_; }
  Schema& mutable_schema() { return schema_; }

  TableData& table_data(TableId id) { return data_[id]; }
  const TableData& table_data(TableId id) const { return data_[id]; }

  /// Inserts into the table named `table`; aborts on schema violation
  /// (generator bugs), returns the new TupleId.
  TupleId MustInsert(std::string_view table, Row row);

  /// Checked insert.
  Result<TupleId> Insert(TableId table, Row row);

  /// Follows a foreign key from a stored tuple to its parent tuple.
  /// Fails with InvalidArgument if `from` is not in the FK's child table (or
  /// the FK is not one of this schema's), and with NotFound if the parent is
  /// absent (dangling FK).
  Result<TupleId> FollowForeignKey(const ForeignKey& fk, TupleId from) const;

  /// The parent row that `row` of foreign key `fk`'s child table references,
  /// or kNoRow when the key dangles. `row` must be a stored row of the child
  /// table. Thread-safe; the first call per foreign key after an insert
  /// builds that key's array.
  RowId ParentRow(FkIdx fk, RowId row) const {
    const ParentIndex& index = parents_[fk];
    if (!index.ready.load(std::memory_order_acquire)) BuildParentIndex(fk);
    return index.rows[row];
  }

  /// Reads one column of a stored tuple.
  const Value& GetValue(TupleId id, ColumnIdx col) const {
    return data_[id.table].At(id.row, col);
  }

  /// Total tuples across all tables.
  size_t TotalRows() const;

 private:
  /// The child-row -> parent-row array of one foreign key.
  struct ParentIndex {
    std::atomic<bool> ready{false};
    std::vector<RowId> rows;
  };

  /// Fills `fk`'s array through the same LookupUnique probe a one-off
  /// follow would make; serialized, so racing first uses build it once.
  void BuildParentIndex(FkIdx fk) const;

  Schema schema_;
  std::vector<TableData> data_;
  mutable std::mutex parents_mu_;
  mutable std::unique_ptr<ParentIndex[]> parents_;  // one per schema FK
  mutable bool any_parent_index_ = false;  // set under parents_mu_
};

}  // namespace jecb
