// Relational catalog: tables, columns, primary/unique keys and foreign keys.
//
// The catalog is the substrate both for the in-memory row store and for the
// JECB code analysis, which walks key-foreign key relationships (paper
// Sec. 5.1). Foreign keys may reference the primary key or any declared
// unique key of the target table (TPC-E's C_TAX_ID is an alternate key).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/status.h"

namespace jecb {

using TableId = uint16_t;
using ColumnIdx = uint16_t;

/// Storage type of a column value.
enum class ValueType : uint8_t {
  kInt64,
  kDouble,
  kString,
};

std::string_view ValueTypeToString(ValueType t);

/// A (table, column) pair: the identity of an attribute across the library.
struct ColumnRef {
  TableId table = 0;
  ColumnIdx column = 0;

  bool operator==(const ColumnRef&) const = default;
  auto operator<=>(const ColumnRef&) const = default;
};

struct ColumnRefHash {
  size_t operator()(const ColumnRef& c) const {
    return HashCombine(HashInt64(c.table), HashInt64(c.column));
  }
};

/// Column metadata.
struct Column {
  std::string name;
  ValueType type = ValueType::kInt64;
};

/// How a table is treated by partitioning preprocessing (paper Phase 1).
enum class AccessClass : uint8_t {
  kPartitioned,  ///< regular read-write table; must be partitioned
  kReadOnly,     ///< never written; replicated everywhere
  kReadMostly,   ///< rarely written; replicated, updates become distributed
};

/// Table metadata: columns, primary key, alternate unique keys.
struct Table {
  TableId id = 0;
  std::string name;
  std::vector<Column> columns;
  std::vector<ColumnIdx> primary_key;
  std::vector<std::vector<ColumnIdx>> unique_keys;  // alternates, excl. PK
  AccessClass access_class = AccessClass::kPartitioned;

  /// Column index by name, or error.
  Result<ColumnIdx> FindColumn(std::string_view name) const;
  bool HasColumn(std::string_view name) const;
  const std::string& column_name(ColumnIdx i) const { return columns[i].name; }

  /// True if `cols` (order-insensitive) is the PK or a declared unique key.
  bool IsUniqueKey(const std::vector<ColumnIdx>& cols) const;
};

/// A key-foreign key constraint: `columns` of `table` reference
/// `ref_columns` of `ref_table` (which must form a unique key there).
struct ForeignKey {
  TableId table = 0;
  std::vector<ColumnIdx> columns;
  TableId ref_table = 0;
  std::vector<ColumnIdx> ref_columns;

  bool operator==(const ForeignKey&) const = default;
};

/// Index of a ForeignKey within Schema::foreign_keys(); stable across schema
/// copies, unlike pointers.
using FkIdx = uint32_t;

/// A database schema: tables plus the foreign-key graph.
class Schema {
 public:
  /// Adds an empty table; fails on duplicate name.
  Result<TableId> AddTable(std::string name);

  /// Adds a column to a table; fails on duplicate column name.
  Status AddColumn(TableId table, std::string name, ValueType type);

  /// Declares the primary key; all columns must exist.
  Status SetPrimaryKey(TableId table, const std::vector<std::string>& cols);

  /// Declares an alternate unique key.
  Status AddUniqueKey(TableId table, const std::vector<std::string>& cols);

  /// Declares a foreign key; the referenced columns must be a unique key
  /// (primary or alternate) of the referenced table.
  Status AddForeignKey(std::string_view table,
                       const std::vector<std::string>& cols,
                       std::string_view ref_table,
                       const std::vector<std::string>& ref_cols);

  Result<TableId> FindTable(std::string_view name) const;
  bool HasTable(std::string_view name) const;

  const Table& table(TableId id) const { return tables_[id]; }
  Table& mutable_table(TableId id) { return tables_[id]; }
  size_t num_tables() const { return tables_.size(); }
  const std::vector<Table>& tables() const { return tables_; }
  const std::vector<ForeignKey>& foreign_keys() const { return foreign_keys_; }

  /// Foreign keys whose child side is `table`.
  std::vector<const ForeignKey*> ForeignKeysFrom(TableId table) const;
  /// Foreign keys whose referenced side is `table`.
  std::vector<const ForeignKey*> ForeignKeysTo(TableId table) const;

  /// Fully qualified attribute name "TABLE.COLUMN".
  std::string QualifiedName(const ColumnRef& ref) const;

  /// Resolves "TABLE.COLUMN" to a ColumnRef.
  Result<ColumnRef> ResolveQualified(std::string_view qualified) const;

 private:
  std::vector<Table> tables_;
  std::vector<ForeignKey> foreign_keys_;
  std::unordered_map<std::string, TableId> table_by_name_;
};

/// Aborts the process with a diagnostic if `expr` yields a non-OK Status.
/// Intended for static setup code (schema construction in generators/tests)
/// where an error is a programming bug, not a runtime condition.
void CheckOk(const Status& status, const char* context = "");

}  // namespace jecb
