// JoinPath (paper Definition 2): a sequence of key-foreign key hops from a
// table's primary key to a destination attribute, possibly in another table.
// A join path is a functional dependency key(T) -> X and therefore maps each
// stored tuple of T to one value of X.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "storage/database.h"

namespace jecb {

/// A join path p(key(T), X): start at `source_table`, follow `hops` (each a
/// child->parent foreign key), and read column `dest` of the final table.
/// An empty hop list means X is a column of T itself.
struct JoinPath {
  TableId source_table = 0;
  std::vector<FkIdx> hops;
  ColumnRef dest;

  bool operator==(const JoinPath&) const = default;

  size_t length() const { return hops.size(); }

  /// True when this path's hop list is a (proper or equal) prefix of `other`'s
  /// and both start at the same table.
  bool HopsArePrefixOf(const JoinPath& other) const;

  /// Validates hop chaining and destination against `schema`.
  Status Validate(const Schema& schema) const;

  /// "TRADE.T_ID -> T_CA_ID=CA_ID -> CUSTOMER_ACCOUNT.CA_C_ID" style string.
  std::string ToString(const Schema& schema) const;

  /// Evaluates the functional dependency for a stored tuple of the source
  /// table; NotFound when a foreign key dangles.
  Result<Value> Evaluate(const Database& db, TupleId tuple) const;

  /// The row of the destination table that stored `row` of the source table
  /// reaches across `hops`, or kNoRow when a foreign key dangles on the way.
  RowId DestRow(const Database& db, RowId row) const {
    for (FkIdx idx : hops) {
      row = db.ParentRow(idx, row);
      if (row == kNoRow) break;
    }
    return row;
  }

  /// The table that `dest` belongs to.
  TableId dest_table() const { return dest.table; }
};

/// Appends `extension` (a path from the dest table of `base` onward) to
/// `base`. The extension's source must be the base's destination table.
Result<JoinPath> ConcatPaths(const Schema& schema, const JoinPath& base,
                             const JoinPath& extension);

}  // namespace jecb
