// Runtime transaction routing (paper Sec. 3): map a routing attribute value
// to the partitions that store matching tuples, via lookup tables. When no
// routing attribute matches the partitioning, the request is broadcast.
#pragma once

#include <map>
#include <mutex>
#include <vector>

#include "partition/solution.h"
#include "storage/database.h"

namespace jecb {

/// Routes requests to partitions using per-attribute lookup tables built by
/// scanning the partitioned database once per attribute (lazily).
///
/// The lookup table for attribute A of table T maps each value of A to the
/// set of partitions holding a T-tuple with that value — exactly the paper's
/// "lookup table" mapping; coarser attributes yield smaller tables.
///
/// Thread-safe: lazy table construction is serialized behind a mutex and a
/// built table is immutable, so concurrent RouteValue calls are fine. Call
/// Warm() with the attributes a workload routes on before spawning worker
/// threads to keep the full-table scan out of the parallel phase.
class Router {
 public:
  Router(const Database* db, const DatabaseSolution* solution)
      : db_(db), solution_(solution) {}

  /// Partitions that hold tuples of `attr`'s table whose `attr` column equals
  /// `value`, sorted ascending. Unknown values (not in the data) return the
  /// broadcast set. A result containing kReplicated means "any partition".
  std::vector<int32_t> RouteValue(const ColumnRef& attr, const Value& value);

  /// All partitions.
  std::vector<int32_t> Broadcast() const;

  /// Eagerly builds the lookup tables for `attrs` on the calling thread.
  void Warm(const std::vector<ColumnRef>& attrs);

  /// Number of distinct values in the lookup table built for `attr`
  /// (builds it if needed); the paper's lookup-table space metric.
  size_t LookupTableSize(const ColumnRef& attr);

 private:
  /// Values map to the sorted distinct partitions holding a matching tuple;
  /// tiny and read-only after build, so a sorted vector beats std::set.
  using PartitionSet = std::vector<int32_t>;
  using LookupTable = std::unordered_map<Value, PartitionSet, ValueHashFunctor>;

  const LookupTable& TableFor(const ColumnRef& attr);

  const Database* db_;
  const DatabaseSolution* solution_;
  std::mutex mu_;  ///< guards tables_; node-based map keeps references stable
  std::map<ColumnRef, LookupTable> tables_;
};

}  // namespace jecb
