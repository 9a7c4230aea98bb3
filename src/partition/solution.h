// Partitioning solutions (paper Definitions 10 and 11): for each table,
// something that assigns every stored tuple to a partition or to
// replication. JECB solutions pair a join path with a mapping function;
// Schism solutions wrap a learned classifier; replication is a solution too.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "partition/join_path.h"
#include "partition/mapping.h"
#include "storage/database.h"

namespace jecb {

/// Assigns stored tuples of one table to partitions.
class TablePartitioner {
 public:
  virtual ~TablePartitioner() = default;

  /// Partition of the tuple in [0,k), kReplicated, or kUnknownPartition.
  virtual int32_t PartitionOf(const Database& db, TupleId tuple) const = 0;

  /// Human-readable description ("replicated", "T_ID -> ... via hash", ...).
  virtual std::string Describe(const Schema& schema) const = 0;
};

/// Full replication of a table (the paper's i = 0 case).
class ReplicatedTable : public TablePartitioner {
 public:
  int32_t PartitionOf(const Database&, TupleId) const override { return kReplicated; }
  std::string Describe(const Schema&) const override { return "replicated"; }
};

/// Definition 10: a join path from the table to a partitioning attribute
/// plus a mapping function over that attribute. PartitionOf walks the path
/// through the database's foreign-key arrays and keeps no state, so one
/// solution can be shared by the parallel evaluator's worker threads.
class JoinPathPartitioner : public TablePartitioner {
 public:
  JoinPathPartitioner(JoinPath path, std::shared_ptr<const MappingFunction> mapping)
      : path_(std::move(path)), mapping_(std::move(mapping)) {}

  int32_t PartitionOf(const Database& db, TupleId tuple) const override;
  std::string Describe(const Schema& schema) const override;

  const JoinPath& path() const { return path_; }
  const MappingFunction& mapping() const { return *mapping_; }

 private:
  JoinPath path_;
  std::shared_ptr<const MappingFunction> mapping_;
};

/// Wraps an arbitrary tuple -> partition function (used by the Schism
/// baseline's per-table classifiers and the naive hash layout). `fn` must be
/// deterministic over stored rows and safe to call concurrently (the stock
/// classifiers only read the database).
class CallbackPartitioner : public TablePartitioner {
 public:
  using Fn = std::function<int32_t(const Database&, TupleId)>;
  CallbackPartitioner(Fn fn, std::string description)
      : fn_(std::move(fn)), description_(std::move(description)) {}

  int32_t PartitionOf(const Database& db, TupleId tuple) const override {
    return fn_(db, tuple);
  }
  std::string Describe(const Schema&) const override { return description_; }

 private:
  Fn fn_;
  std::string description_;
};

/// Definition 11: a solution for the whole database — one TablePartitioner
/// per table (replicated tables use ReplicatedTable).
class DatabaseSolution {
 public:
  DatabaseSolution(int32_t num_partitions, size_t num_tables)
      : k_(num_partitions), per_table_(num_tables) {}

  void Set(TableId table, std::shared_ptr<const TablePartitioner> p) {
    per_table_[table] = std::move(p);
  }
  const TablePartitioner* Get(TableId table) const { return per_table_[table].get(); }
  std::shared_ptr<const TablePartitioner> GetShared(TableId table) const {
    return per_table_[table];
  }

  /// Partition of a stored tuple; tables with no partitioner assigned are
  /// treated as replicated.
  int32_t PartitionOf(const Database& db, TupleId tuple) const {
    const TablePartitioner* p = per_table_[tuple.table].get();
    return p == nullptr ? kReplicated : p->PartitionOf(db, tuple);
  }

  int32_t num_partitions() const { return k_; }
  size_t num_tables() const { return per_table_.size(); }

  /// One line per table, for reports and EXPERIMENTS.md.
  std::string Describe(const Schema& schema) const;

 private:
  int32_t k_;
  std::vector<std::shared_ptr<const TablePartitioner>> per_table_;
};

/// Naive baseline solution: every table hash-partitioned independently by
/// its primary key (by row id when a table has no PK). Nothing co-locates
/// across tables, so almost every multi-table transaction is distributed —
/// the worst case the paper's Fig. 1 throughput cliff is measured against.
DatabaseSolution MakeNaiveHashSolution(const Database& db, int32_t num_partitions);

}  // namespace jecb
