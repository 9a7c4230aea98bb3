// Materialized physical layout of a partitioning solution: which tuples live
// on which shard, and every stored tuple's encoded bytes. Partitioned tuples
// are placed on exactly one shard; replicated tuples (kReplicated) are copied
// to every shard, which is what makes their reads local and their writes
// distributed. Immutable after construction, so lookups are safe from any
// thread without locking, and forked shard servers inherit it copy-on-write.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "partition/solution.h"
#include "storage/database.h"

namespace jecb {

class ShardedDatabase {
 public:
  /// Scans every stored tuple once, assigns it via `solution` and encodes
  /// it into the encoded-row store. Tuples whose placement cannot be
  /// resolved (kUnknownPartition, e.g. dangling FKs) are pinned to a
  /// deterministic fallback shard and counted.
  ShardedDatabase(const Database& db, const DatabaseSolution& solution);

  int32_t num_shards() const { return static_cast<int32_t>(shards_.size()); }

  /// kReplicated for replicated tuples, otherwise the owning shard in
  /// [0, num_shards). Unknown placements report their fallback shard.
  int32_t PrimaryShardOf(TupleId t) const {
    return assignment_[t.table][t.row];
  }

  /// True when a copy of `t` is stored on `shard`.
  bool Contains(int32_t shard, TupleId t) const {
    int32_t p = assignment_[t.table][t.row];
    return p == kReplicated || p == shard;
  }

  /// Tuples stored on `shard`, replicated copies included.
  uint64_t shard_tuples(int32_t shard) const { return shards_[shard].tuple_count; }

  /// Tuples of `table` stored on `shard` (replicated tables count fully).
  uint64_t shard_table_tuples(int32_t shard, TableId table) const {
    return shards_[shard].per_table_count[table];
  }

  uint64_t base_tuples() const { return base_tuples_; }
  uint64_t replicated_tuples() const { return replicated_tuples_; }
  uint64_t unknown_placements() const { return unknown_placements_; }

  /// Total stored tuples across shards / base tuples; 1.0 = no replication.
  double ReplicationFactor() const;

  /// Coefficient of variation of per-shard tuple counts (storage skew).
  double StorageSkew() const;

  /// The per-shard encoded-row store: every stored tuple's EncodeRowBytes
  /// form, written once into one bump-pointer arena per shard (replicated
  /// tuples into a shared extra arena). The constructor builds it; a later
  /// call is a no-op. Exchange assembly serves views into the arenas
  /// instead of encoding a row per access.
  void BuildEncodedRows();

  /// Pre-encoded bytes of `t`; valid for the ShardedDatabase's lifetime.
  std::string_view EncodedRow(TupleId t) const {
    return encoded_rows_[t.table][t.row];
  }

  std::string Describe() const;

 private:
  struct Shard {
    uint64_t tuple_count = 0;
    std::vector<uint64_t> per_table_count;
  };

  /// Owned by the constructor's caller, which must outlive this.
  const Database* db_ = nullptr;
  std::vector<Shard> shards_;
  /// assignment_[table][row]: owning shard, or kReplicated.
  std::vector<std::vector<int32_t>> assignment_;
  /// Encoded-row store: one arena per shard + one for replicated tuples;
  /// encoded_rows_[table][row] views into them.
  std::vector<Arena> encoded_arenas_;
  std::vector<std::vector<std::string_view>> encoded_rows_;
  uint64_t base_tuples_ = 0;
  uint64_t replicated_tuples_ = 0;
  uint64_t unknown_placements_ = 0;
};

}  // namespace jecb
