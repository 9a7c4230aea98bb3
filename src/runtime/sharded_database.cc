#include "runtime/sharded_database.h"

#include <cmath>

#include "common/string_util.h"
#include "runtime/exchange.h"

namespace jecb {

ShardedDatabase::ShardedDatabase(const Database& db,
                                 const DatabaseSolution& solution)
    : db_(&db) {
  const size_t num_tables = db.schema().num_tables();
  const int32_t k = std::max(solution.num_partitions(), 1);
  shards_.resize(k);
  for (Shard& s : shards_) s.per_table_count.assign(num_tables, 0);
  assignment_.resize(num_tables);

  for (TableId t = 0; t < num_tables; ++t) {
    const TableData& data = db.table_data(t);
    assignment_[t].resize(data.num_rows());
    for (RowId r = 0; r < data.num_rows(); ++r) {
      ++base_tuples_;
      int32_t p = solution.PartitionOf(db, TupleId{t, r});
      if (p == kReplicated) {
        ++replicated_tuples_;
        for (Shard& s : shards_) {
          ++s.tuple_count;
          ++s.per_table_count[t];
        }
        assignment_[t][r] = kReplicated;
        continue;
      }
      if (p < 0 || p >= k) {
        // Unresolvable placement: pin deterministically so replay still has
        // a home for the tuple, but surface the count to callers.
        ++unknown_placements_;
        p = static_cast<int32_t>(TupleIdHash{}(TupleId{t, r}) %
                                 static_cast<size_t>(k));
      }
      ++shards_[p].tuple_count;
      ++shards_[p].per_table_count[t];
      assignment_[t][r] = p;
    }
  }
  BuildEncodedRows();
}

void ShardedDatabase::BuildEncodedRows() {
  if (!encoded_arenas_.empty()) return;
  const size_t num_tables = db_->schema().num_tables();
  // One arena per shard + one for replicated tuples: a pinned worker (or a
  // forked shard server) touching only its own shard's rows stays within
  // one contiguous block chain.
  encoded_arenas_ = std::vector<Arena>(shards_.size() + 1);
  encoded_rows_.resize(num_tables);
  for (TableId t = 0; t < num_tables; ++t) {
    const TableData& data = db_->table_data(t);
    encoded_rows_[t].resize(data.num_rows());
    for (RowId r = 0; r < data.num_rows(); ++r) {
      int32_t p = assignment_[t][r];
      Arena& arena = encoded_arenas_[p == kReplicated
                                         ? shards_.size()
                                         : static_cast<size_t>(p)];
      encoded_rows_[t][r] = arena.CopyString(EncodeRowBytes(data.row(r)));
    }
  }
}

double ShardedDatabase::ReplicationFactor() const {
  if (base_tuples_ == 0) return 1.0;
  uint64_t stored = 0;
  for (const Shard& s : shards_) stored += s.tuple_count;
  return static_cast<double>(stored) / static_cast<double>(base_tuples_);
}

double ShardedDatabase::StorageSkew() const {
  if (shards_.empty()) return 0.0;
  double mean = 0.0;
  for (const Shard& s : shards_) mean += static_cast<double>(s.tuple_count);
  mean /= static_cast<double>(shards_.size());
  if (mean == 0.0) return 0.0;
  double var = 0.0;
  for (const Shard& s : shards_) {
    double d = static_cast<double>(s.tuple_count) - mean;
    var += d * d;
  }
  var /= static_cast<double>(shards_.size());
  return std::sqrt(var) / mean;
}

std::string ShardedDatabase::Describe() const {
  std::string out = "shards=" + std::to_string(shards_.size()) +
                    " base_tuples=" + std::to_string(base_tuples_) +
                    " replication_factor=" + FormatDouble(ReplicationFactor(), 2) +
                    " storage_skew=" + FormatDouble(StorageSkew(), 3);
  if (unknown_placements_ > 0) {
    out += " unknown_placements=" + std::to_string(unknown_placements_);
  }
  return out;
}

}  // namespace jecb
