#include "partition/solution.h"

namespace jecb {

int32_t JoinPathPartitioner::PartitionOf(const Database& db, TupleId tuple) const {
  if (tuple.table != path_.source_table) return kUnknownPartition;
  const RowId row = path_.DestRow(db, tuple.row);
  if (row == kNoRow) return kUnknownPartition;
  return mapping_->Map(db.GetValue({path_.dest.table, row}, path_.dest.column));
}

std::string JoinPathPartitioner::Describe(const Schema& schema) const {
  return path_.ToString(schema) + " via " + mapping_->name();
}

DatabaseSolution MakeNaiveHashSolution(const Database& db, int32_t num_partitions) {
  const Schema& schema = db.schema();
  DatabaseSolution solution(num_partitions, schema.num_tables());
  for (TableId t = 0; t < schema.num_tables(); ++t) {
    const std::vector<ColumnIdx> pk = schema.table(t).primary_key;
    auto fn = [pk, num_partitions](const Database& d, TupleId tuple) -> int32_t {
      uint64_t h;
      if (pk.empty()) {
        h = HashInt64(tuple.row);
      } else {
        h = RowHash::kSeed;  // RowHash of the PK values, without building the Row
        for (ColumnIdx c : pk) h = HashCombine(h, d.GetValue(tuple, c).Hash());
      }
      return static_cast<int32_t>(h % static_cast<uint64_t>(num_partitions));
    };
    solution.Set(t, std::make_shared<CallbackPartitioner>(
                        std::move(fn), "hash(pk) mod " + std::to_string(num_partitions)));
  }
  return solution;
}

std::string DatabaseSolution::Describe(const Schema& schema) const {
  std::string out;
  for (size_t t = 0; t < per_table_.size(); ++t) {
    out += "  " + schema.table(static_cast<TableId>(t)).name + ": ";
    out += per_table_[t] ? per_table_[t]->Describe(schema) : "replicated (default)";
    out += "\n";
  }
  return out;
}

}  // namespace jecb
