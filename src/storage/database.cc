#include "storage/database.h"

#include <algorithm>

namespace jecb {

Row TableData::ExtractKey(const Row& row, const std::vector<ColumnIdx>& cols) const {
  Row key;
  key.reserve(cols.size());
  for (ColumnIdx c : cols) key.push_back(row[c]);
  return key;
}

const TableData::KeyIndex* TableData::FindIndex(
    const std::vector<ColumnIdx>& cols) const {
  for (const auto& idx : indexes_) {
    if (idx.cols == cols) return &idx;
  }
  return nullptr;
}

Result<RowId> TableData::Insert(Row row) {
  if (row.size() != meta_->columns.size()) {
    return Status::InvalidArgument("arity mismatch inserting into " + meta_->name +
                                   ": got " + std::to_string(row.size()) +
                                   ", want " + std::to_string(meta_->columns.size()));
  }
  // Lazily create indexes on first insert so the Table metadata (keys) is
  // final by the time data arrives.
  if (indexes_.empty()) {
    if (!meta_->primary_key.empty()) {
      indexes_.push_back(KeyIndex{meta_->primary_key, {}});
    }
    for (const auto& uk : meta_->unique_keys) {
      indexes_.push_back(KeyIndex{uk, {}});
    }
  }
  RowId id = static_cast<RowId>(rows_.size());
  for (auto& idx : indexes_) {
    Row key = ExtractKey(row, idx.cols);
    auto [it, inserted] = idx.map.emplace(std::move(key), id);
    if (!inserted) {
      // Roll back any indexes already updated for this row.
      for (auto& prev : indexes_) {
        if (&prev == &idx) break;
        prev.map.erase(ExtractKey(row, prev.cols));
      }
      return Status::AlreadyExists("duplicate key " +
                                   RowToString(ExtractKey(row, idx.cols)) +
                                   " in " + meta_->name);
    }
  }
  rows_.push_back(std::move(row));
  return id;
}

Result<RowId> TableData::LookupPk(const Row& key) const {
  return LookupUnique(meta_->primary_key, key);
}

Result<RowId> TableData::LookupUnique(const std::vector<ColumnIdx>& key_cols,
                                      const Row& key) const {
  const KeyIndex* idx = FindIndex(key_cols);
  if (idx == nullptr) {
    return Status::NotFound("no unique index on requested columns of " + meta_->name);
  }
  auto it = idx->map.find(key);
  if (it == idx->map.end()) {
    return Status::NotFound("key " + RowToString(key) + " in " + meta_->name);
  }
  return it->second;
}

Database::Database(Schema schema)
    : schema_(std::move(schema)),
      parents_(std::make_unique<ParentIndex[]>(schema_.foreign_keys().size())) {
  data_.reserve(schema_.num_tables());
  for (size_t i = 0; i < schema_.num_tables(); ++i) {
    data_.emplace_back(&schema_.table(static_cast<TableId>(i)));
  }
}

TupleId Database::MustInsert(std::string_view table, Row row) {
  auto tid = schema_.FindTable(table);
  CheckOk(tid.status(), "MustInsert");
  auto res = Insert(tid.value(), std::move(row));
  CheckOk(res.status(), "MustInsert");
  return res.value();
}

Result<TupleId> Database::Insert(TableId table, Row row) {
  if (table >= data_.size()) return Status::OutOfRange("bad table id");
  JECB_ASSIGN_OR_RETURN(RowId rid, data_[table].Insert(std::move(row)));
  // A new row can be a child without an entry or the parent a dangling key
  // was missing: every built array is stale.
  if (any_parent_index_) {
    for (size_t i = 0; i < schema_.foreign_keys().size(); ++i) {
      parents_[i].ready.store(false, std::memory_order_relaxed);
    }
    any_parent_index_ = false;
  }
  return TupleId{table, rid};
}

void Database::BuildParentIndex(FkIdx fk_idx) const {
  std::lock_guard<std::mutex> lock(parents_mu_);
  ParentIndex& index = parents_[fk_idx];
  if (index.ready.load(std::memory_order_relaxed)) return;  // built by a racer
  const ForeignKey& fk = schema_.foreign_keys()[fk_idx];
  const TableData& child = data_[fk.table];
  const TableData& parent = data_[fk.ref_table];
  index.rows.assign(child.num_rows(), kNoRow);
  Row key(fk.columns.size());
  for (RowId r = 0; r < child.num_rows(); ++r) {
    for (size_t i = 0; i < fk.columns.size(); ++i) key[i] = child.At(r, fk.columns[i]);
    Result<RowId> p = parent.LookupUnique(fk.ref_columns, key);
    if (p.ok()) index.rows[r] = p.value();
  }
  any_parent_index_ = true;
  index.ready.store(true, std::memory_order_release);
}

Result<TupleId> Database::FollowForeignKey(const ForeignKey& fk, TupleId from) const {
  if (from.table != fk.table) {
    return Status::InvalidArgument("tuple is not in the FK's child table");
  }
  const std::vector<ForeignKey>& fks = schema_.foreign_keys();
  const auto it = std::find(fks.begin(), fks.end(), fk);
  if (it == fks.end()) {
    return Status::InvalidArgument("foreign key is not declared in the schema");
  }
  const RowId parent = ParentRow(static_cast<FkIdx>(it - fks.begin()), from.row);
  if (parent == kNoRow) {
    return Status::NotFound("dangling foreign key from " + schema_.table(fk.table).name +
                            " row " + std::to_string(from.row));
  }
  return TupleId{fk.ref_table, parent};
}

size_t Database::TotalRows() const {
  size_t n = 0;
  for (const auto& t : data_) n += t.num_rows();
  return n;
}

}  // namespace jecb
