#include "partition/join_path.h"

namespace jecb {

bool JoinPath::HopsArePrefixOf(const JoinPath& other) const {
  if (source_table != other.source_table) return false;
  if (hops.size() > other.hops.size()) return false;
  for (size_t i = 0; i < hops.size(); ++i) {
    if (hops[i] != other.hops[i]) return false;
  }
  return true;
}

Status JoinPath::Validate(const Schema& schema) const {
  TableId cur = source_table;
  for (FkIdx idx : hops) {
    if (idx >= schema.foreign_keys().size()) {
      return Status::OutOfRange("bad foreign key index");
    }
    const ForeignKey& fk = schema.foreign_keys()[idx];
    if (fk.table != cur) {
      return Status::InvalidArgument("hop does not start at current table");
    }
    cur = fk.ref_table;
  }
  if (dest.table != cur) {
    return Status::InvalidArgument("destination not in final table");
  }
  if (dest.column >= schema.table(cur).columns.size()) {
    return Status::OutOfRange("bad destination column");
  }
  return Status::OK();
}

std::string JoinPath::ToString(const Schema& schema) const {
  std::string out = schema.table(source_table).name;
  for (FkIdx idx : hops) {
    const ForeignKey& fk = schema.foreign_keys()[idx];
    out += " -> " + schema.table(fk.ref_table).name;
  }
  out += "." + schema.table(dest.table).columns[dest.column].name;
  return out;
}

Result<Value> JoinPath::Evaluate(const Database& db, TupleId tuple) const {
  if (tuple.table != source_table) {
    return Status::InvalidArgument("tuple is not from the path's source table");
  }
  const RowId row = DestRow(db, tuple.row);
  if (row == kNoRow) return Status::NotFound("join path dangles");
  return db.GetValue({dest.table, row}, dest.column);
}

Result<JoinPath> ConcatPaths(const Schema& schema, const JoinPath& base,
                             const JoinPath& extension) {
  if (extension.source_table != base.dest_table()) {
    return Status::InvalidArgument("extension does not start at base destination");
  }
  JoinPath out = base;
  for (FkIdx idx : extension.hops) out.hops.push_back(idx);
  out.dest = extension.dest;
  JECB_RETURN_NOT_OK(out.Validate(schema));
  return out;
}

}  // namespace jecb
