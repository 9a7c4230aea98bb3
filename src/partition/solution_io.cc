#include "partition/solution_io.h"

#include <charconv>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/string_util.h"

namespace jecb {

namespace {

/// Parses the whole of `token` as a T. nullopt when the token is empty, has
/// trailing bytes, or holds a value T cannot represent.
template <typename T>
std::optional<T> ParseNumber(std::string_view token) {
  T value{};
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::string EncodeValue(const Value& v) {
  if (v.is_int()) return "i:" + std::to_string(v.AsInt());
  if (v.is_double()) return "d:" + FormatDouble(v.AsDouble(), 9);
  std::string out = "s:";
  for (char c : v.AsString()) {
    if (c == ' ') {
      out += "\\40";
    } else {
      out += c;
    }
  }
  return out;
}

Result<Value> DecodeValue(const std::string& token) {
  if (token.size() < 2 || token[1] != ':') {
    return Status::ParseError("bad value token '" + token + "'");
  }
  std::string payload = token.substr(2);
  switch (token[0]) {
    case 'i': {
      std::optional<int64_t> v = ParseNumber<int64_t>(payload);
      if (!v) return Status::ParseError("bad integer value '" + token + "'");
      return Value(*v);
    }
    case 'd': {
      std::optional<double> v = ParseNumber<double>(payload);
      if (!v) return Status::ParseError("bad double value '" + token + "'");
      return Value(*v);
    }
    case 's': {
      std::string out;
      for (size_t i = 0; i < payload.size(); ++i) {
        if (payload[i] == '\\' && i + 2 < payload.size() && payload[i + 1] == '4' &&
            payload[i + 2] == '0') {
          out += ' ';
          i += 2;
        } else {
          out += payload[i];
        }
      }
      return Value(std::move(out));
    }
    default:
      return Status::ParseError("unknown value type '" + token + "'");
  }
}

}  // namespace

Result<std::string> SolutionToString(const Schema& schema,
                                     const DatabaseSolution& solution) {
  std::string out = "# jecb-solution v1\n";
  out += "K " + std::to_string(solution.num_partitions()) + "\n";
  for (size_t t = 0; t < solution.num_tables(); ++t) {
    auto tid = static_cast<TableId>(t);
    const TablePartitioner* p = solution.Get(tid);
    const std::string& table_name = schema.table(tid).name;
    if (p == nullptr || dynamic_cast<const ReplicatedTable*>(p) != nullptr) {
      out += "REPLICATE " + table_name + "\n";
      continue;
    }
    const auto* jp = dynamic_cast<const JoinPathPartitioner*>(p);
    if (jp == nullptr) {
      return Status::Unsupported("table " + table_name +
                                 " uses a non-serializable partitioner");
    }
    const JoinPath& path = jp->path();
    out += "PATH " + table_name + " " + std::to_string(path.hops.size());
    for (FkIdx f : path.hops) {
      const ForeignKey& fk = schema.foreign_keys()[f];
      std::vector<std::string> cols;
      for (ColumnIdx c : fk.columns) cols.push_back(schema.table(fk.table).column_name(c));
      out += " " + schema.table(fk.table).name + " " + Join(cols, ",");
    }
    out += " " + schema.QualifiedName(path.dest);

    const MappingFunction& mapping = jp->mapping();
    if (mapping.name() == "hash") {
      out += " hash\n";
    } else if (const auto* range = dynamic_cast<const RangeMapping*>(&mapping)) {
      out += " range " + std::to_string(range->lo()) + " " +
             std::to_string(range->hi()) + "\n";
    } else if (const auto* lookup = dynamic_cast<const LookupMapping*>(&mapping)) {
      out += " lookup " + std::to_string(lookup->table_size());
      for (const auto& [value, part] : lookup->entries()) {
        out += " " + EncodeValue(value) + " " + std::to_string(part);
      }
      out += "\n";
    } else {
      return Status::Unsupported("mapping '" + mapping.name() + "' not serializable");
    }
  }
  return out;
}

Status SaveSolution(const std::string& path, const Schema& schema,
                    const DatabaseSolution& solution) {
  JECB_ASSIGN_OR_RETURN(std::string text, SolutionToString(schema, solution));
  std::ofstream out(path);
  if (!out.is_open()) return Status::InvalidArgument("cannot open " + path);
  out << text;
  out.close();
  if (!out.good()) return Status::Internal("write failed for " + path);
  return Status::OK();
}

Result<DatabaseSolution> SolutionFromString(const std::string& text,
                                            const Schema& schema) {
  int32_t k = -1;
  std::unique_ptr<DatabaseSolution> solution;

  // One record; any failure (a malformed field or a name the schema does
  // not know) is reported as a ParseError with the line number below.
  auto parse_record = [&](const std::vector<std::string>& tokens) -> Status {
    if (tokens[0] == "K") {
      if (tokens.size() != 2) return Status::ParseError("K needs a partition count");
      std::optional<int32_t> parsed = ParseNumber<int32_t>(tokens[1]);
      if (!parsed || *parsed <= 0) return Status::ParseError("bad partition count");
      k = *parsed;
      solution = std::make_unique<DatabaseSolution>(k, schema.num_tables());
      auto replicated = std::make_shared<ReplicatedTable>();
      for (size_t t = 0; t < schema.num_tables(); ++t) {
        solution->Set(static_cast<TableId>(t), replicated);
      }
      return Status::OK();
    }
    if (solution == nullptr) return Status::ParseError("K line must come first");
    if (tokens[0] == "REPLICATE") {
      if (tokens.size() != 2) return Status::ParseError("REPLICATE needs a table");
      JECB_ASSIGN_OR_RETURN(TableId tid, schema.FindTable(tokens[1]));
      solution->Set(tid, std::make_shared<ReplicatedTable>());
      return Status::OK();
    }
    if (tokens[0] != "PATH") {
      return Status::ParseError("unknown record '" + tokens[0] + "'");
    }
    if (tokens.size() < 4) return Status::ParseError("truncated PATH record");

    JECB_ASSIGN_OR_RETURN(TableId source, schema.FindTable(tokens[1]));
    std::optional<int32_t> hops = ParseNumber<int32_t>(tokens[2]);
    if (!hops || *hops < 0) return Status::ParseError("bad hop count");
    if (tokens.size() < 4 + 2 * static_cast<size_t>(*hops)) {
      return Status::ParseError("truncated hop list");
    }
    JoinPath path;
    path.source_table = source;
    size_t pos = 3;
    for (int32_t h = 0; h < *hops; ++h) {
      JECB_ASSIGN_OR_RETURN(TableId child, schema.FindTable(tokens[pos]));
      std::vector<ColumnIdx> cols;
      for (const std::string& col : Split(tokens[pos + 1], ',')) {
        JECB_ASSIGN_OR_RETURN(ColumnIdx c, schema.table(child).FindColumn(col));
        cols.push_back(c);
      }
      // Resolve the foreign key by child table + child columns.
      bool found = false;
      for (FkIdx f = 0; f < schema.foreign_keys().size(); ++f) {
        const ForeignKey& fk = schema.foreign_keys()[f];
        if (fk.table == child && fk.columns == cols) {
          path.hops.push_back(f);
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::ParseError("no foreign key matches hop " + tokens[pos]);
      }
      pos += 2;
    }
    JECB_ASSIGN_OR_RETURN(path.dest, schema.ResolveQualified(tokens[pos]));
    ++pos;
    JECB_RETURN_NOT_OK(path.Validate(schema));

    if (pos >= tokens.size()) return Status::ParseError("missing mapping");
    std::shared_ptr<const MappingFunction> mapping;
    if (tokens[pos] == "hash") {
      mapping = std::make_shared<HashMapping>(k);
    } else if (tokens[pos] == "range") {
      if (pos + 2 >= tokens.size()) return Status::ParseError("range needs lo and hi");
      std::optional<int64_t> lo = ParseNumber<int64_t>(tokens[pos + 1]);
      std::optional<int64_t> hi = ParseNumber<int64_t>(tokens[pos + 2]);
      if (!lo || !hi) return Status::ParseError("bad range bound");
      if (*hi < *lo) return Status::ParseError("range hi < lo");
      mapping = std::make_shared<RangeMapping>(k, *lo, *hi);
    } else if (tokens[pos] == "lookup") {
      if (pos + 1 >= tokens.size()) return Status::ParseError("lookup needs a size");
      std::optional<int32_t> n = ParseNumber<int32_t>(tokens[pos + 1]);
      if (!n || *n < 0) return Status::ParseError("bad lookup size");
      if (tokens.size() < pos + 2 + 2 * static_cast<size_t>(*n)) {
        return Status::ParseError("truncated lookup table");
      }
      std::unordered_map<Value, int32_t, ValueHashFunctor> table;
      size_t vpos = pos + 2;
      for (int32_t i = 0; i < *n; ++i) {
        JECB_ASSIGN_OR_RETURN(Value v, DecodeValue(tokens[vpos]));
        std::optional<int32_t> part = ParseNumber<int32_t>(tokens[vpos + 1]);
        if (!part || *part < 0 || *part >= k) {
          return Status::ParseError("lookup partition out of range");
        }
        table.emplace(std::move(v), *part);
        vpos += 2;
      }
      mapping = std::make_shared<LookupMapping>(k, std::move(table));
    } else {
      return Status::ParseError("unknown mapping '" + tokens[pos] + "'");
    }
    solution->Set(source, std::make_shared<JoinPathPartitioner>(path, mapping));
    return Status::OK();
  };

  std::istringstream stream(text);
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::vector<std::string> tokens;
    for (const std::string& tok : Split(std::string(trimmed), ' ')) {
      if (!tok.empty()) tokens.push_back(tok);
    }
    Status st = parse_record(tokens);
    if (!st.ok()) {
      return Status::ParseError(st.message() + " at line " + std::to_string(line_no));
    }
  }
  if (solution == nullptr) return Status::ParseError("empty solution file");
  return std::move(*solution);
}

Result<DatabaseSolution> LoadSolution(const std::string& path, const Schema& schema) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return SolutionFromString(buffer.str(), schema);
}

}  // namespace jecb
