// Value: the dynamic cell type of the in-memory row store.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/hash.h"
#include "common/string_util.h"

namespace jecb {

/// One cell value: int64, double, or string.
class Value {
 public:
  Value() : v_(int64_t{0}) {}
  Value(int64_t v) : v_(v) {}                   // NOLINT(runtime/explicit)
  Value(int v) : v_(static_cast<int64_t>(v)) {}  // NOLINT
  Value(double v) : v_(v) {}                    // NOLINT
  Value(std::string v) : v_(std::move(v)) {}    // NOLINT
  Value(const char* v) : v_(std::string(v)) {}  // NOLINT

  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  int64_t AsInt() const { return std::get<int64_t>(v_); }
  double AsDouble() const { return std::get<double>(v_); }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  uint64_t Hash() const {
    if (is_int()) return HashInt64(static_cast<uint64_t>(AsInt()));
    if (is_double()) {
      double d = AsDouble();
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return HashInt64(bits);
    }
    return HashString(AsString());
  }

  std::string ToString() const {
    if (is_int()) return std::to_string(AsInt());
    if (is_double()) return FormatDouble(AsDouble(), 4);
    return AsString();
  }

  bool operator==(const Value&) const = default;
  auto operator<=>(const Value&) const = default;

 private:
  std::variant<int64_t, double, std::string> v_;
};

/// A tuple of values (a row, or a composite key).
using Row = std::vector<Value>;

struct RowHash {
  static constexpr uint64_t kSeed = 0x9ae16a3b2f90404fULL;

  size_t operator()(const Row& row) const {
    uint64_t h = kSeed;
    for (const Value& v : row) h = HashCombine(h, v.Hash());
    return h;
  }
};

inline std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out + ")";
}

}  // namespace jecb
