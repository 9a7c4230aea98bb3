// A small JSON reader, enough for BENCHMARK.json and the per-run result files
// this benchmark writes.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jecb::benchmark {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> items;                           ///< kArray
  std::vector<std::pair<std::string, Json>> fields;  ///< kObject, in file order

  /// The value of `key` in an object; null when absent or not an object.
  const Json* Find(std::string_view key) const;
};

/// Parses one JSON document; nullopt on malformed input.
std::optional<Json> ParseJson(std::string_view text);

/// Reads and parses a file; nullopt when unreadable or malformed.
std::optional<Json> ReadJsonFile(const std::string& path);

}  // namespace jecb::benchmark
