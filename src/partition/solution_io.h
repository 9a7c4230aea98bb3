// DatabaseSolution (de)serialization: the deployable artifact of a
// partitioning run. A solution file records, per table, either replication
// or a join path (as table/column names, robust to schema reordering) plus
// its mapping function — including learned lookup tables.
//
// Format (line oriented, '#' comments):
//   # jecb-solution v1
//   K <num-partitions>
//   REPLICATE <table>
//   PATH <table> <hops> <child-table> <child-col>[,<child-col>...] ... <dest-table>.<dest-col> <mapping>
//   where <mapping> is one of:
//     hash
//     range <lo> <hi>
//     lookup <n> (<value> <partition>)...   -- values encoded as in trace_io
//
// Classifier-based solutions (Schism's decision trees) are not serializable
// and are rejected with kUnsupported.
#pragma once

#include <string>

#include "common/result.h"
#include "partition/solution.h"
#include "storage/database.h"

namespace jecb {

/// Serializes `solution`; fails with kUnsupported for callback partitioners.
Result<std::string> SolutionToString(const Schema& schema,
                                     const DatabaseSolution& solution);

Status SaveSolution(const std::string& path, const Schema& schema,
                    const DatabaseSolution& solution);

/// Parses a solution against `schema`; join-path hops are re-resolved by
/// child table + child columns. Numbers must fill their whole token and fit
/// their type. Any bad record — a malformed field, a name `schema` lacks,
/// or an invalid path — fails with kParseError naming the line.
Result<DatabaseSolution> SolutionFromString(const std::string& text,
                                            const Schema& schema);

Result<DatabaseSolution> LoadSolution(const std::string& path, const Schema& schema);

}  // namespace jecb
