// JECB: join-extension, code-based OLTP data partitioning (the paper's
// primary contribution). Inputs: a populated database (schema + data), the
// workload's stored-procedure source code, a training trace, and the target
// partition count. Output: a partitioning solution for every table plus the
// full per-phase report.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "jecb/class_partitioner.h"
#include "jecb/combiner.h"
#include "jecb/join_graph.h"
#include "jecb/types.h"
#include "partition/solution.h"
#include "sql/parser.h"
#include "trace/trace.h"

namespace jecb {

struct JecbOptions {
  int32_t num_partitions = 8;
  /// Worker threads for the pipeline's parallel sections (per-class Phase 2,
  /// Phase 3 candidate scoring). 0 = hardware_concurrency(); 1 = the exact
  /// legacy single-threaded path (no pool is created). Results are
  /// bit-identical at every thread count.
  int32_t num_threads = 0;
  /// Re-prove every memoized Phase-2 tree fit against MeasureTreeFit and
  /// every delta-scored Phase-3 combination against a full Evaluate (aborts
  /// on divergence). Copied into ClassPartitionerOptions and
  /// CombinerOptions. For tests; defeats the speedups.
  bool delta_self_check = false;
  ClassifyOptions classify;
  JoinGraphOptions join_graph;
  ClassPartitionerOptions class_partitioner;
  CombinerOptions combiner;
};

struct JecbResult {
  DatabaseSolution solution;
  /// Phase 1 output: per-table access classification applied to the schema.
  std::vector<AccessClass> table_classes;
  /// Phase 2 output per transaction class (paper Table 3 contents).
  std::vector<ClassPartitioningResult> classes;
  /// Phase 3 accounting (paper Example 10 contents).
  CombinerReport combiner_report;
  double elapsed_seconds = 0.0;
};

/// The JECB partitioner (phases 1-3 of the paper).
class Jecb {
 public:
  explicit Jecb(JecbOptions options = {});

  /// Runs all three phases. Mutates `db`'s schema: Phase 1 stamps each
  /// table's AccessClass. Trace class names must match procedure names.
  Result<JecbResult> Partition(Database* db,
                               const std::vector<sql::Procedure>& procedures,
                               const Trace& training_trace) const;

 private:
  JecbOptions options_;
};

/// Renders the Phase 2 outcome as a paper-Table-3-style text table.
std::string FormatClassSolutions(const Schema& schema,
                                 const std::vector<ClassPartitioningResult>& classes);

/// Renders the final per-table solution as a paper-Table-4-style text table.
std::string FormatTableSolutions(const Schema& schema, const DatabaseSolution& solution);

}  // namespace jecb
