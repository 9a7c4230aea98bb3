// Jecb::Partition taken apart: the same public calls in the same order, on
// one thread, each wrapped in a span. The traced run checks that the mirror
// reaches the same solution as Jecb::Partition, so its per-layer times are
// the partitioner's own.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "partition/solution.h"
#include "spans.h"
#include "sql/ast.h"
#include "storage/database.h"
#include "trace/trace.h"

namespace jecb::benchmark {

struct MirrorResult {
  DatabaseSolution solution;
  uint64_t class_solutions = 0;  ///< Phase 2 total + partial solutions
  uint64_t combinations = 0;     ///< Phase 3 scored combinations
};

/// Spans: "jecb.partition" > "jecb.phase1", "trace.flatten", "jecb.phase2" >
/// "jecb.class" > ("sql.analyze", "jecb.class_partition"), "jecb.phase3".
Result<MirrorResult> MirrorPartition(Database* db,
                                     const std::vector<sql::Procedure>& procedures,
                                     const Trace& train, int32_t num_partitions,
                                     SpanLog* spans);

}  // namespace jecb::benchmark
