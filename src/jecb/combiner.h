// Phase 3 (paper Sec. 6): combine per-class solutions into one global
// database solution. Uses the two search-space heuristics: merging
// compatible per-table solutions (Definitions 13/14) and searching only
// around compatible partitioning attributes, then evaluates the surviving
// combinations on the global training trace and keeps the cheapest.
#pragma once

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "jecb/attr_lattice.h"
#include "jecb/types.h"
#include "partition/cost_model.h"
#include "partition/evaluator.h"
#include "partition/solution.h"
#include "trace/trace.h"

namespace jecb {

struct CombinerOptions {
  int32_t num_partitions = 8;
  /// Cap on enumerated combinations per candidate attribute.
  size_t max_combinations = 4096;
  /// Ranks the enumerated combinations; null means the paper's Definition 6
  /// cost (fraction of distributed transactions). The conclusion's richer
  /// models (SitesTouchedCost, WeightedRuntimeCost) plug in here.
  std::shared_ptr<const CostModel> cost_model;
  /// Re-proves the delta == full identity on every scored combination
  /// (aborts on divergence). For tests; defeats the speedup.
  bool delta_self_check = false;
};

/// Search-space accounting for Example 10-style reporting.
struct CombinerReport {
  /// Product of per-table solution-set sizes before the heuristics.
  double naive_search_space = 0.0;
  uint64_t evaluated_combinations = 0;
  std::vector<std::string> candidate_attrs;  // qualified names after Step 1
  std::string chosen_attr;
  double best_train_cost = 0.0;
  /// Tables that ended up replicated despite being partitionable.
  std::vector<std::string> replicated_tables;
};

class Combiner {
 public:
  Combiner(const Database* db, const AttributeLattice* lattice, CombinerOptions options)
      : db_(db), lattice_(lattice), options_(options) {}

  /// Runs Phase 3. `train` is the global training trace (all classes).
  /// Combinations are scored by delta evaluation (delta_evaluator.h): the
  /// evaluator rebases once per candidate attribute on the first enumerated
  /// combination, then scores every other combination by rescanning only
  /// the transactions touching tables whose partitioner differs — results
  /// bit-identical to a full Evaluate. With a pool, the combinations of each
  /// candidate attribute are scored concurrently and reduced in enumeration
  /// order, so the chosen solution, cost, and report counters are
  /// bit-identical to the serial path.
  ///
  /// `flat` is the columnar image of `train` when the caller already has
  /// one; when null, Combine flattens `train` itself.
  Result<DatabaseSolution> Combine(const std::vector<ClassPartitioningResult>& classes,
                                   const Trace& train, CombinerReport* report,
                                   ThreadPool* pool = nullptr,
                                   const FlatTrace* flat = nullptr) const;

 private:
  const Schema& schema() const { return db_->schema(); }

  const Database* db_;
  const AttributeLattice* lattice_;
  CombinerOptions options_;
};

}  // namespace jecb
