// Horticulture baseline (Pavlo et al., SIGMOD 2012): schema-driven
// generate-and-test search. Each table's candidates are its own columns
// (hash partitioning) or replication; a large-neighborhood search relaxes a
// few tables at a time and re-optimizes them against a skew-aware cost
// model (distributed-transaction fraction, partitions touched, and load
// skew), evaluated on the training trace. LNS trials are scored by delta
// evaluation (delta_evaluator.h): the incumbent design stays fully
// evaluated and each trial — which differs in one table — rescans only
// that table's affected transactions, bit-identical to full evaluation.
#pragma once

#include <cstdint>
#include <string>

#include "partition/evaluator.h"
#include "partition/solution.h"
#include "trace/trace.h"

namespace jecb {

struct HorticultureOptions {
  int32_t num_partitions = 8;
  /// Worker threads for scoring the LNS neighborhood (each relaxed table's
  /// per-column trials are independent given the current design). 0 =
  /// hardware_concurrency(); 1 = the exact legacy serial path. The search
  /// trajectory is bit-identical at every thread count.
  int32_t num_threads = 0;
  ClassifyOptions classify;
  /// LNS iterations (each relaxes `relax_tables` tables).
  int rounds = 40;
  int relax_tables = 2;
  /// Cost = dist_fraction * (1 + touch_weight * avg_extra_partitions)
  ///        * (1 + skew_weight * load_skew)   — the shape of Horticulture's
  /// cost model: distributed count, partitions touched, temporal skew.
  double touch_weight = 0.25;
  double skew_weight = 0.5;
  /// Evaluate candidates on at most this many training transactions.
  size_t sample_txns = 20000;
  uint64_t seed = 17;
  /// Re-proves delta == full on every LNS trial (aborts on divergence). For
  /// tests; defeats the speedup.
  bool delta_self_check = false;
};

struct HorticultureResult {
  DatabaseSolution solution;
  double train_cost = 0.0;      // plain distributed fraction on the sample
  double model_cost = 0.0;      // skew-aware cost the search optimized
  int evaluations = 0;
  double elapsed_seconds = 0.0;
};

class Horticulture {
 public:
  explicit Horticulture(HorticultureOptions options = {})
      : options_(std::move(options)) {}

  /// Partitions from schema + trace (no SQL). Mutates `db`'s schema with the
  /// replication classification.
  Result<HorticultureResult> Partition(Database* db, const Trace& training) const;

 private:
  HorticultureOptions options_;
};

}  // namespace jecb
