// Incremental (delta) candidate scoring for the search hot loop.
//
// Phase-3 combination scoring and the Horticulture LNS evaluate thousands
// of candidate solutions per search, and a candidate almost always differs
// from the incumbent in the partitioner of one or two tables. Re-running
// Evaluate() per candidate re-resolves the whole tuple dictionary and
// re-scans every transaction; the delta evaluator instead keeps the
// incumbent ("base") fully evaluated — its resolved per-dictionary
// partition array plus its EvalResult — and scores a candidate by
//
//   1. re-resolving only the tuples of the changed tables,
//   2. re-scanning only the transactions that touch a changed table
//      (precomputed per-table affected-transaction lists), and
//   3. result = base − base_contribution(affected) + cand_contribution(affected).
//
// Every EvalResult field is an integer count, so the subtract/merge in step
// 3 is exact and reversible (EvalResult::Subtract is the inverse of Merge):
// the returned EvalResult is bit-identical to a full Evaluate() of the
// candidate, at any thread count. That identity is the whole contract —
// callers (the combiner's strict-improvement reduction, the LNS accept
// rule) never see a different number than the full rescan would produce,
// so search trajectories cannot drift.
// set_self_check(true) re-proves it on every candidate against the full
// evaluator (tests and parity benches run with it on).
//
// Thread-safety: Rebase() must be called with no concurrent
// EvaluateCandidate(); after it returns, EvaluateCandidate is safe from any
// number of threads (immutable base state + a pooled per-call scratch
// mirror of the partition array that is patched before and restored after
// each scan, so the O(dictionary) copy happens once per worker, not once
// per candidate).
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <optional>
#include <vector>

#include "common/thread_pool.h"
#include "partition/evaluator.h"
#include "partition/solution.h"
#include "trace/flat_trace.h"

namespace jecb {

class DeltaEvaluator {
 public:
  /// Precomputes the trace-side indexes (per-table tuple lists and
  /// affected-transaction lists) — independent of any solution, built once
  /// per FlatTrace. `pool` parallelizes Rebase.
  DeltaEvaluator(const Database* db, const FlatTrace* trace,
                 ThreadPool* pool = nullptr);

  /// Fully evaluates `base` (resolve + scan, parallelized over `pool`) and
  /// makes it the incumbent deltas are taken against. Per-table base
  /// contributions are computed lazily on first use. Not thread-safe
  /// against concurrent EvaluateCandidate calls.
  const EvalResult& Rebase(const DatabaseSolution& base);

  bool has_base() const { return base_.has_value(); }
  const EvalResult& base_result() const { return base_result_; }

  /// Exact EvalResult of `candidate`, which must differ from the base only
  /// in the partitioners of `changed_tables` (listing extra tables is
  /// allowed and merely scans more; listing every table degenerates to a
  /// full rescan; omitting a genuinely changed table breaks the contract).
  /// `candidate` must share the base's partition count. Thread-safe after
  /// Rebase.
  EvalResult EvaluateCandidate(const DatabaseSolution& candidate,
                               std::span<const TableId> changed_tables) const;

  /// Number of trace transactions touching at least one tuple of `table` —
  /// the scan cost of a candidate changing only that table.
  size_t AffectedTxns(TableId table) const;

  /// When on, every EvaluateCandidate re-runs the full evaluator and aborts
  /// the process on any divergence — the delta contract, asserted
  /// continuously. Meant for tests and parity benches (it defeats the
  /// speedup, not the correctness).
  void set_self_check(bool on) { self_check_ = on; }

  /// Tables whose partitioners structurally differ between two solutions
  /// (null and ReplicatedTable compare equal; JoinPathPartitioners compare
  /// by path and mapping identity; any other pair of distinct objects is
  /// conservatively "changed"). Both solutions must cover the same tables.
  static std::vector<TableId> DiffTables(const DatabaseSolution& a,
                                         const DatabaseSolution& b);

 private:
  struct Scratch {
    std::vector<int32_t> part;  // mirror of base_part_, patched per candidate
    uint64_t epoch = 0;         // which Rebase the mirror reflects
  };
  class ScratchLease;

  /// Lazily computed base contribution of one table's affected transactions.
  struct TableBase {
    std::mutex mu;
    bool ready = false;
    EvalResult result;
  };

  const EvalResult& TableBaseResult(size_t table) const;

  const Database* db_;
  const FlatTrace* trace_;
  ThreadPool* pool_;
  bool self_check_ = false;
  size_t num_tables_ = 0;

  // Trace-derived indexes, immutable after construction.
  std::vector<std::vector<uint32_t>> table_tuples_;  // dictionary indices
  std::vector<std::shared_ptr<const std::vector<uint32_t>>> table_txns_;

  // Incumbent state, rebuilt by Rebase.
  std::optional<DatabaseSolution> base_;
  std::vector<int32_t> base_part_;
  EvalResult base_result_;
  mutable std::vector<std::unique_ptr<TableBase>> base_table_;
  uint64_t epoch_ = 0;

  mutable std::mutex scratch_mu_;
  mutable std::vector<std::unique_ptr<Scratch>> scratch_pool_;
};

}  // namespace jecb
