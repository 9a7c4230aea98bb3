#include "horticulture/horticulture.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <random>

#include "common/thread_pool.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "partition/delta_evaluator.h"
#include "trace/flat_trace.h"

namespace jecb {

namespace {

/// A design point: per-table choice of partitioning column (or -1 for
/// replication).
using Design = std::vector<int32_t>;

}  // namespace

Result<HorticultureResult> Horticulture::Partition(Database* db,
                                                   const Trace& training) const {
  auto start = std::chrono::steady_clock::now();

  std::vector<AccessClass> classes =
      ClassifyTables(db->schema(), training, options_.classify);
  ApplyClassification(&db->mutable_schema(), classes);
  const Schema& schema = db->schema();

  Trace sample = training.Head(options_.sample_txns);

  std::vector<TableId> partitioned;
  for (const Table& t : schema.tables()) {
    if (t.access_class == AccessClass::kPartitioned) partitioned.push_back(t.id);
  }

  // Access frequency per column (from WHERE-less trace evidence we only have
  // tuple accesses, so the heuristic initial design partitions each table by
  // the first primary-key column — Horticulture's most common outcome).
  Design design(schema.num_tables(), -1);
  for (TableId t : partitioned) {
    const Table& meta = schema.table(t);
    design[t] = meta.primary_key.empty() ? 0 : meta.primary_key[0];
  }

  auto mapping = std::make_shared<HashMapping>(options_.num_partitions);
  auto replicated = std::make_shared<ReplicatedTable>();

  // One partitioner per (table, column), shared by every design that picks
  // it, so identical designs materialize to pointer-identical solutions
  // (which is what lets the delta evaluator's DiffTables see "unchanged" as
  // a pointer comparison). PartitionOf is a pure function of the tuple, so
  // sharing cannot change any EvalResult.
  std::vector<std::vector<std::shared_ptr<const TablePartitioner>>> col_parts(
      schema.num_tables());
  for (TableId t : partitioned) {
    const Table& meta = schema.table(t);
    col_parts[t].resize(meta.columns.size());
    for (size_t c = 0; c < meta.columns.size(); ++c) {
      JoinPath path;
      path.source_table = t;
      path.dest = ColumnRef{t, static_cast<ColumnIdx>(c)};
      col_parts[t][c] = std::make_shared<JoinPathPartitioner>(path, mapping);
    }
  }

  auto materialize = [&](const Design& d) {
    DatabaseSolution sol(options_.num_partitions, schema.num_tables());
    for (size_t t = 0; t < schema.num_tables(); ++t) {
      auto tid = static_cast<TableId>(t);
      if (schema.table(tid).access_class != AccessClass::kPartitioned || d[t] < 0) {
        sol.Set(tid, replicated);
        continue;
      }
      sol.Set(tid, col_parts[tid][d[t]]);
    }
    return sol;
  };

  HorticultureResult result{DatabaseSolution(options_.num_partitions, 0), 0, 0, 0, 0};

  auto model_cost = [&](const EvalResult& ev) {
    double dist = ev.cost();
    double avg_extra =
        ev.distributed_txns == 0
            ? 0.0
            : static_cast<double>(ev.partitions_touched) /
                      static_cast<double>(ev.distributed_txns) -
                  1.0;
    return dist * (1.0 + options_.touch_weight * avg_extra) *
           (1.0 + options_.skew_weight * ev.LoadSkew());
  };

  std::unique_ptr<ThreadPool> pool;
  if (ThreadPool::ResolveThreads(options_.num_threads) > 1) {
    pool = std::make_unique<ThreadPool>(options_.num_threads);
  }

  // Incremental scoring state: the incumbent design stays fully evaluated in
  // the delta evaluator; trials (one changed table) rescan only that table's
  // affected transactions. `base_design` tracks which design the evaluator
  // is rebased on so unchanged incumbents skip the re-evaluation entirely.
  const FlatTrace flat = FlatTrace::FromTrace(sample);
  DeltaEvaluator delta_eval(db, &flat, pool.get());
  delta_eval.set_self_check(options_.delta_self_check);
  Design base_design = design;

  double best_plain = 0.0;
  double best_cost = 0.0;
  {
    const EvalResult& ev = delta_eval.Rebase(materialize(design));
    ++result.evaluations;
    best_plain = ev.cost();
    best_cost = model_cost(ev);
  }

  std::mt19937_64 rng(options_.seed);
  for (int round = 0; round < options_.rounds; ++round) {
    if (partitioned.empty()) break;
    // One large-neighborhood-search round: relax, re-optimize, maybe accept.
    JECB_SPAN2("horticulture", "lns.round", "round", round, "relaxed",
               options_.relax_tables);
    // Relax a few tables and exhaustively re-optimize them one at a time
    // (coordinate descent within the relaxed neighborhood).
    std::vector<TableId> relaxed;
    for (int i = 0; i < options_.relax_tables; ++i) {
      relaxed.push_back(partitioned[rng() % partitioned.size()]);
    }
    Design current = design;
    double current_cost = best_cost;
    double current_plain = best_plain;
    for (TableId t : relaxed) {
      const Table& meta = schema.table(t);
      // Score the whole neighborhood of table t concurrently: every trial
      // differs from `current` only at t, so the evaluations are
      // independent. The reduction walks trials in column order with the
      // serial loop's strict-improvement rule, so the chosen column (and
      // therefore the search trajectory) matches the serial path exactly.
      std::vector<int32_t> trial_cols;
      for (int32_t c = -1; c < static_cast<int32_t>(meta.columns.size()); ++c) {
        if (c != current[t]) trial_cols.push_back(c);
      }
      std::vector<double> trial_cost(trial_cols.size(), 0.0);
      std::vector<double> trial_plain(trial_cols.size(), 0.0);
      if (current != base_design) {
        delta_eval.Rebase(materialize(current));
        base_design = current;
      }
      ParallelFor(
          pool.get(), trial_cols.size(),
          [&](size_t i) {
            Design trial = current;
            trial[t] = trial_cols[i];
            const std::array<TableId, 1> changed = {t};
            const EvalResult ev =
                delta_eval.EvaluateCandidate(materialize(trial), changed);
            trial_plain[i] = ev.cost();
            trial_cost[i] = model_cost(ev);
          },
          "horticulture.trials");
      result.evaluations += static_cast<int>(trial_cols.size());
      int32_t best_choice = current[t];
      for (size_t i = 0; i < trial_cols.size(); ++i) {
        if (trial_cost[i] < current_cost) {
          current_cost = trial_cost[i];
          current_plain = trial_plain[i];
          best_choice = trial_cols[i];
        }
      }
      current[t] = best_choice;
    }
    if (current_cost < best_cost) {
      best_cost = current_cost;
      best_plain = current_plain;
      design = current;
    }
  }

  result.solution = materialize(design);
  result.train_cost = best_plain;
  result.model_cost = best_cost;
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  MetricsRegistry::Default().AddCounter("horticulture_evaluations_total",
                                        static_cast<uint64_t>(result.evaluations));
  MetricsRegistry::Default().SetGauge("horticulture_partition_seconds",
                                      result.elapsed_seconds);
  return result;
}

}  // namespace jecb
