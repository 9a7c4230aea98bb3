#include "jecb/combiner.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>

#include "partition/delta_evaluator.h"

namespace jecb {

namespace {

/// Definition 13: compatibility of two realized join paths from the same
/// table. `a` compatible-with `b` when one's hops prefix the other's and the
/// destination attributes are compatible.
bool PathsCompatible(const AttributeLattice& lattice, const JoinPath& a,
                     const JoinPath& b) {
  const JoinPath& shorter = a.length() <= b.length() ? a : b;
  const JoinPath& longer = a.length() <= b.length() ? b : a;
  if (!shorter.HopsArePrefixOf(longer)) return false;
  return lattice.Compatible(a.dest, b.dest);
}

/// Order for "coarser" between two compatible candidates: prefer the one
/// whose destination attribute is coarser; with equal granularity, the
/// longer-hopped path realizes the coarser tree.
bool CandidateCoarser(const AttributeLattice& lattice, const TableSolutionCandidate& x,
                      const TableSolutionCandidate& y) {
  if (lattice.IsCoarser(x.attr(), y.attr())) return true;
  if (lattice.IsCoarser(y.attr(), x.attr())) return false;
  return x.path.length() > y.path.length();
}

}  // namespace

Result<DatabaseSolution> Combiner::Combine(
    const std::vector<ClassPartitioningResult>& classes, const Trace& train,
    CombinerReport* report, ThreadPool* pool, const FlatTrace* flat) const {
  std::optional<FlatTrace> own_flat;
  if (flat == nullptr) flat = &own_flat.emplace(FlatTrace::FromTrace(train));
  CombinerReport local_report;
  CombinerReport& rep = report != nullptr ? *report : local_report;

  const DistributedFractionCost default_cost;
  const CostModel& cost_model =
      options_.cost_model != nullptr ? *options_.cost_model : default_cost;

  // Gather per-table candidates from every class solution.
  std::map<TableId, std::vector<TableSolutionCandidate>> candidates;
  for (const auto& cls : classes) {
    auto add_solutions = [&](const std::vector<ClassSolution>& sols) {
      for (const ClassSolution& sol : sols) {
        for (const auto& [table, path] : sol.tree.paths) {
          TableSolutionCandidate cand;
          cand.table = table;
          cand.path = path;
          cand.tier = sol.tier;
          cand.mapping = sol.mapping;
          candidates[table].push_back(std::move(cand));
        }
      }
    };
    add_solutions(cls.total_solutions);
    add_solutions(cls.partial_solutions);
  }

  std::vector<TableId> partitioned;
  for (const Table& t : schema().tables()) {
    if (t.access_class == AccessClass::kPartitioned) partitioned.push_back(t.id);
  }

  // Deduplicate identical candidates; account the naive search-space size
  // (every candidate plus replication, per table, multiplied out).
  rep.naive_search_space = 1.0;
  for (TableId t : partitioned) {
    auto& cands = candidates[t];
    std::sort(cands.begin(), cands.end(),
              [](const TableSolutionCandidate& a, const TableSolutionCandidate& b) {
                return std::tie(a.path.hops, a.path.dest) <
                       std::tie(b.path.hops, b.path.dest);
              });
    cands.erase(std::unique(cands.begin(), cands.end(),
                            [](const TableSolutionCandidate& a,
                               const TableSolutionCandidate& b) {
                              return a.path == b.path;
                            }),
                cands.end());
    rep.naive_search_space *= static_cast<double>(cands.size() + 1);
  }

  // Step 1: candidate partitioning attributes — solution roots, deduplicated
  // by equivalence, keeping the coarser of compatible pairs.
  std::vector<ColumnRef> attrs;
  for (const auto& [t, cands] : candidates) {
    for (const auto& c : cands) {
      bool merged = false;
      for (ColumnRef& existing : attrs) {
        if (lattice_->Equivalent(existing, c.attr())) {
          merged = true;
          break;
        }
        if (lattice_->IsCoarser(existing, c.attr())) {
          merged = true;  // keep the existing, coarser one
          break;
        }
        if (lattice_->IsCoarser(c.attr(), existing)) {
          existing = c.attr();  // replace by the coarser newcomer
          merged = true;
          break;
        }
      }
      if (!merged) attrs.push_back(c.attr());
    }
  }
  for (ColumnRef a : attrs) rep.candidate_attrs.push_back(schema().QualifiedName(a));

  if (attrs.empty()) {
    // Nothing partitionable: replicate everything.
    DatabaseSolution solution(options_.num_partitions, schema().num_tables());
    auto replicated = std::make_shared<ReplicatedTable>();
    for (size_t t = 0; t < schema().num_tables(); ++t) {
      solution.Set(static_cast<TableId>(t), replicated);
    }
    rep.chosen_attr = "(none: full replication)";
    rep.best_train_cost = cost_model.Cost(Evaluate(*db_, solution, *flat, pool));
    return solution;
  }

  // Steps 2 + 3: per candidate attribute, build reduced per-table solution
  // sets, enumerate combinations, and evaluate on the training trace.
  double best_cost = std::numeric_limits<double>::infinity();
  std::unique_ptr<DatabaseSolution> best;
  std::string best_attr;

  // The trace-side delta indexes are attribute-independent: build them once,
  // rebase per candidate attribute.
  DeltaEvaluator delta_eval(db_, flat, pool);
  delta_eval.set_self_check(options_.delta_self_check);

  for (ColumnRef X : attrs) {
    // Reduced solution sets.
    std::map<TableId, std::vector<TableSolutionCandidate>> reduced;
    for (TableId t : partitioned) {
      std::vector<TableSolutionCandidate> set;
      for (const auto& c : candidates[t]) {
        if (!lattice_->Compatible(c.attr(), X) && !lattice_->Equivalent(c.attr(), X)) {
          continue;
        }
        set.push_back(c);
      }
      // Merge compatible pairs (Definition 14): drop the finer.
      std::vector<bool> dead(set.size(), false);
      for (size_t i = 0; i < set.size(); ++i) {
        for (size_t j = i + 1; j < set.size(); ++j) {
          if (dead[i] || dead[j]) continue;
          if (!PathsCompatible(*lattice_, set[i].path, set[j].path)) continue;
          if (CandidateCoarser(*lattice_, set[i], set[j])) {
            dead[j] = true;
          } else {
            dead[i] = true;
          }
        }
      }
      std::vector<TableSolutionCandidate> merged;
      for (size_t i = 0; i < set.size(); ++i) {
        if (!dead[i]) merged.push_back(std::move(set[i]));
      }
      // Extend remaining solutions to X (shortest join path).
      std::vector<TableSolutionCandidate> extended;
      for (auto& c : merged) {
        if (lattice_->Equivalent(c.attr(), X)) {
          extended.push_back(std::move(c));
          continue;
        }
        Result<JoinPath> ext = lattice_->ExtendPath(c.path, X);
        if (!ext.ok()) continue;
        c.path = std::move(ext).value();
        c.mapping.reset();  // the mapping was over the old attribute
        extended.push_back(std::move(c));
      }
      if (extended.empty()) {
        TableSolutionCandidate repl;
        repl.table = t;
        repl.replicate = true;
        extended.push_back(std::move(repl));
      }
      reduced[t] = std::move(extended);
    }

    // Mappings to try: hash always; any learned mapping carried over.
    std::vector<std::shared_ptr<const MappingFunction>> mappings;
    mappings.push_back(std::make_shared<HashMapping>(options_.num_partitions));
    for (const auto& [t, set] : reduced) {
      for (const auto& c : set) {
        if (c.mapping != nullptr) mappings.push_back(c.mapping);
      }
    }

    // Enumerate combinations (odometer over per-table choices), capped.
    // Generation is split from scoring so the candidates can be evaluated
    // concurrently: the descriptors are produced in the legacy odometer
    // order, scored in parallel (each worker builds and drops its own
    // solution), and reduced sequentially by enumeration index — the
    // strict-improvement reduction then picks the same winner as the
    // serial loop, ties and all.
    struct Candidate {
      std::vector<size_t> choice;  // per-partitioned-table solution index
      size_t mapping_idx = 0;
    };
    std::vector<Candidate> combos;
    std::vector<size_t> choice(partitioned.size(), 0);
    while (true) {
      for (size_t m = 0; m < mappings.size(); ++m) {
        combos.push_back({choice, m});
        ++rep.evaluated_combinations;
      }
      // Odometer increment.
      size_t pos = 0;
      while (pos < choice.size()) {
        if (++choice[pos] < reduced[partitioned[pos]].size()) break;
        choice[pos] = 0;
        ++pos;
      }
      if (pos == choice.size()) break;
      if (rep.evaluated_combinations >= options_.max_combinations) break;
    }

    // One partitioner object per (table, choice, mapping), shared by every
    // combination (and worker thread) that picks it, so identical choices
    // materialize to pointer-identical table partitioners (which is what
    // lets the delta evaluator's DiffTables see "unchanged" as a pointer
    // comparison). PartitionOf is a pure function of the tuple, so sharing
    // cannot change any EvalResult.
    auto replicated = std::make_shared<ReplicatedTable>();
    std::vector<std::vector<std::vector<std::shared_ptr<const TablePartitioner>>>>
        shared_parts(partitioned.size());
    for (size_t i = 0; i < partitioned.size(); ++i) {
      const auto& set = reduced[partitioned[i]];
      shared_parts[i].resize(set.size());
      for (size_t c = 0; c < set.size(); ++c) {
        shared_parts[i][c].resize(mappings.size());
        for (size_t m = 0; m < mappings.size(); ++m) {
          shared_parts[i][c][m] =
              set[c].replicate
                  ? std::static_pointer_cast<const TablePartitioner>(replicated)
                  : std::make_shared<JoinPathPartitioner>(set[c].path,
                                                          mappings[m]);
        }
      }
    }

    auto build = [&](const Candidate& cand) {
      DatabaseSolution solution(options_.num_partitions, schema().num_tables());
      for (size_t t = 0; t < schema().num_tables(); ++t) {
        if (schema().table(static_cast<TableId>(t)).access_class !=
            AccessClass::kPartitioned) {
          solution.Set(static_cast<TableId>(t), replicated);
        }
      }
      for (size_t i = 0; i < partitioned.size(); ++i) {
        solution.Set(partitioned[i],
                     shared_parts[i][cand.choice[i]][cand.mapping_idx]);
      }
      return solution;
    };

    // Delta scoring: fully evaluate the first enumerated combination once,
    // then score every combination as base +/- the contribution of the
    // transactions touching tables whose partitioner differs from it.
    // Because solutions share partitioner objects, DiffTables reduces to
    // pointer comparisons for unchanged tables. The odometer always emits
    // at least one combination, so combos[0] exists.
    const DatabaseSolution delta_base = build(combos[0]);
    delta_eval.Rebase(delta_base);

    std::vector<double> costs(combos.size(), 0.0);
    ParallelFor(
        pool, combos.size(),
        [&](size_t i) {
          DatabaseSolution solution = build(combos[i]);
          costs[i] = cost_model.Cost(delta_eval.EvaluateCandidate(
              solution, DeltaEvaluator::DiffTables(delta_base, solution)));
        },
        "combiner.score");
    for (size_t i = 0; i < combos.size(); ++i) {
      if (costs[i] < best_cost) {
        best_cost = costs[i];
        best = std::make_unique<DatabaseSolution>(build(combos[i]));
        best_attr = schema().QualifiedName(X);
      }
    }
  }

  if (best == nullptr) {
    return Status::Internal("combiner evaluated no combinations");
  }
  rep.chosen_attr = best_attr;
  rep.best_train_cost = best_cost;
  for (TableId t : partitioned) {
    const TablePartitioner* p = best->Get(t);
    if (p == nullptr || dynamic_cast<const ReplicatedTable*>(p) != nullptr) {
      rep.replicated_tables.push_back(schema().table(t).name);
    }
  }
  return *best;
}

}  // namespace jecb
