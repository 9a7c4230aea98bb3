#include "jecb/class_partitioner.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "graph/graph.h"
#include "graph/partitioner.h"
#include "obs/metrics_registry.h"

namespace jecb {

namespace {

/// Resolves one join tree's root values for the SoA accesses of a FlatTrace
/// through the class's shared JoinPathResolver. Construction binds each
/// covered table to its shared path handle once, so the per-access hot path
/// is an array index plus a foreign-key array walk.
class TreeResolver {
 public:
  TreeResolver(const Database& db, const FlatTrace& flat, const JoinTree& tree,
               JoinPathResolver* resolver)
      : flat_(flat), per_table_(db.schema().num_tables(), nullptr) {
    for (const auto& [table, path] : tree.paths) {
      per_table_[table] = resolver->Cache(path);
    }
  }

  bool Touches(uint32_t txn) const {
    for (const PackedAccess a : flat_.accesses(txn)) {
      if (per_table_[flat_.tuple(a.tuple_index()).table] != nullptr) return true;
    }
    return false;
  }

  /// Collects the distinct root values of a transaction's covered accesses,
  /// in access order. Returns false when any path resolution fails; stops
  /// early once more than `max_values` values are collected (the caller
  /// treats that as a violation).
  bool Collect(uint32_t txn, size_t max_values, std::vector<Value>* out) {
    out->clear();
    for (const PackedAccess a : flat_.accesses(txn)) {
      const TupleId tuple = flat_.tuple(a.tuple_index());
      const JoinPathResolver::PathCache* cache = per_table_[tuple.table];
      if (cache == nullptr) continue;
      const Value* v = cache->Resolve(tuple.row);
      if (v == nullptr) return false;
      if (std::find(out->begin(), out->end(), *v) == out->end()) {
        out->push_back(*v);
        if (out->size() > max_values) return true;  // caller treats as violation
      }
    }
    return true;
  }

 private:
  const FlatTrace& flat_;
  std::vector<const JoinPathResolver::PathCache*> per_table_;
};

/// Compacted, class-local copy of one training view's accesses, built once
/// per class and scanned once per enumerated tree. Three layout choices make
/// the Definition-7 fit scan sequential and cache-resident:
///   - accesses are copied back-to-back in view order (the global FlatTrace
///     scatters a class's transactions across the whole trace);
///   - each access carries its table id inline (no tuple-dictionary chase);
///   - tuple indices are renumbered to a dense class-local id space, so the
///     per-path value-id arrays cover only tuples this class touches and
///     stay small enough to live in cache across thousands of scans.
class ClassSlice {
 public:
  explicit ClassSlice(const TraceView& view) {
    const FlatTrace& flat = view.trace();
    std::vector<uint32_t> local_of(flat.num_tuples(), UINT32_MAX);
    offsets_.reserve(view.size() + 1);
    offsets_.push_back(0);
    for (size_t i = 0; i < view.size(); ++i) {
      for (const PackedAccess a : flat.accesses(view.txn(i))) {
        const uint32_t ti = a.tuple_index();
        uint32_t lt = local_of[ti];
        if (lt == UINT32_MAX) {
          lt = static_cast<uint32_t>(global_tuple_.size());
          local_of[ti] = lt;
          global_tuple_.push_back(ti);
          tuple_table_.push_back(flat.tuple(ti).table);
        }
        acc_tuple_.push_back(lt);
        acc_table_.push_back(tuple_table_[lt]);
      }
      offsets_.push_back(static_cast<uint32_t>(acc_tuple_.size()));
    }
  }

  /// Class-local tuple ids of one table, ascending (first-touch order).
  std::vector<uint32_t> TuplesOfTable(TableId table) const {
    std::vector<uint32_t> out;
    for (uint32_t lt = 0; lt < num_tuples(); ++lt) {
      if (tuple_table_[lt] == table) out.push_back(lt);
    }
    return out;
  }

  size_t num_txns() const { return offsets_.size() - 1; }
  uint32_t num_tuples() const {
    return static_cast<uint32_t>(global_tuple_.size());
  }
  uint32_t begin(size_t t) const { return offsets_[t]; }
  uint32_t end(size_t t) const { return offsets_[t + 1]; }
  TableId table(uint32_t j) const { return acc_table_[j]; }
  uint32_t tuple(uint32_t j) const { return acc_tuple_[j]; }
  uint32_t global_tuple(uint32_t lt) const { return global_tuple_[lt]; }
  TableId tuple_table(uint32_t lt) const { return tuple_table_[lt]; }

 private:
  std::vector<uint32_t> offsets_;       // per txn [begin, end) into accesses
  std::vector<uint32_t> acc_tuple_;     // per access: class-local tuple id
  std::vector<TableId> acc_table_;      // per access: table id
  std::vector<uint32_t> global_tuple_;  // local tuple id -> FlatTrace index
  std::vector<TableId> tuple_table_;    // local tuple id -> table
};

/// Dense integer view of join-path resolutions for one class: per distinct
/// path, one value id per class-local tuple, drawn from one shared
/// dictionary so id equality is Value equality across *different* paths of
/// the same tree. An array fills eagerly the first time a tree uses its path
/// (every slice tuple of the source table is scanned by any tree covering
/// that table, so nothing is resolved speculatively).
class ValueIdScan {
 public:
  // Ids: kFailed marks a resolution failure (dangling FK); real value ids
  // start at kFirstId so 0 stays free as the scan's "no value yet" state.
  static constexpr uint32_t kFailed = 1;
  static constexpr uint32_t kFirstId = 2;

  ValueIdScan(const Database& db, const FlatTrace& flat, const ClassSlice* slice,
              JoinPathResolver* resolver)
      : db_(db), flat_(flat), slice_(slice), resolver_(resolver) {}

  /// The id array of `path` (one slot per class-local tuple; slots of other
  /// tables stay 0 and are never read). The fill walks each source tuple's
  /// hop chain through the foreign-key arrays, then maps the final
  /// (destination column, row) to a value id through a per-column array
  /// indexed by row — the Value itself is hashed into the shared dictionary
  /// only once per distinct destination row, not once per source tuple.
  const std::vector<uint32_t>* Ids(const JoinPath& path) {
    auto [it, fresh] = arrays_.try_emplace(resolver_->Cache(path));
    if (fresh) {
      std::vector<uint32_t>& ids = it->second;
      ids.assign(slice_->num_tuples(), 0);
      const uint64_t col_key = (static_cast<uint64_t>(path.dest.table) << 32) |
                               path.dest.column;
      std::vector<uint32_t>& col_ids = column_ids_[col_key];  // 0 = no id yet
      if (col_ids.empty()) col_ids.assign(db_.table_data(path.dest.table).num_rows(), 0);
      for (uint32_t lt : slice_->TuplesOfTable(path.source_table)) {
        const RowId dest = path.DestRow(db_, flat_.tuple(slice_->global_tuple(lt)).row);
        if (dest == kNoRow) {
          ids[lt] = kFailed;
          continue;
        }
        uint32_t& id = col_ids[dest];
        if (id == 0) {
          const Value& v = db_.GetValue({path.dest.table, dest}, path.dest.column);
          const uint32_t next = kFirstId + static_cast<uint32_t>(dict_.size());
          id = dict_.try_emplace(v, next).first->second;
        }
        ids[lt] = id;
      }
    }
    return &it->second;
  }

  /// Canonical per-class identity of `path` (the resolver dedups by path
  /// equality), usable as an exact memo key component.
  const void* PathKey(const JoinPath& path) { return resolver_->Cache(path); }

 private:
  const Database& db_;
  const FlatTrace& flat_;
  const ClassSlice* slice_;
  JoinPathResolver* resolver_;
  std::unordered_map<Value, uint32_t, ValueHashFunctor> dict_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> column_ids_;  // (table, col) -> row -> id
  std::unordered_map<JoinPathResolver::PathCache*, std::vector<uint32_t>> arrays_;
};

}  // namespace

/// The trace scans Phase 2 runs over one class: the training and holdout
/// views plus the class's shared join-path resolver. One Phase-2 task owns
/// one FlatScan, so its mutable caches need no locking.
class FlatScan {
 public:
  FlatScan(const Database& db, TraceView train, TraceView holdout,
           JoinPathResolver* resolver, bool self_check)
      : db_(db), train_(train), holdout_(holdout), resolver_(resolver),
        self_check_(self_check) {}

  bool TrainEmpty() const { return train_.empty(); }

  /// Definition-7 fit of `tree` over the training view. Phase 2 measures
  /// every enumerated tree — by far the hottest loop of the pipeline
  /// (thousands of scans per workload) — so two exact accelerations replace
  /// the plain MeasureTreeFit scan:
  ///  1. A memo keyed by the tree's canonical path set: the fit depends only
  ///     on tree.paths (the root merely names the destination attribute the
  ///     paths already encode), so equal path sets must score equally.
  ///  2. On a miss, a sequential integer scan of the compacted ClassSlice
  ///     against per-path value-id arrays, instead of a hash probe + Value
  ///     comparison per access.
  /// Both reproduce MeasureTreeFit's counts exactly: id equality is Value
  /// equality, and the early exits only skip accesses that cannot change the
  /// per-transaction verdict. With `self_check`, every fit is re-measured by
  /// MeasureTreeFit and a mismatch aborts the process.
  TreeFit MeasureFit(const JoinTree& tree) const {
    MetricsRegistry::Default().AddCounter("jecb_phase2_fit_scans_total", 1);
    std::vector<std::pair<TableId, const void*>> key;
    key.reserve(tree.paths.size());
    for (const auto& [t, path] : tree.paths) {
      key.emplace_back(t, id_scan().PathKey(path));  // paths is a std::map: sorted
    }
    TreeFit fit;
    auto memo = fit_memo_.find(key);
    if (memo != fit_memo_.end()) {
      MetricsRegistry::Default().AddCounter("jecb_phase2_fit_memo_hits_total", 1);
      fit = memo->second;
    } else {
      fit = ScanFit(tree);
      fit_memo_.emplace(std::move(key), fit);
    }
    if (self_check_) {
      const TreeFit full = MeasureTreeFit(db_, tree, train_, resolver_);
      if (!(full == fit)) {
        std::fprintf(stderr,
                     "FATAL: Phase-2 fit diverged from MeasureTreeFit "
                     "(fit txns=%llu violations=%llu, full txns=%llu "
                     "violations=%llu, paths=%zu)\n",
                     static_cast<unsigned long long>(fit.txns),
                     static_cast<unsigned long long>(fit.violations),
                     static_cast<unsigned long long>(full.txns),
                     static_cast<unsigned long long>(full.violations),
                     tree.paths.size());
        std::abort();
      }
    }
    return fit;
  }

  /// Calls `fn` once per training transaction whose covered accesses all
  /// resolve to a non-empty set of at most `max_values` distinct root
  /// values (the statistics-fallback gathering pass).
  void ForEachTrainValueSet(
      const JoinTree& tree, size_t max_values,
      const std::function<void(const std::vector<Value>&)>& fn) const {
    TreeResolver eval(db_, train_.trace(), tree, resolver_);
    std::vector<Value> values;
    for (size_t i = 0; i < train_.size(); ++i) {
      if (!eval.Collect(train_.txn(i), max_values, &values)) continue;
      if (values.empty() || values.size() > max_values) continue;
      fn(values);
    }
  }

  /// Distributed fraction of each mapping over the validation view (holdout
  /// when non-empty, train otherwise). Root-value resolution is
  /// mapping-independent, so each transaction's values are collected once
  /// and reused for every mapping.
  std::vector<double> CostMappings(
      const JoinTree& tree, size_t max_values,
      const std::vector<const MappingFunction*>& mappings) const {
    const TraceView& validation = holdout_.empty() ? train_ : holdout_;
    TreeResolver eval(db_, validation.trace(), tree, resolver_);
    std::vector<Value> values;
    uint64_t total = 0;
    std::vector<uint64_t> distributed(mappings.size(), 0);
    for (size_t i = 0; i < validation.size(); ++i) {
      const uint32_t txn = validation.txn(i);
      if (!eval.Touches(txn)) continue;
      ++total;
      if (!eval.Collect(txn, max_values, &values) || values.size() > max_values) {
        for (uint64_t& d : distributed) ++d;
        continue;
      }
      for (size_t m = 0; m < mappings.size(); ++m) {
        int32_t part = kUnknownPartition;
        for (const Value& v : values) {
          const int32_t p = mappings[m]->Map(v);
          if (part == kUnknownPartition) {
            part = p;
          } else if (p != part) {
            ++distributed[m];
            break;
          }
        }
      }
    }
    std::vector<double> costs(mappings.size(), 0.0);
    for (size_t m = 0; m < mappings.size(); ++m) {
      costs[m] = total == 0 ? 0.0
                            : static_cast<double>(distributed[m]) /
                                  static_cast<double>(total);
    }
    return costs;
  }

 private:
  /// The value-id scan of one tree over the compacted training slice.
  TreeFit ScanFit(const JoinTree& tree) const {
    MetricsRegistry::Default().AddCounter("jecb_phase2_fit_txns_total",
                                          train_.size());
    std::vector<const uint32_t*> ids_of(db_.schema().num_tables(), nullptr);
    for (const auto& [t, path] : tree.paths) {
      ids_of[t] = id_scan().Ids(path)->data();
    }
    const ClassSlice& slice = *slice_;
    TreeFit fit;
    for (size_t t = 0; t < slice.num_txns(); ++t) {
      uint32_t first = 0;
      bool touched = false;
      bool violation = false;
      const uint32_t end = slice.end(t);
      for (uint32_t j = slice.begin(t); j < end; ++j) {
        const uint32_t* ids = ids_of[slice.table(j)];
        if (ids == nullptr) continue;
        touched = true;
        const uint32_t id = ids[slice.tuple(j)];
        if (id == ValueIdScan::kFailed) {
          violation = true;
          break;
        }
        if (first == 0) {
          first = id;
        } else if (id != first) {
          violation = true;
          break;
        }
      }
      if (!touched) continue;
      ++fit.txns;
      if (violation) ++fit.violations;
    }
    return fit;
  }

  // Slice + id arrays build lazily on the first fit scan.
  ValueIdScan& id_scan() const {
    if (slice_ == nullptr) {
      slice_ = std::make_unique<ClassSlice>(train_);
      id_scan_.emplace(db_, train_.trace(), slice_.get(), resolver_);
    }
    return *id_scan_;
  }

  const Database& db_;
  TraceView train_;
  TraceView holdout_;
  JoinPathResolver* resolver_;
  const bool self_check_;
  mutable std::unique_ptr<ClassSlice> slice_;
  mutable std::optional<ValueIdScan> id_scan_;
  mutable std::map<std::vector<std::pair<TableId, const void*>>, TreeFit> fit_memo_;
};

std::string_view SolutionTierToString(SolutionTier tier) {
  switch (tier) {
    case SolutionTier::kMappingIndependent:
      return "mapping-independent";
    case SolutionTier::kQuasiIndependent:
      return "quasi-independent";
    case SolutionTier::kStatistics:
      return "statistics";
  }
  return "?";
}

TreeFit MeasureTreeFit(const Database& db, const JoinTree& tree,
                       const TraceView& view, JoinPathResolver* resolver) {
  TreeFit fit;
  TreeResolver eval(db, view.trace(), tree, resolver);
  std::vector<Value> values;
  for (size_t i = 0; i < view.size(); ++i) {
    const uint32_t txn = view.txn(i);
    if (!eval.Touches(txn)) continue;
    ++fit.txns;
    if (!eval.Collect(txn, 1, &values) || values.size() > 1) ++fit.violations;
  }
  return fit;
}

bool IsCoarserTree(const AttributeLattice& lattice, const JoinTree& a,
                   const JoinTree& b) {
  if (a.Tables() != b.Tables()) return false;
  bool any_longer = false;
  for (const auto& [t, pb] : b.paths) {
    const JoinPath& pa = a.paths.at(t);
    if (!pb.HopsArePrefixOf(pa)) return false;
    if (pa.length() > pb.length()) any_longer = true;
  }
  if (lattice.IsCoarser(a.root, b.root)) return true;
  return any_longer && lattice.Equivalent(a.root, b.root);
}

Result<ClassSolution> ClassPartitioner::StatsFallback(const JoinTree& tree,
                                                      const FlatScan& scan) const {
  // Gather per-transaction root value sets (one shared resolution pass).
  std::vector<std::vector<Value>> txn_values;
  std::unordered_map<Value, NodeId, ValueHashFunctor> node_of;
  std::vector<Value> node_values;
  int64_t min_int = INT64_MAX;
  int64_t max_int = INT64_MIN;
  scan.ForEachTrainValueSet(
      tree, options_.max_values_per_txn, [&](const std::vector<Value>& values) {
        for (const Value& v : values) {
          if (node_of.emplace(v, static_cast<NodeId>(node_values.size())).second) {
            node_values.push_back(v);
          }
          if (v.is_int()) {
            min_int = std::min(min_int, v.AsInt());
            max_int = std::max(max_int, v.AsInt());
          }
        }
        txn_values.push_back(values);
      });
  if (node_values.empty()) {
    return Status::NotFound("no root values observed for statistics fallback");
  }

  // Co-access graph over root values; min-cut partitioning (Sec. 5.3).
  GraphBuilder builder(node_values.size(), 0);
  for (const auto& vs : txn_values) {
    for (const Value& v : vs) builder.AddNodeWeight(node_of[v], 1);
    for (size_t i = 0; i < vs.size(); ++i) {
      for (size_t j = i + 1; j < vs.size(); ++j) {
        builder.AddEdge(node_of[vs[i]], node_of[vs[j]], 1);
      }
    }
  }
  Graph g = builder.Build();
  GraphPartitionOptions gopt;
  gopt.num_parts = options_.num_partitions;
  gopt.seed = options_.seed;
  std::vector<int32_t> assignment = PartitionGraph(g, gopt);
  std::unordered_map<Value, int32_t, ValueHashFunctor> lookup;
  for (NodeId n = 0; n < node_values.size(); ++n) {
    lookup.emplace(node_values[n], assignment[n]);
  }
  auto lookup_mapping =
      std::make_shared<LookupMapping>(options_.num_partitions, std::move(lookup));
  HashMapping hash_mapping(options_.num_partitions);
  RangeMapping range_mapping(options_.num_partitions,
                             min_int == INT64_MAX ? 0 : min_int,
                             max_int == INT64_MIN ? 1 : max_int);

  // One validation pass costs all three mapping candidates: the root-value
  // resolution is mapping-independent, so lookup/hash/range share it
  // instead of each resolving the validation view again.
  const std::vector<double> costs =
      scan.CostMappings(tree, options_.max_values_per_txn,
                        {lookup_mapping.get(), &hash_mapping, &range_mapping});
  const double lookup_cost = costs[0];
  const double hash_cost = costs[1];
  const double range_cost = costs[2];

  ClassSolution sol;
  sol.tree = tree;
  sol.tier = SolutionTier::kStatistics;
  // The min-cut mapping is meaningful only when it beats hash AND range.
  if (lookup_cost < hash_cost && lookup_cost < range_cost) {
    sol.mapping = lookup_mapping;
    sol.class_cost = lookup_cost;
    sol.violation_fraction = lookup_cost;
    return sol;
  }
  // Documented extension: a range mapping that keeps the class almost
  // entirely local (date-window locality) is accepted at the quasi tier.
  if (options_.enable_range_quasi && range_cost <= options_.quasi_tolerance &&
      range_cost < hash_cost) {
    sol.mapping = std::make_shared<RangeMapping>(range_mapping);
    sol.class_cost = range_cost;
    sol.violation_fraction = range_cost;
    return sol;
  }
  return Status::NotFound("no meaningful mapping function");
}

std::vector<ClassSolution> ClassPartitioner::SolveGraph(const JoinGraph& graph,
                                                        const FlatScan& scan,
                                                        bool as_total, int depth) const {
  std::vector<ClassSolution> out;
  if (graph.partitioned_tables.empty()) return out;

  std::vector<ColumnRef> roots = FindRootAttributes(schema(), graph, *lattice_);

  if (roots.empty()) {
    // Case 2 (Sec. 5.2): split and recurse for partial solutions.
    if (depth >= 3) return out;
    std::vector<JoinGraph> parts = SplitGraph(schema(), graph);
    if (parts.size() <= 1) return out;
    for (const JoinGraph& part : parts) {
      auto partial = SolveGraph(part, scan, /*as_total=*/false, depth + 1);
      for (auto& s : partial) out.push_back(std::move(s));
    }
    return out;
  }

  // Tier 1: exact mapping-independent trees across all roots.
  struct Scored {
    JoinTree tree;
    double violation = 0.0;
  };
  std::vector<Scored> mi_trees;
  std::vector<Scored> all_trees;
  for (ColumnRef root : roots) {
    auto trees = EnumerateTrees(schema(), graph, *lattice_, root,
                                graph.partitioned_tables, options_.tree_enum);
    for (auto& tree : trees) {
      TreeFit fit = scan.MeasureFit(tree);
      double viol = fit.violation_fraction();
      if (fit.txns == 0) continue;
      if (fit.violations == 0) {
        mi_trees.push_back({tree, 0.0});
      }
      all_trees.push_back({std::move(tree), viol});
    }
  }

  // Eliminate coarser compatible MI trees (keep the finer; Sec. 5.3).
  std::vector<bool> dead(mi_trees.size(), false);
  for (size_t i = 0; i < mi_trees.size(); ++i) {
    for (size_t j = 0; j < mi_trees.size(); ++j) {
      if (i == j || dead[i] || dead[j]) continue;
      if (IsCoarserTree(*lattice_, mi_trees[i].tree, mi_trees[j].tree)) {
        dead[i] = true;
      }
    }
  }
  for (size_t i = 0; i < mi_trees.size(); ++i) {
    if (dead[i]) continue;
    ClassSolution sol;
    sol.tree = mi_trees[i].tree;
    sol.total = as_total;
    sol.tier = SolutionTier::kMappingIndependent;
    sol.class_cost = 0.0;
    out.push_back(std::move(sol));
  }
  if (!out.empty()) return out;

  // Tier 2: best quasi-independent tree.
  std::sort(all_trees.begin(), all_trees.end(),
            [](const Scored& a, const Scored& b) { return a.violation < b.violation; });
  if (options_.quasi_tolerance > 0.0 && !all_trees.empty() &&
      all_trees.front().violation <= options_.quasi_tolerance) {
    ClassSolution sol;
    sol.tree = all_trees.front().tree;
    sol.total = as_total;
    sol.tier = SolutionTier::kQuasiIndependent;
    sol.violation_fraction = all_trees.front().violation;
    sol.class_cost = sol.violation_fraction;  // upper bound; mapping-agnostic
    out.push_back(std::move(sol));
    return out;
  }

  // Tier 3: statistics fallback on the least-violating tree per root.
  if (options_.enable_stats_fallback) {
    std::set<std::string> tried_roots;
    for (const Scored& scored : all_trees) {
      std::string key = schema().QualifiedName(scored.tree.root);
      if (!tried_roots.insert(key).second) continue;
      Result<ClassSolution> sol = StatsFallback(scored.tree, scan);
      if (sol.ok()) {
        ClassSolution s = std::move(sol).value();
        s.total = as_total;
        out.push_back(std::move(s));
      }
    }
  }
  return out;
}

ClassPartitioningResult ClassPartitioner::Partition(const JoinGraph& graph,
                                                    const TraceView& class_view,
                                                    JoinPathResolver* resolver,
                                                    const std::string& name,
                                                    uint32_t class_id,
                                                    double mix_fraction) const {
  auto [train, holdout] = class_view.SplitTrainTest(options_.holdout_fraction);
  const FlatScan scan(*db_, train, holdout, resolver, options_.delta_self_check);
  ClassPartitioningResult result;
  result.class_name = name;
  result.class_id = class_id;
  result.mix_fraction = mix_fraction;
  result.read_only = graph.partitioned_tables.empty();

  if (scan.TrainEmpty()) return result;

  result.total_solutions = SolveGraph(graph, scan, /*as_total=*/true, /*depth=*/0);

  // Some of the "total" solutions may actually be partial (Case-2 splits
  // mark as_total=false and land here with total == false).
  {
    std::vector<ClassSolution> totals, partials;
    for (auto& s : result.total_solutions) {
      (s.total ? totals : partials).push_back(std::move(s));
    }
    result.total_solutions = std::move(totals);
    result.partial_solutions = std::move(partials);
  }

  // Partial solutions from sub-join trees (Sec. 5.3): candidate attributes
  // reachable from a proper subset of the partitioned tables.
  if (options_.enable_partial_solutions && !result.total_solutions.empty()) {
    std::map<TableId, std::set<TableId>> reach;
    for (TableId t : graph.partitioned_tables) {
      reach[t] = ReachableTables(schema(), graph, t);
    }
    std::vector<ClassSolution> partials;
    for (ColumnRef c : graph.candidate_attrs) {
      // Skip attributes equivalent to a total-solution root.
      bool is_root = false;
      for (const auto& total : result.total_solutions) {
        if (lattice_->Equivalent(c, total.tree.root)) {
          is_root = true;
          break;
        }
      }
      if (is_root) continue;
      std::set<TableId> cover;
      for (TableId t : graph.partitioned_tables) {
        if (reach[t].count(c.table) > 0) cover.insert(t);
      }
      if (cover.empty() || cover == graph.partitioned_tables) continue;
      auto trees = EnumerateTrees(schema(), graph, *lattice_, c, cover,
                                  options_.tree_enum);
      for (auto& tree : trees) {
        TreeFit fit = scan.MeasureFit(tree);
        if (fit.txns == 0 || fit.violations != 0) continue;
        ClassSolution sol;
        sol.tree = std::move(tree);
        sol.total = false;
        sol.tier = SolutionTier::kMappingIndependent;
        partials.push_back(std::move(sol));
      }
    }
    // Keep the finer of compatible partials.
    std::vector<bool> dead(partials.size(), false);
    for (size_t i = 0; i < partials.size(); ++i) {
      for (size_t j = 0; j < partials.size(); ++j) {
        if (i == j || dead[i] || dead[j]) continue;
        if (IsCoarserTree(*lattice_, partials[i].tree, partials[j].tree)) {
          dead[i] = true;
        }
      }
    }
    for (size_t i = 0; i < partials.size(); ++i) {
      if (!dead[i]) result.partial_solutions.push_back(std::move(partials[i]));
    }
  }
  return result;
}

}  // namespace jecb
