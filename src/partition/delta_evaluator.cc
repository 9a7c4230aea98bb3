#include "partition/delta_evaluator.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"

namespace jecb {

namespace {

constexpr const char* kCandidatesTotal = "jecb_delta_candidates_total";
constexpr const char* kAffectedTotal = "jecb_delta_affected_txns_total";
constexpr const char* kNoopTotal = "jecb_delta_noop_candidates_total";
constexpr const char* kFullRescanTotal = "jecb_delta_full_rescans_total";
constexpr const char* kRebasesTotal = "jecb_delta_rebases_total";

}  // namespace

/// RAII lease on one scratch partition mirror from the shared pool. The pool
/// caps live mirrors at the number of concurrent EvaluateCandidate calls, so
/// the O(dictionary) copy amortizes to once per worker per rebase epoch.
class DeltaEvaluator::ScratchLease {
 public:
  explicit ScratchLease(const DeltaEvaluator* ev) : ev_(ev) {
    std::lock_guard<std::mutex> g(ev_->scratch_mu_);
    if (!ev_->scratch_pool_.empty()) {
      scratch_ = std::move(ev_->scratch_pool_.back());
      ev_->scratch_pool_.pop_back();
    }
    if (scratch_ == nullptr) scratch_ = std::make_unique<Scratch>();
  }
  ~ScratchLease() {
    std::lock_guard<std::mutex> g(ev_->scratch_mu_);
    ev_->scratch_pool_.push_back(std::move(scratch_));
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  Scratch& operator*() const { return *scratch_; }

 private:
  const DeltaEvaluator* ev_;
  std::unique_ptr<Scratch> scratch_ = nullptr;
};

DeltaEvaluator::DeltaEvaluator(const Database* db, const FlatTrace* trace,
                               ThreadPool* pool)
    : db_(db), trace_(trace), pool_(pool) {
  const size_t nt = trace_->num_tuples();
  num_tables_ = db_->schema().tables().size();
  for (uint32_t i = 0; i < nt; ++i) {
    num_tables_ = std::max(num_tables_,
                           static_cast<size_t>(trace_->tuple(i).table) + 1);
  }

  table_tuples_.resize(num_tables_);
  for (uint32_t i = 0; i < nt; ++i) {
    table_tuples_[trace_->tuple(i).table].push_back(i);
  }

  // Affected-transaction lists: for each table, the ascending global indices
  // of every transaction touching at least one of its tuples. `last` dedupes
  // within a transaction without a per-txn set.
  std::vector<std::vector<uint32_t>> txns(num_tables_);
  std::vector<uint32_t> last(num_tables_, UINT32_MAX);
  const size_t n = trace_->size();
  for (uint32_t t = 0; t < n; ++t) {
    for (PackedAccess a : trace_->accesses(t)) {
      const TableId tab = trace_->tuple(a.tuple_index()).table;
      if (last[tab] != t) {
        last[tab] = t;
        txns[tab].push_back(t);
      }
    }
  }
  table_txns_.reserve(num_tables_);
  for (size_t tab = 0; tab < num_tables_; ++tab) {
    table_txns_.push_back(
        std::make_shared<const std::vector<uint32_t>>(std::move(txns[tab])));
  }
}

const EvalResult& DeltaEvaluator::Rebase(const DatabaseSolution& base) {
  JECB_SPAN1("eval", "delta.rebase", "txns",
             static_cast<int64_t>(trace_->size()));
  base_.emplace(base);
  base_part_ = ResolvePartitions(*db_, base, *trace_, pool_);
  base_result_ = EvaluateWithPartitions(TraceView(trace_), base_part_,
                                        base.num_partitions(), pool_);
  base_table_.clear();
  base_table_.reserve(num_tables_);
  for (size_t t = 0; t < num_tables_; ++t) {
    base_table_.push_back(std::make_unique<TableBase>());
  }
  ++epoch_;
  MetricsRegistry::Default().AddCounter(kRebasesTotal, 1);
  return base_result_;
}

size_t DeltaEvaluator::AffectedTxns(TableId table) const {
  return table < table_txns_.size() ? table_txns_[table]->size() : 0;
}

const EvalResult& DeltaEvaluator::TableBaseResult(size_t table) const {
  TableBase& entry = *base_table_[table];
  std::lock_guard<std::mutex> g(entry.mu);
  if (!entry.ready) {
    const auto& txns = table_txns_[table];
    entry.result = ScanPartitionRange(
        TraceView::FromSelection(trace_, txns), base_part_,
        trace_->num_classes(), base_->num_partitions(), 0, txns->size());
    entry.ready = true;
  }
  return entry.result;
}

EvalResult DeltaEvaluator::EvaluateCandidate(
    const DatabaseSolution& candidate,
    std::span<const TableId> changed_tables) const {
  if (!base_.has_value() ||
      candidate.num_partitions() != base_->num_partitions()) {
    // No base (or an incomparable one): fall back to the full evaluator.
    return Evaluate(*db_, candidate, *trace_, pool_);
  }

  // Normalize: sorted, deduplicated, and restricted to tables the trace
  // actually touches — a changed table with no accessed tuples cannot move
  // any counter.
  std::vector<TableId> changed(changed_tables.begin(), changed_tables.end());
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  std::erase_if(changed, [&](TableId t) {
    return t >= num_tables_ || table_tuples_[t].empty();
  });

  MetricsRegistry& metrics = MetricsRegistry::Default();
  metrics.AddCounter(kCandidatesTotal, 1);

  EvalResult out;
  if (changed.empty()) {
    metrics.AddCounter(kNoopTotal, 1);
    out = base_result_;
  } else {
    // Affected-transaction selection and its base-side contribution. The
    // single-table case (the overwhelmingly common one) reuses the
    // precomputed list and the lazily cached base contribution.
    std::shared_ptr<const std::vector<uint32_t>> sel;
    EvalResult base_sub;
    if (changed.size() == 1) {
      sel = table_txns_[changed[0]];
      base_sub = TableBaseResult(changed[0]);
    } else {
      // Merge the ascending per-table lists into one deduplicated union.
      std::vector<uint32_t> merged;
      for (TableId t : changed) {
        const std::vector<uint32_t>& add = *table_txns_[t];
        if (add.empty()) continue;
        if (merged.empty()) {
          merged = add;
          continue;
        }
        std::vector<uint32_t> next;
        next.reserve(merged.size() + add.size());
        std::set_union(merged.begin(), merged.end(), add.begin(), add.end(),
                       std::back_inserter(next));
        merged = std::move(next);
      }
      sel = std::make_shared<const std::vector<uint32_t>>(std::move(merged));
      base_sub = ScanPartitionRange(TraceView::FromSelection(trace_, sel),
                                    base_part_, trace_->num_classes(),
                                    base_->num_partitions(), 0, sel->size());
    }

    JECB_SPAN2("eval", "delta.candidate", "affected",
               static_cast<int64_t>(sel->size()), "tables",
               static_cast<int64_t>(changed.size()));
    metrics.AddCounter(kAffectedTotal, sel->size());
    if (sel->size() == trace_->size()) {
      metrics.AddCounter(kFullRescanTotal, 1);
    }

    if (sel->empty()) {
      out = base_result_;
    } else {
      // Patch the scratch mirror with the candidate's placements for the
      // changed tables' tuples, scan the affected selection, restore.
      ScratchLease lease(this);
      Scratch& scratch = *lease;
      if (scratch.epoch != epoch_ || scratch.part.size() != base_part_.size()) {
        scratch.part = base_part_;
        scratch.epoch = epoch_;
      }
      for (TableId t : changed) {
        for (uint32_t idx : table_tuples_[t]) {
          scratch.part[idx] = candidate.PartitionOf(*db_, trace_->tuple(idx));
        }
      }
      EvalResult cand_sub = ScanPartitionRange(
          TraceView::FromSelection(trace_, sel), scratch.part,
          trace_->num_classes(), base_->num_partitions(), 0, sel->size());
      for (TableId t : changed) {
        for (uint32_t idx : table_tuples_[t]) {
          scratch.part[idx] = base_part_[idx];
        }
      }

      out = base_result_;
      out.Subtract(base_sub);
      out.Merge(cand_sub);
    }
  }

  if (self_check_) {
    // The contract, asserted: the delta result must be bit-identical to a
    // full serial re-evaluation of the candidate.
    EvalResult full = Evaluate(*db_, candidate, *trace_);
    if (!(full == out)) {
      std::fprintf(stderr,
                   "FATAL: delta evaluation diverged from full Evaluate "
                   "(delta cost=%f dist=%llu, full cost=%f dist=%llu, "
                   "changed_tables=%zu)\n",
                   out.cost(), static_cast<unsigned long long>(out.distributed_txns),
                   full.cost(), static_cast<unsigned long long>(full.distributed_txns),
                   changed.size());
      std::abort();
    }
  }
  return out;
}

std::vector<TableId> DeltaEvaluator::DiffTables(const DatabaseSolution& a,
                                                const DatabaseSolution& b) {
  std::vector<TableId> changed;
  const size_t n = std::max(a.num_tables(), b.num_tables());
  for (size_t t = 0; t < n; ++t) {
    const TablePartitioner* pa = t < a.num_tables() ? a.Get(static_cast<TableId>(t)) : nullptr;
    const TablePartitioner* pb = t < b.num_tables() ? b.Get(static_cast<TableId>(t)) : nullptr;
    if (pa == pb) continue;  // same object, or both unset
    // Null means replicated (DatabaseSolution::PartitionOf), so null and
    // ReplicatedTable are interchangeable.
    const bool ra = pa == nullptr || dynamic_cast<const ReplicatedTable*>(pa) != nullptr;
    const bool rb = pb == nullptr || dynamic_cast<const ReplicatedTable*>(pb) != nullptr;
    if (ra && rb) continue;
    if (!ra && !rb) {
      const auto* ja = dynamic_cast<const JoinPathPartitioner*>(pa);
      const auto* jb = dynamic_cast<const JoinPathPartitioner*>(pb);
      if (ja != nullptr && jb != nullptr && ja->path() == jb->path() &&
          &ja->mapping() == &jb->mapping()) {
        continue;  // same path and the same mapping object: identical placement
      }
    }
    changed.push_back(static_cast<TableId>(t));
  }
  return changed;
}

}  // namespace jecb
