// Columnar (structure-of-arrays) trace layout for the partitioning hot loop.
//
// The Phase-2 search and the evaluator re-scan the same trace thousands of
// times (once per enumerated tree per metric, once per candidate solution).
// The row-oriented Trace — a vector of Transactions, each owning a heap
// vector of Accesses — costs one pointer chase per transaction, and its
// FilterClass/SplitTrainTest/Head helpers deep-copy every access they keep.
//
// FlatTrace stores the same Definition-1 workload as four contiguous arrays:
//   accesses : one PackedAccess (4 bytes) per access, all transactions
//              back to back — a dense tuple-dictionary index plus the
//              write bit in the top bit;
//   offsets  : per-transaction [begin, end) into `accesses` (size n + 1);
//   classes  : per-transaction class id;
//   tuples   : the dictionary — distinct TupleIds in first-touch order,
//              so `accesses` indexes resolve-once side arrays directly
//              (the evaluator's PartitionOf materialization, the
//              resolver's per-path value caches).
//
// TraceView is the zero-copy replacement for the copying helpers: a view
// selects transactions of one FlatTrace either as a contiguous range or
// through a shared selection vector; FilterClass, SplitTrainTest, and Head
// compose without ever touching the access arrays. Views of the same
// FlatTrace share the tuple dictionary, which is what lets a per-class
// resolver reuse resolutions across the train/holdout split.
//
// The mutable row-oriented Trace stays the builder API (workload generators,
// trace_io); FlatTrace::FromTrace converts once at the pipeline entry.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "storage/database.h"
#include "trace/trace.h"

namespace jecb {

/// One access in the columnar layout: 31 bits of dense tuple-dictionary
/// index, write flag in the top bit.
struct PackedAccess {
  static constexpr uint32_t kWriteBit = 0x80000000u;

  uint32_t bits = 0;

  uint32_t tuple_index() const { return bits & ~kWriteBit; }
  bool write() const { return (bits & kWriteBit) != 0; }
};

/// Immutable SoA snapshot of a Trace. Build once, scan many times.
class FlatTrace {
 public:
  /// Converts a row-oriented trace: interns every distinct TupleId into the
  /// dictionary (first-touch order, so the layout is deterministic) and
  /// packs the accesses contiguously. Interning indexes a per-table array
  /// sized by the largest row id the trace touches, so rows should be stored
  /// row ids (as every generator and trace_io produce), not arbitrary keys.
  static FlatTrace FromTrace(const Trace& trace);

  size_t size() const { return txn_class_.size(); }
  bool empty() const { return txn_class_.empty(); }
  size_t num_accesses() const { return accesses_.size(); }

  uint32_t class_of(uint32_t txn) const { return txn_class_[txn]; }
  std::span<const PackedAccess> accesses(uint32_t txn) const {
    return {accesses_.data() + txn_offset_[txn],
            txn_offset_[txn + 1] - txn_offset_[txn]};
  }

  /// The tuple dictionary: every distinct tuple the trace touches, in
  /// first-touch order. PackedAccess::tuple_index() indexes this.
  size_t num_tuples() const { return tuples_.size(); }
  TupleId tuple(uint32_t index) const { return tuples_[index]; }
  const std::vector<TupleId>& tuples() const { return tuples_; }

  const std::vector<std::string>& class_names() const { return class_names_; }
  const std::string& class_name(uint32_t id) const { return class_names_[id]; }
  size_t num_classes() const { return class_names_.size(); }

 private:
  std::vector<PackedAccess> accesses_;
  std::vector<uint32_t> txn_offset_;  // size() + 1 entries
  std::vector<uint32_t> txn_class_;
  std::vector<TupleId> tuples_;
  std::vector<std::string> class_names_;
};

/// A zero-copy subset of a FlatTrace's transactions. Copying a view copies
/// at most a shared_ptr; the access arrays are never duplicated.
///
/// FilterClass / SplitTrainTest / Head mirror the Trace helpers exactly:
/// filtering selects by class id, the split walks the *view's* positions
/// with the same fractional accumulator, Head keeps the view's first n.
class TraceView {
 public:
  TraceView() = default;
  /// View of every transaction of `trace` (which must outlive the view).
  explicit TraceView(const FlatTrace* trace)
      : trace_(trace), count_(trace->size()) {}

  /// View of an explicit transaction selection (global txn indices into
  /// `trace`, shared without copying). The delta evaluator uses this to
  /// scan precomputed per-table affected-transaction lists.
  static TraceView FromSelection(
      const FlatTrace* trace,
      std::shared_ptr<const std::vector<uint32_t>> txns) {
    const size_t n = txns->size();
    return TraceView(trace, std::move(txns), 0, n);
  }

  const FlatTrace& trace() const { return *trace_; }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Global transaction index (into the FlatTrace) of the i-th selected
  /// transaction.
  uint32_t txn(size_t i) const {
    return selection_ ? (*selection_)[first_ + i]
                      : static_cast<uint32_t>(first_ + i);
  }
  uint32_t class_of(size_t i) const { return trace_->class_of(txn(i)); }
  std::span<const PackedAccess> accesses(size_t i) const {
    return trace_->accesses(txn(i));
  }

  /// The homogeneous sub-workload of one class (Phase 1 stream splitting),
  /// as a selection over the same arrays.
  TraceView FilterClass(uint32_t class_id) const;

  /// Deterministic alternating train/test split over the view's positions —
  /// the same accumulator walk as Trace::SplitTrainTest.
  std::pair<TraceView, TraceView> SplitTrainTest(double test_fraction) const;

  /// The view's first `n` transactions.
  TraceView Head(size_t n) const;

 private:
  TraceView(const FlatTrace* trace,
            std::shared_ptr<const std::vector<uint32_t>> selection, size_t first,
            size_t count)
      : trace_(trace),
        selection_(std::move(selection)),
        first_(first),
        count_(count) {}

  const FlatTrace* trace_ = nullptr;
  /// Null = the contiguous range [first_, first_ + count_) of the trace;
  /// otherwise txn indices at [first_, first_ + count_) of *selection_.
  std::shared_ptr<const std::vector<uint32_t>> selection_;
  size_t first_ = 0;
  size_t count_ = 0;
};

}  // namespace jecb
