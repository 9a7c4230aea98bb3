#include "trace/flat_trace.h"

#include <algorithm>

namespace jecb {

FlatTrace FlatTrace::FromTrace(const Trace& trace) {
  FlatTrace out;
  out.class_names_ = trace.class_names();

  // Trace rows are stored rows, so a per-table array sized by the largest
  // row the trace touches interns every tuple with one index read.
  size_t total_accesses = 0;
  std::vector<uint32_t> rows_of;  // per table: largest row touched + 1
  for (const Transaction& t : trace.transactions()) {
    total_accesses += t.accesses.size();
    for (const Access& a : t.accesses) {
      if (a.tuple.table >= rows_of.size()) rows_of.resize(a.tuple.table + 1, 0);
      rows_of[a.tuple.table] = std::max(rows_of[a.tuple.table], a.tuple.row + 1);
    }
  }
  out.accesses_.reserve(total_accesses);
  out.txn_offset_.reserve(trace.size() + 1);
  out.txn_class_.reserve(trace.size());

  constexpr uint32_t kAbsent = UINT32_MAX;
  std::vector<std::vector<uint32_t>> intern(rows_of.size());
  for (size_t t = 0; t < rows_of.size(); ++t) intern[t].assign(rows_of[t], kAbsent);

  out.txn_offset_.push_back(0);
  for (const Transaction& t : trace.transactions()) {
    out.txn_class_.push_back(t.class_id);
    for (const Access& a : t.accesses) {
      uint32_t& index = intern[a.tuple.table][a.tuple.row];
      if (index == kAbsent) {
        index = static_cast<uint32_t>(out.tuples_.size());
        out.tuples_.push_back(a.tuple);
      }
      out.accesses_.push_back({index | (a.write ? PackedAccess::kWriteBit : 0u)});
    }
    out.txn_offset_.push_back(static_cast<uint32_t>(out.accesses_.size()));
  }
  return out;
}

TraceView TraceView::FilterClass(uint32_t class_id) const {
  auto selected = std::make_shared<std::vector<uint32_t>>();
  for (size_t i = 0; i < count_; ++i) {
    uint32_t t = txn(i);
    if (trace_->class_of(t) == class_id) selected->push_back(t);
  }
  size_t n = selected->size();
  return TraceView(trace_, std::move(selected), 0, n);
}

std::pair<TraceView, TraceView> TraceView::SplitTrainTest(
    double test_fraction) const {
  auto train = std::make_shared<std::vector<uint32_t>>();
  auto test = std::make_shared<std::vector<uint32_t>>();
  double acc = 0.0;
  for (size_t i = 0; i < count_; ++i) {
    acc += test_fraction;
    if (acc >= 1.0) {
      acc -= 1.0;
      test->push_back(txn(i));
    } else {
      train->push_back(txn(i));
    }
  }
  size_t train_n = train->size();
  size_t test_n = test->size();
  return {TraceView(trace_, std::move(train), 0, train_n),
          TraceView(trace_, std::move(test), 0, test_n)};
}

TraceView TraceView::Head(size_t n) const {
  return TraceView(trace_, selection_, first_, std::min(n, count_));
}

}  // namespace jecb
