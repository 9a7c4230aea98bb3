// In-memory span log for the traced run. Spans are recorded by the benchmark
// around its own calls into each layer (the program's TraceRecorder stays
// off), kept in memory, and written out as a Chrome trace at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace jecb::benchmark {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index of the enclosing span; -1 for a root
  int64_t txn = -1;     ///< transaction id for per-call spans
  int32_t thread = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  int64_t Ns(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }
  int64_t NowNs() const { return Ns(std::chrono::steady_clock::now()); }

  /// Opens a span on the calling (main) thread; close it with End().
  int32_t Begin(std::string name, int32_t parent = -1) {
    spans_.push_back(Span{std::move(name), NowNs(), 0, parent, -1, 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }

  /// Folds spans recorded on a worker thread into the log.
  void Append(std::vector<Span>&& batch) {
    for (Span& s : batch) spans_.push_back(std::move(s));
    batch.clear();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in seconds of every span called `name`, in record order.
  std::vector<double> Seconds(const std::string& name) const;

  /// Sum of the durations of every span called `name`.
  double TotalSeconds(const std::string& name) const;

  /// Writes the log in Chrome trace-event format; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace jecb::benchmark
