// End-to-end tracing: a lock-free, thread-local ring-buffer span recorder.
//
// Design:
//  * Each emitting thread owns a fixed-capacity ring buffer of POD
//    TraceEvents; pushes are wait-free (one relaxed load, one slot store,
//    one release store) and never contend with other threads. The ring
//    wraps, overwriting the oldest events — tracing can run forever and
//    memory stays bounded; Collect() reports how many events were dropped.
//  * When the recorder is disabled (the default), every instrumentation
//    point costs one relaxed atomic load and a branch — measured <1% on an
//    in-process TPC-C replay — and allocates nothing: no thread buffer is
//    created until the first event is actually recorded. Building with
//    -DJECB_OBS_DISABLED (CMake -DJECB_OBS=OFF) compiles the layer out
//    entirely: enabled() folds to false and the macros expand to nothing.
//  * Event names/categories are `const char*` and must outlive the
//    recorder: string literals, or dynamic strings pinned via Intern()
//    (e.g. transaction-class names — interned once per class, off the hot
//    path).
//  * Collect()/RenderChromeTrace()/Reset() are meant for quiesced use
//    (after workers joined / pools destroyed). The release/acquire pair on
//    each buffer's event count makes quiesced collection race-free; while
//    producers are live a collector may observe a torn slot that is being
//    overwritten by a wrap — never collect concurrently with tracing you
//    care about.
//
// Tracing is observational only: it never changes control flow, fault
// decisions, or any replay outcome (ReplayReport::OutcomeSignature is
// byte-identical with tracing on or off).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace jecb {

#if defined(JECB_OBS_DISABLED)
inline constexpr bool kObsCompiledIn = false;
#else
inline constexpr bool kObsCompiledIn = true;
#endif

enum class TraceEventKind : uint8_t {
  kSpan,     ///< duration event (Chrome "X")
  kInstant,  ///< point annotation, e.g. an injected fault (Chrome "i")
  kCounter,  ///< sampled numeric series; value in arg1 (Chrome "C")
};

/// One fixed-size POD trace record. Names are borrowed pointers (literals
/// or interned); up to two integer args ride along (candidate counts, txn
/// ids, shard ids, ...). Unused arg slots have a null name.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  const char* arg1_name = nullptr;
  const char* arg2_name = nullptr;
  int64_t arg1 = 0;
  int64_t arg2 = 0;
  uint64_t ts_us = 0;   ///< microseconds since the recorder's epoch
  uint64_t dur_us = 0;  ///< spans only
  TraceEventKind kind = TraceEventKind::kSpan;
};

/// A TraceEvent annotated with its origin for export: which thread buffer
/// it came from and its per-thread sequence number.
struct CollectedEvent {
  TraceEvent event;
  uint32_t tid = 0;
  uint64_t seq = 0;
};

class TraceRecorder {
 public:
  static constexpr size_t kDefaultEventsPerThread = 1 << 16;

  TraceRecorder();
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The process-wide recorder every JECB_* macro and built-in
  /// instrumentation point writes to.
  static TraceRecorder& Default();

  /// Starts recording. `events_per_thread` sizes ring buffers created from
  /// now on (existing buffers keep their capacity; Reset() first to
  /// re-size everything).
  void Enable(size_t events_per_thread = kDefaultEventsPerThread);
  void Disable();
  bool enabled() const {
    return kObsCompiledIn && enabled_.load(std::memory_order_relaxed);
  }

  /// Pins a dynamic string for use as an event name/category/arg name.
  /// Idempotent; the pointer stays valid for the recorder's lifetime
  /// (Reset() keeps the intern table so pinned names never dangle).
  const char* Intern(std::string_view s);

  /// Records one event into the calling thread's ring buffer (creating and
  /// registering the buffer on first use). No-op when disabled.
  void Emit(const TraceEvent& event);

  void Instant(const char* cat, const char* name, const char* arg1_name = nullptr,
               int64_t arg1 = 0, const char* arg2_name = nullptr, int64_t arg2 = 0);
  void Counter(const char* cat, const char* name, int64_t value);
  /// Records a span with an explicit start/duration — for timelines whose
  /// start happened on another thread (e.g. queue wait measured at dequeue
  /// from the enqueue timestamp).
  void Span(const char* cat, const char* name, uint64_t ts_us, uint64_t dur_us,
            const char* arg1_name = nullptr, int64_t arg1 = 0,
            const char* arg2_name = nullptr, int64_t arg2 = 0);

  /// Microseconds since this recorder's construction (its trace epoch).
  uint64_t NowUs() const {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                     std::chrono::steady_clock::now() - epoch_)
                                     .count());
  }
  /// Converts a steady_clock time point to the trace timebase.
  uint64_t ToTraceUs(std::chrono::steady_clock::time_point tp) const {
    return tp <= epoch_
               ? 0
               : static_cast<uint64_t>(
                     std::chrono::duration_cast<std::chrono::microseconds>(tp - epoch_)
                         .count());
  }

  /// Snapshot of every thread's surviving events, sorted by (ts, tid, seq).
  std::vector<CollectedEvent> Collect() const;
  /// Incremental collection for telemetry shipping: returns every surviving
  /// event not returned by a previous Drain() call (per-buffer watermark),
  /// sorted like Collect(). Events are delivered at most once across drains;
  /// ring overwrites between drains are lost and show up in dropped().
  /// Drain() does not erase the ring, so a later Collect() — e.g. a
  /// postmortem dump — still sees the full surviving window. Same quiescence
  /// caveats as Collect().
  std::vector<CollectedEvent> Drain();
  /// Names the calling thread's buffer for trace export (Perfetto
  /// thread_name metadata). Creates the buffer if needed; cheap, call once
  /// per thread. No-op when compiled out.
  void SetThreadName(std::string_view name);
  /// tid -> name pairs registered via SetThreadName, unsorted.
  std::vector<std::pair<uint32_t, std::string>> ThreadNames() const;
  /// Events lost to ring wraparound so far.
  uint64_t dropped() const;
  size_t num_thread_buffers() const;
  /// Drops all buffers (capacity can then be re-chosen by Enable) and
  /// disables recording. Interned strings are kept. Quiesced use only.
  void Reset();

  /// Chrome trace-event JSON of Collect() — loadable in Perfetto and
  /// chrome://tracing.
  std::string RenderChromeTrace() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct ThreadBuffer;

  ThreadBuffer* BufferForThisThread();

  const uint64_t id_;  ///< distinguishes recorder instances in the TLS cache
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  /// Bumped by Reset(); stale TLS caches re-register on next emit.
  std::atomic<uint64_t> generation_{0};
  mutable std::mutex mu_;
  size_t events_per_thread_ = kDefaultEventsPerThread;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::unordered_map<std::thread::id, ThreadBuffer*> by_thread_;
  std::unordered_map<uint32_t, std::string> thread_names_;  ///< guarded by mu_
  mutable std::mutex intern_mu_;
  std::unordered_set<std::string> interned_;  ///< node-based: stable c_str()
};

/// RAII span: captures the start time on construction, emits one complete
/// span event on destruction. When the recorder is disabled at
/// construction the whole object is inert (and with JECB_OBS_DISABLED the
/// compiler deletes it outright).
class ScopedSpan {
 public:
  ScopedSpan(const char* cat, const char* name,
             TraceRecorder& recorder = TraceRecorder::Default())
      : recorder_(recorder), active_(recorder.enabled()) {
    if (active_) {
      event_.cat = cat;
      event_.name = name;
      event_.ts_us = recorder.NowUs();
    }
  }
  ScopedSpan(const char* cat, const char* name, const char* arg1_name, int64_t arg1,
             TraceRecorder& recorder = TraceRecorder::Default())
      : ScopedSpan(cat, name, recorder) {
    Arg(arg1_name, arg1);
  }
  ScopedSpan(const char* cat, const char* name, const char* arg1_name, int64_t arg1,
             const char* arg2_name, int64_t arg2,
             TraceRecorder& recorder = TraceRecorder::Default())
      : ScopedSpan(cat, name, recorder) {
    Arg(arg1_name, arg1);
    Arg(arg2_name, arg2);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches an integer arg (first call fills arg1, second arg2; further
  /// calls are ignored). Usable any time before destruction, so results
  /// computed inside the span (candidate counts, ...) can be attached.
  void Arg(const char* name, int64_t value) {
    if (!active_ || name == nullptr) return;
    if (event_.arg1_name == nullptr) {
      event_.arg1_name = name;
      event_.arg1 = value;
    } else if (event_.arg2_name == nullptr) {
      event_.arg2_name = name;
      event_.arg2 = value;
    }
  }

  ~ScopedSpan() {
    if (active_) {
      event_.dur_us = recorder_.NowUs() - event_.ts_us;
      recorder_.Emit(event_);
    }
  }

 private:
  TraceRecorder& recorder_;
  TraceEvent event_;
  bool active_;
};

}  // namespace jecb

// Instrumentation macros. Categories group related spans for trace_stats
// rollups and Perfetto filtering; keep them short and stable ("jecb",
// "runtime", "pool", "schism", "horticulture", "eval").
#if defined(JECB_OBS_DISABLED)
#define JECB_SPAN(cat, name)
#define JECB_SPAN1(cat, name, k1, v1)
#define JECB_SPAN2(cat, name, k1, v1, k2, v2)
#define JECB_INSTANT(cat, name)
#define JECB_INSTANT1(cat, name, k1, v1)
#define JECB_INSTANT2(cat, name, k1, v1, k2, v2)
#define JECB_COUNTER(cat, name, value)
#else
#define JECB_OBS_CONCAT2(a, b) a##b
#define JECB_OBS_CONCAT(a, b) JECB_OBS_CONCAT2(a, b)
#define JECB_SPAN(cat, name) \
  ::jecb::ScopedSpan JECB_OBS_CONCAT(jecb_obs_span_, __LINE__)(cat, name)
#define JECB_SPAN1(cat, name, k1, v1) \
  ::jecb::ScopedSpan JECB_OBS_CONCAT(jecb_obs_span_, __LINE__)(cat, name, k1, (v1))
#define JECB_SPAN2(cat, name, k1, v1, k2, v2)                                  \
  ::jecb::ScopedSpan JECB_OBS_CONCAT(jecb_obs_span_, __LINE__)(cat, name, k1, \
                                                               (v1), k2, (v2))
#define JECB_INSTANT(cat, name) ::jecb::TraceRecorder::Default().Instant(cat, name)
#define JECB_INSTANT1(cat, name, k1, v1) \
  ::jecb::TraceRecorder::Default().Instant(cat, name, k1, (v1))
#define JECB_INSTANT2(cat, name, k1, v1, k2, v2) \
  ::jecb::TraceRecorder::Default().Instant(cat, name, k1, (v1), k2, (v2))
#define JECB_COUNTER(cat, name, value) \
  ::jecb::TraceRecorder::Default().Counter(cat, name, (value))
#endif
