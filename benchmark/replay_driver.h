// The benchmark's own replay driver. It takes the steps Replay() takes --
// ClassifyTrace, ShardedDatabase + BuildEncodedRows, MakeTransport/Start,
// one ExecuteLocal/ExecuteDistributed call per transaction, Drain/Report --
// but calls them one at a time, so a traced run can record each as a span.
// It is also the only source of exact per-transaction latencies: the
// program's own histograms bucket by octave.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/transport.h"
#include "partition/solution.h"
#include "runtime/executor.h"
#include "runtime/metrics.h"
#include "spans.h"
#include "storage/database.h"
#include "trace/trace.h"

namespace jecb::benchmark {

struct DriveResult {
  uint64_t txns = 0;
  uint64_t shed = 0;
  MetricsSnapshot snapshot;
  TransportReport transport;
  /// Epoch to last completion, as Replay() measures it.
  double wall_s = 0.0;
  /// Per transaction index, in microseconds; -1 where it did not run.
  std::vector<double> call_us;     ///< the ExecuteLocal/ExecuteDistributed call
  std::vector<double> queue_us;    ///< open loop: scheduled arrival -> dequeue
  std::vector<double> sojourn_us;  ///< open loop: scheduled arrival -> done
  /// Per transaction index: 1 when it ran through ExecuteDistributed.
  std::vector<uint8_t> two_phase;

  /// ReplayReport::OutcomeSignature() of the same counters, so a driven run
  /// can be compared with a Replay() of the same trace.
  uint64_t OutcomeSignature() const;
};

/// Replays `trace` on `layout`: closed loop when options.target_tps is 0,
/// otherwise the open-loop driver (RunOpenLoop) at that rate. With `spans`,
/// records one span per layer call and one per transaction. Exits the
/// process when the backend fails to start.
DriveResult Drive(const Database& db, const DatabaseSolution& layout,
                  const Trace& trace, const RuntimeOptions& options,
                  SpanLog* spans);

}  // namespace jecb::benchmark
