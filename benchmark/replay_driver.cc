#include "replay_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "dist/replay.h"
#include "runtime/load_gen.h"
#include "runtime/sharded_database.h"

namespace jecb::benchmark {

namespace {

using Clock = std::chrono::steady_clock;

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

uint64_t DriveResult::OutcomeSignature() const {
  ReplayReport r;
  r.total_txns = txns;
  r.committed = snapshot.committed;
  r.distributed_committed = snapshot.distributed_committed;
  r.residency_faults = snapshot.residency_faults;
  r.failed = snapshot.failed;
  r.aborts = snapshot.aborts;
  r.retries = snapshot.retries;
  r.prepare_rejects = snapshot.prepare_rejects;
  r.coordinator_timeouts = snapshot.coordinator_timeouts;
  r.shard_down_aborts = snapshot.shard_down_aborts;
  r.stalls_injected = snapshot.stalls_injected;
  for (const ShardMetricsSnapshot& s : snapshot.shards) {
    ShardReport sr;
    sr.local_txns = s.local_txns;
    sr.dist_participations = s.dist_participations;
    sr.participation_attempts = s.participation_attempts;
    sr.stalls = s.stalls;
    sr.prepare_rejects = s.prepare_rejects;
    sr.down_events = s.down_events;
    r.shards.push_back(sr);
  }
  return r.OutcomeSignature();
}

DriveResult Drive(const Database& db, const DatabaseSolution& layout,
                  const Trace& trace, const RuntimeOptions& options,
                  SpanLog* spans) {
  const bool open_loop = options.target_tps > 0.0;
  const size_t n = trace.size();
  const int clients = std::max(options.num_clients, 1);
  DriveResult r;
  r.txns = n;
  r.call_us.assign(n, -1.0);
  r.two_phase.assign(n, 0);
  if (open_loop) {
    r.queue_us.assign(n, -1.0);
    r.sojourn_us.assign(n, -1.0);
  }

  const int32_t root =
      spans ? spans->Begin(open_loop ? "dist.open_loop" : "dist.closed_loop") : -1;
  auto step = [&](const char* name, auto&& call) {
    const int32_t id = spans ? spans->Begin(name, root) : -1;
    call();
    if (spans) spans->End(id);
  };

  std::vector<ClassifiedTxn> classified;
  step("dist.classify", [&] { classified = ClassifyTrace(db, layout, trace); });
  std::optional<ShardedDatabase> sharded;
  step("runtime.layout", [&] {
    sharded.emplace(db, layout);
    sharded->BuildEncodedRows();
  });
  RuntimeMetrics metrics(sharded->num_shards());
  std::unique_ptr<Transport> transport = MakeTransport(*sharded, options, &metrics);
  Status started = Status::OK();
  step("dist.start", [&] { started = transport->Start(); });
  if (!started.ok()) {
    std::fprintf(stderr, "jecb_bench: replay backend failed to start: %s\n",
                 started.ToString().c_str());
    std::exit(1);
  }

  std::vector<std::unique_ptr<TransportSession>> sessions;
  for (int c = 0; c < clients; ++c) sessions.push_back(transport->NewSession(c));
  std::vector<std::vector<Span>> thread_spans(static_cast<size_t>(clients));
  const std::vector<uint64_t> schedule =
      open_loop ? ComputeArrivalScheduleUs(options, n) : std::vector<uint64_t>{};
  const int32_t run = spans ? spans->Begin("dist.run", root) : -1;
  const Clock::time_point epoch = Clock::now();

  auto execute = [&](int c, size_t i) {
    const ClassifiedTxn& ct = classified[i];
    const bool two_phase = ct.RequiresTwoPhaseCommit();
    const Clock::time_point t0 = Clock::now();
    if (two_phase) {
      sessions[static_cast<size_t>(c)]->ExecuteDistributed(ct);
    } else {
      sessions[static_cast<size_t>(c)]->ExecuteLocal(ct);
    }
    const Clock::time_point t1 = Clock::now();
    r.call_us[i] = Micros(t1 - t0);
    r.two_phase[i] = two_phase ? 1 : 0;
    if (open_loop) {
      const Clock::time_point due = epoch + std::chrono::microseconds(schedule[i]);
      r.queue_us[i] = Micros(t0 - due);
      r.sojourn_us[i] = Micros(t1 - due);
    }
    if (spans) {
      thread_spans[static_cast<size_t>(c)].push_back(
          Span{two_phase ? "call.dist" : "call.local", spans->Ns(t0),
               spans->Ns(t1), run, static_cast<int64_t>(i), c + 1});
    }
  };

  if (open_loop) {
    OpenLoopResult ol = RunOpenLoop(options, n, epoch, execute, &metrics);
    r.shed = ol.shed;
    r.wall_s = static_cast<double>(ol.last_completion_us) / 1e6;
  } else {
    // Like Replay(), the wall clock stops at the last completion, not at join.
    std::atomic<size_t> next{0};
    std::vector<Clock::time_point> done(static_cast<size_t>(clients), epoch);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) execute(c, i);
        done[static_cast<size_t>(c)] = Clock::now();
      });
    }
    for (std::thread& t : threads) t.join();
    r.wall_s = std::chrono::duration<double>(*std::max_element(done.begin(), done.end()) -
                                             epoch)
                   .count();
  }
  if (spans) {
    spans->End(run);
    for (std::vector<Span>& batch : thread_spans) spans->Append(std::move(batch));
  }

  sessions.clear();  // folds each session's wire counters into the transport
  step("dist.drain", [&] { transport->Drain(); });
  r.snapshot = metrics.Snapshot();
  r.transport = transport->Report();
  if (spans) spans->End(root);
  return r;
}

}  // namespace jecb::benchmark
