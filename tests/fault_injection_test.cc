// Tests for the fault-injection and recovery layer: determinism of the
// seed-driven injector, retry/backoff semantics in the 2PC coordinator
// (retry-then-succeed, budget exhaustion -> recorded failure), stalled-shard
// backpressure through the shard mutexes (no deadlock; run under
// ThreadSanitizer by tools/run_tsan.sh), thread-count-independence of the
// replay outcome signature, and the metrics conservation invariants.
#include <gtest/gtest.h>

#include <algorithm>

#include "partition/evaluator.h"
#include "runtime/fault_injector.h"
#include "dist/replay.h"
#include "workloads/tpcc.h"

namespace jecb {
namespace {

WorkloadBundle SmallTpcc(size_t txns = 400, uint64_t seed = 7) {
  TpccConfig cfg;
  cfg.warehouses = 4;
  cfg.districts_per_warehouse = 2;
  cfg.customers_per_district = 6;
  cfg.items = 20;
  cfg.initial_orders_per_district = 2;
  return TpccWorkload(cfg).Make(txns, seed);
}

RuntimeOptions FastOptions() {
  RuntimeOptions opt;
  opt.num_clients = 4;
  opt.local_work_us = 0;
  opt.round_trip_us = 0;
  opt.lock_hold_us = 0;
  return opt;
}

/// Fault plan with near-zero simulated durations so the fault *logic* is
/// exercised without spending wall time on stalls/timeouts/backoff.
FaultPlan FastFaults() {
  FaultPlan plan;
  plan.stall_us = 0;
  plan.timeout_us = 0;
  plan.backoff_base_us = 0;
  plan.backoff_cap_us = 0;
  return plan;
}

uint64_t CountTwoPhaseCommitTxns(const Database& db,
                                 const DatabaseSolution& solution,
                                 const Trace& trace) {
  uint64_t n = 0;
  for (const ClassifiedTxn& ct : ClassifyTrace(db, solution, trace)) {
    if (ct.RequiresTwoPhaseCommit()) ++n;
  }
  return n;
}

TEST(FaultInjectorTest, DecisionsArePureFunctionsOfInputs) {
  FaultPlan plan;
  plan.stall_rate = 0.3;
  plan.prepare_reject_rate = 0.3;
  plan.coordinator_timeout_rate = 0.3;
  plan.shard_down_rate = 0.3;
  FaultInjector a(plan), b(plan);
  for (uint64_t txn = 0; txn < 200; ++txn) {
    for (uint32_t attempt = 0; attempt < 3; ++attempt) {
      for (int32_t shard = 0; shard < 4; ++shard) {
        EXPECT_EQ(a.ShardDown(txn, attempt, shard), b.ShardDown(txn, attempt, shard));
        EXPECT_EQ(a.ShardStalls(txn, attempt, shard),
                  b.ShardStalls(txn, attempt, shard));
        EXPECT_EQ(a.PrepareRejected(txn, attempt, shard),
                  b.PrepareRejected(txn, attempt, shard));
      }
      EXPECT_EQ(a.CoordinatorTimesOut(txn, attempt),
                b.CoordinatorTimesOut(txn, attempt));
      EXPECT_EQ(a.BackoffUs(txn, attempt), b.BackoffUs(txn, attempt));
      // Re-asking the same injector must give the same answer: no state.
      EXPECT_EQ(a.CoordinatorTimesOut(txn, attempt),
                a.CoordinatorTimesOut(txn, attempt));
    }
  }
}

TEST(FaultInjectorTest, SeedSelectsADifferentFaultSchedule) {
  FaultPlan p1;
  p1.prepare_reject_rate = 0.5;
  FaultPlan p2 = p1;
  p2.seed = p1.seed + 1;
  FaultInjector a(p1), b(p2);
  int differs = 0;
  for (uint64_t txn = 0; txn < 500; ++txn) {
    if (a.PrepareRejected(txn, 0, 0) != b.PrepareRejected(txn, 0, 0)) ++differs;
  }
  EXPECT_GT(differs, 0);
}

TEST(FaultInjectorTest, RatesApproximateTheConfiguredProbability) {
  FaultPlan plan;
  plan.prepare_reject_rate = 0.25;
  FaultInjector inj(plan);
  int hits = 0;
  const int n = 20000;
  for (uint64_t txn = 0; txn < n; ++txn) {
    if (inj.PrepareRejected(txn, 0, 0)) ++hits;
  }
  double rate = static_cast<double>(hits) / n;
  EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(FaultInjectorTest, BackoffIsExponentialCappedAndJittered) {
  FaultPlan plan;
  plan.backoff_base_us = 100;
  plan.backoff_cap_us = 1000;
  FaultInjector inj(plan);
  for (uint64_t txn = 0; txn < 50; ++txn) {
    uint32_t prev_nominal = 0;
    for (uint32_t attempt = 0; attempt < 40; ++attempt) {
      uint32_t wait = inj.BackoffUs(txn, attempt);
      uint64_t nominal =
          attempt >= 32 ? plan.backoff_cap_us
                        : std::min<uint64_t>(plan.backoff_cap_us,
                                             uint64_t{plan.backoff_base_us}
                                                 << attempt);
      // Jitter keeps the wait inside [nominal/2, nominal).
      EXPECT_GE(wait, nominal / 2) << "attempt " << attempt;
      EXPECT_LT(wait, nominal + 1) << "attempt " << attempt;
      EXPECT_GE(nominal, prev_nominal);  // never shrinks before the cap
      prev_nominal = static_cast<uint32_t>(nominal);
    }
  }
  FaultPlan zero = plan;
  zero.backoff_base_us = 0;
  EXPECT_EQ(FaultInjector(zero).BackoffUs(1, 1), 0u);
}

TEST(FaultInjectorTest, ShardDownComesInWindowsAndRecoversAcrossAttempts) {
  FaultPlan plan;
  plan.shard_down_rate = 0.5;
  plan.down_window_txns = 16;
  FaultInjector inj(plan);
  // All txn ids inside one window share the down decision.
  for (uint64_t window = 0; window < 50; ++window) {
    bool first = inj.ShardDown(window * 16, 0, 2);
    for (uint64_t t = 1; t < 16; ++t) {
      EXPECT_EQ(inj.ShardDown(window * 16 + t, 0, 2), first);
    }
  }
  // At rate 0.5 some window must be down and some up.
  int down = 0;
  for (uint64_t w = 0; w < 64; ++w) down += inj.ShardDown(w * 16, 0, 0) ? 1 : 0;
  EXPECT_GT(down, 0);
  EXPECT_LT(down, 64);
  // Retries shift the window: some txn that is down on attempt 0 must find
  // the shard back up on a later attempt.
  bool recovered = false;
  for (uint64_t t = 0; t < 1000 && !recovered; ++t) {
    if (inj.ShardDown(t, 0, 1) && !inj.ShardDown(t, 3, 1)) recovered = true;
  }
  EXPECT_TRUE(recovered);
}

TEST(FaultInjectorTest, DisabledPlanInjectsNothing) {
  FaultPlan plan;  // all rates zero
  EXPECT_FALSE(plan.enabled());
  FaultInjector inj(plan);
  for (uint64_t txn = 0; txn < 100; ++txn) {
    EXPECT_FALSE(inj.ShardDown(txn, 0, 0));
    EXPECT_FALSE(inj.ShardStalls(txn, 0, 0));
    EXPECT_FALSE(inj.PrepareRejected(txn, 0, 0));
    EXPECT_FALSE(inj.CoordinatorTimesOut(txn, 0));
  }
}

TEST(FaultReplayTest, RetryThenSucceedRecoversMostTransactions) {
  WorkloadBundle b = SmallTpcc(500);
  DatabaseSolution hash = MakeNaiveHashSolution(*b.db, 4);
  RuntimeOptions opt = FastOptions();
  opt.faults = FastFaults();
  opt.faults.prepare_reject_rate = 0.1;
  opt.faults.max_attempts = 6;
  ReplayReport r = Replay(*b.db, hash, b.trace, opt, "retry-then-succeed");

  EXPECT_EQ(r.committed + r.failed, r.total_txns);
  EXPECT_GT(r.aborts, 0u);
  EXPECT_GT(r.retries, 0u);
  EXPECT_EQ(r.aborts, r.retries + r.failed);
  // With 6 attempts at a 10% per-participant reject rate, retries recover
  // the overwhelming majority of transactions.
  EXPECT_GT(r.committed, r.total_txns * 9 / 10);
  // Committed-after-retry latencies were recorded.
  EXPECT_GT(r.retry.count, 0u);
  EXPECT_LE(r.retry.count, r.distributed.count);
}

TEST(FaultReplayTest, BudgetExhaustionRecordsFailureNotDrop) {
  WorkloadBundle b = SmallTpcc(400);
  DatabaseSolution hash = MakeNaiveHashSolution(*b.db, 4);
  const uint64_t two_pc = CountTwoPhaseCommitTxns(*b.db, hash, b.trace);
  ASSERT_GT(two_pc, 0u);

  RuntimeOptions opt = FastOptions();
  opt.faults = FastFaults();
  opt.faults.prepare_reject_rate = 1.0;  // every prepare votes no
  opt.faults.max_attempts = 3;
  ReplayReport r = Replay(*b.db, hash, b.trace, opt, "budget-exhaustion");

  // Every coordinated txn fails after exactly max_attempts attempts; every
  // purely local txn still commits. Nothing is silently dropped.
  EXPECT_EQ(r.failed, two_pc);
  EXPECT_EQ(r.committed, r.total_txns - two_pc);
  EXPECT_EQ(r.aborts, two_pc * 3);
  EXPECT_EQ(r.retries, two_pc * 2);
  EXPECT_EQ(r.distributed_committed, 0u);
  EXPECT_EQ(r.retry.count, 0u);
}

TEST(FaultReplayTest, StalledShardBackpressuresWithoutDeadlock) {
  WorkloadBundle b = SmallTpcc(250);
  DatabaseSolution hash = MakeNaiveHashSolution(*b.db, 4);
  RuntimeOptions opt = FastOptions();
  opt.num_clients = 8;  // more clients than shards: stalls must backpressure
  opt.faults = FastFaults();
  opt.faults.stall_rate = 1.0;  // every prepare stalls its participant
  opt.faults.stall_us = 50;
  ReplayReport r = Replay(*b.db, hash, b.trace, opt, "backpressure");

  // The run completing at all is the deadlock check (TSan validates the
  // lock discipline); conservation shows no txn was lost to backpressure.
  EXPECT_EQ(r.committed + r.failed, r.total_txns);
  EXPECT_EQ(r.failed, 0u);  // stalls slow transactions, never abort them
  EXPECT_GT(r.stalls_injected, 0u);
  uint64_t shard_stalls = 0;
  for (const ShardReport& s : r.shards) shard_stalls += s.stalls;
  EXPECT_EQ(shard_stalls, r.stalls_injected);
}

TEST(FaultReplayTest, OutcomeIsBitIdenticalAcrossClientCounts) {
  WorkloadBundle b = SmallTpcc(400);
  DatabaseSolution hash = MakeNaiveHashSolution(*b.db, 4);
  RuntimeOptions opt = FastOptions();
  opt.faults = FastFaults();
  opt.faults.prepare_reject_rate = 0.2;
  opt.faults.coordinator_timeout_rate = 0.1;
  opt.faults.shard_down_rate = 0.1;
  opt.faults.stall_rate = 0.2;

  uint64_t baseline_signature = 0;
  ReplayReport baseline;
  for (int clients : {1, 4, 8}) {
    opt.num_clients = clients;
    ReplayReport r = Replay(*b.db, hash, b.trace, opt, "determinism");
    if (clients == 1) {
      baseline_signature = r.OutcomeSignature();
      baseline = r;
      continue;
    }
    EXPECT_EQ(r.OutcomeSignature(), baseline_signature)
        << "clients=" << clients;
    EXPECT_EQ(r.committed, baseline.committed);
    EXPECT_EQ(r.failed, baseline.failed);
    EXPECT_EQ(r.aborts, baseline.aborts);
    EXPECT_EQ(r.retries, baseline.retries);
    EXPECT_EQ(r.coordinator_timeouts, baseline.coordinator_timeouts);
    EXPECT_EQ(r.shard_down_aborts, baseline.shard_down_aborts);
    for (size_t s = 0; s < r.shards.size(); ++s) {
      EXPECT_EQ(r.shards[s].down_events, baseline.shards[s].down_events);
      EXPECT_EQ(r.shards[s].prepare_rejects, baseline.shards[s].prepare_rejects);
      EXPECT_EQ(r.shards[s].participation_attempts,
                baseline.shards[s].participation_attempts);
    }
  }
}

TEST(FaultReplayTest, MetricsAccountingAcrossAllFaultKinds) {
  WorkloadBundle b = SmallTpcc(500);
  DatabaseSolution hash = MakeNaiveHashSolution(*b.db, 4);
  RuntimeOptions opt = FastOptions();
  opt.faults = FastFaults();
  opt.faults.stall_rate = 0.2;
  opt.faults.prepare_reject_rate = 0.2;
  opt.faults.coordinator_timeout_rate = 0.1;
  opt.faults.shard_down_rate = 0.2;
  opt.faults.down_window_txns = 32;
  opt.faults.max_attempts = 4;
  ReplayReport r = Replay(*b.db, hash, b.trace, opt, "accounting");

  EXPECT_EQ(r.committed + r.failed, r.total_txns);
  EXPECT_EQ(r.aborts, r.retries + r.failed);
  // Every abort has exactly one recorded cause.
  EXPECT_EQ(r.aborts,
            r.prepare_rejects + r.coordinator_timeouts + r.shard_down_aborts);
  for (const ShardReport& s : r.shards) {
    EXPECT_GE(s.participation_attempts, s.dist_participations);
    EXPECT_GE(s.availability(), 0.0);
    EXPECT_LE(s.availability(), 1.0);
  }
  // Down events really depressed availability somewhere.
  double min_availability = 1.0;
  for (const ShardReport& s : r.shards) {
    min_availability = std::min(min_availability, s.availability());
  }
  EXPECT_LT(min_availability, 1.0);
}

TEST(FaultReplayTest, CoordinatorTimeoutsAbortAndAreCounted) {
  WorkloadBundle b = SmallTpcc(300);
  DatabaseSolution hash = MakeNaiveHashSolution(*b.db, 4);
  const uint64_t two_pc = CountTwoPhaseCommitTxns(*b.db, hash, b.trace);
  RuntimeOptions opt = FastOptions();
  opt.faults = FastFaults();
  opt.faults.coordinator_timeout_rate = 1.0;
  opt.faults.max_attempts = 2;
  ReplayReport r = Replay(*b.db, hash, b.trace, opt, "timeouts");
  EXPECT_EQ(r.failed, two_pc);
  EXPECT_EQ(r.coordinator_timeouts, r.aborts);
  EXPECT_EQ(r.aborts, two_pc * 2);
}

TEST(FaultReplayTest, FaultFreeReplayKeepsLegacyInvariants) {
  WorkloadBundle b = SmallTpcc(300);
  DatabaseSolution hash = MakeNaiveHashSolution(*b.db, 4);
  ReplayReport r = Replay(*b.db, hash, b.trace, FastOptions(), "fault-free");
  EXPECT_EQ(r.committed, r.total_txns);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.aborts, 0u);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.stalls_injected, 0u);
  EXPECT_DOUBLE_EQ(r.goodput_tps, r.throughput_tps);
  for (const ShardReport& s : r.shards) {
    EXPECT_DOUBLE_EQ(s.availability(), 1.0);
    EXPECT_EQ(s.participation_attempts, s.dist_participations);
  }
}

TEST(FaultReplayTest, JsonCarriesFaultFields) {
  WorkloadBundle b = SmallTpcc(200);
  DatabaseSolution hash = MakeNaiveHashSolution(*b.db, 2);
  RuntimeOptions opt = FastOptions();
  opt.faults = FastFaults();
  opt.faults.prepare_reject_rate = 0.5;
  ReplayReport r = Replay(*b.db, hash, b.trace, opt, "fault-json");
  std::string json = r.ToJson();
  for (const char* key :
       {"\"failed\":", "\"aborts\":", "\"retries\":", "\"goodput_tps\":",
        "\"availability\":", "\"retry\":{", "\"stalls\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(CoordinationExposureTest, GrowsWithRateAndDistributedFraction) {
  EvalResult r;
  r.total_txns = 100;
  r.distributed_txns = 50;
  r.partitions_touched = 150;  // 3 participants per distributed txn
  EXPECT_DOUBLE_EQ(CoordinationExposure(r, 0.0), 0.0);
  // cost 0.5, P(fault) = 1 - 0.9^3 = 0.271
  EXPECT_NEAR(CoordinationExposure(r, 0.1), 0.5 * 0.271, 1e-9);
  EXPECT_LT(CoordinationExposure(r, 0.05), CoordinationExposure(r, 0.10));

  EvalResult fewer = r;
  fewer.distributed_txns = 10;
  fewer.partitions_touched = 30;  // same avg participants, fewer dist txns
  EXPECT_LT(CoordinationExposure(fewer, 0.1), CoordinationExposure(r, 0.1));

  EvalResult empty;
  EXPECT_DOUBLE_EQ(CoordinationExposure(empty, 0.5), 0.0);
  // Rates above 1 clamp instead of producing nonsense.
  EXPECT_NEAR(CoordinationExposure(r, 5.0), 0.5, 1e-9);
}

}  // namespace
}  // namespace jecb
