// Tests for the one 2PC coordinator (runtime/coordinator.h): a
// TransportSession driven through a scripted ShardChannel. Every backend
// runs this accounting, so each case pins the exact RuntimeMetrics counters
// and the exact channel call sequence — the protocol order (ascending
// prepares, stop at the first down/reject vote, abort only what was
// prepared, time out after every vote) and the retry ledger
// aborts == retries + failed.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "partition/solution.h"
#include "runtime/coordinator.h"
#include "runtime/metrics.h"
#include "runtime/sharded_database.h"
#include "workloads/tpcc.h"

namespace jecb {
namespace {

/// Replays scripted votes and logs every call as "execute s", "prepare a s",
/// "abort a" or "commit a" (a = attempt, s = shard).
class ScriptedChannel : public ShardChannel {
 public:
  using Script = std::function<Vote(uint32_t attempt, int32_t shard)>;

  ScriptedChannel(std::vector<std::string>* log, Script script)
      : log_(log), script_(std::move(script)) {}

  void Execute(const ClassifiedTxn& txn) override {
    log_->push_back("execute " + std::to_string(txn.home));
  }
  Vote Prepare(const ClassifiedTxn& /*txn*/, uint32_t attempt,
               int32_t shard) override {
    log_->push_back("prepare " + std::to_string(attempt) + " " +
                    std::to_string(shard));
    return script_ ? script_(attempt, shard) : Vote{};
  }
  void Abort(const ClassifiedTxn& /*txn*/, uint32_t attempt) override {
    log_->push_back("abort " + std::to_string(attempt));
  }
  void Commit(const ClassifiedTxn& /*txn*/, uint32_t attempt) override {
    log_->push_back("commit " + std::to_string(attempt));
  }

 private:
  std::vector<std::string>* log_;
  Script script_;
};

Vote Down() { return Vote{Vote::kDown, false}; }
Vote Reject() { return Vote{Vote::kReject, false}; }
Vote Stalled() { return Vote{Vote::kYes, true}; }

class CoordinatorTest : public ::testing::Test {
 protected:
  static constexpr int32_t kShards = 3;
  static constexpr uint64_t kPrepareUs = 7 + 3;  // local_work_us + lock_hold_us

  CoordinatorTest()
      : bundle_(MakeBundle()),
        solution_(MakeNaiveHashSolution(*bundle_.db, kShards)),
        sharded_(*bundle_.db, solution_),
        metrics_(kShards) {
    options_.local_work_us = 7;
    options_.lock_hold_us = 3;
    options_.faults.backoff_base_us = 0;  // retries without waiting
    // One tuple stored on each shard, so residency is scriptable.
    for (int32_t shard = 0; shard < kShards; ++shard) {
      on_shard_.push_back(FirstTupleOn(shard));
    }
  }

  TupleId FirstTupleOn(int32_t shard) const {
    const Database& db = *bundle_.db;
    for (TableId t = 0; t < db.schema().num_tables(); ++t) {
      for (RowId r = 0; r < db.table_data(t).num_rows(); ++r) {
        if (sharded_.PrimaryShardOf(TupleId{t, r}) == shard) return TupleId{t, r};
      }
    }
    ADD_FAILURE() << "no tuple stored on shard " << shard;
    return TupleId{};
  }

  static WorkloadBundle MakeBundle() {
    TpccConfig cfg;
    cfg.warehouses = 4;
    cfg.districts_per_warehouse = 2;
    cfg.customers_per_district = 6;
    cfg.items = 20;
    cfg.initial_orders_per_district = 2;
    return TpccWorkload(cfg).Make(10, 7);
  }

  /// A 2PC transaction reading one tuple on each shard.
  ClassifiedTxn DistributedTxn() {
    txn_.accesses.clear();
    for (const TupleId& t : on_shard_) txn_.Read(t);
    ClassifiedTxn ct;
    ct.txn = &txn_;
    ct.txn_id = 42;
    ct.participants = {0, 1, 2};
    ct.home = 0;
    ct.distributed = true;
    return ct;
  }

  /// A session over a scripted channel, with the fault plan in options_.
  TransportSession Session(ScriptedChannel::Script script = nullptr) {
    injector_ = FaultInjector(options_.faults);
    return TransportSession(
        std::make_unique<ScriptedChannel>(&log_, std::move(script)), sharded_,
        options_, injector_, &metrics_);
  }

  MetricsSnapshot Snap() const { return metrics_.Snapshot(); }

  WorkloadBundle bundle_;
  DatabaseSolution solution_;
  ShardedDatabase sharded_;
  RuntimeOptions options_;
  FaultInjector injector_{options_.faults};
  RuntimeMetrics metrics_;
  Transaction txn_;
  std::vector<TupleId> on_shard_;
  std::vector<std::string> log_;
};

TEST_F(CoordinatorTest, LocalTransactionExecutesOnceAndCountsResidency) {
  // Home shard 0, but the second read lives on shard 1: one residency fault.
  txn_.accesses.clear();
  txn_.Read(on_shard_[0]);
  txn_.Read(on_shard_[1]);
  ClassifiedTxn ct;
  ct.txn = &txn_;
  ct.participants = {0};
  ct.home = 0;
  Session().ExecuteLocal(ct);

  EXPECT_EQ(log_, (std::vector<std::string>{"execute 0"}));
  MetricsSnapshot s = Snap();
  EXPECT_EQ(s.committed, 1u);
  EXPECT_EQ(s.distributed_committed, 0u);
  EXPECT_EQ(s.residency_faults, 1u);
  EXPECT_EQ(s.shards[0].local_txns, 1u);
  EXPECT_EQ(s.shards[0].busy_us, 7u);
  EXPECT_EQ(s.shards[0].local_latency.count, 1u);
  EXPECT_EQ(s.shards[1].busy_us, 0u);
}

TEST_F(CoordinatorTest, AllYesVotesCommitOnTheFirstAttempt) {
  Session().ExecuteDistributed(DistributedTxn());

  EXPECT_EQ(log_, (std::vector<std::string>{"prepare 0 0", "prepare 0 1",
                                            "prepare 0 2", "commit 0"}));
  MetricsSnapshot s = Snap();
  EXPECT_EQ(s.committed, 1u);
  EXPECT_EQ(s.distributed_committed, 1u);
  EXPECT_EQ(s.residency_faults, 0u);
  EXPECT_EQ(s.aborts, 0u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.retry_latency.count, 0u);
  for (int32_t p = 0; p < kShards; ++p) {
    EXPECT_EQ(s.shards[p].participation_attempts, 1u);
    EXPECT_EQ(s.shards[p].dist_participations, 1u);
    EXPECT_EQ(s.shards[p].busy_us, kPrepareUs);
    EXPECT_EQ(s.shards[p].local_txns, 0u);
  }
  EXPECT_EQ(s.shards[0].dist_latency.count, 1u);  // homed at shard 0
  EXPECT_EQ(s.shards[1].dist_latency.count, 0u);
}

TEST_F(CoordinatorTest, DownVoteStopsPreparesAbortsAndRetries) {
  Session([](uint32_t attempt, int32_t shard) {
    return attempt == 0 && shard == 1 ? Down() : Vote{};
  }).ExecuteDistributed(DistributedTxn());

  // No prepare reaches shard 2 on the down attempt; the retry commits.
  EXPECT_EQ(log_, (std::vector<std::string>{"prepare 0 0", "prepare 0 1",
                                            "abort 0", "prepare 1 0",
                                            "prepare 1 1", "prepare 1 2",
                                            "commit 1"}));
  MetricsSnapshot s = Snap();
  EXPECT_EQ(s.committed, 1u);
  EXPECT_EQ(s.aborts, 1u);
  EXPECT_EQ(s.retries, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.shard_down_aborts, 1u);
  EXPECT_EQ(s.prepare_rejects, 0u);
  EXPECT_EQ(s.retry_latency.count, 1u);
  EXPECT_EQ(s.shards[0].participation_attempts, 2u);
  EXPECT_EQ(s.shards[1].participation_attempts, 2u);
  EXPECT_EQ(s.shards[2].participation_attempts, 1u);
  EXPECT_EQ(s.shards[1].down_events, 1u);
  // A down shard did no work: busy only for the votes it answered.
  EXPECT_EQ(s.shards[0].busy_us, 2 * kPrepareUs);
  EXPECT_EQ(s.shards[1].busy_us, kPrepareUs);
  EXPECT_EQ(s.shards[2].busy_us, kPrepareUs);
  EXPECT_EQ(s.shards[0].dist_participations, 2u);
  EXPECT_EQ(s.shards[1].dist_participations, 1u);
  EXPECT_EQ(s.shards[2].dist_participations, 1u);
}

TEST_F(CoordinatorTest, RejectedEveryAttemptExhaustsTheBudget) {
  options_.faults.max_attempts = 3;
  Session([](uint32_t /*attempt*/, int32_t shard) {
    return shard == 2 ? Reject() : Vote{};
  }).ExecuteDistributed(DistributedTxn());

  EXPECT_EQ(log_, (std::vector<std::string>{
                      "prepare 0 0", "prepare 0 1", "prepare 0 2", "abort 0",
                      "prepare 1 0", "prepare 1 1", "prepare 1 2", "abort 1",
                      "prepare 2 0", "prepare 2 1", "prepare 2 2", "abort 2"}));
  MetricsSnapshot s = Snap();
  EXPECT_EQ(s.committed, 0u);
  EXPECT_EQ(s.distributed_committed, 0u);
  EXPECT_EQ(s.aborts, 3u);  // == budget
  EXPECT_EQ(s.retries, 2u);  // == budget - 1
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.prepare_rejects, 3u);
  EXPECT_EQ(s.shards[2].prepare_rejects, 3u);
  EXPECT_EQ(s.shards[2].busy_us, 3 * kPrepareUs);  // rejecting is work too
  EXPECT_EQ(s.shards[2].dist_participations, 0u);
  EXPECT_EQ(s.shards[0].dist_participations, 3u);
  EXPECT_EQ(s.shards[0].dist_latency.count, 0u);
}

TEST_F(CoordinatorTest, TimeoutAbortsAfterEveryParticipantPrepared) {
  options_.faults.coordinator_timeout_rate = 1.0;
  options_.faults.timeout_us = 0;
  options_.faults.max_attempts = 1;
  Session().ExecuteDistributed(DistributedTxn());

  EXPECT_EQ(log_, (std::vector<std::string>{"prepare 0 0", "prepare 0 1",
                                            "prepare 0 2", "abort 0"}));
  MetricsSnapshot s = Snap();
  EXPECT_EQ(s.coordinator_timeouts, 1u);
  EXPECT_EQ(s.aborts, 1u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.committed, 0u);
  for (int32_t p = 0; p < kShards; ++p) {
    EXPECT_EQ(s.shards[p].dist_participations, 1u);
  }
}

TEST_F(CoordinatorTest, StalledVoteCountsButStillCommits) {
  Session([](uint32_t /*attempt*/, int32_t shard) {
    return shard == 1 ? Stalled() : Vote{};
  }).ExecuteDistributed(DistributedTxn());

  EXPECT_EQ(log_, (std::vector<std::string>{"prepare 0 0", "prepare 0 1",
                                            "prepare 0 2", "commit 0"}));
  MetricsSnapshot s = Snap();
  EXPECT_EQ(s.committed, 1u);
  EXPECT_EQ(s.aborts, 0u);
  EXPECT_EQ(s.stalls_injected, 1u);
  EXPECT_EQ(s.shards[1].stalls, 1u);
  EXPECT_EQ(s.shards[0].stalls, 0u);
  EXPECT_EQ(s.shards[1].dist_participations, 1u);
}

}  // namespace
}  // namespace jecb
