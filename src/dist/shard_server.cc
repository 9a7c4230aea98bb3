#include "dist/shard_server.h"

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/topology.h"
#include "dist/telemetry.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "runtime/exchange.h"

namespace jecb {

using net::EventLoop;
using net::Frame;
using net::MsgType;

ShardServer::ShardServer(int32_t shard_id, const ShardedDatabase& sharded,
                         const RuntimeOptions& options)
    : shard_id_(shard_id),
      sharded_(sharded),
      options_(options),
      injector_(options.faults),
      prepare_us_(options.local_work_us + options.lock_hold_us) {}

void ShardServer::Reply(EventLoop& loop, int64_t peer, MsgType type,
                        const std::string& payload) {
  loop.Send(peer, type, ++reply_seq_, payload);
}

net::ShardStatsMsg ShardServer::ControlStats(const EventLoop& loop) const {
  net::ShardStatsMsg out = stats_;
  const net::EventLoopStats& ls = loop.stats();
  out.frames_received = ls.frames_received;
  out.frames_sent = ls.frames_sent;
  out.bytes_received = ls.bytes_received;
  out.bytes_sent = ls.bytes_sent;
  out.dedup_dropped = ls.dedup_dropped;
  out.peer_disconnects = ls.peer_disconnects;
  return out;
}

net::ShardStatsMsg ShardServer::FinalStats(const EventLoop& loop) const {
  net::ShardStatsMsg out = ControlStats(loop);
  // Topology tail: whole-process context switches and where — if anywhere —
  // this child was pinned.
  const ContextSwitchCounts csw = ProcessContextSwitches();
  out.pinned_cpu = pinned_cpu_;
  out.ctx_voluntary = csw.voluntary;
  out.ctx_involuntary = csw.involuntary;
  return out;
}

void ShardServer::SendTelemetry(EventLoop& loop, int64_t peer,
                                const net::ShardStatsMsg& snapshot) {
  // Publish the protocol counters into the child's registry so the metrics
  // snapshot ships them. Snapshot-stores (not adds) keep periodic harvests
  // idempotent; the shard label makes every series cluster-unique when the
  // coordinator re-renders them.
  MetricsRegistry& m = MetricsRegistry::Default();
  const std::string label = "{shard=\"" + std::to_string(shard_id_) + "\"}";
  auto put = [&](const char* family, uint64_t v) {
    m.Counter(std::string(family) + label).store(v, std::memory_order_relaxed);
  };
  put("jecb_shard_executed_local_total", snapshot.executed_local);
  put("jecb_shard_prepares_served_total", snapshot.prepares_served);
  put("jecb_shard_commits_applied_total", snapshot.commits_applied);
  put("jecb_shard_aborts_observed_total", snapshot.aborts_observed);
  put("jecb_shard_stalls_served_total", snapshot.stalls_served);
  put("jecb_shard_frames_received_total", snapshot.frames_received);
  put("jecb_shard_frames_sent_total", snapshot.frames_sent);
  put("jecb_shard_bytes_received_total", snapshot.bytes_received);
  put("jecb_shard_bytes_sent_total", snapshot.bytes_sent);

  for (const net::TelemetryMsg& batch : dist::BuildTelemetryBatches(shard_id_)) {
    Reply(loop, peer, MsgType::kTelemetry, batch.Encode());
  }
}

void ShardServer::HandleExecute(EventLoop& loop, int64_t peer,
                                const Frame& frame) {
  net::FragmentMsg frag;
  if (!frag.Decode(frame.payload)) {
    // Structurally invalid beyond what the CRC caught: the peer is confused,
    // not the wire. Drop it rather than guess at an answer.
    loop.ClosePeer(peer);
    return;
  }
  ++stats_.executed_local;
  TraceRecorder& rec = TraceRecorder::Default();
  const bool traced =
      rec.enabled() && TxnTraceSampled(options_.faults.seed, frag.txn_id,
                                       options_.trace_sample_rate);
  const uint64_t t0 = traced ? rec.NowUs() : 0;
  SimulateCpuWork(options_.local_work_us);
  net::TxnRefMsg ack;
  ack.txn_id = frag.txn_id;
  ack.attempt = frag.attempt;
  Reply(loop, peer, MsgType::kExecuteAck, ack.Encode());
  if (traced) {
    rec.Span("shard", "shard.execute", t0, rec.NowUs() - t0, "txn",
             static_cast<int64_t>(frag.txn_id), "shard", shard_id_);
  }
}

void ShardServer::HandlePrepare(EventLoop& loop, int64_t peer,
                                const Frame& frame) {
  net::FragmentMsg frag;
  if (!frag.Decode(frame.payload)) {
    loop.ClosePeer(peer);
    return;
  }
  ++stats_.prepares_served;
  TraceRecorder& rec = TraceRecorder::Default();
  const bool traced =
      rec.enabled() && TxnTraceSampled(options_.faults.seed, frag.txn_id,
                                       options_.trace_sample_rate);
  const uint64_t prepare_t0 = traced ? rec.NowUs() : 0;

  net::VoteMsg vote;
  vote.txn_id = frag.txn_id;
  vote.attempt = frag.attempt;

  // Same decision coordinates, same injector, same plan as the in-process
  // ShardChannel — so this shard votes down/reject on exactly the
  // (txn, attempt) pairs the in-process backend would have.
  if (injector_.ShardDown(frag.txn_id, frag.attempt, shard_id_)) {
    // Down shards refuse before doing any work (no CPU burned, no hold) —
    // mirrors the in-process path checking ShardDown before taking the lock.
    vote.decision = net::VoteDecision::kDown;
    Reply(loop, peer, MsgType::kVote, vote.Encode());
    return;
  }

  SimulateCpuWork(prepare_us_);
  if (injector_.ShardStalls(frag.txn_id, frag.attempt, shard_id_)) {
    // The stall occupies the shard without burning CPU: this loop is the
    // shard's only worker, so sleeping here backpressures every other client
    // the same way the in-process stall sleeps under the shard lock.
    vote.stalled = 1;
    ++stats_.stalls_served;
    SimulateNetworkDelay(injector_.plan().stall_us);
  }
  if (injector_.PrepareRejected(frag.txn_id, frag.attempt, shard_id_)) {
    vote.decision = net::VoteDecision::kReject;
    Reply(loop, peer, MsgType::kVote, vote.Encode());
    return;
  }

  // Vote yes with the rows this shard serves ahead of the vote, then HOLD:
  // block on this one peer until its coordinator resolves the transaction.
  // Every other connection queues in the kernel — the real-wire equivalent
  // of keeping the shard mutex across the vote round trip — so the rows
  // shipped now are still the rows at commit.
  SendReads(loop, peer, frag);
  vote.decision = net::VoteDecision::kYes;
  Reply(loop, peer, MsgType::kVote, vote.Encode());
  if (traced) {
    rec.Span("shard", "shard.prepare", prepare_t0, rec.NowUs() - prepare_t0,
             "txn", static_cast<int64_t>(frag.txn_id), "shard", shard_id_);
  }
  const uint64_t hold_t0 = traced ? rec.NowUs() : 0;

  Frame resolution;
  while (loop.NextFrom(peer, &resolution)) {
    // Both resolutions are one-way: the coordinator already has the rows,
    // so releasing the hold is all that is left to do.
    if (resolution.type == MsgType::kCommit) {
      ++stats_.commits_applied;
    } else if (resolution.type == MsgType::kAbort) {
      ++stats_.aborts_observed;
    } else {
      continue;  // a stray mid-hold; keep waiting for the resolution
    }
    if (traced) {
      rec.Span("shard", "shard.hold", hold_t0, rec.NowUs() - hold_t0, "txn",
               static_cast<int64_t>(frag.txn_id), "shard", shard_id_);
    }
    return;
  }
  // Peer vanished (or we were stopped) while holding: presume abort, release.
  ++stats_.aborts_observed;
}

void ShardServer::SendReads(EventLoop& loop, int64_t peer,
                            const net::FragmentMsg& frag) {
  if (frag.exchange_reads.empty()) return;  // the vote alone ends the share
  std::vector<TupleId> reads;
  reads.reserve(frag.exchange_reads.size());
  for (const net::WireAccess& a : frag.exchange_reads) {
    reads.push_back(
        TupleId{static_cast<TableId>(a.table), static_cast<RowId>(a.row)});
  }
  // The rows view the encoded-row store; ExchangeBatchSpans' greedy rule
  // bounds each batch.
  const std::vector<ExchangeEntry> entries = MaterializeReads(sharded_, reads);
  const std::vector<std::pair<size_t, size_t>> spans = ExchangeBatchSpans(
      entries, ClampExchangeBatchBytes(options_.exchange_batch_bytes));
  net::TupleBatchMsg batch;
  batch.txn_id = frag.txn_id;
  batch.attempt = frag.attempt;
  batch.source_shard = shard_id_;
  for (size_t s = 0; s < spans.size(); ++s) {
    batch.batch_index = static_cast<uint32_t>(s);
    batch.last = s + 1 == spans.size() ? 1 : 0;
    batch.entries.clear();
    for (size_t i = spans[s].first; i < spans[s].second; ++i) {
      batch.entries.push_back({static_cast<uint32_t>(entries[i].tuple.table),
                               static_cast<uint64_t>(entries[i].tuple.row),
                               entries[i].bytes});
      stats_.exchange_bytes_sent += entries[i].bytes.size();
    }
    ++stats_.exchange_batches_sent;
    stats_.exchange_tuples_sent += batch.entries.size();
    Reply(loop, peer, MsgType::kTupleBatch, batch.Encode());
  }
}

net::ShardStatsMsg ShardServer::Serve(net::Socket listener) {
  // The forked child inherits the coordinator's registry (partitioner and
  // replay counters); drop it, so the telemetry this shard ships carries
  // only its own series. Still single-threaded here, and no code holds a
  // metric reference across this call.
  MetricsRegistry::Default().Reset();
  if (options_.pin_threads) {
    // Pin the child to its shard's planned cpu. Every child computes the
    // same deterministic plan from the same topology, so shard i lands on
    // plan[i] cluster-wide.
    std::vector<int32_t> plan =
        BuildPinPlan(DetectCpuTopology(), sharded_.num_shards());
    if (static_cast<size_t>(shard_id_) < plan.size() &&
        PinCurrentProcessToCpu(plan[shard_id_])) {
      pinned_cpu_ = plan[shard_id_];
    }
  }
  TraceRecorder::Default().SetThreadName("shard-" + std::to_string(shard_id_) +
                                         "/control");
  EventLoop loop(std::move(listener));
  int64_t peer = 0;
  Frame frame;
  while (loop.Next(&peer, &frame)) {
    switch (frame.type) {
      case MsgType::kHello: {
        net::HelloMsg hello;
        if (!hello.Decode(frame.payload) || hello.shard_id != shard_id_) {
          loop.ClosePeer(peer);
          break;
        }
        net::HelloAckMsg ack;
        ack.shard_id = shard_id_;
        ack.num_shards = sharded_.num_shards();
        // Clock sample for the peer's offset estimate (it timestamps the
        // Hello round trip on its own recorder clock).
        ack.now_us = TraceRecorder::Default().NowUs();
        Reply(loop, peer, MsgType::kHelloAck, ack.Encode());
        break;
      }
      case MsgType::kExecute:
        HandleExecute(loop, peer, frame);
        break;
      case MsgType::kPrepare:
        HandlePrepare(loop, peer, frame);
        break;
      case MsgType::kTelemetryReq:
        // Live harvest: drain the span ring + metrics snapshot to this
        // peer. Purely observational — no outcome counter moves.
        SendTelemetry(loop, peer, ControlStats(loop));
        break;
      case MsgType::kShutdown: {
        if (options_.debug_crash_on_shutdown_shard == shard_id_) {
          // Injected abnormal exit (tests): leave a postmortem dump and die
          // without the stats reply, exactly like a real crash after all
          // transactions completed.
          DumpFlightRecorder("injected-crash");
          std::_Exit(3);
        }
        if (options_.debug_wedge_shard == shard_id_) {
          // Injected wedge (tests): ignore the shutdown request so the
          // parent's reap ladder escalates to SIGTERM, exercising the
          // flight recorder's signal path below.
          break;
        }
        // Harvest counters BEFORE the stats reply so the reply reflects
        // everything up to and including the shutdown request itself.
        net::ShardStatsMsg final_stats = FinalStats(loop);
        // Final telemetry flush rides in front of the stats reply: the
        // coordinator ingests kTelemetry frames until kShardStats arrives.
        if (options_.telemetry_harvest) {
          SendTelemetry(loop, peer, final_stats);
        }
        Reply(loop, peer, MsgType::kShardStats, final_stats.Encode());
        loop.RequestStop();
        break;
      }
      default:
        // kCommit/kAbort outside a hold: a resolution for a transaction we
        // already released (e.g. after a coordinator-side timeout abort).
        // Nothing to do — the release already happened.
        break;
    }
  }
  if (net::StopFlagRaised()) {
    // Killed (reap-ladder SIGTERM, orphaned child): preserve the evidence.
    DumpFlightRecorder("sigterm");
  }
  return FinalStats(loop);
}

}  // namespace jecb
