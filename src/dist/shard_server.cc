#include "dist/shard_server.h"

#include <cstdlib>
#include <deque>
#include <string>
#include <utility>

#include "common/topology.h"
#include "dist/telemetry.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"

namespace jecb {

using net::EventLoop;
using net::Frame;
using net::MsgType;

ShardServer::ShardServer(int32_t shard_id, const ShardedDatabase& sharded,
                         const RuntimeOptions& options,
                         std::vector<net::SocketAddr> data_addrs)
    : shard_id_(shard_id),
      sharded_(sharded),
      options_(options),
      injector_(options.faults),
      prepare_us_(options.local_work_us + options.lock_hold_us),
      node_(shard_id, sharded, options.exchange_batch_bytes) {
  client_.Configure(shard_id, std::move(data_addrs), &injector_,
                    options_.faults.wire_enabled());
}

void ShardServer::Reply(EventLoop& loop, int64_t peer, MsgType type,
                        const std::string& payload) {
  loop.Send(peer, type, ++reply_seq_, payload);
}

void ShardServer::MergeExchangeStats(net::ShardStatsMsg& out) const {
  // Only valid after node_.Stop() (the join makes the node's counters
  // visible); the client is control-thread-local so its counters are ours.
  const ExchangeNode::Stats& ns = node_.stats();
  out.exchange_reqs_served = ns.reqs_served;
  out.exchange_batches_sent = ns.batches_sent + stream_batches_;
  out.exchange_tuples_sent = ns.tuples_sent + stream_tuples_;
  out.exchange_bytes_sent = ns.bytes_sent + stream_bytes_;
  out.frames_received += ns.loop.frames_received;
  out.frames_sent += ns.loop.frames_sent;
  out.bytes_received += ns.loop.bytes_received;
  out.bytes_sent += ns.loop.bytes_sent;
  out.dedup_dropped += ns.loop.dedup_dropped;
  out.peer_disconnects += ns.loop.peer_disconnects;

  const TransportCounters& cc = client_.counters();
  out.exchange_reqs_sent = cc.messages_sent;
  out.exchange_wire_drops = cc.wire_drops;
  out.exchange_wire_delays = cc.wire_delays;
  out.exchange_wire_duplicates = cc.wire_duplicates;
  out.exchange_reconnects = cc.reconnects;
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
  MergeExchangeStats(out);
  // Topology tail: whole-process context switches (control + exchange
  // threads) and where — if anywhere — this child was pinned.
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

  // Vote yes, then HOLD: block on this one peer until its coordinator
  // resolves the transaction. Every other connection queues in the kernel —
  // the real-wire equivalent of keeping the shard mutex across the vote
  // round trip.
  vote.decision = net::VoteDecision::kYes;
  Reply(loop, peer, MsgType::kVote, vote.Encode());
  if (traced) {
    rec.Span("shard", "shard.prepare", prepare_t0, rec.NowUs() - prepare_t0,
             "txn", static_cast<int64_t>(frag.txn_id), "shard", shard_id_);
  }
  const uint64_t hold_t0 = traced ? rec.NowUs() : 0;

  Frame resolution;
  while (loop.NextFrom(peer, &resolution)) {
    if (resolution.type == MsgType::kCommit) {
      ++stats_.commits_applied;
      if (traced) {
        rec.Span("shard", "shard.hold", hold_t0, rec.NowUs() - hold_t0, "txn",
                 static_cast<int64_t>(frag.txn_id), "shard", shard_id_);
      }
      // Exchange fires on the committing attempt only: the home shard's
      // prepare carried the full read set, so pull the remote rows now and
      // stream the assembly before the ack. Non-home participants (empty
      // exchange_reads... unless the txn reads nothing, in which case the
      // stream is just absent and the coordinator collects zero batches)
      // ack immediately.
      if (!frag.exchange_reads.empty()) {
        StreamAssembledReads(loop, peer, frag);
      }
      net::TxnRefMsg ack;
      ack.txn_id = frag.txn_id;
      ack.attempt = frag.attempt;
      Reply(loop, peer, MsgType::kCommitAck, ack.Encode());
      return;
    }
    if (resolution.type == MsgType::kAbort) {
      // Fire-and-forget from the coordinator (aborts release locks without a
      // round trip in the in-process backend too).
      ++stats_.aborts_observed;
      if (traced) {
        rec.Span("shard", "shard.hold", hold_t0, rec.NowUs() - hold_t0, "txn",
                 static_cast<int64_t>(frag.txn_id), "shard", shard_id_);
      }
      return;
    }
    // Anything else mid-hold is a stray; keep waiting for the resolution.
  }
  // Peer vanished (or we were stopped) while holding: presume abort, release.
  ++stats_.aborts_observed;
}

void ShardServer::StreamAssembledReads(EventLoop& loop, int64_t peer,
                                       const net::FragmentMsg& frag) {
  const std::vector<net::WireAccess>& reads = frag.exchange_reads;
  std::vector<ExchangeEntry> entries(reads.size());

  // Partition the read set by owner, preserving access order within each
  // owner. Rows this shard stores (own or replicated copies) are viewed in
  // the encoded-row store; the rest are pulled from their owners' data
  // planes in ascending shard order and viewed in the received `frames`,
  // which outlive the entries.
  std::vector<std::vector<size_t>> remote_pos(
      static_cast<size_t>(sharded_.num_shards()));
  for (size_t i = 0; i < reads.size(); ++i) {
    TupleId t{static_cast<TableId>(reads[i].table),
              static_cast<RowId>(reads[i].row)};
    int32_t owner = sharded_.PrimaryShardOf(t);
    if (owner == kReplicated || owner == shard_id_) {
      entries[i] = {t, sharded_.EncodedRow(t)};
    } else {
      remote_pos[static_cast<size_t>(owner)].push_back(i);
    }
  }
  std::deque<net::Frame> frames;
  for (int32_t owner = 0; owner < sharded_.num_shards(); ++owner) {
    const std::vector<size_t>& pos = remote_pos[static_cast<size_t>(owner)];
    if (pos.empty()) continue;
    std::vector<net::WireAccess> want;
    want.reserve(pos.size());
    for (size_t i : pos) want.push_back(reads[i]);
    const std::vector<net::TupleBatchEntry> rows =
        client_.Pull(owner, frag.txn_id, frag.attempt, want, &frames);
    for (size_t j = 0; j < pos.size(); ++j) {
      entries[pos[j]] = {TupleId{static_cast<TableId>(rows[j].table),
                                 static_cast<RowId>(rows[j].row)},
                         rows[j].bytes};
    }
  }

  // Stream the assembled read set (access order) to the coordinator. The
  // CommitAck the caller sends right after is the stream terminator, so an
  // empty-span stream needs no special casing coordinator-side.
  for (const net::TupleBatchMsg& batch :
       BuildTupleBatches(frag.txn_id, frag.attempt, shard_id_, entries,
                         options_.exchange_batch_bytes)) {
    ++stream_batches_;
    stream_tuples_ += batch.entries.size();
    for (const net::TupleBatchEntry& e : batch.entries) {
      stream_bytes_ += e.bytes.size();
    }
    Reply(loop, peer, MsgType::kTupleBatch, batch.Encode());
  }
}

net::ShardStatsMsg ShardServer::Serve(net::Socket listener,
                                      net::Socket data_listener) {
  // The forked child inherits the coordinator's registry (partitioner and
  // replay counters); drop it, so the telemetry this shard ships carries
  // only its own series. Still single-threaded here, and no code holds a
  // metric reference across this call.
  MetricsRegistry::Default().Reset();
  if (options_.pin_threads) {
    // Pin the whole child to its shard's planned cpu NOW, while still
    // single-threaded: the exchange node thread spawned below inherits the
    // affinity mask. Every child computes the same deterministic plan from
    // the same topology, so shard i lands on plan[i] cluster-wide.
    std::vector<int32_t> plan =
        BuildPinPlan(DetectCpuTopology(), sharded_.num_shards());
    if (static_cast<size_t>(shard_id_) < plan.size() &&
        PinCurrentProcessToCpu(plan[shard_id_])) {
      pinned_cpu_ = plan[shard_id_];
    }
  }
  // The node thread is spawned here, AFTER fork (the child was
  // single-threaded at fork, which keeps sanitizers happy), and serves the
  // data plane for the whole control-loop lifetime.
  node_.Start(std::move(data_listener));
  // Peers' data listeners were all bound before fork, so these connects
  // cannot flake; established now, the steady-state pull path never pays
  // connection setup.
  client_.ConnectAll();
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
          node_.Stop();
          DumpFlightRecorder("injected-crash");
          std::_Exit(3);
        }
        if (options_.debug_wedge_shard == shard_id_) {
          // Injected wedge (tests): ignore the shutdown request so the
          // parent's reap ladder escalates to SIGTERM, exercising the
          // flight recorder's signal path below.
          break;
        }
        // Stop the exchange node FIRST: Drain() only shuts shards down
        // after every client session is gone, so no exchange traffic can be
        // in flight — and the join makes the node's counters safe to fold
        // into the stats reply below.
        node_.Stop();
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
  // SIGTERM path (no kShutdown frame): the node's loop saw the same
  // process-wide stop flag; join it before touching its counters.
  node_.Stop();
  if (net::StopFlagRaised()) {
    // Killed (reap-ladder SIGTERM, orphaned child): preserve the evidence.
    DumpFlightRecorder("sigterm");
  }
  return FinalStats(loop);
}

}  // namespace jecb
