#include "dist/exchange.h"

#include <string>
#include <utility>

#include "obs/trace_recorder.h"

namespace jecb {

using net::Frame;
using net::MsgType;

std::vector<net::TupleBatchMsg> BuildTupleBatches(
    uint64_t txn_id, uint32_t attempt, int32_t source_shard,
    const std::vector<ExchangeEntry>& entries, uint32_t batch_bytes) {
  const uint32_t clamped = ClampExchangeBatchBytes(batch_bytes);
  std::vector<std::pair<size_t, size_t>> spans =
      ExchangeBatchSpans(entries, clamped);
  if (spans.empty()) spans.emplace_back(0, 0);  // empty stream: one terminator
  std::vector<net::TupleBatchMsg> batches;
  batches.reserve(spans.size());
  for (size_t s = 0; s < spans.size(); ++s) {
    net::TupleBatchMsg batch;
    batch.txn_id = txn_id;
    batch.attempt = attempt;
    batch.source_shard = source_shard;
    batch.batch_index = static_cast<uint32_t>(s);
    batch.last = s + 1 == spans.size() ? 1 : 0;
    batch.entries.reserve(spans[s].second - spans[s].first);
    for (size_t i = spans[s].first; i < spans[s].second; ++i) {
      batch.entries.push_back({static_cast<uint32_t>(entries[i].tuple.table),
                               static_cast<uint64_t>(entries[i].tuple.row),
                               entries[i].bytes});
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

// ---------------------------------------------------------------------------
// ExchangeNode

ExchangeNode::ExchangeNode(int32_t shard_id, const ShardedDatabase& sharded,
                           uint32_t batch_bytes)
    : shard_id_(shard_id),
      sharded_(sharded),
      batch_bytes_(ClampExchangeBatchBytes(batch_bytes)) {}

ExchangeNode::~ExchangeNode() { Stop(); }

void ExchangeNode::Start(net::Socket listener) {
  loop_ = std::make_unique<net::EventLoop>(std::move(listener));
  running_ = true;
  thread_ = std::thread([this] { Run(); });
}

void ExchangeNode::Stop() {
  if (!running_) return;
  running_ = false;
  loop_->RequestStop();
  thread_.join();  // happens-before edge: stats_ written in Run() is visible
}

void ExchangeNode::Run() {
  TraceRecorder::Default().SetThreadName("shard-" + std::to_string(shard_id_) +
                                         "/exchange");
  int64_t peer = 0;
  Frame frame;
  while (loop_->Next(&peer, &frame)) {
    if (frame.type != MsgType::kExchangeReq) continue;  // stray: ignore
    net::ExchangeMsg req;
    if (!req.Decode(frame.payload)) {
      // Structurally invalid beyond what the CRC caught: the peer is
      // confused, not the wire. Drop it rather than guess at an answer.
      loop_->ClosePeer(peer);
      continue;
    }
    ++stats_.reqs_served;
    JECB_SPAN2("exchange", "exchange.serve", "txn",
               static_cast<int64_t>(req.txn_id), "shard",
               static_cast<int64_t>(shard_id_));
    std::vector<TupleId> reads;
    reads.reserve(req.reads.size());
    for (const net::WireAccess& a : req.reads) {
      reads.push_back(TupleId{static_cast<TableId>(a.table),
                              static_cast<RowId>(a.row)});
    }
    for (const net::TupleBatchMsg& batch :
         BuildTupleBatches(req.txn_id, req.attempt, shard_id_,
                           MaterializeReads(sharded_, reads), batch_bytes_)) {
      ++stats_.batches_sent;
      stats_.tuples_sent += batch.entries.size();
      for (const net::TupleBatchEntry& e : batch.entries) {
        stats_.bytes_sent += e.bytes.size();
      }
      loop_->Send(peer, MsgType::kTupleBatch, ++reply_seq_, batch.Encode());
    }
  }
  stats_.loop = loop_->stats();
}

// ---------------------------------------------------------------------------
// ExchangeClient

void ExchangeClient::Configure(int32_t shard_id,
                               std::vector<net::SocketAddr> data_addrs,
                               const FaultInjector* injector,
                               bool wire_faults) {
  shard_id_ = shard_id;
  channels_ = std::vector<FaultyChannel>(data_addrs.size());
  for (size_t i = 0; i < data_addrs.size(); ++i) {
    channels_[i].Configure(std::move(data_addrs[i]), static_cast<int32_t>(i),
                           injector, wire_faults, &counters_, "exchange");
  }
}

void ExchangeClient::ConnectAll() {
  for (size_t i = 0; i < channels_.size(); ++i) {
    if (static_cast<int32_t>(i) == shard_id_) continue;
    channels_[i].EnsureConnected();
  }
}

std::vector<net::TupleBatchEntry> ExchangeClient::Pull(
    int32_t owner, uint64_t txn_id, uint32_t attempt,
    const std::vector<net::WireAccess>& reads, std::deque<Frame>* frames) {
  FaultyChannel& ch = channels_[static_cast<size_t>(owner)];
  ch.TouchForTxn(txn_id);
  ch.EnsureConnected();

  net::ExchangeMsg req;
  req.txn_id = txn_id;
  req.attempt = attempt;
  req.from_shard = shard_id_;
  req.reads = reads;
  JECB_SPAN2("exchange", "exchange.pull", "txn", static_cast<int64_t>(txn_id),
             "owner", static_cast<int64_t>(owner));
  ch.SendWithFaults(MsgType::kExchangeReq, req.Encode(), txn_id, attempt);

  std::vector<net::TupleBatchEntry> entries;
  entries.reserve(reads.size());
  uint32_t expect_index = 0;
  for (;;) {
    // Decoded from the frame's place in `frames`, which never moves it.
    const Frame& frame = frames->emplace_back(ch.RecvType(MsgType::kTupleBatch));
    net::TupleBatchMsg batch;
    if (!batch.Decode(frame.payload)) {
      TransportPanic("exchange", owner, Status::Internal("bad TupleBatchMsg"));
    }
    if (batch.txn_id != txn_id || batch.batch_index != expect_index) {
      TransportPanic("exchange", owner,
                     Status::Internal("tuple batch stream out of order"));
    }
    ++expect_index;
    entries.insert(entries.end(), batch.entries.begin(), batch.entries.end());
    if (batch.last != 0) break;
  }
  if (entries.size() != reads.size()) {
    TransportPanic("exchange", owner,
                   Status::Internal("tuple batch stream truncated"));
  }
  return entries;
}

}  // namespace jecb
