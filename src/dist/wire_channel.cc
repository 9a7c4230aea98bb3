#include "dist/wire_channel.h"

#include <cstdio>
#include <cstdlib>

#include "runtime/executor.h"

namespace jecb {

using net::Frame;
using net::MsgType;

void TransportPanic(const char* what, int32_t shard, const Status& status) {
  std::fprintf(stderr, "jecb: fatal transport error (%s, shard %d): %s\n",
               what, shard, status.ToString().c_str());
  std::abort();
}

void FaultyChannel::Configure(net::SocketAddr addr, int32_t peer_shard,
                              const FaultInjector* injector, bool wire_faults,
                              TransportCounters* counters) {
  addr_ = std::move(addr);
  peer_ = peer_shard;
  injector_ = injector;
  wire_faults_ = wire_faults && injector != nullptr;
  counters_ = counters;
}

void FaultyChannel::Reset() {
  sock_.Close();
  in_ = net::FrameBuffer();
  send_seq_ = 0;
  connected_ = false;
}

bool FaultyChannel::EnsureConnected() {
  if (connected_) return false;
  Result<net::Socket> conn = Connect(addr_);
  if (!conn.ok()) TransportPanic("coord", peer_, conn.status());
  sock_ = std::move(conn).value();
  connected_ = true;
  return true;
}

void FaultyChannel::TouchForTxn(uint64_t txn_id) {
  const bool first_msg_of_txn = !has_txn_ || last_txn_id_ != txn_id;
  has_txn_ = true;
  last_txn_id_ = txn_id;
  if (!first_msg_of_txn || !wire_faults_ || !connected_) return;
  if (!injector_->WireDisconnects(txn_id, peer_)) return;
  // Tear the connection down between transactions only: the reconnect is
  // pure wire churn, invisible to 2PC outcomes by construction.
  Reset();
  counters_->reconnects += 1;
}

void FaultyChannel::RawSend(const std::string& bytes) {
  Status s = net::SendAll(sock_, bytes.data(), bytes.size());
  if (!s.ok()) TransportPanic("coord", peer_, s);
  counters_->messages_sent += 1;
  counters_->bytes_sent += bytes.size();
}

void FaultyChannel::SendWithFaults(MsgType type, const std::string& payload,
                                   uint64_t txn_id, uint32_t attempt) {
  const uint8_t kind = static_cast<uint8_t>(type);
  if (wire_faults_ && injector_->WireDelays(txn_id, attempt, peer_, kind)) {
    counters_->wire_delays += 1;
    SimulateNetworkDelay(injector_->plan().wire_delay_us);
  }
  const std::string bytes = net::EncodeFrame(type, ++send_seq_, payload);
  if (wire_faults_ && injector_->WireDrops(txn_id, attempt, peer_, kind)) {
    // The first copy is "lost on the wire": account it as sent, never write
    // it, wait out the retransmit timer, then send for real.
    counters_->wire_drops += 1;
    counters_->messages_sent += 1;
    counters_->bytes_sent += bytes.size();
    SimulateNetworkDelay(injector_->plan().wire_retransmit_us);
  }
  RawSend(bytes);
  if (wire_faults_ && injector_->WireDuplicates(txn_id, attempt, peer_, kind)) {
    // Same sequence number on purpose: the peer's dedup watermark drops it.
    counters_->wire_duplicates += 1;
    RawSend(bytes);
  }
}

Frame FaultyChannel::RecvAny() {
  char chunk[64 * 1024];
  Frame frame;
  for (;;) {
    net::FrameBuffer::NextResult res = in_.Next(&frame);
    if (res == net::FrameBuffer::NextResult::kFrame) {
      counters_->messages_received += 1;
      return frame;
    }
    if (res == net::FrameBuffer::NextResult::kCorrupt) {
      TransportPanic("coord", peer_, in_.error());
    }
    net::RecvSomeResult r = net::RecvSome(sock_, chunk, sizeof(chunk));
    if (r.n == 0) TransportPanic("coord", peer_, Status::Internal("peer closed"));
    if (r.n < 0 && !r.status.ok()) TransportPanic("coord", peer_, r.status);
    if (r.n > 0) {
      in_.Feed(chunk, static_cast<size_t>(r.n));
      counters_->bytes_received += static_cast<uint64_t>(r.n);
    }
  }
}

Frame FaultyChannel::RecvType(MsgType want) {
  for (;;) {
    Frame frame = RecvAny();
    if (frame.type == want) return frame;
    // Stray (late ack of an aborted attempt): skip.
  }
}

}  // namespace jecb
