// FaultyChannel: one coordinator->shard connection with the wire-fault
// discipline applied on the send side: drops, duplicates, delays and
// disconnects are masked here, so they never reach the 2PC outcome. Every
// client session holds one per shard (dist/socket_transport.cc).
//
// Reconnect discipline (the EventLoop watermark contract — see
// net/event_loop.h): Reset() is the ONE teardown point, and it clears the
// socket, the decode buffer, and the send sequence together. The server
// gives every accepted connection a fresh dedup watermark (last_seq = 0), so
// a sender that reconnects MUST restart its sequence at 1: frames after a
// reconnect are then never mistaken for duplicates, and an injected
// duplicate (same seq, same connection) is always suppressed.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "dist/transport.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/fault_injector.h"

namespace jecb {

/// A transport failure the protocol cannot mask (peer process died
/// unexpectedly, stream went corrupt). Any silent recovery would skew the
/// outcome counters away from the in-process backend, so fail loudly —
/// determinism bugs must never look like flaky throughput. In a shard-server
/// child the abort surfaces as an abnormal exit in ReplayReport.
[[noreturn]] void TransportPanic(const char* what, int32_t shard,
                                 const Status& status);

class FaultyChannel {
 public:
  FaultyChannel() = default;

  /// Wires the channel up; no connection is made yet. `counters` receives
  /// the send/receive/fault accounting and must outlive the channel;
  /// `injector` may be null when `wire_faults` is false.
  void Configure(net::SocketAddr addr, int32_t peer_shard,
                 const FaultInjector* injector, bool wire_faults,
                 TransportCounters* counters);

  bool connected() const { return connected_; }
  int32_t peer_shard() const { return peer_; }

  /// The single teardown point: socket, decode buffer, and send_seq drop
  /// together so the next connection starts at seq 1 against the server's
  /// fresh per-connection watermark. Does NOT count a reconnect — callers
  /// distinguish fault-injected teardowns from final closes.
  void Reset();

  /// Connects if needed (panics if the peer is unreachable). Returns true
  /// when a fresh connection was just established, so protocols with a
  /// handshake (the control plane's Hello) know to run it.
  bool EnsureConnected();

  /// Applies the per-txn disconnect fault: the channel may be torn down (to
  /// be re-established by the next EnsureConnected), but only before the
  /// txn's first message on it — mid-txn the wire is reliable by contract.
  void TouchForTxn(uint64_t txn_id);

  /// Sends pre-encoded bytes, counting one message. Panics on a dead peer.
  void RawSend(const std::string& bytes);

  /// Claims the next send sequence number (for callers that frame manually,
  /// e.g. the Hello handshake).
  uint64_t NextSeq() { return ++send_seq_; }

  /// Frames and sends with the full fault discipline: delay sleeps first, a
  /// drop accounts the first copy as sent without writing it (then waits out
  /// the retransmit timer), a duplicate re-sends with the SAME seq so the
  /// receiver's watermark suppresses it. Requires connected().
  void SendWithFaults(net::MsgType type, const std::string& payload,
                      uint64_t txn_id, uint32_t attempt);

  /// Blocks until the next frame of type `want` arrives, skipping strays.
  /// Panics on EOF or a corrupt stream.
  net::Frame RecvType(net::MsgType want);

  /// Blocks until the next frame of ANY type arrives (the coordinator's
  /// prepare loop, which reads kTupleBatch frames up to the kVote).
  net::Frame RecvAny();

 private:
  net::SocketAddr addr_;
  int32_t peer_ = -1;
  const FaultInjector* injector_ = nullptr;
  bool wire_faults_ = false;
  TransportCounters* counters_ = nullptr;

  net::Socket sock_;
  net::FrameBuffer in_;
  uint64_t send_seq_ = 0;
  uint64_t last_txn_id_ = 0;
  bool has_txn_ = false;
  bool connected_ = false;
};

}  // namespace jecb
