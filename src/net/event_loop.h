// poll()-based event loop for a shard server: accepts peers on one listener,
// reads non-blocking into per-peer FrameBuffers, and surfaces complete,
// dedup-filtered frames one at a time. Single-threaded on purpose — the loop
// IS the shard's worker, so serving one request at a time is exactly the
// one-worker-per-shard serialization the in-process executor models with a
// per-shard mutex.
//
// Two read modes:
//  - Next(): the normal multiplexed serve loop across all peers.
//  - NextFrom(peer): blocks on ONE peer until its next frame arrives, while
//    every other peer's bytes wait unread in the kernel. This is how a 2PC
//    prepare "holds the shard" across the coordinator's vote round trip: the
//    shard cannot serve anyone else until the commit/abort for the held
//    transaction arrives (the Fig. 1 lock-hold cost, now over a real wire).
//    Holds cannot deadlock because coordinators prepare participants in
//    ascending shard-id order (dist/shard_server.h has the argument).
//
// Duplicate suppression: frame sequence numbers increase per connection; a
// frame whose seq is not greater than the peer's last accepted seq is
// counted in stats().dedup_dropped and never surfaced — which is what makes
// the transport fault injector's deliberate re-sends invisible to the
// protocol layer.
//
// Watermark scope contract (load-bearing for reconnects): the dedup
// watermark lives in the per-connection Peer and every accepted connection
// starts a fresh Peer with last_seq = 0. Senders must therefore reset their
// send_seq to 0 together with the socket and FrameBuffer whenever they
// reconnect (dist/wire_channel.h's Reset() is the one place that does all
// three) — then a reconnected sender's frames always start above the new
// watermark (nothing legitimate is dropped) and an injected duplicate,
// re-sent with its original seq on the SAME connection, is always at or
// below it (nothing duplicated is re-accepted). A duplicate can never cross
// a reconnect: the old connection's queue dies with its Peer.
//
// Stop conditions: RequestStop() (atomic, so callable from another thread)
// or the process-wide stop flag (async-signal-safe; see
// InstallStopSignalHandler) — both make Next() return false after at most
// one poll timeout.
#pragma once

#include <atomic>
#include <csignal>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>

#include "net/socket.h"
#include "net/wire.h"

namespace jecb::net {

/// Byte/frame accounting of one loop's lifetime.
struct EventLoopStats {
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t peers_accepted = 0;
  uint64_t peer_disconnects = 0;
  uint64_t dedup_dropped = 0;
  uint64_t corrupt_streams = 0;
};

/// Installs a SIGTERM/SIGINT handler that sets the process-wide stop flag
/// every EventLoop polls. Safe to call more than once. Meant for shard
/// server processes, so a parent's kill(SIGTERM) produces a clean drain and
/// exit instead of an abort.
void InstallStopSignalHandler();

/// Raises the same process-wide stop flag programmatically (tests, in-thread
/// servers). Async-signal-safe.
void RaiseStopFlag();

/// Clears the flag (call before reusing a loop in the same process).
void ClearStopFlag();

/// Whether the process-wide stop flag is currently raised — lets post-loop
/// code distinguish a SIGTERM-driven exit (flight-recorder dump) from a
/// protocol-driven one.
bool StopFlagRaised();

class EventLoop {
 public:
  explicit EventLoop(Socket listener);
  ~EventLoop() = default;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// One frame from any peer, accepting new connections as they arrive.
  /// Returns false when stopped (RequestStop or the signal flag); never
  /// returns false merely because no peer is currently connected.
  bool Next(int64_t* peer, Frame* frame);

  /// The next frame from `peer` only (the prepare-hold read). Returns false
  /// if the peer disconnects or the loop is stopped — the caller treats
  /// that as an abort of the held transaction.
  bool NextFrom(int64_t peer, Frame* frame);

  /// Sends one frame to `peer` (blocking; replies are small). A send to a
  /// vanished peer is a no-op: the disconnect was already accounted.
  void Send(int64_t peer, MsgType type, uint64_t seq, std::string_view payload);

  void ClosePeer(int64_t peer);
  /// Safe to call from another thread: the owning thread observes it within
  /// one poll timeout. Joining that thread afterwards is the happens-before
  /// edge that makes its stats() safe to read.
  void RequestStop() { stop_requested_.store(true, std::memory_order_relaxed); }
  bool stopped() const;

  const EventLoopStats& stats() const { return stats_; }
  size_t num_peers() const { return peers_.size(); }

 private:
  struct Peer {
    Socket sock;
    FrameBuffer in;
    std::deque<Frame> ready;
    uint64_t last_seq = 0;  ///< highest accepted seq (dedup watermark)
  };

  /// Accept + read every ready fd once; parses new frames into peer queues.
  /// `focus` < 0 polls everything; otherwise only that peer's fd (the hold).
  /// Returns false on stop.
  bool PollOnce(int64_t focus);
  void ReadPeer(int64_t id, Peer& peer);
  bool PopReady(int64_t focus, int64_t* peer, Frame* frame);

  Socket listener_;
  std::map<int64_t, Peer> peers_;
  int64_t next_peer_id_ = 1;
  std::atomic<bool> stop_requested_{false};
  EventLoopStats stats_;
};

}  // namespace jecb::net
