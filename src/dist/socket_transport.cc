#include "dist/socket_transport.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <thread>
#include <utility>

#include "dist/shard_server.h"
#include "dist/telemetry.h"
#include "dist/wire_channel.h"
#include "obs/flight_recorder.h"
#include "obs/trace_recorder.h"
#include "runtime/exchange.h"

namespace jecb {

namespace {

using net::Frame;
using net::MsgType;

std::string MakeTempDir(const char* leaf_template) {
  const char* tmp = std::getenv("TMPDIR");
  std::string tmpl = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  tmpl += "/";
  tmpl += leaf_template;
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (mkdtemp(buf.data()) == nullptr) return {};
  return std::string(buf.data());
}

std::string DefaultSocketDir() { return MakeTempDir("jecb-dist-XXXXXX"); }

std::string PostmortemPath(const std::string& dir, int32_t shard) {
  return dir + "/shard-" + std::to_string(shard) + ".postmortem.json";
}

/// Receives one complete frame from a blocking socket, feeding leftover
/// bytes through `in` (which must persist across calls on the same
/// connection). Counts raw received bytes into *bytes when non-null.
/// Returns false on timeout, EOF, or a corrupt stream.
bool RecvFrameBlocking(net::Socket& sock, net::FrameBuffer& in, Frame* frame,
                       uint64_t* bytes) {
  char chunk[4096];
  for (;;) {
    net::FrameBuffer::NextResult res = in.Next(frame);
    if (res == net::FrameBuffer::NextResult::kFrame) return true;
    if (res == net::FrameBuffer::NextResult::kCorrupt) return false;
    net::RecvSomeResult r = net::RecvSome(sock, chunk, sizeof(chunk));
    if (r.n <= 0) return false;
    in.Feed(chunk, static_cast<size_t>(r.n));
    if (bytes != nullptr) *bytes += static_cast<uint64_t>(r.n);
  }
}

void SetRecvTimeout(net::Socket& sock, int seconds) {
  struct timeval tv{};
  tv.tv_sec = seconds;
  setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

SocketTransport::SocketTransport(const ShardedDatabase& sharded,
                                 const RuntimeOptions& options,
                                 RuntimeMetrics* metrics)
    : sharded_(sharded),
      options_(options),
      metrics_(metrics),
      injector_(options.faults) {}

SocketTransport::~SocketTransport() { Drain(); }

Status SocketTransport::Start() {
  if (started_) return Status::OK();
  const int32_t n = sharded_.num_shards();
  addrs_.resize(static_cast<size_t>(n));
  data_addrs_.resize(static_cast<size_t>(n));
  procs_.resize(static_cast<size_t>(n));
  shard_exits_.assign(static_cast<size_t>(n), ShardExitStatus{});
  shard_rtt_.clear();
  for (int32_t i = 0; i < n; ++i) {
    shard_rtt_.push_back(std::make_unique<LatencyHistogram>());
  }
  clock_offsets_us_.assign(static_cast<size_t>(n), 0);
  offset_rtts_us_.assign(static_cast<size_t>(n), UINT64_MAX);

  // Where the children's flight recorders dump on abnormal exit. A private
  // temp dir when the caller did not pick one; Drain() removes it only if it
  // stayed empty, so postmortems survive the run for the report to point at.
  postmortem_dir_ = options_.postmortem_dir;
  if (postmortem_dir_.empty()) {
    postmortem_dir_ = MakeTempDir("jecb-post-XXXXXX");
    owned_postmortem_dir_ = !postmortem_dir_.empty();
  } else {
    mkdir(postmortem_dir_.c_str(), 0755);  // best effort; EEXIST is fine
  }

  // Construct the recorder singleton (fixing its trace-time epoch) before
  // forking, so parent and children share one origin and the Hello clock
  // offset estimate only has residual drift to correct.
  (void)TraceRecorder::Default().NowUs();

  std::string dir;
  if (options_.transport == TransportKind::kUnixSocket) {
    dir = options_.socket_dir;
    if (dir.empty()) {
      owned_socket_dir_ = DefaultSocketDir();
      if (owned_socket_dir_.empty()) {
        return Status::Internal("mkdtemp failed for socket dir");
      }
      dir = owned_socket_dir_;
    }
  }

  // Bind every listener first: by the time any child serves, every address
  // exists, so cross-shard connection order can never flake. Crucially this
  // covers the exchange DATA listeners too — a child's ExchangeClient
  // connects to its peers right after fork, and pre-fork binding is what
  // guarantees those connects can never race a peer that hasn't bound yet.
  auto bind_one = [&](int32_t i, const char* suffix, net::SocketAddr& addr,
                      std::vector<net::Socket>& out) -> Status {
    if (options_.transport == TransportKind::kUnixSocket) {
      addr.is_unix = true;
      addr.path = dir + "/shard-" + std::to_string(i) + suffix;
    } else {
      addr.is_unix = false;
      addr.port = 0;  // kernel-assigned
    }
    Result<net::Socket> listener = Listen(addr);
    if (!listener.ok()) return listener.status();
    if (!addr.is_unix) {
      Result<uint16_t> port = BoundTcpPort(listener.value());
      if (!port.ok()) return port.status();
      addr.port = port.value();
    }
    out.push_back(std::move(listener).value());
    return Status::OK();
  };
  std::vector<net::Socket> listeners;
  std::vector<net::Socket> data_listeners;
  listeners.reserve(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    Status s = bind_one(i, ".sock", addrs_[static_cast<size_t>(i)], listeners);
    if (!s.ok()) return s;
    s = bind_one(i, ".data.sock", data_addrs_[static_cast<size_t>(i)],
                 data_listeners);
    if (!s.ok()) return s;
  }

  // Fork the shard servers while this process is still single-threaded:
  // Replay() only spawns client threads after Start() returns, so the
  // children never inherit a multi-threaded address space (which keeps the
  // fork sanitizer-clean) and see the ShardedDatabase copy-on-write.
  for (int32_t i = 0; i < n; ++i) {
    pid_t pid = fork();
    if (pid < 0) {
      return Status::Internal("fork failed for shard " + std::to_string(i));
    }
    if (pid == 0) {
      // Child: keep only this shard's listeners (control + data); serve
      // until kShutdown or SIGTERM; _Exit so no parent-owned state (atexit
      // hooks, buffers, sanitizer end-of-process checks) runs twice.
      net::Socket own = std::move(listeners[static_cast<size_t>(i)]);
      net::Socket own_data = std::move(data_listeners[static_cast<size_t>(i)]);
      listeners.clear();
      data_listeners.clear();
      net::InstallStopSignalHandler();
      if (!postmortem_dir_.empty()) {
        ConfigureFlightRecorder(PostmortemPath(postmortem_dir_, i), i);
      }
      ShardServer server(i, sharded_, options_, data_addrs_);
      server.Serve(std::move(own), std::move(own_data));
      std::_Exit(0);
    }
    procs_[static_cast<size_t>(i)].pid = pid;
  }
  listeners.clear();  // parent: children own the listening fds now
  data_listeners.clear();
  started_ = true;

  // The live-telemetry poller starts AFTER every fork: the children must
  // never inherit a second thread. It uses its own control connections, so
  // replay traffic — and OutcomeSignature — never sees it.
  if (options_.telemetry_harvest && options_.telemetry_period_ms > 0) {
    poller_stop_.store(false, std::memory_order_relaxed);
    poller_ = std::thread([this] { PollTelemetry(); });
  }
  return Status::OK();
}

void SocketTransport::RecordOffsetSample(int32_t shard, uint64_t t0,
                                         uint64_t t1, uint64_t shard_now_us) {
  if (shard_now_us == 0) return;  // pre-telemetry server: no estimate
  const uint64_t rtt = t1 >= t0 ? t1 - t0 : 0;
  const int64_t offset = static_cast<int64_t>(shard_now_us) -
                         static_cast<int64_t>(t0 + rtt / 2);
  std::lock_guard<std::mutex> guard(offsets_mu_);
  // Best (lowest-RTT) sample wins: the midpoint error is bounded by rtt/2.
  if (rtt <= offset_rtts_us_[static_cast<size_t>(shard)]) {
    offset_rtts_us_[static_cast<size_t>(shard)] = rtt;
    clock_offsets_us_[static_cast<size_t>(shard)] = offset;
  }
}

int64_t SocketTransport::ClockOffsetUs(int32_t shard) const {
  std::lock_guard<std::mutex> guard(offsets_mu_);
  return clock_offsets_us_[static_cast<size_t>(shard)];
}

bool SocketTransport::HandshakeAndMeasureOffset(net::Socket& control,
                                                net::FrameBuffer& in,
                                                int32_t i, uint64_t* seq) {
  TraceRecorder& rec = TraceRecorder::Default();
  net::HelloMsg hello;
  hello.client_id = 0xFFFFFFFFu;  // harvest connection, not a client session
  hello.shard_id = i;
  std::string req = net::EncodeFrame(MsgType::kHello, ++*seq, hello.Encode());
  const uint64_t t0 = rec.NowUs();
  if (!net::SendAll(control, req.data(), req.size()).ok()) return false;
  Frame frame;
  if (!RecvFrameBlocking(control, in, &frame, nullptr)) return false;
  const uint64_t t1 = rec.NowUs();
  net::HelloAckMsg ack;
  if (frame.type != MsgType::kHelloAck || !ack.Decode(frame.payload) ||
      ack.shard_id != i) {
    return false;
  }
  RecordOffsetSample(i, t0, t1, ack.now_us);
  return true;
}

void SocketTransport::PollTelemetry() {
  const auto period = std::chrono::milliseconds(
      options_.telemetry_period_ms > 0 ? options_.telemetry_period_ms : 1000);
  for (;;) {
    // Sleep in small slices so Drain()'s stop request lands fast.
    auto deadline = std::chrono::steady_clock::now() + period;
    while (std::chrono::steady_clock::now() < deadline) {
      if (poller_stop_.load(std::memory_order_relaxed)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    for (int32_t i = 0; i < sharded_.num_shards(); ++i) {
      if (poller_stop_.load(std::memory_order_relaxed)) return;
      // Best effort throughout: a dead, wedged, or mid-hold shard just means
      // this round's harvest is skipped; the shutdown flush catches up.
      Result<net::Socket> conn = Connect(addrs_[static_cast<size_t>(i)], 1);
      if (!conn.ok()) continue;
      net::Socket control = std::move(conn).value();
      SetRecvTimeout(control, 2);
      net::FrameBuffer in;
      uint64_t seq = 0;
      if (!HandshakeAndMeasureOffset(control, in, i, &seq)) continue;
      std::string req = net::EncodeFrame(MsgType::kTelemetryReq, ++seq, {});
      if (!net::SendAll(control, req.data(), req.size()).ok()) continue;
      const int64_t offset = ClockOffsetUs(i);
      for (;;) {
        Frame frame;
        if (!RecvFrameBlocking(control, in, &frame, nullptr)) break;
        if (frame.type != MsgType::kTelemetry) break;
        net::TelemetryMsg msg;
        if (!msg.Decode(frame.payload)) break;
        dist::IngestTelemetry(msg, offset);
        if (msg.last != 0) break;
      }
    }
  }
}

void SocketTransport::MergeCounters(const TransportCounters& c) {
  std::lock_guard<std::mutex> guard(counters_mu_);
  counters_.Merge(c);
}

void SocketTransport::ShutdownShard(int32_t i) {
  Result<net::Socket> conn = Connect(addrs_[static_cast<size_t>(i)], 10);
  if (!conn.ok()) return;  // already dead; ReapShard collects the corpse
  net::Socket control = std::move(conn).value();

  // A wedged shard must not hang Drain(): bound the stats wait, then let the
  // reap ladder escalate to SIGTERM/SIGKILL.
  SetRecvTimeout(control, 5);

  TransportCounters local;
  net::FrameBuffer in;
  uint64_t seq = 0;
  // Hello first: one last (quiet-wire, so usually best-RTT) clock offset
  // sample before the final telemetry flush that needs it. Best effort — a
  // pre-telemetry server still answers, just without the now_us tail.
  HandshakeAndMeasureOffset(control, in, i, &seq);
  const int64_t offset = ClockOffsetUs(i);

  std::string req = net::EncodeFrame(MsgType::kShutdown, ++seq, {});
  if (!net::SendAll(control, req.data(), req.size()).ok()) return;
  local.messages_sent += 1;
  local.bytes_sent += req.size();

  // The shard streams zero or more kTelemetry batches (its final recorder
  // drain + metrics snapshot), terminated by the kShardStats reply.
  net::ShardStatsMsg stats;
  bool have_stats = false;
  for (;;) {
    Frame frame;
    if (!RecvFrameBlocking(control, in, &frame, &local.bytes_received)) break;
    if (frame.type == MsgType::kTelemetry) {
      net::TelemetryMsg msg;
      if (msg.Decode(frame.payload)) dist::IngestTelemetry(msg, offset);
      continue;
    }
    if (frame.type == MsgType::kShardStats && stats.Decode(frame.payload)) {
      local.messages_received += 1;
      have_stats = true;
    }
    break;  // stats, or something unexpected: either way the stream is over
  }
  if (have_stats) {
    local.shard_frames += stats.frames_received;
    local.shard_bytes += stats.bytes_received;
    local.dedup_drops += stats.dedup_dropped;
    // Exchange tail: data-plane serving totals, plus the shard-to-shard
    // wire-fault events the shard's ExchangeClient absorbed. The latter fold
    // into the same wire_* counters as coordinator-channel faults — one
    // fault discipline, one ledger (exchange_reqs_sent stays out of
    // messages_sent: that counter is coordinator-originated traffic only).
    local.exchange_requests += stats.exchange_reqs_served;
    local.exchange_batches += stats.exchange_batches_sent;
    local.exchange_tuples += stats.exchange_tuples_sent;
    local.exchange_bytes += stats.exchange_bytes_sent;
    local.wire_drops += stats.exchange_wire_drops;
    local.wire_delays += stats.exchange_wire_delays;
    local.wire_duplicates += stats.exchange_wire_duplicates;
    local.reconnects += stats.exchange_reconnects;
    // Topology tail: per-shard facts, so they land in the shard's
    // RuntimeMetrics slot (mirroring where the in-process worker writes
    // them), not in the aggregate transport counters.
    ShardMetrics& sm = metrics_->shard(i);
    sm.pinned_cpu.store(stats.pinned_cpu, std::memory_order_relaxed);
    sm.ctx_voluntary.fetch_add(stats.ctx_voluntary, std::memory_order_relaxed);
    sm.ctx_involuntary.fetch_add(stats.ctx_involuntary,
                                 std::memory_order_relaxed);
  }
  MergeCounters(local);
}

void SocketTransport::ReapShard(int32_t i) {
  pid_t pid = procs_[static_cast<size_t>(i)].pid;
  if (pid <= 0) return;
  procs_[static_cast<size_t>(i)].pid = -1;
  ShardExitStatus& ex = shard_exits_[static_cast<size_t>(i)];
  ex.shard = i;

  // Escalation ladder: grace period for the kShutdown drain, then SIGTERM
  // (the server's signal handler turns it into a clean stop), then SIGKILL.
  // Every rung records the child's wait status: a shard that died in a
  // TransportPanic abort exits here as a SIGABRT corpse, and discarding that
  // would let a determinism bug masquerade as a clean run.
  auto record = [&ex](int status) {
    if (WIFEXITED(status)) {
      ex.exited = true;
      ex.exit_code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
      ex.term_signal = WTERMSIG(status);
    }
  };
  auto wait_for = [pid, &ex, &record](int millis) {
    for (int waited = 0; waited < millis; waited += 10) {
      int status = 0;
      pid_t r = waitpid(pid, &status, WNOHANG);
      if (r == pid) {
        record(status);
        return true;
      }
      if (r < 0 && errno == ECHILD) {
        // Already reaped — nothing else waits on our children, so this
        // should not happen; with no status available, record a clean exit
        // rather than invent a failure.
        ex.exited = true;
        ex.exit_code = 0;
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  };
  if (wait_for(2000)) return;
  ex.forced_term = true;
  kill(pid, SIGTERM);
  if (wait_for(1000)) return;
  ex.forced_kill = true;
  kill(pid, SIGKILL);
  int status = 0;
  if (waitpid(pid, &status, 0) == pid) record(status);
}

void SocketTransport::Drain() {
  if (!started_ || drained_) return;
  drained_ = true;
  // Stop the live-telemetry poller before the shutdown rounds so it can
  // never race a shard's final drain on a second connection.
  poller_stop_.store(true, std::memory_order_relaxed);
  if (poller_.joinable()) poller_.join();
  for (int32_t i = 0; i < sharded_.num_shards(); ++i) {
    ShutdownShard(i);
    ReapShard(i);
    if (!postmortem_dir_.empty()) {
      std::string path = PostmortemPath(postmortem_dir_, i);
      struct stat st{};
      if (stat(path.c_str(), &st) == 0 && st.st_size > 0) {
        shard_exits_[static_cast<size_t>(i)].postmortem_path = path;
      }
    }
  }
  if (options_.transport == TransportKind::kUnixSocket) {
    for (const net::SocketAddr& addr : addrs_) unlink(addr.path.c_str());
    for (const net::SocketAddr& addr : data_addrs_) unlink(addr.path.c_str());
    if (!owned_socket_dir_.empty()) rmdir(owned_socket_dir_.c_str());
  }
  // Succeeds only when no child dumped: postmortems outlive the transport.
  if (owned_postmortem_dir_) rmdir(postmortem_dir_.c_str());
}

TransportReport SocketTransport::Report() const {
  TransportReport report;
  report.kind = options_.transport;
  {
    std::lock_guard<std::mutex> guard(counters_mu_);
    report.counters = counters_;
  }
  report.shard_rtt.reserve(shard_rtt_.size());
  for (const auto& hist : shard_rtt_) {
    report.shard_rtt.push_back(hist->Snapshot());
    report.rtt.Merge(report.shard_rtt.back());
  }
  // Exit statuses are recorded by Drain()'s reap pass; before that the
  // entries are default (shard = -1) and callers should not judge them.
  report.shard_exits = shard_exits_;
  return report;
}

// ---------------------------------------------------------------------------
// SocketChannel: one client session's ShardChannel. Owns one lazily
// connected FaultyChannel per shard (dist/wire_channel.h carries the shared
// connect/fault/framing discipline); the session's TransportSession does all
// the accounting off the votes this channel returns.

class SocketChannel : public ShardChannel {
 public:
  SocketChannel(SocketTransport* transport, int client_id)
      : transport_(transport),
        client_id_(static_cast<uint32_t>(client_id)),
        channels_(static_cast<size_t>(transport->sharded_.num_shards())) {
    const bool wire_faults = transport->options_.faults.wire_enabled();
    for (size_t i = 0; i < channels_.size(); ++i) {
      channels_[i].Configure(transport->addrs_[i], static_cast<int32_t>(i),
                             &transport->injector_, wire_faults, &counters_,
                             "coord");
    }
    prepared_.reserve(channels_.size());
  }

  ~SocketChannel() override { transport_->MergeCounters(counters_); }

  void Execute(const ClassifiedTxn& txn) override {
    Call(txn.home, MsgType::kExecute, WholeFragment(txn).Encode(), txn.txn_id,
         0, MsgType::kExecuteAck);
  }

  /// One Prepare/Vote round trip. The vote carries the shard's own fault
  /// decisions (same plan, same pure decision function as in-process).
  Vote Prepare(const ClassifiedTxn& txn, uint32_t attempt,
               int32_t shard) override {
    Frame frame = Call(shard, MsgType::kPrepare,
                       SliceFragment(txn, attempt, shard).Encode(), txn.txn_id,
                       attempt, MsgType::kVote);
    net::VoteMsg msg;
    if (!msg.Decode(frame.payload)) {
      TransportPanic("vote", shard, Status::Internal("undecodable VoteMsg"));
    }
    Vote vote;
    vote.stalled = msg.stalled != 0;
    switch (msg.decision) {
      case net::VoteDecision::kYes:
        // The shard now holds, blocked on this connection until Commit or
        // Abort resolves the attempt.
        prepared_.push_back(shard);
        break;
      case net::VoteDecision::kReject: vote.decision = Vote::kReject; break;
      case net::VoteDecision::kDown: vote.decision = Vote::kDown; break;
    }
    return vote;
  }

  /// Fire-and-forget, like the in-process backend releasing locks without a
  /// round trip. Delivery is still guaranteed: the drop fault retransmits.
  void Abort(const ClassifiedTxn& txn, uint32_t attempt) override {
    const std::string payload = TxnRef(txn, attempt);
    for (int32_t p : prepared_) {
      Ready(p, txn.txn_id).SendWithFaults(MsgType::kAbort, payload, txn.txn_id,
                                          attempt);
    }
    prepared_.clear();
  }

  /// Each ack releases that shard's hold. The home shard's commit is the
  /// exchange trigger: it streams the assembled read set (pulling remote
  /// rows over the data plane while still holding) before its ack.
  void Commit(const ClassifiedTxn& txn, uint32_t attempt) override {
    const std::string payload = TxnRef(txn, attempt);
    for (int32_t p : prepared_) {
      if (p == txn.home) {
        CommitHomeAndCollect(txn, attempt, payload);
      } else {
        Call(p, MsgType::kCommit, payload, txn.txn_id, attempt,
             MsgType::kCommitAck);
      }
    }
    prepared_.clear();
  }

 private:
  static std::string TxnRef(const ClassifiedTxn& txn, uint32_t attempt) {
    net::TxnRefMsg ref;
    ref.txn_id = txn.txn_id;
    ref.attempt = attempt;
    return ref.Encode();
  }

  /// Commits the home shard and collects the kTupleBatch stream it assembles
  /// (terminated by the CommitAck), then feeds the entries through the same
  /// BuildExchangeOutcome accounting the in-process backend uses.
  void CommitHomeAndCollect(const ClassifiedTxn& txn, uint32_t attempt,
                            const std::string& payload);

  /// Readies `shard`'s channel for a message of `txn_id`: disconnect fault,
  /// (re)connect, Hello handshake on a fresh connection.
  FaultyChannel& Ready(int32_t shard, uint64_t txn_id) {
    FaultyChannel& ch = channels_[static_cast<size_t>(shard)];
    ch.TouchForTxn(txn_id);
    if (ch.EnsureConnected()) {
      // Fresh connection (first use, or after a disconnect fault): the
      // server side starts a new dedup watermark, our side restarted at
      // seq 1 — run the identity handshake before any protocol traffic.
      net::HelloMsg hello;
      hello.client_id = client_id_;
      hello.shard_id = shard;
      const uint64_t t0 = TraceRecorder::Default().NowUs();
      ch.RawSend(net::EncodeFrame(MsgType::kHello, ch.NextSeq(), hello.Encode()));
      Frame ack = ch.RecvType(MsgType::kHelloAck);
      const uint64_t t1 = TraceRecorder::Default().NowUs();
      net::HelloAckMsg am;
      if (!am.Decode(ack.payload) || am.shard_id != shard) {
        TransportPanic("hello", shard, Status::Internal("bad HelloAck"));
      }
      // Every session handshake doubles as a clock-offset sample for the
      // merged trace (best RTT wins, so early quiet-wire Hellos dominate).
      transport_->RecordOffsetSample(shard, t0, t1, am.now_us);
    }
    return ch;
  }

  /// One request/response round trip, RTT recorded against `shard`.
  Frame Call(int32_t shard, MsgType type, const std::string& payload,
             uint64_t txn_id, uint32_t attempt, MsgType want) {
    auto start = std::chrono::steady_clock::now();
    FaultyChannel& ch = Ready(shard, txn_id);
    ch.SendWithFaults(type, payload, txn_id, attempt);
    Frame reply = ch.RecvType(want);
    transport_->shard_rtt_[static_cast<size_t>(shard)]->Record(ElapsedUs(start));
    return reply;
  }

  net::FragmentMsg WholeFragment(const ClassifiedTxn& txn) const;
  /// Only the accesses shard `p` stores (replicated writes included): the
  /// slice of the transaction that shard actually prepares. The HOME shard's
  /// slice additionally carries the txn's full read set so a commit can
  /// assemble it without a second coordinator round trip.
  net::FragmentMsg SliceFragment(const ClassifiedTxn& txn, uint32_t attempt,
                                 int32_t p) const;

  SocketTransport* transport_;
  const uint32_t client_id_;

  std::vector<FaultyChannel> channels_;
  /// Shards that voted yes in the current attempt, in ascending order.
  std::vector<int32_t> prepared_;
  TransportCounters counters_;
};

void SocketChannel::CommitHomeAndCollect(const ClassifiedTxn& txn,
                                         uint32_t attempt,
                                         const std::string& payload) {
  auto start = std::chrono::steady_clock::now();
  FaultyChannel& ch = Ready(txn.home, txn.txn_id);
  ch.SendWithFaults(MsgType::kCommit, payload, txn.txn_id, attempt);

  // Collect the assembled read set: zero or more in-order kTupleBatch
  // frames, terminated by the CommitAck (a read-free txn streams nothing, so
  // the terminator doubles as the empty-stream case). The batches' entries
  // view the frames, which stay in place in the deque while they are used.
  std::deque<Frame> frames;
  std::vector<net::TupleBatchMsg> batches;
  for (;;) {
    Frame frame = ch.RecvAny();
    if (frame.type == MsgType::kCommitAck) break;
    if (frame.type != MsgType::kTupleBatch) continue;  // stray: skip
    frames.push_back(std::move(frame));
    net::TupleBatchMsg& batch = batches.emplace_back();
    if (!batch.Decode(frames.back().payload)) {
      TransportPanic("exchange", txn.home,
                     Status::Internal("bad TupleBatchMsg"));
    }
    if (batch.txn_id != txn.txn_id || batch.batch_index != batches.size() - 1) {
      TransportPanic("exchange", txn.home,
                     Status::Internal("tuple batch stream out of order"));
    }
  }
  transport_->shard_rtt_[static_cast<size_t>(txn.home)]->Record(ElapsedUs(start));

  size_t want = 0;
  for (const Access& a : txn.txn->accesses) {
    if (!a.write) ++want;
  }
  std::vector<ExchangeEntry> entries;
  entries.reserve(want);
  for (const net::TupleBatchMsg& batch : batches) {
    for (const net::TupleBatchEntry& e : batch.entries) {
      entries.push_back({TupleId{static_cast<TableId>(e.table),
                                 static_cast<RowId>(e.row)},
                         e.bytes});
    }
  }
  if (entries.size() != want) {
    TransportPanic("exchange", txn.home,
                   Status::Internal("assembled read set truncated"));
  }
  // Same accounting path as the in-process backend, fed with the bytes that
  // actually crossed the wire — the parity tests compare digests to prove
  // the two are identical.
  BuildExchangeOutcome(transport_->sharded_, txn, entries,
                       transport_->options_.exchange_batch_bytes,
                       transport_->metrics_);
}

net::FragmentMsg SocketChannel::WholeFragment(const ClassifiedTxn& txn) const {
  net::FragmentMsg frag;
  frag.txn_id = txn.txn_id;
  frag.attempt = 0;
  frag.class_id = txn.txn->class_id;
  frag.accesses.reserve(txn.txn->accesses.size());
  for (const Access& a : txn.txn->accesses) {
    frag.accesses.push_back({static_cast<uint32_t>(a.tuple.table),
                             static_cast<uint64_t>(a.tuple.row),
                             static_cast<uint8_t>(a.write ? 1 : 0)});
  }
  return frag;
}

net::FragmentMsg SocketChannel::SliceFragment(const ClassifiedTxn& txn,
                                              uint32_t attempt,
                                              int32_t p) const {
  net::FragmentMsg frag;
  frag.txn_id = txn.txn_id;
  frag.attempt = attempt;
  frag.class_id = txn.txn->class_id;
  for (const Access& a : txn.txn->accesses) {
    int32_t owner = transport_->sharded_.PrimaryShardOf(a.tuple);
    // Replicated reads are satisfied by any copy; replicated writes must be
    // applied on every participant, so every slice carries them.
    if (owner != p && !(owner == kReplicated && a.write)) continue;
    frag.accesses.push_back({static_cast<uint32_t>(a.tuple.table),
                             static_cast<uint64_t>(a.tuple.row),
                             static_cast<uint8_t>(a.write ? 1 : 0)});
  }
  if (p == txn.home) {
    // The home shard assembles the read set at commit time; its prepare
    // carries the FULL read set (access order, duplicates preserved) so no
    // extra coordinator round is needed. Other slices leave the tail empty,
    // which encodes as no tail at all (net/wire.h).
    for (const Access& a : txn.txn->accesses) {
      if (a.write) continue;
      frag.exchange_reads.push_back({static_cast<uint32_t>(a.tuple.table),
                                     static_cast<uint64_t>(a.tuple.row), 0});
    }
  }
  return frag;
}

std::unique_ptr<TransportSession> SocketTransport::NewSession(int client_id) {
  return std::make_unique<TransportSession>(
      std::make_unique<SocketChannel>(this, client_id), sharded_, options_,
      injector_, metrics_);
}

}  // namespace jecb
