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
/// Returns false on timeout, EOF, or a corrupt stream; *timed_out (when
/// non-null) tells the first apart: SO_RCVTIMEO expired on an open
/// connection.
bool RecvFrameBlocking(net::Socket& sock, net::FrameBuffer& in, Frame* frame,
                       uint64_t* bytes, bool* timed_out = nullptr) {
  char chunk[4096];
  for (;;) {
    net::FrameBuffer::NextResult res = in.Next(frame);
    if (res == net::FrameBuffer::NextResult::kFrame) return true;
    if (res == net::FrameBuffer::NextResult::kCorrupt) return false;
    net::RecvSomeResult r = net::RecvSome(sock, chunk, sizeof(chunk));
    if (r.n <= 0) {
      if (timed_out != nullptr) *timed_out = r.n < 0 && r.status.ok();
      return false;
    }
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

  // Bind every listener first: by the time any client connects, every
  // address exists, so connection order can never flake.
  std::vector<net::Socket> listeners;
  listeners.reserve(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    net::SocketAddr& addr = addrs_[static_cast<size_t>(i)];
    if (options_.transport == TransportKind::kUnixSocket) {
      addr.is_unix = true;
      addr.path = dir + "/shard-" + std::to_string(i) + ".sock";
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
    listeners.push_back(std::move(listener).value());
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
      // Child: keep only this shard's listener; serve until kShutdown or
      // SIGTERM; _Exit so no parent-owned state (atexit hooks, buffers,
      // sanitizer end-of-process checks) runs twice.
      net::Socket own = std::move(listeners[static_cast<size_t>(i)]);
      listeners.clear();
      net::InstallStopSignalHandler();
      if (!postmortem_dir_.empty()) {
        ConfigureFlightRecorder(PostmortemPath(postmortem_dir_, i), i);
      }
      ShardServer server(i, sharded_, options_);
      server.Serve(std::move(own));
      std::_Exit(0);
    }
    procs_[static_cast<size_t>(i)].pid = pid;
  }
  listeners.clear();  // parent: children own the listening fds now
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

void SocketTransport::SendShutdown(int32_t i, ShutdownCall& call) {
  Result<net::Socket> conn = Connect(addrs_[static_cast<size_t>(i)], 10);
  if (!conn.ok()) return;  // already dead; ReapShard collects the corpse
  call.control = std::move(conn).value();

  // A wedged shard must not hang Drain(): bound the stats wait, then let the
  // reap ladder escalate to SIGTERM/SIGKILL.
  SetRecvTimeout(call.control, 5);

  uint64_t seq = 0;
  // Hello first: one last (quiet-wire, so usually best-RTT) clock offset
  // sample before the final telemetry flush that needs it. Best effort — a
  // pre-telemetry server still answers, just without the now_us tail.
  HandshakeAndMeasureOffset(call.control, call.in, i, &seq);

  std::string req = net::EncodeFrame(MsgType::kShutdown, ++seq, {});
  if (!net::SendAll(call.control, req.data(), req.size()).ok()) {
    call.control.Close();
    return;
  }
  call.counters.messages_sent += 1;
  call.counters.bytes_sent += req.size();
}

SocketTransport::ShutdownReply SocketTransport::CollectShardStats(
    int32_t i, ShutdownCall& call) {
  if (!call.control.valid()) return ShutdownReply::kNone;
  const int64_t offset = ClockOffsetUs(i);
  TransportCounters& local = call.counters;
  // The shard streams zero or more kTelemetry batches (its final recorder
  // drain + metrics snapshot), terminated by the kShardStats reply.
  net::ShardStatsMsg stats;
  bool have_stats = false;
  bool timed_out = false;
  for (;;) {
    Frame frame;
    if (!RecvFrameBlocking(call.control, call.in, &frame,
                           &local.bytes_received, &timed_out)) {
      break;
    }
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
    // Exchange tail: the read rows the shard shipped with its yes votes.
    local.exchange_batches += stats.exchange_batches_sent;
    local.exchange_tuples += stats.exchange_tuples_sent;
    local.exchange_bytes += stats.exchange_bytes_sent;
    // Topology tail: per-shard facts, so they land in the shard's
    // RuntimeMetrics slot, not in the aggregate transport counters.
    ShardMetrics& sm = metrics_->shard(i);
    sm.pinned_cpu.store(stats.pinned_cpu, std::memory_order_relaxed);
    sm.ctx_voluntary.fetch_add(stats.ctx_voluntary, std::memory_order_relaxed);
    sm.ctx_involuntary.fetch_add(stats.ctx_involuntary,
                                 std::memory_order_relaxed);
  }
  MergeCounters(local);
  if (have_stats) return ShutdownReply::kStats;
  return timed_out ? ShutdownReply::kTimedOut : ShutdownReply::kNone;
}

void SocketTransport::ReapShard(int32_t i, ShutdownReply reply) {
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
  // A shard that sent its stats is already on its way out, so poll for it
  // finely; one that did not reply gets coarse polls until the next rung.
  const std::chrono::microseconds step(
      reply == ShutdownReply::kStats ? 100 : 10000);
  auto wait_for = [pid, step, &ex, &record](int millis) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(millis);
    for (;;) {
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
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(step);
    }
  };
  // A shard whose stats receive timed out is wedged: it already had that
  // timeout to act on kShutdown, so it gets one last look, not the grace
  // period. One whose connection closed without stats (a crash) gets the
  // grace to finish dying, so a crash is never recorded as forced_term.
  if (wait_for(reply == ShutdownReply::kTimedOut ? 0 : 2000)) return;
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
  // Every shard gets its kShutdown before any reply is awaited, so the
  // shards flush their telemetry and exit side by side.
  const size_t n = static_cast<size_t>(sharded_.num_shards());
  std::vector<ShutdownCall> calls(n);
  for (size_t i = 0; i < n; ++i) SendShutdown(static_cast<int32_t>(i), calls[i]);
  for (size_t i = 0; i < n; ++i) {
    const int32_t shard = static_cast<int32_t>(i);
    ReapShard(shard, CollectShardStats(shard, calls[i]));
    if (!postmortem_dir_.empty()) {
      std::string path = PostmortemPath(postmortem_dir_, shard);
      struct stat st{};
      if (stat(path.c_str(), &st) == 0 && st.st_size > 0) {
        shard_exits_[i].postmortem_path = path;
      }
    }
  }
  if (options_.transport == TransportKind::kUnixSocket) {
    for (const net::SocketAddr& addr : addrs_) unlink(addr.path.c_str());
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
        channels_(static_cast<size_t>(transport->sharded_.num_shards())),
        shares_(channels_.size()),
        cursors_(channels_.size()) {
    const bool wire_faults = transport->options_.faults.wire_enabled();
    for (size_t i = 0; i < channels_.size(); ++i) {
      channels_[i].Configure(transport->addrs_[i], static_cast<int32_t>(i),
                             &transport->injector_, wire_faults, &counters_);
    }
    prepared_.reserve(channels_.size());
  }

  ~SocketChannel() override { transport_->MergeCounters(counters_); }

  /// One Execute/ExecuteAck round trip.
  void Execute(const ClassifiedTxn& txn) override {
    const auto start = std::chrono::steady_clock::now();
    Send(txn.home, MsgType::kExecute, WholeFragment(txn).Encode(), txn.txn_id, 0)
        .RecvType(MsgType::kExecuteAck);
    RecordRtt(txn.home, start);
  }

  /// One Prepare/Vote round trip. The vote carries the shard's own fault
  /// decisions (same plan, same pure decision function as in-process); a yes
  /// vote comes after the rows this shard serves, as in-order kTupleBatch
  /// frames whose entries view the frames kept in frames_.
  Vote Prepare(const ClassifiedTxn& txn, uint32_t attempt,
               int32_t shard) override {
    const auto start = std::chrono::steady_clock::now();
    FaultyChannel& ch = Send(shard, MsgType::kPrepare,
                             SliceFragment(txn, attempt, shard).Encode(),
                             txn.txn_id, attempt);
    std::vector<net::TupleBatchEntry>& share = shares_[static_cast<size_t>(shard)];
    share.clear();
    Frame frame;
    uint32_t batches = 0;
    for (;;) {
      frame = ch.RecvAny();
      if (frame.type == MsgType::kVote) break;
      if (frame.type != MsgType::kTupleBatch) continue;  // stray: skip
      const Frame& kept = frames_.emplace_back(std::move(frame));
      net::TupleBatchMsg batch;
      if (!batch.Decode(kept.payload)) {
        TransportPanic("exchange", shard, Status::Internal("bad TupleBatchMsg"));
      }
      if (batch.txn_id != txn.txn_id || batch.attempt != attempt ||
          batch.batch_index != batches++) {
        TransportPanic("exchange", shard,
                       Status::Internal("tuple batch stream out of order"));
      }
      share.insert(share.end(), batch.entries.begin(), batch.entries.end());
    }
    RecordRtt(shard, start);
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
    Resolve(txn, attempt, MsgType::kAbort);
    frames_.clear();
  }

  /// One-way like Abort: the votes already brought every read row, so the
  /// shards are released first and the read set is assembled afterwards.
  void Commit(const ClassifiedTxn& txn, uint32_t attempt) override {
    Resolve(txn, attempt, MsgType::kCommit);
    AssembleReads(txn);
    frames_.clear();
  }

 private:
  /// Sends `type` to every shard this attempt prepared.
  void Resolve(const ClassifiedTxn& txn, uint32_t attempt, MsgType type) {
    net::TxnRefMsg ref;
    ref.txn_id = txn.txn_id;
    ref.attempt = attempt;
    const std::string payload = ref.Encode();
    for (int32_t p : prepared_) {
      Send(p, type, payload, txn.txn_id, attempt);
    }
    prepared_.clear();
  }

  /// Merges the participants' shares back into the read set, in access
  /// order, and feeds it through the same BuildExchangeOutcome accounting
  /// the in-process backend uses.
  void AssembleReads(const ClassifiedTxn& txn);

  /// The participant that serves read `t`: its owner, or the home for a
  /// replicated row (or a row whose owner does not take part).
  int32_t ServerOf(const ClassifiedTxn& txn, TupleId t) const {
    const int32_t owner = transport_->sharded_.PrimaryShardOf(t);
    if (owner != kReplicated &&
        std::binary_search(txn.participants.begin(), txn.participants.end(),
                           owner)) {
      return owner;
    }
    return txn.home;
  }

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

  /// Readies `shard`'s channel and sends one message on it.
  FaultyChannel& Send(int32_t shard, MsgType type, const std::string& payload,
                      uint64_t txn_id, uint32_t attempt) {
    FaultyChannel& ch = Ready(shard, txn_id);
    ch.SendWithFaults(type, payload, txn_id, attempt);
    return ch;
  }

  /// Records one request->response latency against `shard`.
  void RecordRtt(int32_t shard, std::chrono::steady_clock::time_point start) {
    transport_->shard_rtt_[static_cast<size_t>(shard)]->Record(ElapsedUs(start));
  }

  net::FragmentMsg WholeFragment(const ClassifiedTxn& txn) const;
  /// Only the accesses shard `p` stores (replicated writes included): the
  /// slice of the transaction that shard actually prepares, plus the reads
  /// it serves (ServerOf) in access order.
  net::FragmentMsg SliceFragment(const ClassifiedTxn& txn, uint32_t attempt,
                                 int32_t p) const;

  SocketTransport* transport_;
  const uint32_t client_id_;

  std::vector<FaultyChannel> channels_;
  /// Shards that voted yes in the current attempt, in ascending order.
  std::vector<int32_t> prepared_;
  /// The current attempt's kTupleBatch frames; a deque never moves its
  /// elements, so the entries in shares_ stay valid until it is cleared.
  std::deque<Frame> frames_;
  /// Per shard: the rows its last prepare shipped, in access order.
  std::vector<std::vector<net::TupleBatchEntry>> shares_;
  /// Per shard: AssembleReads' read position in shares_.
  std::vector<size_t> cursors_;
  std::vector<ExchangeEntry> entries_;
  TransportCounters counters_;
};

void SocketChannel::AssembleReads(const ClassifiedTxn& txn) {
  std::fill(cursors_.begin(), cursors_.end(), 0);
  entries_.clear();
  for (const Access& a : txn.txn->accesses) {
    if (a.write) continue;
    const int32_t server = ServerOf(txn, a.tuple);
    const std::vector<net::TupleBatchEntry>& share =
        shares_[static_cast<size_t>(server)];
    size_t& next = cursors_[static_cast<size_t>(server)];
    if (next == share.size() ||
        share[next].table != static_cast<uint32_t>(a.tuple.table) ||
        share[next].row != static_cast<uint64_t>(a.tuple.row)) {
      TransportPanic("exchange", server,
                     Status::Internal("vote rows do not match the read set"));
    }
    entries_.push_back({a.tuple, share[next++].bytes});
  }
  // Same accounting path as the in-process backend, fed with the bytes that
  // actually crossed the wire — the parity tests compare digests to prove
  // the two are identical.
  BuildExchangeOutcome(transport_->sharded_, txn, entries_,
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
    const int32_t owner = transport_->sharded_.PrimaryShardOf(a.tuple);
    const net::WireAccess wire{static_cast<uint32_t>(a.tuple.table),
                               static_cast<uint64_t>(a.tuple.row),
                               static_cast<uint8_t>(a.write ? 1 : 0)};
    // Replicated reads are satisfied by any copy; replicated writes must be
    // applied on every participant, so every slice carries them.
    if (owner == p || (owner == kReplicated && a.write)) {
      frag.accesses.push_back(wire);
    }
    if (!a.write && ServerOf(txn, a.tuple) == p) {
      frag.exchange_reads.push_back(wire);
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
