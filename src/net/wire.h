// Versioned, length-prefixed binary wire format for the distributed shard
// runtime. Every frame is
//
//   [u32 payload_len][u8 version][u8 type][u16 flags][u64 seq][u32 crc32]
//   [payload_len bytes of payload]
//
// with all integers little-endian and the CRC computed over the payload
// only. The sequence number increases per connection and lets the receiver
// drop duplicated frames (the transport fault injector re-sends frames on
// purpose); the CRC plus a hard payload-size cap make truncated or corrupted
// streams fail loudly instead of desynchronizing the framing — the property
// tests/net_test.cc fuzzes. Payload encoding goes through WireWriter /
// WireReader: WireReader is fully bounds-checked, so a malformed payload can
// never read out of range. Bumping kWireVersion invalidates peers at the
// Hello handshake, not mid-stream.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace jecb::net {

inline constexpr uint8_t kWireVersion = 1;
/// Hard cap on payload size: anything larger is corruption, not a message.
/// The largest legal frame is a full tuple batch: batch payloads
/// are clamped well below this (see RuntimeOptions::exchange_batch_bytes),
/// so a length prefix above the cap can only mean a corrupted or hostile
/// header — it is rejected from the header alone, before any allocation or
/// wait for payload bytes.
inline constexpr uint32_t kMaxPayloadBytes = 1u << 20;
inline constexpr size_t kFrameHeaderBytes = 4 + 1 + 1 + 2 + 8 + 4;
/// Upper bound on a whole frame (header + payload). FrameBuffer enforces it
/// against the untrusted u32 length prefix BEFORE trusting any other header
/// field, so a corrupted length can never trigger a near-4 GiB buffer wait.
inline constexpr size_t kMaxFrameBytes = kFrameHeaderBytes + kMaxPayloadBytes;

/// Message types of the shard protocol (dist/shard_server.h documents the
/// state machine). Values are wire-stable: append, never renumber. 8 (a
/// commit ack) and 12 (a shard-to-shard row pull) are retired: the decoder
/// rejects them, and they are never reused.
enum class MsgType : uint8_t {
  kHello = 1,       ///< client -> shard: version/identity handshake
  kHelloAck = 2,    ///< shard -> client
  kExecute = 3,     ///< client -> shard: single-partition txn fragment
  kExecuteAck = 4,  ///< shard -> client
  kPrepare = 5,     ///< coordinator -> shard: 2PC prepare + fragment
  kVote = 6,        ///< shard -> coordinator: yes / reject / down
  kCommit = 7,      ///< coordinator -> shard, one-way: apply + release
  kAbort = 9,       ///< coordinator -> shard, one-way: release without applying
  kShutdown = 10,   ///< control -> shard: stop serving after replying
  kShardStats = 11, ///< shard -> control: final shard-side counters
  kTupleBatch = 13,   ///< shard -> coordinator: read rows ahead of a yes vote
  kTelemetryReq = 14, ///< control -> shard: drain spans + metrics snapshot
  kTelemetry = 15,    ///< shard -> control: one bounded telemetry batch
};

std::string_view MsgTypeName(MsgType t);

/// CRC-32 (IEEE 802.3, reflected) over `len` bytes.
uint32_t Crc32(const void* data, size_t len);

/// Little-endian append-only payload builder.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { AppendLE(v, 2); }
  void U32(uint32_t v) { AppendLE(v, 4); }
  void U64(uint64_t v) { AppendLE(v, 8); }
  /// Appends raw bytes verbatim (length must be conveyed separately).
  void Raw(std::string_view bytes) { buf_.append(bytes.data(), bytes.size()); }

  const std::string& str() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  void AppendLE(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }
  std::string buf_;
};

/// Bounds-checked little-endian payload reader: every accessor returns
/// false (leaving the output untouched) instead of reading past the end.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v) { return ReadLE(v, 1); }
  bool U16(uint16_t* v) { return ReadLE(v, 2); }
  bool U32(uint32_t* v) { return ReadLE(v, 4); }
  bool U64(uint64_t* v) { return ReadLE(v, 8); }
  /// Copies exactly `len` raw bytes into `*out` (replacing its contents).
  bool Bytes(std::string* out, size_t len) {
    std::string_view view;
    if (!View(&view, len)) return false;
    out->assign(view);
    return true;
  }
  /// Views exactly `len` raw bytes of the payload without copying them; the
  /// view lives as long as the payload the reader was built on.
  bool View(std::string_view* out, size_t len) {
    if (data_.size() - pos_ < len) return false;
    *out = data_.substr(pos_, len);
    pos_ += len;
    return true;
  }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  bool ReadLE(T* v, int bytes) {
    if (data_.size() - pos_ < static_cast<size_t>(bytes)) return false;
    uint64_t out = 0;
    for (int i = 0; i < bytes; ++i) {
      out |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += static_cast<size_t>(bytes);
    *v = static_cast<T>(out);
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
};

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kHello;
  uint64_t seq = 0;
  std::string payload;
};

/// Serializes a complete frame (header + payload) ready for SendAll.
std::string EncodeFrame(MsgType type, uint64_t seq, std::string_view payload);

/// Incremental frame decoder for a byte stream: feed arbitrary chunks, pull
/// complete frames. Corruption (bad version, oversized length, CRC mismatch)
/// is sticky: once detected the stream cannot be trusted and every further
/// Next() returns the error.
class FrameBuffer {
 public:
  void Feed(const void* data, size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }

  /// kFrame: `*out` holds the next frame. kNeedMore: feed more bytes.
  /// kCorrupt: the stream is broken; `error()` says why.
  enum class NextResult { kFrame, kNeedMore, kCorrupt };
  NextResult Next(Frame* out);

  const Status& error() const { return error_; }
  size_t buffered_bytes() const { return buf_.size(); }

 private:
  std::string buf_;
  Status error_;
};

// ---------------------------------------------------------------------------
// Protocol payloads. Each struct encodes to a WireWriter payload and decodes
// from a bounds-checked WireReader; Decode returns false on any structural
// problem (short payload, trailing bytes, absurd counts).

struct HelloMsg {
  uint32_t client_id = 0;
  int32_t shard_id = 0;  ///< the shard the client believes it is talking to

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

struct HelloAckMsg {
  int32_t shard_id = 0;
  int32_t num_shards = 0;
  /// The shard's monotonic telemetry clock (TraceRecorder::NowUs) sampled
  /// while building the ack. Back-compat tail — absent decodes as zero. The
  /// coordinator timestamps the Hello round-trip on its own clock and uses
  /// the midpoint to estimate the per-process clock offset that aligns
  /// remote span timestamps in merged cluster traces.
  uint64_t now_us = 0;

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

/// One access of a transaction fragment, as shipped to a shard.
struct WireAccess {
  uint32_t table = 0;
  uint64_t row = 0;
  uint8_t write = 0;
};

/// The shard-side work of one transaction: carried by kExecute (whole
/// single-partition txn) and kPrepare (this shard's slice of a distributed
/// txn). `txn_id`/`attempt` are the fault-decision coordinates, so the shard
/// process reproduces exactly the injector decisions the in-process backend
/// would have made.
struct FragmentMsg {
  uint64_t txn_id = 0;
  uint32_t attempt = 0;
  uint32_t class_id = 0;
  std::vector<WireAccess> accesses;
  /// Carried on kPrepare: the reads this participant serves, in access
  /// order — the rows it owns, plus the replicated rows when it is the
  /// transaction's home. A yes vote ships their bytes ahead of it as
  /// kTupleBatch frames. Encoded as a back-compat tail — absent (kExecute,
  /// or a participant with nothing to serve) decodes as empty.
  std::vector<WireAccess> exchange_reads;

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

enum class VoteDecision : uint8_t { kYes = 0, kReject = 1, kDown = 2 };

struct VoteMsg {
  uint64_t txn_id = 0;
  uint32_t attempt = 0;
  VoteDecision decision = VoteDecision::kYes;
  uint8_t stalled = 0;  ///< the shard injected a stall while preparing

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

/// kExecuteAck, kCommit and kAbort all carry just the txn coordinates for
/// cross-checking.
struct TxnRefMsg {
  uint64_t txn_id = 0;
  uint32_t attempt = 0;

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

/// Shard-side counters returned on shutdown: the coordinator folds them into
/// the replay's transport report and cross-checks them against its own
/// request accounting. The exchange_* block is a back-compat tail (absent
/// decodes as zero): the read rows this shard shipped with its yes votes.
struct ShardStatsMsg {
  uint64_t executed_local = 0;
  uint64_t prepares_served = 0;
  uint64_t commits_applied = 0;
  uint64_t aborts_observed = 0;
  uint64_t stalls_served = 0;
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t dedup_dropped = 0;
  uint64_t peer_disconnects = 0;
  // --- exchange tail (all-or-nothing) ---
  uint64_t exchange_batches_sent = 0;  ///< kTupleBatch frames emitted
  uint64_t exchange_tuples_sent = 0;   ///< rows shipped with yes votes
  uint64_t exchange_bytes_sent = 0;    ///< encoded row bytes shipped
  // --- topology tail (all-or-nothing, after the exchange tail) ---
  int32_t pinned_cpu = -1;          ///< logical cpu the child pinned to; -1 = unpinned
  uint64_t ctx_voluntary = 0;       ///< getrusage voluntary context switches
  uint64_t ctx_involuntary = 0;     ///< getrusage involuntary context switches

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

/// Version byte for tuple-batch payloads. Independent of kWireVersion so the
/// batch encoding can evolve (compression, columnar batches) without
/// invalidating the control protocol.
inline constexpr uint8_t kExchangeVersion = 1;

/// One entry of a tuple batch: a materialized row, encoded by
/// runtime/exchange.h's EncodeRowBytes. Wire cost: 16 bytes + the row bytes.
/// Non-owning: a sender's bytes live in the encoded-row store or in frames
/// it received; a decoded entry views the payload it was decoded from.
struct TupleBatchEntry {
  uint32_t table = 0;
  uint64_t row = 0;
  std::string_view bytes;
};

/// One bounded batch of the rows a participant serves, sent ahead of its
/// yes vote. A multi-batch share sets `last` only on the final batch;
/// `batch_index` increases from 0 so the receiver can detect a lost or
/// reordered batch. Decode makes the entries view `payload`, so the caller
/// keeps the payload alive (and in place) for as long as it uses them.
struct TupleBatchMsg {
  uint8_t version = kExchangeVersion;
  uint64_t txn_id = 0;
  uint32_t attempt = 0;
  int32_t source_shard = 0;
  uint32_t batch_index = 0;
  uint8_t last = 1;
  std::vector<TupleBatchEntry> entries;

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

/// Version byte for telemetry payloads, independent of kWireVersion (same
/// rationale as kExchangeVersion: telemetry can evolve without invalidating
/// the control protocol).
inline constexpr uint8_t kTelemetryVersion = 1;
/// Hard cap on any single string carried by a telemetry payload (span/metric
/// names, thread names). Real names are tens of bytes; anything longer is
/// hostile or corrupt and is rejected before allocation.
inline constexpr size_t kMaxTelemetryStrBytes = 1024;
/// Hard cap on entry counts in one telemetry batch, checked against the
/// declared count before any reserve. The encoder chunks well below this.
inline constexpr uint32_t kMaxTelemetryEntries = 1u << 16;

/// One span/counter event drained from a shard's trace ring. `kind` mirrors
/// obs TraceEventKind (0 = span, 1 = instant, 2 = counter). Up to two
/// integer args ride along; an empty arg name means "absent".
struct TelemetryEvent {
  uint8_t kind = 0;
  uint32_t tid = 0;
  uint64_t ts_us = 0;
  uint64_t dur_us = 0;
  std::string name;
  std::string cat;
  std::string arg1_name;
  int64_t arg1 = 0;
  std::string arg2_name;
  int64_t arg2 = 0;
};

/// One scalar metric series from a shard's registry snapshot. `kind` 0 is a
/// counter (value_bits holds the u64 count), 1 is a gauge (value_bits holds
/// the IEEE-754 bits of the double).
struct TelemetryMetric {
  std::string name;
  uint8_t kind = 0;
  uint64_t value_bits = 0;
};

/// shard -> control: one bounded batch of telemetry. A drain response is a
/// stream of batches with increasing `batch_index`; `last` is set only on
/// the final batch, which also carries the metrics snapshot and thread-name
/// table. `now_us` is the sender's recorder clock at encode time and
/// `dropped` its ring-overwrite loss counter, so the coordinator can report
/// both staleness and loss per process.
struct TelemetryMsg {
  uint8_t version = kTelemetryVersion;
  uint32_t pid = 0;
  int32_t shard = -1;
  uint32_t batch_index = 0;
  uint8_t last = 1;
  uint64_t now_us = 0;
  uint64_t dropped = 0;
  std::vector<std::pair<uint32_t, std::string>> thread_names;
  std::vector<TelemetryMetric> metrics;
  std::vector<TelemetryEvent> events;

  std::string Encode() const;
  bool Decode(std::string_view payload);
};

}  // namespace jecb::net
