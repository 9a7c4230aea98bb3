#include "net/wire.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace jecb::net {

namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

const std::array<uint32_t, 256>& CrcTable() {
  static const std::array<uint32_t, 256> table = BuildCrcTable();
  return table;
}

bool ValidType(uint8_t t) {
  return t >= static_cast<uint8_t>(MsgType::kHello) &&
         t <= static_cast<uint8_t>(MsgType::kTelemetry) && t != 8 && t != 12;
}

}  // namespace

std::string_view MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kHelloAck: return "hello_ack";
    case MsgType::kExecute: return "execute";
    case MsgType::kExecuteAck: return "execute_ack";
    case MsgType::kPrepare: return "prepare";
    case MsgType::kVote: return "vote";
    case MsgType::kCommit: return "commit";
    case MsgType::kAbort: return "abort";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kShardStats: return "shard_stats";
    case MsgType::kTupleBatch: return "tuple_batch";
    case MsgType::kTelemetryReq: return "telemetry_req";
    case MsgType::kTelemetry: return "telemetry";
  }
  return "unknown";
}

uint32_t Crc32(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& table = CrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::string EncodeFrame(MsgType type, uint64_t seq, std::string_view payload) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U8(kWireVersion);
  w.U8(static_cast<uint8_t>(type));
  w.U16(0);  // flags, reserved
  w.U64(seq);
  w.U32(Crc32(payload.data(), payload.size()));
  std::string out = w.Take();
  out.append(payload.data(), payload.size());
  return out;
}

FrameBuffer::NextResult FrameBuffer::Next(Frame* out) {
  if (!error_.ok()) return NextResult::kCorrupt;
  if (buf_.size() < kFrameHeaderBytes) return NextResult::kNeedMore;
  WireReader header(std::string_view(buf_).substr(0, kFrameHeaderBytes));
  uint32_t payload_len = 0, crc = 0;
  uint8_t version = 0, type = 0;
  uint16_t flags = 0;
  uint64_t seq = 0;
  header.U32(&payload_len);
  header.U8(&version);
  header.U8(&type);
  header.U16(&flags);
  header.U64(&seq);
  header.U32(&crc);
  // The length prefix is the one header field that controls how many bytes
  // we are willing to buffer, so it is checked FIRST, against kMaxFrameBytes,
  // before trusting version or type: a corrupted/hostile length is rejected
  // as sticky corruption from the 20-byte header alone — never a near-4GiB
  // wait for payload that will not come (and buffering is additionally
  // bounded by bytes actually fed, never by the prefix).
  if (kFrameHeaderBytes + static_cast<size_t>(payload_len) > kMaxFrameBytes) {
    error_ = Status::ParseError("frame payload of " + std::to_string(payload_len) +
                                " bytes exceeds the " +
                                std::to_string(kMaxPayloadBytes) + " byte cap");
    return NextResult::kCorrupt;
  }
  if (version != kWireVersion) {
    error_ = Status::ParseError("wire version mismatch: got " +
                                std::to_string(version) + ", want " +
                                std::to_string(kWireVersion));
    return NextResult::kCorrupt;
  }
  if (!ValidType(type)) {
    error_ = Status::ParseError("unknown frame type " + std::to_string(type));
    return NextResult::kCorrupt;
  }
  const size_t total = kFrameHeaderBytes + payload_len;
  if (buf_.size() < total) return NextResult::kNeedMore;
  std::string_view payload = std::string_view(buf_).substr(kFrameHeaderBytes, payload_len);
  if (Crc32(payload.data(), payload.size()) != crc) {
    error_ = Status::ParseError("frame CRC mismatch on " +
                                std::string(MsgTypeName(static_cast<MsgType>(type))) +
                                " seq " + std::to_string(seq));
    return NextResult::kCorrupt;
  }
  out->type = static_cast<MsgType>(type);
  out->seq = seq;
  out->payload.assign(payload.data(), payload.size());
  buf_.erase(0, total);
  return NextResult::kFrame;
}

// ---------------------------------------------------------------------------

std::string HelloMsg::Encode() const {
  WireWriter w;
  w.U32(client_id);
  w.U32(static_cast<uint32_t>(shard_id));
  return w.Take();
}

bool HelloMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  uint32_t shard = 0;
  if (!r.U32(&client_id) || !r.U32(&shard)) return false;
  shard_id = static_cast<int32_t>(shard);
  return r.AtEnd();
}

std::string HelloAckMsg::Encode() const {
  WireWriter w;
  w.U32(static_cast<uint32_t>(shard_id));
  w.U32(static_cast<uint32_t>(num_shards));
  w.U64(now_us);
  return w.Take();
}

bool HelloAckMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  uint32_t shard = 0, n = 0;
  if (!r.U32(&shard) || !r.U32(&n)) return false;
  shard_id = static_cast<int32_t>(shard);
  num_shards = static_cast<int32_t>(n);
  now_us = 0;
  if (r.AtEnd()) return true;  // legacy encoder: no clock tail
  return r.U64(&now_us) && r.AtEnd();
}

namespace {

void EncodeAccessList(WireWriter& w, const std::vector<WireAccess>& list) {
  w.U32(static_cast<uint32_t>(list.size()));
  for (const WireAccess& a : list) {
    w.U32(a.table);
    w.U64(a.row);
    w.U8(a.write);
  }
}

bool DecodeAccessList(WireReader& r, std::vector<WireAccess>* out) {
  uint32_t count = 0;
  if (!r.U32(&count)) return false;
  // Each access takes 13 bytes; reject counts the remaining payload cannot
  // possibly hold before reserving anything.
  if (static_cast<uint64_t>(count) * 13 > r.remaining()) return false;
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WireAccess a;
    if (!r.U32(&a.table) || !r.U64(&a.row) || !r.U8(&a.write)) return false;
    out->push_back(a);
  }
  return true;
}

}  // namespace

std::string FragmentMsg::Encode() const {
  WireWriter w;
  w.U64(txn_id);
  w.U32(attempt);
  w.U32(class_id);
  EncodeAccessList(w, accesses);
  // Back-compat tail: only present when the fragment carries reads to
  // serve, so every other frame keeps the tail-less encoding.
  if (!exchange_reads.empty()) EncodeAccessList(w, exchange_reads);
  return w.Take();
}

bool FragmentMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  if (!r.U64(&txn_id) || !r.U32(&attempt) || !r.U32(&class_id)) return false;
  if (!DecodeAccessList(r, &accesses)) return false;
  exchange_reads.clear();
  if (r.AtEnd()) return true;  // legacy frame: no exchange plan
  if (!DecodeAccessList(r, &exchange_reads)) return false;
  return r.AtEnd();
}

std::string VoteMsg::Encode() const {
  WireWriter w;
  w.U64(txn_id);
  w.U32(attempt);
  w.U8(static_cast<uint8_t>(decision));
  w.U8(stalled);
  return w.Take();
}

bool VoteMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  uint8_t d = 0;
  if (!r.U64(&txn_id) || !r.U32(&attempt) || !r.U8(&d) || !r.U8(&stalled)) {
    return false;
  }
  if (d > static_cast<uint8_t>(VoteDecision::kDown)) return false;
  decision = static_cast<VoteDecision>(d);
  return r.AtEnd();
}

std::string TxnRefMsg::Encode() const {
  WireWriter w;
  w.U64(txn_id);
  w.U32(attempt);
  return w.Take();
}

bool TxnRefMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  return r.U64(&txn_id) && r.U32(&attempt) && r.AtEnd();
}

std::string ShardStatsMsg::Encode() const {
  WireWriter w;
  w.U64(executed_local);
  w.U64(prepares_served);
  w.U64(commits_applied);
  w.U64(aborts_observed);
  w.U64(stalls_served);
  w.U64(frames_received);
  w.U64(frames_sent);
  w.U64(bytes_received);
  w.U64(bytes_sent);
  w.U64(dedup_dropped);
  w.U64(peer_disconnects);
  w.U64(exchange_batches_sent);
  w.U64(exchange_tuples_sent);
  w.U64(exchange_bytes_sent);
  w.U32(static_cast<uint32_t>(pinned_cpu));
  w.U64(ctx_voluntary);
  w.U64(ctx_involuntary);
  return w.Take();
}

bool ShardStatsMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  if (!(r.U64(&executed_local) && r.U64(&prepares_served) &&
        r.U64(&commits_applied) && r.U64(&aborts_observed) &&
        r.U64(&stalls_served) && r.U64(&frames_received) &&
        r.U64(&frames_sent) && r.U64(&bytes_received) && r.U64(&bytes_sent) &&
        r.U64(&dedup_dropped) && r.U64(&peer_disconnects))) {
    return false;
  }
  exchange_batches_sent = exchange_tuples_sent = exchange_bytes_sent = 0;
  pinned_cpu = -1;
  ctx_voluntary = ctx_involuntary = 0;
  if (r.AtEnd()) return true;  // legacy encoder: no exchange tail
  if (!(r.U64(&exchange_batches_sent) && r.U64(&exchange_tuples_sent) &&
        r.U64(&exchange_bytes_sent))) {
    return false;
  }
  if (r.AtEnd()) return true;  // pre-topology encoder: no topology tail
  uint32_t cpu = 0;
  if (!(r.U32(&cpu) && r.U64(&ctx_voluntary) && r.U64(&ctx_involuntary) &&
        r.AtEnd())) {
    return false;
  }
  pinned_cpu = static_cast<int32_t>(cpu);
  return true;
}

std::string TupleBatchMsg::Encode() const {
  WireWriter w;
  w.U8(version);
  w.U64(txn_id);
  w.U32(attempt);
  w.U32(static_cast<uint32_t>(source_shard));
  w.U32(batch_index);
  w.U8(last);
  w.U32(static_cast<uint32_t>(entries.size()));
  for (const TupleBatchEntry& e : entries) {
    w.U32(e.table);
    w.U64(e.row);
    w.U32(static_cast<uint32_t>(e.bytes.size()));
    w.Raw(e.bytes);
  }
  return w.Take();
}

bool TupleBatchMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  uint32_t source = 0, count = 0;
  if (!r.U8(&version) || version != kExchangeVersion) return false;
  if (!r.U64(&txn_id) || !r.U32(&attempt) || !r.U32(&source) ||
      !r.U32(&batch_index) || !r.U8(&last) || !r.U32(&count)) {
    return false;
  }
  source_shard = static_cast<int32_t>(source);
  // Each entry takes at least 16 bytes (table + row + length prefix); reject
  // counts the remaining payload cannot possibly hold before reserving.
  if (static_cast<uint64_t>(count) * 16 > r.remaining()) return false;
  entries.clear();
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    TupleBatchEntry e;
    uint32_t len = 0;
    if (!r.U32(&e.table) || !r.U64(&e.row) || !r.U32(&len)) return false;
    if (len > r.remaining()) return false;
    if (!r.View(&e.bytes, len)) return false;
    entries.push_back(e);
  }
  return r.AtEnd();
}

namespace {

void EncodeStr(WireWriter& w, const std::string& s) {
  const size_t n = std::min(s.size(), kMaxTelemetryStrBytes);
  w.U16(static_cast<uint16_t>(n));
  w.Raw(std::string_view(s).substr(0, n));
}

bool DecodeStr(WireReader& r, std::string* out) {
  uint16_t len = 0;
  if (!r.U16(&len)) return false;
  if (len > kMaxTelemetryStrBytes || len > r.remaining()) return false;
  return r.Bytes(out, len);
}

}  // namespace

std::string TelemetryMsg::Encode() const {
  WireWriter w;
  w.U8(version);
  w.U32(pid);
  w.U32(static_cast<uint32_t>(shard));
  w.U32(batch_index);
  w.U8(last);
  w.U64(now_us);
  w.U64(dropped);
  w.U32(static_cast<uint32_t>(thread_names.size()));
  for (const auto& [tid, name] : thread_names) {
    w.U32(tid);
    EncodeStr(w, name);
  }
  w.U32(static_cast<uint32_t>(metrics.size()));
  for (const TelemetryMetric& m : metrics) {
    EncodeStr(w, m.name);
    w.U8(m.kind);
    w.U64(m.value_bits);
  }
  w.U32(static_cast<uint32_t>(events.size()));
  for (const TelemetryEvent& e : events) {
    w.U8(e.kind);
    w.U32(e.tid);
    w.U64(e.ts_us);
    w.U64(e.dur_us);
    EncodeStr(w, e.name);
    EncodeStr(w, e.cat);
    EncodeStr(w, e.arg1_name);
    w.U64(static_cast<uint64_t>(e.arg1));
    EncodeStr(w, e.arg2_name);
    w.U64(static_cast<uint64_t>(e.arg2));
  }
  return w.Take();
}

bool TelemetryMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  uint32_t shard_u = 0, count = 0;
  if (!r.U8(&version) || version != kTelemetryVersion) return false;
  if (!r.U32(&pid) || !r.U32(&shard_u) || !r.U32(&batch_index) ||
      !r.U8(&last) || !r.U64(&now_us) || !r.U64(&dropped)) {
    return false;
  }
  shard = static_cast<int32_t>(shard_u);
  // Thread names: at least 6 bytes each (tid + empty-string prefix). Reject
  // counts the remaining payload cannot possibly hold before reserving.
  if (!r.U32(&count)) return false;
  if (count > kMaxTelemetryEntries) return false;
  if (static_cast<uint64_t>(count) * 6 > r.remaining()) return false;
  thread_names.clear();
  thread_names.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t tid = 0;
    std::string name;
    if (!r.U32(&tid) || !DecodeStr(r, &name)) return false;
    thread_names.emplace_back(tid, std::move(name));
  }
  // Metrics: at least 11 bytes each (name prefix + kind + value).
  if (!r.U32(&count)) return false;
  if (count > kMaxTelemetryEntries) return false;
  if (static_cast<uint64_t>(count) * 11 > r.remaining()) return false;
  metrics.clear();
  metrics.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    TelemetryMetric m;
    if (!DecodeStr(r, &m.name) || !r.U8(&m.kind) || !r.U64(&m.value_bits)) {
      return false;
    }
    if (m.kind > 1) return false;
    metrics.push_back(std::move(m));
  }
  // Events: at least 45 bytes each (fixed fields + four empty-string
  // prefixes + two arg values).
  if (!r.U32(&count)) return false;
  if (count > kMaxTelemetryEntries) return false;
  if (static_cast<uint64_t>(count) * 45 > r.remaining()) return false;
  events.clear();
  events.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    TelemetryEvent e;
    uint64_t a1 = 0, a2 = 0;
    if (!r.U8(&e.kind) || !r.U32(&e.tid) || !r.U64(&e.ts_us) ||
        !r.U64(&e.dur_us) || !DecodeStr(r, &e.name) || !DecodeStr(r, &e.cat) ||
        !DecodeStr(r, &e.arg1_name) || !r.U64(&a1) ||
        !DecodeStr(r, &e.arg2_name) || !r.U64(&a2)) {
      return false;
    }
    if (e.kind > 2) return false;
    e.arg1 = static_cast<int64_t>(a1);
    e.arg2 = static_cast<int64_t>(a2);
    events.push_back(std::move(e));
  }
  return r.AtEnd();
}

}  // namespace jecb::net
