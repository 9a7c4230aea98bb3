// Tests for the wire layer (src/net): payload struct encode/decode round
// trips, frame encode -> FrameBuffer decode under arbitrary chunking,
// truncated- and corrupted-frame handling (CRC, version, size cap, sticky
// errors), a deterministic mutation fuzz over the frame decoder, TCP_NODELAY
// on accepted TCP peers, and an in-thread event-loop echo exercising
// accept/read/dedup/shutdown over a real Unix-domain socket.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "net/event_loop.h"
#include "net/socket.h"
#include "net/wire.h"

namespace jecb::net {
namespace {

Frame MustDecodeOne(const std::string& bytes) {
  FrameBuffer buf;
  buf.Feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_EQ(buf.Next(&f), FrameBuffer::NextResult::kFrame);
  return f;
}

TEST(WireTest, Crc32MatchesKnownVector) {
  // The IEEE CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(WireTest, FrameRoundTripPreservesEverything) {
  std::string payload = "hello shard";
  std::string bytes = EncodeFrame(MsgType::kPrepare, 42, payload);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes + payload.size());
  Frame f = MustDecodeOne(bytes);
  EXPECT_EQ(f.type, MsgType::kPrepare);
  EXPECT_EQ(f.seq, 42u);
  EXPECT_EQ(f.payload, payload);
}

TEST(WireTest, PayloadStructsRoundTrip) {
  HelloMsg hello;
  hello.client_id = 7;
  hello.shard_id = 3;
  HelloMsg hello2;
  ASSERT_TRUE(hello2.Decode(hello.Encode()));
  EXPECT_EQ(hello2.client_id, 7u);
  EXPECT_EQ(hello2.shard_id, 3);

  HelloAckMsg ack;
  ack.shard_id = 2;
  ack.num_shards = 8;
  HelloAckMsg ack2;
  ASSERT_TRUE(ack2.Decode(ack.Encode()));
  EXPECT_EQ(ack2.shard_id, 2);
  EXPECT_EQ(ack2.num_shards, 8);

  FragmentMsg frag;
  frag.txn_id = 1234567890123ull;
  frag.attempt = 3;
  frag.class_id = 9;
  frag.accesses = {{1, 100, 1}, {2, 200, 0}, {0xFFFFFFFFu, ~0ull, 1}};
  FragmentMsg frag2;
  ASSERT_TRUE(frag2.Decode(frag.Encode()));
  EXPECT_EQ(frag2.txn_id, frag.txn_id);
  EXPECT_EQ(frag2.attempt, 3u);
  EXPECT_EQ(frag2.class_id, 9u);
  ASSERT_EQ(frag2.accesses.size(), 3u);
  EXPECT_EQ(frag2.accesses[2].table, 0xFFFFFFFFu);
  EXPECT_EQ(frag2.accesses[2].row, ~0ull);
  EXPECT_EQ(frag2.accesses[1].write, 0);

  VoteMsg vote;
  vote.txn_id = 5;
  vote.attempt = 1;
  vote.decision = VoteDecision::kReject;
  vote.stalled = 1;
  VoteMsg vote2;
  ASSERT_TRUE(vote2.Decode(vote.Encode()));
  EXPECT_EQ(vote2.decision, VoteDecision::kReject);
  EXPECT_EQ(vote2.stalled, 1);

  ShardStatsMsg stats;
  stats.executed_local = 1;
  stats.prepares_served = 2;
  stats.commits_applied = 3;
  stats.bytes_received = 1 << 20;
  stats.dedup_dropped = 5;
  stats.exchange_batches_sent = 6;
  stats.exchange_tuples_sent = 7;
  stats.exchange_bytes_sent = 8;
  ShardStatsMsg stats2;
  ASSERT_TRUE(stats2.Decode(stats.Encode()));
  EXPECT_EQ(stats2.prepares_served, 2u);
  EXPECT_EQ(stats2.bytes_received, 1u << 20);
  EXPECT_EQ(stats2.dedup_dropped, 5u);
  EXPECT_EQ(stats2.exchange_batches_sent, 6u);
  EXPECT_EQ(stats2.exchange_tuples_sent, 7u);
  EXPECT_EQ(stats2.exchange_bytes_sent, 8u);
}

TEST(WireTest, FragmentExchangeTailRoundTripsAndStaysBackCompat) {
  FragmentMsg frag;
  frag.txn_id = 77;
  frag.attempt = 1;
  frag.accesses = {{1, 10, 1}};
  // No exchange reads: the encoding must be byte-identical to the
  // pre-exchange format (older-style frames decode to an empty tail).
  std::string legacy = frag.Encode();
  frag.exchange_reads = {{1, 10, 0}, {2, 20, 0}};
  std::string tailed = frag.Encode();
  EXPECT_GT(tailed.size(), legacy.size());
  EXPECT_EQ(tailed.substr(0, legacy.size()), legacy);

  FragmentMsg out;
  ASSERT_TRUE(out.Decode(legacy));
  EXPECT_TRUE(out.exchange_reads.empty());
  ASSERT_TRUE(out.Decode(tailed));
  ASSERT_EQ(out.exchange_reads.size(), 2u);
  EXPECT_EQ(out.exchange_reads[1].table, 2u);
  EXPECT_EQ(out.exchange_reads[1].row, 20u);
}

TEST(WireTest, TupleBatchMsgRoundTripAndRejectsLyingCounts) {
  TupleBatchMsg batch;
  batch.txn_id = 4242;
  batch.attempt = 1;
  batch.source_shard = 2;
  batch.batch_index = 3;
  batch.last = 0;
  // Entries view their bytes, so the rows are owned here.
  const std::string row0("\x00\x01\x02", 3);
  const std::string row2(500, 'z');
  batch.entries = {{1, 100, row0}, {2, 200, ""}, {3, 300, row2}};
  std::string good = batch.Encode();
  TupleBatchMsg out;
  ASSERT_TRUE(out.Decode(good));
  EXPECT_EQ(out.txn_id, 4242u);
  EXPECT_EQ(out.batch_index, 3u);
  EXPECT_EQ(out.last, 0);
  ASSERT_EQ(out.entries.size(), 3u);
  EXPECT_EQ(out.entries[0].bytes.size(), 3u);
  EXPECT_EQ(out.entries[1].bytes, "");
  EXPECT_EQ(out.entries[2].bytes, std::string(500, 'z'));

  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(out.Decode(good.substr(0, cut))) << "cut=" << cut;
  }
  EXPECT_FALSE(out.Decode(good + "x"));
  // An entry count pointing past the payload must be rejected before any
  // allocation, and so must a per-entry byte length lying about its size.
  std::string lying_count = good;
  lying_count[22] = '\xFF';  // entry count u32 LE at offset 22
  EXPECT_FALSE(out.Decode(lying_count));
  std::string lying_len = good;
  lying_len[41] = '\x7F';  // high byte of entry 0's length prefix (u32 at 38)
  EXPECT_FALSE(out.Decode(lying_len));
  std::string bad_version = good;
  bad_version[0] = static_cast<char>(kExchangeVersion + 3);
  EXPECT_FALSE(out.Decode(bad_version));
}

TEST(WireTest, HelloAckNowUsTailRoundTripsAndStaysBackCompat) {
  HelloAckMsg ack;
  ack.shard_id = 4;
  ack.num_shards = 8;
  ack.now_us = 123456789ull;
  std::string tailed = ack.Encode();
  HelloAckMsg out;
  ASSERT_TRUE(out.Decode(tailed));
  EXPECT_EQ(out.shard_id, 4);
  EXPECT_EQ(out.now_us, 123456789ull);
  // A pre-telemetry peer's ack lacks the 8-byte now_us tail; it must decode
  // with now_us = 0 (the "no estimate" sentinel).
  out.now_us = 99;
  ASSERT_TRUE(out.Decode(std::string_view(tailed).substr(0, tailed.size() - 8)));
  EXPECT_EQ(out.now_us, 0u);
}

TEST(WireTest, TelemetryMsgRoundTripPreservesEverything) {
  TelemetryMsg msg;
  msg.pid = 4321;
  msg.shard = 2;
  msg.batch_index = 7;
  msg.last = 0;
  msg.now_us = 1ull << 40;
  msg.dropped = 13;
  msg.thread_names = {{100, "shard-2/control"}, {101, "shard-2/exchange"}};
  TelemetryMetric counter;
  counter.name = "jecb_test_total{shard=\"2\"}";
  counter.kind = 0;
  counter.value_bits = 42;
  TelemetryMetric gauge;
  gauge.name = "jecb_test_gauge";
  gauge.kind = 1;
  gauge.value_bits = 0x3FF0000000000000ull;  // 1.0
  msg.metrics = {counter, gauge};
  TelemetryEvent span;
  span.kind = 0;
  span.tid = 100;
  span.ts_us = 5000;
  span.dur_us = 250;
  span.name = "shard.prepare";
  span.cat = "shard";
  span.arg1_name = "txn";
  span.arg1 = -9;  // signed args must survive the u64 transit
  span.arg2_name = "shard";
  span.arg2 = 2;
  TelemetryEvent instant;
  instant.kind = 1;
  instant.tid = 100;
  instant.ts_us = 6000;
  instant.name = "fault.stall";
  instant.cat = "fault";  // both arg names empty: args absent
  msg.events = {span, instant};

  TelemetryMsg out;
  ASSERT_TRUE(out.Decode(msg.Encode()));
  EXPECT_EQ(out.pid, 4321u);
  EXPECT_EQ(out.shard, 2);
  EXPECT_EQ(out.batch_index, 7u);
  EXPECT_EQ(out.last, 0);
  EXPECT_EQ(out.now_us, 1ull << 40);
  EXPECT_EQ(out.dropped, 13u);
  ASSERT_EQ(out.thread_names.size(), 2u);
  EXPECT_EQ(out.thread_names[1].second, "shard-2/exchange");
  ASSERT_EQ(out.metrics.size(), 2u);
  EXPECT_EQ(out.metrics[0].name, "jecb_test_total{shard=\"2\"}");
  EXPECT_EQ(out.metrics[0].value_bits, 42u);
  EXPECT_EQ(out.metrics[1].kind, 1);
  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_EQ(out.events[0].name, "shard.prepare");
  EXPECT_EQ(out.events[0].arg1, -9);
  EXPECT_EQ(out.events[0].arg2, 2);
  EXPECT_EQ(out.events[1].kind, 1);
  EXPECT_TRUE(out.events[1].arg1_name.empty());
}

TEST(WireTest, TelemetryMsgRejectsTruncationTrailingBytesAndBadVersion) {
  TelemetryMsg msg;
  msg.pid = 1;
  msg.shard = 0;
  msg.thread_names = {{7, "t"}};
  TelemetryMetric m;
  m.name = "n";
  msg.metrics = {m};
  TelemetryEvent e;
  e.name = "s";
  e.cat = "c";
  msg.events = {e};
  std::string good = msg.Encode();
  TelemetryMsg out;
  ASSERT_TRUE(out.Decode(good));
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(out.Decode(good.substr(0, cut))) << "cut=" << cut;
  }
  EXPECT_FALSE(out.Decode(good + "x"));
  std::string bad_version = good;
  bad_version[0] = static_cast<char>(kTelemetryVersion + 1);
  EXPECT_FALSE(out.Decode(bad_version));
}

TEST(WireTest, TelemetryMsgRejectsLyingCountsAndOversizedRings) {
  // Fixed header is 30 bytes; with all three sections empty the section
  // counts sit at offsets 30 (thread names), 34 (metrics), 38 (events).
  TelemetryMsg empty;
  std::string good = empty.Encode();
  ASSERT_EQ(good.size(), 42u);
  TelemetryMsg out;
  ASSERT_TRUE(out.Decode(good));

  // Counts the remaining payload cannot possibly hold: rejected before any
  // reserve, for each of the three sections.
  for (size_t off : {30u, 34u, 38u}) {
    std::string lying = good;
    lying[off] = '\xFF';
    EXPECT_FALSE(out.Decode(lying)) << "count offset " << off;
  }
  // A count above kMaxTelemetryEntries is hostile regardless of payload
  // size (an "oversized ring" claim).
  std::string oversized = good;
  oversized[32] = '\x02';  // thread count u32 LE = 0x00020000 > 1 << 16
  EXPECT_FALSE(out.Decode(oversized));

  // A string length prefix above kMaxTelemetryStrBytes is rejected before
  // allocation. One thread name: count at 30, tid at 34, len u16 at 38.
  TelemetryMsg named;
  named.thread_names = {{7, "ab"}};
  std::string strlie = named.Encode();
  strlie[38] = '\xFF';
  strlie[39] = '\xFF';
  EXPECT_FALSE(out.Decode(strlie));

  // Unknown kinds are rejected even when the sizes all line up.
  TelemetryMsg badkind;
  TelemetryMetric m;
  m.name = "n";
  m.kind = 2;
  badkind.metrics = {m};
  EXPECT_FALSE(out.Decode(badkind.Encode()));
  TelemetryMsg badevent;
  TelemetryEvent e;
  e.kind = 3;
  badevent.events = {e};
  EXPECT_FALSE(out.Decode(badevent.Encode()));

  // The encoder clamps hostile-length strings instead of emitting an
  // undecodable payload.
  TelemetryMsg huge;
  huge.thread_names = {{1, std::string(kMaxTelemetryStrBytes * 4, 'x')}};
  ASSERT_TRUE(out.Decode(huge.Encode()));
  ASSERT_EQ(out.thread_names.size(), 1u);
  EXPECT_EQ(out.thread_names[0].second.size(), kMaxTelemetryStrBytes);
}

TEST(WireTest, StructDecodeRejectsTruncationAndTrailingBytes) {
  FragmentMsg frag;
  frag.txn_id = 1;
  frag.accesses = {{1, 2, 0}};
  std::string good = frag.Encode();
  FragmentMsg out;
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(out.Decode(good.substr(0, cut))) << "cut=" << cut;
  }
  EXPECT_FALSE(out.Decode(good + "x"));
  // An access count pointing past the payload must be rejected, not read.
  std::string lying = good;
  lying[16] = '\xFF';  // accesses count (u32 LE) at offset 16
  EXPECT_FALSE(out.Decode(lying));
}

TEST(FrameBufferTest, DecodesAcrossArbitraryChunkBoundaries) {
  std::string stream;
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    stream += EncodeFrame(MsgType::kExecute, seq,
                          std::string(static_cast<size_t>(seq) * 7, 'a'));
  }
  // Feed one byte at a time: framing must never depend on chunk alignment.
  FrameBuffer buf;
  uint64_t next_seq = 1;
  for (char c : stream) {
    buf.Feed(&c, 1);
    Frame f;
    while (buf.Next(&f) == FrameBuffer::NextResult::kFrame) {
      EXPECT_EQ(f.seq, next_seq);
      EXPECT_EQ(f.payload.size(), static_cast<size_t>(next_seq) * 7);
      ++next_seq;
    }
  }
  EXPECT_EQ(next_seq, 6u);
  EXPECT_EQ(buf.buffered_bytes(), 0u);
}

TEST(FrameBufferTest, TruncatedFrameNeedsMoreNeverCorrupt) {
  std::string bytes = EncodeFrame(MsgType::kVote, 9, "payload");
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameBuffer buf;
    buf.Feed(bytes.data(), cut);
    Frame f;
    EXPECT_EQ(buf.Next(&f), FrameBuffer::NextResult::kNeedMore) << "cut=" << cut;
  }
}

TEST(FrameBufferTest, CorruptedPayloadFailsCrcAndSticks) {
  std::string bytes = EncodeFrame(MsgType::kCommit, 1, "data-to-corrupt");
  bytes[kFrameHeaderBytes + 3] ^= 0x40;  // flip one payload bit
  FrameBuffer buf;
  buf.Feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_EQ(buf.Next(&f), FrameBuffer::NextResult::kCorrupt);
  EXPECT_FALSE(buf.error().ok());
  // Sticky: even after feeding a pristine frame the stream stays dead.
  std::string good = EncodeFrame(MsgType::kCommit, 2, "fine");
  buf.Feed(good.data(), good.size());
  EXPECT_EQ(buf.Next(&f), FrameBuffer::NextResult::kCorrupt);
}

TEST(FrameBufferTest, RejectsBadVersionUnknownTypeAndOversizedLength) {
  Frame f;
  {
    std::string bytes = EncodeFrame(MsgType::kHello, 1, "x");
    bytes[4] = static_cast<char>(kWireVersion + 1);  // version byte
    FrameBuffer buf;
    buf.Feed(bytes.data(), bytes.size());
    EXPECT_EQ(buf.Next(&f), FrameBuffer::NextResult::kCorrupt);
  }
  // Type byte: no such message, or a retired one (8 and 12).
  for (char type : {'\x7F', '\x08', '\x0C'}) {
    std::string bytes = EncodeFrame(MsgType::kHello, 1, "x");
    bytes[5] = type;
    FrameBuffer buf;
    buf.Feed(bytes.data(), bytes.size());
    EXPECT_EQ(buf.Next(&f), FrameBuffer::NextResult::kCorrupt)
        << static_cast<int>(type);
  }
  {
    // A length beyond the cap is rejected from the header alone — the
    // decoder must not wait for (or allocate) a gigabyte of "payload".
    std::string bytes = EncodeFrame(MsgType::kHello, 1, "x");
    bytes[0] = '\xFF';
    bytes[1] = '\xFF';
    bytes[2] = '\xFF';
    bytes[3] = '\x3F';
    FrameBuffer buf;
    buf.Feed(bytes.data(), bytes.size());
    EXPECT_EQ(buf.Next(&f), FrameBuffer::NextResult::kCorrupt);
  }
}

TEST(FrameBufferTest, HostileLengthPrefixRejectedFromHeaderAlone) {
  // A hostile peer sends a 20-byte header claiming a huge payload. The old
  // check order trusted the u32 length before looking at anything else, so a
  // garbage frame with a sane-looking length could park the decoder in
  // kNeedMore waiting for gigabytes that never come (while buffering
  // everything fed to it). The cap check must run FIRST, from the header
  // alone: no payload bytes, no allocation, immediate sticky corruption.
  uint64_t rng = 0xFEED;
  auto next_rand = [&rng] {
    rng = HashInt64(rng + 0x9E3779B97F4A7C15ull);
    return rng;
  };
  for (int iter = 0; iter < 200; ++iter) {
    std::string header(kFrameHeaderBytes, '\0');
    for (char& c : header) c = static_cast<char>(next_rand());
    // Length prefix: anything strictly past the cap, up to 0xFFFFFFFF.
    const uint64_t span = 0xFFFFFFFFull - kMaxPayloadBytes;
    uint32_t evil_len =
        static_cast<uint32_t>(kMaxPayloadBytes + 1 + next_rand() % span);
    header[0] = static_cast<char>(evil_len & 0xFF);
    header[1] = static_cast<char>((evil_len >> 8) & 0xFF);
    header[2] = static_cast<char>((evil_len >> 16) & 0xFF);
    header[3] = static_cast<char>((evil_len >> 24) & 0xFF);
    FrameBuffer buf;
    buf.Feed(header.data(), header.size());
    Frame f;
    ASSERT_EQ(buf.Next(&f), FrameBuffer::NextResult::kCorrupt)
        << "iter=" << iter << " len=" << evil_len;
    EXPECT_FALSE(buf.error().ok());
    // Sticky: later pristine frames must not resurrect the stream.
    std::string good = EncodeFrame(MsgType::kHello, 1, "x");
    buf.Feed(good.data(), good.size());
    EXPECT_EQ(buf.Next(&f), FrameBuffer::NextResult::kCorrupt);
  }
}

TEST(FrameBufferTest, MutationFuzzNeverCrashesOrDesyncsSilently) {
  // Deterministic fuzz: mutate valid frames with seed-driven single-byte
  // flips and truncations; the decoder must always answer kFrame /
  // kNeedMore / kCorrupt without crashing, and any frame it does yield from
  // an uncorrupted prefix must round-trip its header fields sanely.
  uint64_t rng = 0xF022;
  auto next_rand = [&rng] {
    rng = HashInt64(rng + 0x9E3779B97F4A7C15ull);
    return rng;
  };
  for (int iter = 0; iter < 2000; ++iter) {
    std::string payload(static_cast<size_t>(next_rand() % 64), 'p');
    std::string bytes =
        EncodeFrame(static_cast<MsgType>(1 + next_rand() % 11),
                    1 + next_rand() % 1000, payload);
    switch (next_rand() % 3) {
      case 0:  // single byte flip
        bytes[next_rand() % bytes.size()] ^=
            static_cast<char>(1 + next_rand() % 255);
        break;
      case 1:  // truncate
        bytes.resize(next_rand() % bytes.size());
        break;
      default:  // pristine
        break;
    }
    FrameBuffer buf;
    buf.Feed(bytes.data(), bytes.size());
    Frame f;
    for (int drain = 0; drain < 4; ++drain) {
      FrameBuffer::NextResult r = buf.Next(&f);
      if (r == FrameBuffer::NextResult::kFrame) {
        EXPECT_LE(f.payload.size(), kMaxPayloadBytes);
        continue;
      }
      SUCCEED();  // kNeedMore / kCorrupt both legal under mutation
      break;
    }
  }
}

TEST(FrameBufferTest, RandomGarbageNeverYieldsAFrame)
{
  uint64_t rng = 0xBAD;
  auto next_rand = [&rng] {
    rng = HashInt64(rng + 0x9E3779B97F4A7C15ull);
    return rng;
  };
  int frames = 0;
  for (int iter = 0; iter < 500; ++iter) {
    std::string garbage(32 + next_rand() % 200, '\0');
    for (char& c : garbage) c = static_cast<char>(next_rand());
    FrameBuffer buf;
    buf.Feed(garbage.data(), garbage.size());
    Frame f;
    if (buf.Next(&f) == FrameBuffer::NextResult::kFrame) ++frames;
  }
  // A CRC + version + type + size check surviving random garbage should be
  // a ~2^-32 event; zero hits expected over 500 tries.
  EXPECT_EQ(frames, 0);
}

TEST(SocketTest, AcceptedTcpPeerHasNoDelay) {
  // A shard answers a prepare with tuple batches and then the vote; with
  // Nagle on the accepted side, the vote would wait for a delayed ACK.
  SocketAddr addr;
  addr.is_unix = false;
  Result<Socket> listener = Listen(addr);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  Result<uint16_t> port = BoundTcpPort(listener.value());
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  addr.port = port.value();
  Result<Socket> client = Connect(addr);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<Socket> accepted = Accept(listener.value());
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(getsockopt(accepted.value().fd(), IPPROTO_TCP, TCP_NODELAY,
                       &nodelay, &len),
            0);
  EXPECT_EQ(nodelay, 1);
}

TEST(EventLoopTest, UnixSocketEchoWithDedupAndShutdown) {
  std::string dir;
  {
    const char* tmp = std::getenv("TMPDIR");
    std::string tmpl = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
    tmpl += "/jecb-net-test-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(mkdtemp(buf.data()), nullptr);
    dir.assign(buf.data());
  }
  SocketAddr addr;
  addr.is_unix = true;
  addr.path = dir + "/echo.sock";
  Result<Socket> listener = Listen(addr);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  ClearStopFlag();
  EventLoopStats server_stats;
  std::thread server([&listener, &server_stats] {
    EventLoop loop(std::move(listener).value());
    int64_t peer = 0;
    Frame frame;
    uint64_t out_seq = 0;
    while (loop.Next(&peer, &frame)) {
      if (frame.type == MsgType::kShutdown) {
        loop.RequestStop();
        continue;
      }
      loop.Send(peer, MsgType::kExecuteAck, ++out_seq, frame.payload);
    }
    server_stats = loop.stats();
  });

  Result<Socket> conn = Connect(addr);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  Socket client = std::move(conn).value();

  // Two copies of seq 1: the second must be dedup-dropped, so exactly one
  // echo comes back.
  std::string req = EncodeFrame(MsgType::kExecute, 1, "ping");
  ASSERT_TRUE(SendAll(client, req.data(), req.size()).ok());
  ASSERT_TRUE(SendAll(client, req.data(), req.size()).ok());
  std::string req2 = EncodeFrame(MsgType::kExecute, 2, "pong");
  ASSERT_TRUE(SendAll(client, req2.data(), req2.size()).ok());

  FrameBuffer in;
  std::vector<Frame> replies;
  char chunk[4096];
  while (replies.size() < 2) {
    Frame f;
    while (in.Next(&f) == FrameBuffer::NextResult::kFrame) replies.push_back(f);
    if (replies.size() >= 2) break;
    RecvSomeResult r = RecvSome(client, chunk, sizeof(chunk));
    ASSERT_GT(r.n, 0) << r.status.ToString();
    in.Feed(chunk, static_cast<size_t>(r.n));
  }
  EXPECT_EQ(replies[0].payload, "ping");
  EXPECT_EQ(replies[1].payload, "pong");

  std::string bye = EncodeFrame(MsgType::kShutdown, 3, {});
  ASSERT_TRUE(SendAll(client, bye.data(), bye.size()).ok());
  server.join();
  EXPECT_EQ(server_stats.dedup_dropped, 1u);
  EXPECT_EQ(server_stats.frames_received, 4u);  // dup counted as received
  EXPECT_EQ(server_stats.frames_sent, 2u);
  EXPECT_EQ(server_stats.peers_accepted, 1u);
  unlink(addr.path.c_str());
  rmdir(dir.c_str());
}

TEST(EventLoopTest, ReconnectGetsFreshDedupWatermark) {
  // The watermark contract (net/event_loop.h): dedup state is per
  // CONNECTION, not per peer identity. A sender that reconnects restarts its
  // sequence at 1 (FaultyChannel::Reset clears socket + buffer + send_seq
  // together), and the server must NOT mistake the restarted seq 1 for a
  // duplicate of the old connection's seq 1 — otherwise every frame after a
  // reconnect fault would be silently swallowed mid-replay.
  SocketAddr addr;
  addr.is_unix = false;
  addr.port = 0;
  Result<Socket> listener = Listen(addr);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  Result<uint16_t> port = BoundTcpPort(listener.value());
  ASSERT_TRUE(port.ok());
  addr.port = port.value();

  ClearStopFlag();
  EventLoopStats server_stats;
  std::thread server([&listener, &server_stats] {
    EventLoop loop(std::move(listener).value());
    int64_t peer = 0;
    Frame frame;
    uint64_t out_seq = 0;
    while (loop.Next(&peer, &frame)) {
      if (frame.type == MsgType::kShutdown) {
        loop.RequestStop();
        continue;
      }
      loop.Send(peer, MsgType::kExecuteAck, ++out_seq, frame.payload);
    }
    server_stats = loop.stats();
  });

  auto exchange_once = [&addr](const std::string& tag, bool send_dup) {
    Result<Socket> conn = Connect(addr);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    Socket client = std::move(conn).value();
    // Fresh connection, fresh sequence: seq restarts at 1 on purpose.
    std::string req = EncodeFrame(MsgType::kExecute, 1, tag);
    ASSERT_TRUE(SendAll(client, req.data(), req.size()).ok());
    if (send_dup) ASSERT_TRUE(SendAll(client, req.data(), req.size()).ok());
    FrameBuffer in;
    Frame f;
    char chunk[4096];
    for (;;) {
      FrameBuffer::NextResult res = in.Next(&f);
      if (res == FrameBuffer::NextResult::kFrame) break;
      ASSERT_EQ(res, FrameBuffer::NextResult::kNeedMore);
      RecvSomeResult r = RecvSome(client, chunk, sizeof(chunk));
      ASSERT_GT(r.n, 0) << r.status.ToString();
      in.Feed(chunk, static_cast<size_t>(r.n));
    }
    EXPECT_EQ(f.payload, tag);  // echoed, i.e. NOT dedup-dropped
    // client closes here: the next call reconnects from scratch
  };
  exchange_once("first-conn", /*send_dup=*/true);
  exchange_once("second-conn", /*send_dup=*/false);
  exchange_once("third-conn", /*send_dup=*/false);

  Result<Socket> conn = Connect(addr);
  ASSERT_TRUE(conn.ok());
  Socket client = std::move(conn).value();
  std::string bye = EncodeFrame(MsgType::kShutdown, 1, {});
  ASSERT_TRUE(SendAll(client, bye.data(), bye.size()).ok());
  server.join();
  // Three connections, one echo each: only the intra-connection duplicate
  // was dropped; the restarted seq-1 frames were all served.
  EXPECT_EQ(server_stats.dedup_dropped, 1u);
  EXPECT_EQ(server_stats.frames_sent, 3u);
  EXPECT_EQ(server_stats.peers_accepted, 4u);
}

TEST(EventLoopTest, StopFlagUnblocksNext) {
  SocketAddr addr;
  addr.is_unix = false;
  addr.port = 0;
  Result<Socket> listener = Listen(addr);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  ClearStopFlag();
  std::thread server([&listener] {
    EventLoop loop(std::move(listener).value());
    int64_t peer = 0;
    Frame frame;
    EXPECT_FALSE(loop.Next(&peer, &frame));  // stop flag, not a frame
    EXPECT_TRUE(loop.stopped());
  });
  // The poll timeout bounds how long the loop takes to notice the flag.
  RaiseStopFlag();
  server.join();
  ClearStopFlag();
}

}  // namespace
}  // namespace jecb::net
