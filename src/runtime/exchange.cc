#include "runtime/exchange.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"
#include "obs/trace_recorder.h"

namespace jecb {

namespace {

void AppendLE(std::string& out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint64_t EntryWireBytes(const ExchangeEntry& e) {
  return kExchangeEntryOverheadBytes + e.bytes.size();
}

uint64_t PayloadDigest(uint64_t txn_id, const std::vector<ExchangeEntry>& entries) {
  uint64_t h = HashInt64(txn_id);
  for (const ExchangeEntry& e : entries) {
    uint64_t eh = HashCombine(HashInt64(e.tuple.table), HashInt64(e.tuple.row));
    h = HashCombine(h, HashCombine(eh, HashString(e.bytes)));
  }
  return h;
}

}  // namespace

uint32_t ClampExchangeBatchBytes(uint32_t requested) {
  return std::clamp<uint32_t>(requested, 64, 256 * 1024);
}

std::string EncodeRowBytes(const Row& row) {
  std::string out;
  for (const Value& v : row) {
    if (v.is_int()) {
      out.push_back(0);
      AppendLE(out, static_cast<uint64_t>(v.AsInt()), 8);
    } else if (v.is_double()) {
      out.push_back(1);
      uint64_t bits;
      double d = v.AsDouble();
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      AppendLE(out, bits, 8);
    } else {
      const std::string& s = v.AsString();
      out.push_back(2);
      AppendLE(out, s.size(), 4);
      out.append(s);
    }
  }
  return out;
}

std::vector<ExchangeEntry> MaterializeReads(const ShardedDatabase& sharded,
                                            const std::vector<TupleId>& reads) {
  std::vector<ExchangeEntry> entries;
  entries.reserve(reads.size());
  for (TupleId t : reads) entries.push_back({t, sharded.EncodedRow(t)});
  return entries;
}

std::vector<std::pair<size_t, size_t>> ExchangeBatchSpans(
    const std::vector<ExchangeEntry>& entries, uint32_t batch_bytes) {
  std::vector<std::pair<size_t, size_t>> spans;
  size_t i = 0;
  while (i < entries.size()) {
    size_t j = i;
    uint64_t used = 0;
    while (j < entries.size()) {
      uint64_t cost = EntryWireBytes(entries[j]);
      if (j > i && used + cost > batch_bytes) break;
      used += cost;
      ++j;
    }
    spans.emplace_back(i, j);
    i = j;
  }
  return spans;
}

uint64_t BuildExchangeOutcome(const ShardedDatabase& sharded,
                              const ClassifiedTxn& txn,
                              const std::vector<ExchangeEntry>& entries,
                              uint32_t batch_bytes, RuntimeMetrics* metrics) {
  JECB_SPAN("exchange", "exchange.assemble");
  const uint32_t clamped = ClampExchangeBatchBytes(batch_bytes);
  uint64_t tuples = 0, bytes = 0, remote_tuples = 0, remote_bytes = 0;
  uint64_t batches = 0;
  // Remote sources are few (<= num_shards); flat vectors beat sets. Owners
  // are resolved once so the batch pass below never re-hits the layout.
  std::vector<int32_t> sources;
  std::vector<int32_t> owners;
  owners.reserve(entries.size());
  for (const ExchangeEntry& e : entries) {
    ++tuples;
    bytes += e.bytes.size();
    int32_t owner = sharded.PrimaryShardOf(e.tuple);
    owners.push_back(owner);
    if (owner == kReplicated || owner == txn.home) continue;
    ++remote_tuples;
    remote_bytes += e.bytes.size();
    metrics->shard(owner).exchange_tuples_out.fetch_add(
        1, std::memory_order_relaxed);
    metrics->shard(owner).exchange_bytes_out.fetch_add(
        e.bytes.size(), std::memory_order_relaxed);
    if (std::find(sources.begin(), sources.end(), owner) == sources.end()) {
      sources.push_back(owner);
    }
  }
  // Batch count: what each remote source would ship, packed greedily over
  // that source's entries in access order — the same rule ExchangeBatchSpans
  // applies, run over costs so no entries are copied.
  for (int32_t src : sources) {
    uint64_t used = 0;
    size_t in_batch = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (owners[i] != src) continue;
      uint64_t cost = EntryWireBytes(entries[i]);
      if (in_batch > 0 && used + cost > clamped) {
        used = 0;
        in_batch = 0;
      }
      if (in_batch == 0) ++batches;
      used += cost;
      ++in_batch;
    }
  }
  const uint64_t digest = PayloadDigest(txn.txn_id, entries);
  metrics->exchange_txns.fetch_add(1, std::memory_order_relaxed);
  metrics->exchange_tuples.fetch_add(tuples, std::memory_order_relaxed);
  metrics->exchange_bytes.fetch_add(bytes, std::memory_order_relaxed);
  metrics->exchange_remote_tuples.fetch_add(remote_tuples,
                                            std::memory_order_relaxed);
  metrics->exchange_remote_bytes.fetch_add(remote_bytes,
                                           std::memory_order_relaxed);
  metrics->exchange_batches.fetch_add(batches, std::memory_order_relaxed);
  metrics->exchange_digest.fetch_add(digest, std::memory_order_relaxed);
  metrics->exchange_fanout.Record(static_cast<uint64_t>(sources.size()));
  return digest;
}

uint64_t AssembleLocalExchange(const ShardedDatabase& sharded,
                               const ClassifiedTxn& txn, uint32_t batch_bytes,
                               RuntimeMetrics* metrics) {
  // Per-thread scratch: the entries view the encoded-row store, so the
  // steady state allocates nothing per row.
  thread_local std::vector<ExchangeEntry> entries;
  entries.clear();
  for (const Access& a : txn.txn->accesses) {
    if (!a.write) entries.push_back({a.tuple, sharded.EncodedRow(a.tuple)});
  }
  return BuildExchangeOutcome(sharded, txn, entries, batch_bytes, metrics);
}

}  // namespace jecb
