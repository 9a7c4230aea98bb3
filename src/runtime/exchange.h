// Exchange core: materializing a committed transaction's read set as actual
// tuple bytes, and accounting for what that movement costs. This is the
// backend-independent half of exchange-style tuple routing — it knows rows,
// shard ownership, batching arithmetic, and the payload digest, but nothing
// about sockets. The socket backends ship the same entries from each 2PC
// participant to the coordinator with its yes vote (dist/shard_server.h);
// the in-process backend views them straight in the encoded-row store. Both
// funnel through BuildExchangeOutcome, the ONE place exchange metrics are
// computed, which is what makes every jecb_exchange_* counter and the digest
// bit-identical across backends.
//
// Timing: exchange is accounted on the COMMITTING attempt only. Rows a yes
// vote shipped for an attempt that then aborted are dropped unaccounted, so
// the counters count each committed transaction's rows exactly once — the
// property that keeps them independent of fault wiring, client count, and
// transport.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/executor.h"
#include "runtime/metrics.h"
#include "runtime/sharded_database.h"
#include "storage/database.h"

namespace jecb {

/// Wire-accounting overhead per batch entry: table (u32) + row (u64) +
/// length prefix (u32). Kept in lockstep with net::TupleBatchMsg's encoding
/// so batch math agrees with what actually crosses the wire.
inline constexpr uint64_t kExchangeEntryOverheadBytes = 16;

/// Valid range for RuntimeOptions::exchange_batch_bytes.
uint32_t ClampExchangeBatchBytes(uint32_t requested);

/// One materialized row of a read set: where it lives and a view of its
/// encoded bytes. Non-owning: the bytes live in the ShardedDatabase's
/// encoded-row store, or in the decoded wire messages the caller keeps
/// alive while it uses the entries.
struct ExchangeEntry {
  TupleId tuple;
  std::string_view bytes;
};

/// Deterministic, platform-independent encoding of one row: per value a tag
/// byte (0 int, 1 double, 2 string) followed by the LE u64 / double bits /
/// u32 length + bytes. This IS the payload the socket backends ship, so the
/// digest below covers real wire bytes, not an abstraction of them.
std::string EncodeRowBytes(const Row& row);

/// Views `reads` in the encoded-row store, in order. The shard server ships
/// a yes vote's rows from it, so byte content cannot diverge from the
/// in-process backend's assembly.
std::vector<ExchangeEntry> MaterializeReads(const ShardedDatabase& sharded,
                                            const std::vector<TupleId>& reads);

/// Greedy batch split: entries are packed in order until adding the next one
/// would push the batch past `batch_bytes` (a batch always takes at least
/// one entry, so an oversized row still ships). Returns [begin, end) index
/// spans. The wire encoder uses this rule and BuildExchangeOutcome counts
/// batches by it, which is why jecb_exchange_batches is backend-invariant.
std::vector<std::pair<size_t, size_t>> ExchangeBatchSpans(
    const std::vector<ExchangeEntry>& entries, uint32_t batch_bytes);

/// The ONE accounting path for a committed transaction's assembled read set.
/// Counts totals, remote (owner != home, non-replicated) tuples/bytes,
/// batches per remote source shard (greedy rule above), the fan-out
/// histogram sample, the digest, and the per-owning-shard out counters.
/// `entries` must be in access order. Returns the per-txn digest:
/// HashInt64(txn_id) folded with every entry's (table, row, bytes),
/// accumulated commutatively across transactions (fetch_add), so the
/// replay-level digest is identical at any client count and commit
/// interleaving.
uint64_t BuildExchangeOutcome(const ShardedDatabase& sharded,
                              const ClassifiedTxn& txn,
                              const std::vector<ExchangeEntry>& entries,
                              uint32_t batch_bytes, RuntimeMetrics* metrics);

/// In-process assembly: materialize + account in one step. The socket
/// coordinator instead feeds BuildExchangeOutcome the entries it received
/// over the wire; the parity tests assert the two agree byte-for-byte.
uint64_t AssembleLocalExchange(const ShardedDatabase& sharded,
                               const ClassifiedTxn& txn, uint32_t batch_bytes,
                               RuntimeMetrics* metrics);

}  // namespace jecb
