// Shared join-path resolution cache for the Phase-2 search.
//
// Every enumerated tree of a class re-resolves the same (table, row) pairs
// through JoinPath::Evaluate — and did so behind a freshly built
// unordered_map<TableId, unordered_map<RowId, optional<Value>>> per
// MeasureTreeFit / TreeCost / StatsFallback call, so one hot tuple was
// join-extended once per tree per metric. Join paths are functional
// dependencies, so a resolution is a pure property of (path, row): this
// resolver memoizes it once per distinct path signature for the lifetime of
// the resolver (one class partitioning), across every tree and metric.
//
// The per-path store is a flat open-addressing table keyed by RowId — one
// cache line per probe, no per-node allocation, no nested-map double hash.
// Resolved Values live in a deque so the `const Value*` handles stay stable
// while the table grows. A remembered failure (dangling FK) is a null value
// with the key present, so failing rows are also resolved only once.
//
// Not thread-safe: the pipeline gives each class (one Phase-2 task) its own
// resolver, which also keeps hot caches NUMA/core-local under ParallelFor.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "obs/metrics_registry.h"
#include "partition/join_path.h"
#include "storage/database.h"

namespace jecb {

/// Flat open-addressing map RowId -> resolved root value. Power-of-two
/// capacity, linear probing, keys stored as row + 1 so 0 means empty.
class RowValueCache {
 public:
  /// True when `row` has been resolved before; `*value` is then the cached
  /// root value, or nullptr for a remembered failure.
  bool Find(RowId row, const Value** value) const {
    if (slots_.empty()) return false;
    const uint32_t key = row + 1;
    for (size_t i = HashInt64(row) & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.key == 0) return false;
      if (s.key == key) {
        *value = s.value;
        return true;
      }
    }
  }

  /// Records the resolution of `row` (pass nullopt-like nullptr via
  /// `failed`); returns the stable cached pointer (null for a failure).
  /// `row` must not already be present.
  const Value* Insert(RowId row, Value value) {
    const Value* stable = &values_.emplace_back(std::move(value));
    InsertSlot(row, stable);
    return stable;
  }
  void InsertFailure(RowId row) { InsertSlot(row, nullptr); }

  size_t size() const { return size_; }

 private:
  struct Slot {
    uint32_t key = 0;  // row + 1; 0 = empty
    const Value* value = nullptr;
  };

  void InsertSlot(RowId row, const Value* value) {
    if (size_ + 1 > (slots_.size() * 7) / 10) Grow();
    const uint32_t key = row + 1;
    for (size_t i = HashInt64(row) & mask_;; i = (i + 1) & mask_) {
      if (slots_[i].key == 0) {
        slots_[i] = {key, value};
        ++size_;
        return;
      }
    }
  }

  void Grow() {
    size_t cap = slots_.empty() ? 64 : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    for (const Slot& s : old) {
      if (s.key == 0) continue;
      for (size_t i = HashInt64(s.key - 1) & mask_;; i = (i + 1) & mask_) {
        if (slots_[i].key == 0) {
          slots_[i] = s;
          break;
        }
      }
    }
  }

  std::vector<Slot> slots_;
  std::deque<Value> values_;  // deque: stable addresses across growth
  size_t size_ = 0;
  size_t mask_ = 0;
};

/// Flat open-addressing memo of FollowForeignKey for one foreign key:
/// RowId -> parent RowId, kDangling for a remembered dangling key. A hop is
/// a pure function of (fk, child row), so every path that walks the same
/// foreign key shares the resolved edge — after the first path warms an
/// edge, later paths cross it with one integer probe instead of a Row
/// allocation + value-hash index lookup.
class FkRowCache {
 public:
  static constexpr RowId kDangling = UINT32_MAX;

  bool Find(RowId row, RowId* out) const {
    if (slots_.empty()) return false;
    const uint32_t key = row + 1;
    for (size_t i = HashInt64(row) & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.key == 0) return false;
      if (s.key == key) {
        *out = s.parent;
        return true;
      }
    }
  }

  /// `row` must not already be present; `parent` may be kDangling.
  void Insert(RowId row, RowId parent) {
    if (size_ + 1 > (slots_.size() * 7) / 10) Grow();
    const uint32_t key = row + 1;
    for (size_t i = HashInt64(row) & mask_;; i = (i + 1) & mask_) {
      if (slots_[i].key == 0) {
        slots_[i] = {key, parent};
        ++size_;
        return;
      }
    }
  }

 private:
  struct Slot {
    uint32_t key = 0;  // row + 1; 0 = empty
    RowId parent = kDangling;
  };

  void Grow() {
    size_t cap = slots_.empty() ? 64 : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    for (const Slot& s : old) {
      if (s.key == 0) continue;
      for (size_t i = HashInt64(s.key - 1) & mask_;; i = (i + 1) & mask_) {
        if (slots_[i].key == 0) {
          slots_[i] = s;
          break;
        }
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
};

/// Memoizes JoinPath::Evaluate per (path signature, row), shared across
/// every tree/metric that asks for the same path.
class JoinPathResolver {
 public:
  /// Besides the per-path caches, the resolver memoizes each foreign-key
  /// edge once (exact: hops are pure), so paths sharing hops share the row
  /// walk.
  explicit JoinPathResolver(const Database* db) : db_(db) {}

  /// Flushes the FK-hop memo tallies once per resolver lifetime (one class
  /// partitioning), so the hot loop pays two local increments, never a
  /// registry lookup.
  ~JoinPathResolver() {
    if (fk_hop_hits_ != 0 || fk_hop_misses_ != 0) {
      MetricsRegistry& m = MetricsRegistry::Default();
      m.AddCounter("jecb_fk_hop_memo_hits_total", fk_hop_hits_);
      m.AddCounter("jecb_fk_hop_memo_misses_total", fk_hop_misses_);
    }
  }

  JoinPathResolver(const JoinPathResolver&) = delete;
  JoinPathResolver& operator=(const JoinPathResolver&) = delete;

  /// The resolution cache of one join path. Handles stay valid for the
  /// resolver's lifetime, so a tree evaluator looks its paths up once and
  /// then resolves rows with no per-access path matching.
  class PathCache {
   public:
    /// Root value of `row` of the path's source table, or nullptr when the
    /// path dangles there. Each distinct row is evaluated at most once.
    const Value* Resolve(RowId row) {
      const Value* v = nullptr;
      if (cache_.Find(row, &v)) return v;
      // Same walk as JoinPath::Evaluate, but each hop goes through the
      // resolver's per-FK edge memo. A path fails exactly when a hop
      // dangles, so the memoized walk fails on exactly the same rows.
      RowId cur = row;
      for (FkIdx idx : path_.hops) {
        cur = resolver_->FollowCached(idx, cur);
        if (cur == FkRowCache::kDangling) {
          cache_.InsertFailure(row);
          return nullptr;
        }
      }
      return cache_.Insert(
          row, db_->GetValue({path_.dest.table, cur}, path_.dest.column));
    }

    const JoinPath& path() const { return path_; }
    size_t resolved() const { return cache_.size(); }

   private:
    friend class JoinPathResolver;
    PathCache(const Database* db, JoinPathResolver* resolver, JoinPath path)
        : db_(db), resolver_(resolver), path_(std::move(path)) {}

    const Database* db_;
    JoinPathResolver* resolver_;
    JoinPath path_;
    RowValueCache cache_;
  };

  /// The parent row `row` reaches across foreign key `idx`, memoized per
  /// resolver; kDangling when the key dangles.
  RowId FollowCached(FkIdx idx, RowId row) {
    if (fk_caches_.size() <= idx) {
      fk_caches_.resize(db_->schema().foreign_keys().size());
    }
    FkRowCache& cache = fk_caches_[idx];
    RowId out = FkRowCache::kDangling;
    if (cache.Find(row, &out)) {
      ++fk_hop_hits_;
      return out;
    }
    ++fk_hop_misses_;
    const ForeignKey& fk = db_->schema().foreign_keys()[idx];
    Result<TupleId> r = db_->FollowForeignKey(fk, TupleId{fk.table, row});
    out = r.ok() ? r.value().row : FkRowCache::kDangling;
    cache.Insert(row, out);
    return out;
  }

  /// The shared cache for `path`; two equal paths get the same cache.
  PathCache* Cache(const JoinPath& path) {
    const uint64_t sig = Signature(path);
    for (size_t i = 0; i < caches_.size(); ++i) {
      if (sigs_[i] == sig && caches_[i]->path_ == path) return caches_[i].get();
    }
    sigs_.push_back(sig);
    caches_.push_back(std::unique_ptr<PathCache>(new PathCache(db_, this, path)));
    return caches_.back().get();
  }

  size_t num_paths() const { return caches_.size(); }

 private:
  static uint64_t Signature(const JoinPath& path) {
    uint64_t h = HashInt64(path.source_table);
    for (FkIdx hop : path.hops) h = HashCombine(h, HashInt64(hop));
    h = HashCombine(h, HashInt64(path.dest.table));
    return HashCombine(h, HashInt64(path.dest.column));
  }

  const Database* db_;
  std::vector<uint64_t> sigs_;
  std::vector<std::unique_ptr<PathCache>> caches_;
  std::vector<FkRowCache> fk_caches_;  // indexed by FkIdx, built on demand
  uint64_t fk_hop_hits_ = 0;    // flushed to the registry by the destructor
  uint64_t fk_hop_misses_ = 0;
};

}  // namespace jecb
