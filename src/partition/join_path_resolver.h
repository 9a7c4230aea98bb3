// Per-class registry of the join paths the Phase-2 search scores.
//
// Every enumerated tree of a class resolves the same (table, row) pairs
// through its join paths, and many trees share paths. The resolver gives each
// distinct path one canonical PathCache handle for the lifetime of the
// resolver (one class partitioning): tree evaluators look their paths up
// once and then resolve rows with no per-access path matching, and the
// handle doubles as an exact memo key for per-path state (the Phase-2 fit
// memo and value-id arrays).
//
// Resolving a row is a walk through the database's dense foreign-key arrays
// (Database::ParentRow), a few array reads per hop, so nothing is memoized
// per row: the returned Value points into the stored row itself, which stays
// put because partitioning never inserts.
//
// Not thread-safe: the pipeline gives each class (one Phase-2 task) its own
// resolver.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "partition/join_path.h"
#include "storage/database.h"

namespace jecb {

/// Hands out one PathCache per distinct join path.
class JoinPathResolver {
 public:
  explicit JoinPathResolver(const Database* db) : db_(db) {}

  JoinPathResolver(const JoinPathResolver&) = delete;
  JoinPathResolver& operator=(const JoinPathResolver&) = delete;

  /// The resolution handle of one join path. Handles stay valid for the
  /// resolver's lifetime.
  class PathCache {
   public:
    /// Root value of `row` of the path's source table, or nullptr when the
    /// path dangles there. The pointer is into the stored destination row.
    const Value* Resolve(RowId row) const {
      const RowId dest = path_.DestRow(*db_, row);
      if (dest == kNoRow) return nullptr;
      return &db_->GetValue({path_.dest.table, dest}, path_.dest.column);
    }

    const JoinPath& path() const { return path_; }

   private:
    friend class JoinPathResolver;
    PathCache(const Database* db, JoinPath path) : db_(db), path_(std::move(path)) {}

    const Database* db_;
    JoinPath path_;
  };

  /// The shared handle for `path`; two equal paths get the same handle.
  PathCache* Cache(const JoinPath& path) {
    const uint64_t sig = Signature(path);
    for (size_t i = 0; i < caches_.size(); ++i) {
      if (sigs_[i] == sig && caches_[i]->path_ == path) return caches_[i].get();
    }
    sigs_.push_back(sig);
    caches_.push_back(std::unique_ptr<PathCache>(new PathCache(db_, path)));
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
};

}  // namespace jecb
