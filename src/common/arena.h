// Bump-pointer arena: block-chained, alignment-aware, no per-allocation
// bookkeeping. The runtime keeps one arena per shard to back the encoded
// tuple store (runtime/sharded_database.h), replacing per-row
// heap-allocated std::strings on the exchange path.
//
// Ownership rules (see DESIGN "Open-loop load & CPU topology"):
//   - An arena is single-writer. Per-shard arenas are filled once, before
//     client threads (or forked shard servers) start, then read
//     concurrently — reads of arena-backed bytes need no lock because the
//     memory is immutable from that point on.
//   - Memory lives as long as the arena: nothing is freed or reused before
//     it is destroyed, so every pointer it hands out stays valid until then.
//   - Allocations larger than the block size get a dedicated block; they do
//     not split across blocks (returned memory is always contiguous).
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

namespace jecb {

class Arena {
 public:
  static constexpr size_t kDefaultBlockBytes = 64 * 1024;

  explicit Arena(size_t block_bytes = kDefaultBlockBytes);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  /// Returns `bytes` bytes aligned to `align` (a power of two). Zero-byte
  /// requests return a valid unique-enough pointer. Never fails short of
  /// operator new throwing.
  char* Allocate(size_t bytes, size_t align = alignof(std::max_align_t));

  /// Copies `s` into the arena and returns a view of the stable copy.
  std::string_view CopyString(std::string_view s);

  /// Bytes handed out since construction (excludes alignment waste).
  size_t bytes_allocated() const { return allocated_; }
  /// Total capacity currently held across blocks.
  size_t bytes_reserved() const { return reserved_; }
  size_t blocks() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size = 0;
    size_t used = 0;
  };

  Block& GrowFor(size_t bytes);

  std::vector<Block> blocks_;
  size_t block_bytes_;
  size_t allocated_ = 0;
  size_t reserved_ = 0;
};

}  // namespace jecb
