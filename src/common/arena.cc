#include "common/arena.h"

#include <algorithm>
#include <cstring>

namespace jecb {

Arena::Arena(size_t block_bytes)
    : block_bytes_(std::max<size_t>(block_bytes, 64)) {}

Arena::Block& Arena::GrowFor(size_t bytes) {
  Block block;
  block.size = std::max(block_bytes_, bytes);
  block.data = std::make_unique<char[]>(block.size);
  reserved_ += block.size;
  blocks_.push_back(std::move(block));
  return blocks_.back();
}

char* Arena::Allocate(size_t bytes, size_t align) {
  if (align == 0) align = 1;
  if (blocks_.empty()) GrowFor(std::max(bytes, size_t{1}));
  Block* block = &blocks_.back();
  size_t aligned = (block->used + align - 1) & ~(align - 1);
  if (aligned + bytes > block->size) {
    block = &GrowFor(bytes + align);
    aligned = (block->used + align - 1) & ~(align - 1);
  }
  char* out = block->data.get() + aligned;
  block->used = aligned + bytes;
  allocated_ += bytes;
  return out;
}

std::string_view Arena::CopyString(std::string_view s) {
  if (s.empty()) return std::string_view();
  char* dst = Allocate(s.size(), /*align=*/1);
  std::memcpy(dst, s.data(), s.size());
  return std::string_view(dst, s.size());
}

}  // namespace jecb
