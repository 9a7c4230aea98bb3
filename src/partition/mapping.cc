#include "partition/mapping.h"

#include <algorithm>

namespace jecb {

int32_t RangeMapping::Map(const Value& value) const {
  if (!value.is_int()) {
    return static_cast<int32_t>(value.Hash() % static_cast<uint64_t>(k_));
  }
  int64_t v = std::clamp(value.AsInt(), lo_, hi_);
  // Equi-width buckets over [lo, hi]. The span and the offset are exact in
  // uint64_t (hi - lo can exceed INT64_MAX; unsigned subtraction wraps to
  // the true difference), and the bucket width is computed in doubles.
  const uint64_t span = static_cast<uint64_t>(hi_) - static_cast<uint64_t>(lo_);
  const uint64_t offset = static_cast<uint64_t>(v) - static_cast<uint64_t>(lo_);
  auto p = static_cast<int32_t>(static_cast<double>(offset) /
                                (static_cast<double>(span) + 1.0) *
                                static_cast<double>(k_));
  return std::clamp(p, 0, k_ - 1);
}

}  // namespace jecb
