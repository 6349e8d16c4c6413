// The benchmark's geometry, shared by `fabbench run` and `fabbench replay`:
// RS n=8, m=5 with 4 KiB blocks (the paper's), over a 20,000-block volume.
// run.py learns it from `fabbench geometry` rather than repeating it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace fabbench {

constexpr std::uint32_t kN = 8;
constexpr std::uint32_t kM = 5;
constexpr std::size_t kBlockSize = 4096;
constexpr std::uint64_t kVolumeBlocks = 20000;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace fabbench
