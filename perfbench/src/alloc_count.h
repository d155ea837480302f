// Allocation counting for the traced binary.  alloc_count.cpp replaces the
// global operator new/delete; only binaries that link it count.

#pragma once

#include <cstdint>

namespace eant::perfbench {

struct AllocCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;

  AllocCount operator-(const AllocCount& o) const {
    return {allocs - o.allocs, bytes - o.bytes};
  }
  AllocCount& operator+=(const AllocCount& o) {
    allocs += o.allocs;
    bytes += o.bytes;
    return *this;
  }
};

/// Allocations made through the global operator new so far in this process.
AllocCount alloc_count();

}  // namespace eant::perfbench
