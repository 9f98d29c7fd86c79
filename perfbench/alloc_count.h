// Heap-allocation counter for the traced run. alloc_count.cc replaces the
// global operator new family; every successful allocation through it bumps
// a per-thread count, read here.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations the calling thread made through any global operator new
/// since it started. The traced run counts on its main thread only.
std::uint64_t allocations();

}  // namespace perfbench
