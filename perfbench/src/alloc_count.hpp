// Allocation counting for the benchmark binary: a replacement global
// operator new/delete that bumps per-thread counters. Counting is always on
// (two thread-local increments per allocation); live-byte tracking, which
// needs malloc_usable_size on every allocation and free, is switched on only
// around the calls whose memory is being measured.
#pragma once

#include <cstdint>

namespace perfbench::alloc {

/// Allocations made by the calling thread since it started.
std::uint64_t count();

/// Starts/stops live-byte tracking on the calling thread. Starting resets
/// the figures to zero.
void track_live(bool on);
/// Highest net byte count the calling thread had allocated while tracking.
std::int64_t peak_live_bytes();

/// Allocations made by the calling thread inside one scope.
class Scope {
 public:
  Scope() : start_(count()) {}
  std::uint64_t allocations() const { return count() - start_; }

 private:
  std::uint64_t start_;
};

}  // namespace perfbench::alloc
