#include "alloc_count.hpp"

#include <malloc.h>

#include <cstdlib>
#include <new>

namespace perfbench::alloc {
namespace {

thread_local std::uint64_t t_count = 0;
thread_local bool t_track = false;
thread_local std::int64_t t_live = 0;
thread_local std::int64_t t_peak = 0;

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  ++t_count;
  if (t_track) {
    t_live += static_cast<std::int64_t>(malloc_usable_size(p));
    if (t_live > t_peak) t_peak = t_live;
  }
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  if (t_track) t_live -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}

void* aligned(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}

}  // namespace

std::uint64_t count() { return t_count; }

void track_live(bool on) {
  t_track = on;
  t_live = 0;
  t_peak = 0;
}

std::int64_t peak_live_bytes() { return t_peak; }

}  // namespace perfbench::alloc

using perfbench::alloc::aligned;
using perfbench::alloc::counted;
using perfbench::alloc::release;

void* operator new(std::size_t size) {
  return counted(std::malloc(size == 0 ? 1 : size));
}
void* operator new[](std::size_t size) {
  return counted(std::malloc(size == 0 ? 1 : size));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted(aligned(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted(aligned(size, align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted(std::malloc(size == 0 ? 1 : size));
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted(std::malloc(size == 0 ? 1 : size));
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
