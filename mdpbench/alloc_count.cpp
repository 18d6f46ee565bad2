// Counting replacement of the global allocation functions, linked into
// the benchmark binary only. Every operator new bumps the calling thread's
// t_heap_allocs and t_heap_bytes; prog.heap_allocs_per_pkt and nf.setup_mb read them.
#include <cstdlib>
#include <new>

#include "bench_stats.hpp"

namespace {

void* counted_alloc(std::size_t n) {
  ++mdp::mdpbench::t_heap_allocs;
  mdp::mdpbench::t_heap_bytes += n;
  if (n == 0) n = 1;
  return std::malloc(n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++mdp::mdpbench::t_heap_allocs;
  mdp::mdpbench::t_heap_bytes += n;
  const auto a = static_cast<std::size_t>(al);
  if (n == 0) n = a;
  n = (n + a - 1) / a * a;  // aligned_alloc wants a multiple of the alignment
  return std::aligned_alloc(a, n);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
