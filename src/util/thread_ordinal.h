// Thread-to-stripe rule shared by the thread-affine structures that need no
// slot recycling (the Logger's append lanes, the GC's queue shards).
//
// Each thread draws a process-wide ordinal at its first call and keeps it
// for life; a structure with N stripes uses ThreadOrdinal() % N. Ordinals are
// never recycled, so threads beyond N (or a new thread after an old one
// exited) share a stripe with an earlier thread. That is fine for these
// users: a stripe is latch-protected and shared stripes only cost contention.
// Structures that must bound their slot count by the number of *live*
// threads use the thread-slot registry (util/tls_slots.h) instead.
#pragma once

#include <atomic>
#include <cstddef>

namespace mvstore {

/// The calling thread's ordinal, fixed at its first call.
inline size_t ThreadOrdinal() {
  static std::atomic<size_t> next_thread{0};
  thread_local const size_t ordinal =
      next_thread.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace mvstore
