#pragma once
// FrameArena: pooled byte buffers for frame payloads.
//
// The per-frame hot path used to allocate (and fault in) a fresh pixel
// buffer per submission; at hundreds of thousands of frames per second the
// allocator and the TLB become the wall before the codec does. The arena
// recycles buffers through power-of-two size classes instead:
//
//  * acquire(bytes) returns a vector sized exactly `bytes` whose capacity
//    comes from the smallest retained class that fits, or a fresh
//    allocation when the freelist is dry;
//  * recycle(buf) files the buffer back under the largest class its
//    capacity covers, subject to per-class (16 buffers) and total (64 MiB)
//    retention caps (excess buffers are released to the allocator, not
//    hoarded). The arena keeps only buffers it handed out itself, known by
//    their storage address; any other buffer is released.
//
// The runtime's worker pool owns one arena. Large classes are advised
// MADV_HUGEPAGE (best-effort; silently a no-op where unsupported).
//
// Thread-safe; all operations are short critical sections on one mutex.

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_set>
#include <vector>

#include "core/sync.hpp"
#include "core/thread_annotations.hpp"

namespace swc::runtime {

struct FrameArenaStats {
  std::uint64_t allocs = 0;    // acquires served by a fresh allocation
  std::uint64_t reuses = 0;    // acquires served from the freelist
  std::uint64_t recycled = 0;  // buffers returned and retained
  std::uint64_t dropped = 0;   // buffers returned but released (caps/foreign)
  std::size_t retained_bytes = 0;  // capacity currently parked in freelists
  std::int64_t outstanding = 0;    // acquired and not yet returned
};

class FrameArena {
 public:
  FrameArena() = default;

  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;

  // Buffer with size() == bytes (capacity may be larger — a size class).
  [[nodiscard]] std::vector<std::uint8_t> acquire(std::size_t bytes) SWC_EXCLUDES(mutex_);

  // Return a buffer for reuse. Accepts any vector, but retains only one
  // that acquire() handed out (and that kept its storage); foreign or
  // over-cap buffers are dropped.
  void recycle(std::vector<std::uint8_t> buf) SWC_EXCLUDES(mutex_);

  [[nodiscard]] FrameArenaStats stats() const SWC_EXCLUDES(mutex_);

  // Smallest size class covering `bytes` (power of two, >= 4 KiB).
  [[nodiscard]] static std::size_t size_class(std::size_t bytes) noexcept;

  // Annotation hook: lets other capabilities name this arena's lock in
  // ordering attributes (ShardPool::mutex_ is
  // SWC_ACQUIRED_AFTER(arena_.mu()) — the freelist lock is always
  // innermost). Not for direct locking.
  [[nodiscard]] swc::Mutex& mu() const SWC_RETURN_CAPABILITY(mutex_) { return mutex_; }

 private:
  mutable swc::Mutex mutex_;
  // class capacity -> parked buffers of at least that capacity
  std::map<std::size_t, std::vector<std::vector<std::uint8_t>>> classes_ SWC_GUARDED_BY(mutex_);
  // Storage addresses of the buffers acquire() handed out and recycle() has
  // not seen back yet: the arena's proof of ownership.
  std::unordered_set<const std::uint8_t*> lent_ SWC_GUARDED_BY(mutex_);
  FrameArenaStats stats_ SWC_GUARDED_BY(mutex_);
};

}  // namespace swc::runtime
