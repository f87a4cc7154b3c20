#include "runtime/frame_arena.hpp"

#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace swc::runtime {
namespace {

constexpr std::size_t kMinClass = 4096;           // below this, pooling is noise
constexpr std::size_t kHugeThreshold = 2u << 20;  // THP granularity
constexpr std::size_t kMaxBuffersPerClass = 16;
constexpr std::size_t kMaxRetainedBytes = 64ull << 20;  // total across classes

// Largest power of two <= n (n >= 1).
std::size_t floor_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while ((p << 1) != 0 && (p << 1) <= n) p <<= 1;
  return p;
}

// Best-effort MADV_HUGEPAGE on buffers of at least kHugeThreshold.
void advise_huge(std::vector<std::uint8_t>& buf) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  if (buf.capacity() < kHugeThreshold) return;
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  if (page == 0) return;
  // vector storage is not page-aligned; advise the aligned interior range.
  const auto addr = reinterpret_cast<std::uintptr_t>(buf.data());
  const std::uintptr_t aligned = (addr + page - 1) & ~(page - 1);
  const std::size_t skipped = static_cast<std::size_t>(aligned - addr);
  if (skipped >= buf.capacity()) return;
  const std::size_t len = buf.capacity() - skipped;
  if (len < kHugeThreshold) return;
  (void)madvise(reinterpret_cast<void*>(aligned), len, MADV_HUGEPAGE);  // best-effort
#else
  (void)buf;
#endif
}

}  // namespace

std::size_t FrameArena::size_class(std::size_t bytes) noexcept {
  std::size_t cls = kMinClass;
  while (cls < bytes) cls <<= 1;
  return cls;
}

std::vector<std::uint8_t> FrameArena::acquire(std::size_t bytes) {
  std::vector<std::uint8_t> buf;
  {
    swc::MutexLock lock(mutex_);
    // First class whose capacity covers the request; every parked buffer in
    // it (and above) fits by construction.
    auto it = classes_.lower_bound(size_class(bytes));
    if (it != classes_.end() && !it->second.empty()) {
      buf = std::move(it->second.back());
      it->second.pop_back();
      stats_.retained_bytes -= buf.capacity();
      ++stats_.reuses;
      lent_.insert(buf.data());
    }
  }
  if (buf.capacity() != 0) {
    buf.resize(bytes);  // within capacity: the storage address is unchanged
    return buf;
  }
  // Fresh allocation, faulted in outside the lock.
  buf.reserve(size_class(bytes));
  buf.resize(bytes);
  advise_huge(buf);
  swc::MutexLock lock(mutex_);
  ++stats_.allocs;
  lent_.insert(buf.data());
  return buf;
}

void FrameArena::recycle(std::vector<std::uint8_t> buf) {
  swc::MutexLock lock(mutex_);
  // Only a buffer this arena lent out is its own; parking any other (serve
  // payloads come from FrameParser) would hoard memory no acquire reuses.
  if (lent_.erase(buf.data()) == 0) {
    ++stats_.dropped;
    return;
  }
  const std::size_t cls = floor_pow2(buf.capacity());
  auto& list = classes_[cls];
  if (list.size() >= kMaxBuffersPerClass ||
      stats_.retained_bytes + buf.capacity() > kMaxRetainedBytes) {
    ++stats_.dropped;
    return;
  }
  buf.clear();  // keep capacity, forget contents
  stats_.retained_bytes += buf.capacity();
  ++stats_.recycled;
  list.push_back(std::move(buf));
}

FrameArenaStats FrameArena::stats() const {
  swc::MutexLock lock(mutex_);
  FrameArenaStats snap = stats_;
  snap.outstanding = static_cast<std::int64_t>(lent_.size());
  return snap;
}

}  // namespace swc::runtime
