//===- rt/PagePool.h - Cross-request shared page pool -----------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A free list of standard region pages, shared by the
/// otherwise-private RegionHeaps of concurrent service workers — the
/// page free list a region runtime such as MLKit's keeps, made to
/// outlive one heap. Every `run` builds and tears down its own heap;
/// without the pool each of those round-trips every 2 KiB page through
/// the system allocator. With it a heap hands its standard pages over
/// when it dies and the next request's heap draws them back on demand.
///
///  * **One lock, one stack.** One mutex guards one vector of free
///    pages, popped and pushed at the back. The traffic is a couple of
///    workers, each taking one lock per page its heap's local free
///    list cannot supply and one per heap teardown (releaseMany hands
///    a whole heap's pages over in one acquisition). Counters are
///    plain integers under the same lock.
///
///  * **Bounded capacity.** The pool never holds more than MaxPages
///    pages; releases beyond the bound free the page instead (counted
///    as a trim), so a burst of huge heaps cannot pin memory forever.
///
///  * **Standard pages only.** The pool stores buffers of exactly
///    PageWords words, allocated aligned to their own size (PageBuffer
///    / allocatePage), so each one is exactly one chunk of RegionHeap's
///    page table. Oversized and finite-region blocks bypass the pool.
///
///  * **Safety w.r.t. exact dangling detection.** A pooled page must
///    never be handed out while `RetainReleasedPages` detection could
///    still attribute it to a dead region: a RegionHeap running with
///    detection on keeps every released page in its graveyard and
///    neither feeds the pool nor draws from it (see RegionHeap).
///
/// Thread safety: every member function is safe from any thread.
///
//===----------------------------------------------------------------------===//

#ifndef RML_RT_PAGEPOOL_H
#define RML_RT_PAGEPOOL_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace rml::rt {

/// A point-in-time snapshot of the pool's counters.
struct PagePoolStats {
  uint64_t AcquireHits = 0;   // acquires served from the pool
  uint64_t AcquireMisses = 0; // acquires that found the pool empty
  uint64_t Releases = 0;      // pages accepted into the pool
  uint64_t Trims = 0;         // pages freed because the pool was full
  uint64_t Steals = 0;        // always 0: one list has nothing to steal
  uint64_t LockAcquires = 0;  // acquire and non-empty releaseMany calls
  uint64_t FreePages = 0;     // pages currently pooled
  uint64_t Capacity = 0;      // the bound (MaxPages)

  /// Fraction of page demand served by reuse, in [0,1].
  double reuseRatio() const {
    uint64_t Total = AcquireHits + AcquireMisses;
    return Total ? static_cast<double>(AcquireHits) / Total : 0.0;
  }
};

/// A bounded, mutex-guarded free list of standard page buffers.
class PagePool {
public:
  static constexpr size_t DefaultMaxPages = 1024;
  /// Words per standard page — the one buffer size the pool stores.
  /// RegionHeap::PageWords aliases this constant, so the pool and the
  /// heap can never disagree about the unit.
  static constexpr size_t PageWords = 256; // 2 KiB
  static constexpr size_t PageBytes = PageWords * sizeof(uint64_t);

  /// Frees a standard page buffer with the aligned operator delete that
  /// matches allocatePage.
  struct PageDeleter {
    void operator()(uint64_t *Page) const noexcept;
  };
  /// An owned standard page buffer: PageWords words, PageBytes-aligned.
  using PageBuffer = std::unique_ptr<uint64_t[], PageDeleter>;

  /// A fresh, uninitialised standard page buffer.
  static PageBuffer allocatePage();

  explicit PagePool(size_t MaxPages = DefaultMaxPages) : MaxPages(MaxPages) {}

  PagePool(const PagePool &) = delete;
  PagePool &operator=(const PagePool &) = delete;

  /// The most recently pooled page buffer, or null when the pool is
  /// empty (the caller then allocates fresh). Counts a hit or a miss.
  PageBuffer acquire();

  /// Hands a whole heap's standard pages back under one lock
  /// acquisition. Null entries are skipped; pages beyond the capacity
  /// bound are freed, outside the lock, and counted as trims. Every
  /// buffer must come from allocatePage.
  void releaseMany(std::vector<PageBuffer> Bufs);

  PagePoolStats stats() const;
  size_t freePages() const;
  size_t capacity() const { return MaxPages; }

private:
  const size_t MaxPages;
  mutable std::mutex M;
  std::vector<PageBuffer> Free;  // guarded by M; a stack, top at back()
  PagePoolStats Counters;        // guarded by M; FreePages/Capacity unused
};

} // namespace rml::rt

#endif // RML_RT_PAGEPOOL_H
