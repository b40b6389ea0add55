//===- rt/PagePool.h - Cross-request shared page pool -----------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide pool of standard region pages, shared across the
/// otherwise-private RegionHeaps of concurrent service workers. Every
/// `run` builds and tears down its own heap; without the pool each of
/// those round-trips every 2 KiB page through the system allocator,
/// and that churn dominates small-request latency. With the pool a
/// heap's standard pages are recycled into sharded free lists on heap
/// destruction and handed to the next request's heap on demand.
///
/// Design points (v2 — lock-free fast path):
///
///  * **Treiber free lists, no lock on the home shard.** Each shard is
///    a lock-free stack of free pages. The stack links live in a
///    fixed arena of index-linked nodes (one node per capacity slot,
///    never freed), not in the page memory itself: a stalled pop may
///    still read a node another thread just recycled, and keeping
///    those speculative reads on atomic fields of always-live nodes
///    makes the race benign by construction instead of by argument.
///    Heads carry a 32-bit ABA tag next to the 32-bit node index.
///
///  * **Home shards.** A thread's home shard is its thread-id hash
///    modulo NumShards. An acquire that finds its home shard empty
///    steals from the other shards, in rotation order after the home
///    one, before reporting a miss. Only stealers and trim() take the
///    pool's one mutex; the home-shard hit path and release path are
///    mutex-free, so a concurrent trim or steal storm can never
///    serialize hot acquires. Mutex acquisitions are counted
///    (LockAcquires) so benchmarks can show locks per request.
///
///  * **Batch hand-offs.** releaseMany prepends a whole heap's pages
///    as one pre-linked chain with a single CAS on the home shard —
///    RegionHeap teardown touches the shard once per heap instead of
///    once per page. acquireMany detaches the home chain once and
///    takes up to N pages from it.
///
///  * **Bounded capacity.** The pool never holds more than MaxPages
///    pages in total (tracked by one atomic counter); releases beyond
///    the bound free the page instead (counted as a trim), so a burst
///    of huge heaps cannot pin memory forever. The same bound sizes
///    the node arena, which is why a release that won a capacity slot
///    is always guaranteed a free node.
///
///  * **Standard pages only.** The pool stores page buffers of exactly
///    RegionHeap::PageWords words, allocated aligned to their own size
///    (PageBuffer / allocatePage), so each one is exactly one chunk of
///    RegionHeap's page table. Oversized and finite-region blocks
///    bypass the pool entirely — callers only release standard pages.
///
///  * **Safety w.r.t. exact dangling detection.** A pooled page must
///    never be handed out while `RetainReleasedPages` detection could
///    still attribute it to a dead region: a RegionHeap running with
///    detection on keeps every released page in its graveyard and
///    neither feeds the pool nor draws from it (see RegionHeap).
///
/// Thread safety: every member function is safe from any thread; the
/// counters are relaxed atomics (they are statistics, not
/// synchronisation — the release/acquire CAS pair on each list head
/// orders the page hand-offs).
///
//===----------------------------------------------------------------------===//

#ifndef RML_RT_PAGEPOOL_H
#define RML_RT_PAGEPOOL_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rml::rt {

/// A point-in-time snapshot of the pool's counters.
struct PagePoolStats {
  uint64_t AcquireHits = 0;   // acquires served from the pool
  uint64_t AcquireMisses = 0; // acquires that found the pool empty
  uint64_t Releases = 0;      // pages accepted into the pool
  uint64_t Trims = 0;         // pages freed (over capacity, or trim())
  uint64_t Steals = 0;        // hits served from a non-home shard
  uint64_t BatchAcquires = 0; // acquireMany calls
  uint64_t BatchReleases = 0; // releaseMany calls
  uint64_t LockAcquires = 0;  // mutex acquisitions (steal scans, trims)
  uint64_t FreePages = 0;     // pages currently pooled
  uint64_t Capacity = 0;      // the bound (MaxPages)

  /// Fraction of page demand served by reuse, in [0,1].
  double reuseRatio() const {
    uint64_t Total = AcquireHits + AcquireMisses;
    return Total ? static_cast<double>(AcquireHits) / Total : 0.0;
  }
};

/// A bounded, sharded, lock-free free list of standard page buffers.
class PagePool {
public:
  static constexpr size_t NumShards = 8;
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

  explicit PagePool(size_t MaxPages = DefaultMaxPages);
  ~PagePool();

  PagePool(const PagePool &) = delete;
  PagePool &operator=(const PagePool &) = delete;

  /// A recycled standard page buffer, or null when the pool is empty
  /// (the caller then allocates fresh). Counts a hit or a miss.
  PageBuffer acquire();

  /// Hands a standard page buffer back. Frees it instead when the pool
  /// already holds MaxPages pages (counted as a trim). \p Buf must come
  /// from allocatePage — oversized blocks bypass the pool by contract.
  void release(PageBuffer Buf);

  /// Appends up to \p Pages recycled buffers to \p Out, draining the
  /// home shard's chain in one detach and stealing for any shortfall.
  /// Counts one hit per page served and one miss per unfilled slot
  /// (the caller allocates those fresh), so the reuse ratio means the
  /// same thing whether demand arrives singly or batched. Returns the
  /// number appended.
  size_t acquireMany(std::vector<PageBuffer> &Out,
                     size_t Pages);

  /// Hands a whole heap's standard pages back with a single CAS on the
  /// home shard. Pages beyond the capacity bound are freed (counted as
  /// trims), exactly as release() would.
  void releaseMany(std::vector<PageBuffer> Bufs);

  /// Frees every pooled page (counted as trims). Never blocks the
  /// home-shard hit path: each shard's chain is detached with one CAS
  /// and freed outside any shared state.
  void trim();

  PagePoolStats stats() const;
  size_t freePages() const { return TotalFree.load(std::memory_order_relaxed); }
  size_t capacity() const { return MaxPages; }

private:
  /// One link of a Treiber stack. Nodes live in the arena for the
  /// pool's whole lifetime and cycle between the shard chains and the
  /// node free list; every field a concurrent thread may read
  /// speculatively is atomic, so a stale pop attempt is a failed CAS,
  /// never a racy read.
  struct Node {
    std::atomic<uint32_t> Next{0};
    std::atomic<uint64_t *> Page{nullptr};
  };

  /// Head word layout: (ABA tag << 32) | node index.
  static constexpr uint32_t NoNode = UINT32_MAX;
  static constexpr uint64_t EmptyHead = NoNode;
  static uint32_t headIndex(uint64_t Head) {
    return static_cast<uint32_t>(Head);
  }
  static uint64_t packHead(uint32_t Index, uint64_t Tag) {
    return (Tag << 32) | Index;
  }
  static uint64_t headTag(uint64_t Head) { return Head >> 32; }

  /// Padded so two shards' heads never share a cache line.
  struct alignas(64) Shard {
    std::atomic<uint64_t> Head{EmptyHead};
  };

  /// This thread's shard visiting order: element 0 is its home shard,
  /// the rest the steal order. Computed once per thread.
  using ShardOrder = std::array<uint8_t, NumShards>;
  static const ShardOrder &shardOrder();

  // Treiber primitives over the node arena.
  uint32_t popNode(std::atomic<uint64_t> &Head);
  void pushChain(std::atomic<uint64_t> &Head, uint32_t First, uint32_t Last);
  /// Detaches a shard's whole chain (its first node index, or NoNode).
  uint32_t detachChain(std::atomic<uint64_t> &Head);

  /// Pops one page off \p Shard; null when that shard is empty.
  uint64_t *popPage(Shard &S);
  /// Reserves up to \p Want capacity slots; returns how many were won.
  size_t reserveSlots(size_t Want);

  const size_t MaxPages;
  std::array<Shard, NumShards> Shards;
  /// Free Node indices (arena slots not currently carrying a page).
  std::atomic<uint64_t> FreeNodes{EmptyHead};
  std::unique_ptr<Node[]> Nodes; // arena of MaxPages nodes
  /// Serializes cross-shard steal scans and trims against each other
  /// only — the home-shard acquire/release paths never touch it.
  std::mutex StealM;
  /// Pages currently pooled, summed over shards; the capacity bound is
  /// enforced on this counter so the total never exceeds MaxPages.
  std::atomic<size_t> TotalFree{0};
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Accepted{0};
  std::atomic<uint64_t> Trims{0};
  std::atomic<uint64_t> StealCount{0};
  std::atomic<uint64_t> BatchAcq{0};
  std::atomic<uint64_t> BatchRel{0};
  std::atomic<uint64_t> Locks{0};
};

} // namespace rml::rt

#endif // RML_RT_PAGEPOOL_H
