//===- rt/PagePool.cpp ----------------------------------------------------===//

#include "rt/PagePool.h"

#include <algorithm>
#include <functional>
#include <new>
#include <thread>

using namespace rml;
using namespace rml::rt;

PagePool::PagePool(size_t MaxPages)
    : MaxPages(std::min<size_t>(MaxPages, NoNode - 1)),
      Nodes(this->MaxPages ? std::make_unique<Node[]>(this->MaxPages)
                           : nullptr) {
  // Thread the whole arena onto the node free list: slot I links to
  // I+1, the last slot terminates.
  for (size_t I = 0; I + 1 < this->MaxPages; ++I)
    Nodes[I].Next.store(static_cast<uint32_t>(I + 1),
                        std::memory_order_relaxed);
  if (this->MaxPages) {
    Nodes[this->MaxPages - 1].Next.store(NoNode, std::memory_order_relaxed);
    FreeNodes.store(packHead(0, 0), std::memory_order_relaxed);
  }
}

PagePool::~PagePool() {
  // No concurrent users by contract; free whatever is still pooled.
  for (Shard &S : Shards) {
    uint32_t Idx = headIndex(S.Head.load(std::memory_order_relaxed));
    while (Idx != NoNode) {
      PageDeleter{}(Nodes[Idx].Page.load(std::memory_order_relaxed));
      Idx = Nodes[Idx].Next.load(std::memory_order_relaxed);
    }
  }
}

const PagePool::ShardOrder &PagePool::shardOrder() {
  // Computed once per thread: workers land on (mostly) distinct home
  // shards and keep hitting the same one, so the fast path is one
  // uncontended CAS. Steals visit the other shards in rotation order.
  thread_local const ShardOrder Cached = [] {
    ShardOrder S;
    const size_t Home =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % NumShards;
    for (size_t I = 0; I < NumShards; ++I)
      S[I] = static_cast<uint8_t>((Home + I) % NumShards);
    return S;
  }();
  return Cached;
}

void PagePool::PageDeleter::operator()(uint64_t *Page) const noexcept {
  ::operator delete[](Page, std::align_val_t(PageBytes));
}

PagePool::PageBuffer PagePool::allocatePage() {
  return PageBuffer(static_cast<uint64_t *>(
      ::operator new[](PageBytes, std::align_val_t(PageBytes))));
}

//===----------------------------------------------------------------------===//
// Treiber primitives
//===----------------------------------------------------------------------===//

uint32_t PagePool::popNode(std::atomic<uint64_t> &Head) {
  uint64_t Old = Head.load(std::memory_order_acquire);
  for (;;) {
    uint32_t Idx = headIndex(Old);
    if (Idx == NoNode)
      return NoNode;
    // Speculative: Old may be stale and Idx already recycled onto
    // another list. Next is atomic and Idx is an always-live arena
    // slot, so the read is benign; the tag makes the CAS fail then.
    uint32_t Next = Nodes[Idx].Next.load(std::memory_order_relaxed);
    if (Head.compare_exchange_weak(Old, packHead(Next, headTag(Old) + 1),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire))
      return Idx;
  }
}

void PagePool::pushChain(std::atomic<uint64_t> &Head, uint32_t First,
                         uint32_t Last) {
  uint64_t Old = Head.load(std::memory_order_relaxed);
  for (;;) {
    Nodes[Last].Next.store(headIndex(Old), std::memory_order_relaxed);
    if (Head.compare_exchange_weak(Old, packHead(First, headTag(Old) + 1),
                                   std::memory_order_release,
                                   std::memory_order_relaxed))
      return;
  }
}

uint32_t PagePool::detachChain(std::atomic<uint64_t> &Head) {
  uint64_t Old = Head.load(std::memory_order_acquire);
  for (;;) {
    uint32_t Idx = headIndex(Old);
    if (Idx == NoNode)
      return NoNode;
    if (Head.compare_exchange_weak(Old, packHead(NoNode, headTag(Old) + 1),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire))
      return Idx;
  }
}

uint64_t *PagePool::popPage(Shard &S) {
  uint32_t Idx = popNode(S.Head);
  if (Idx == NoNode)
    return nullptr;
  uint64_t *Page = Nodes[Idx].Page.load(std::memory_order_relaxed);
  Nodes[Idx].Page.store(nullptr, std::memory_order_relaxed);
  pushChain(FreeNodes, Idx, Idx);
  TotalFree.fetch_sub(1, std::memory_order_relaxed);
  return Page;
}

size_t PagePool::reserveSlots(size_t Want) {
  // Win capacity under the bound before touching a shard, so
  // concurrent releases can never overshoot MaxPages. The
  // arena holds exactly MaxPages nodes and every held node is covered
  // by a reserved slot, so a won slot guarantees a free node.
  size_t Cur = TotalFree.load(std::memory_order_relaxed);
  for (;;) {
    size_t Got = Cur < MaxPages ? std::min(Want, MaxPages - Cur) : 0;
    if (Got == 0)
      return 0;
    if (TotalFree.compare_exchange_weak(Cur, Cur + Got,
                                        std::memory_order_relaxed))
      return Got;
  }
}

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

PagePool::PageBuffer PagePool::acquire() {
  const ShardOrder &O = shardOrder();
  // Home-shard fast path: one CAS, no lock.
  if (uint64_t *Page = popPage(Shards[O[0]])) {
    Hits.fetch_add(1, std::memory_order_relaxed);
    return PageBuffer(Page);
  }
  // Steal path: the other shards in rotation order. The mutex only
  // serializes stealers against each other — threads hitting their
  // home shard never wait on it.
  if (TotalFree.load(std::memory_order_relaxed) > 0) {
    std::lock_guard<std::mutex> Lock(StealM);
    Locks.fetch_add(1, std::memory_order_relaxed);
    for (size_t I = 1; I < NumShards; ++I)
      if (uint64_t *Page = popPage(Shards[O[I]])) {
        StealCount.fetch_add(1, std::memory_order_relaxed);
        Hits.fetch_add(1, std::memory_order_relaxed);
        return PageBuffer(Page);
      }
  }
  Misses.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void PagePool::release(PageBuffer Buf) {
  if (!Buf)
    return;
  if (reserveSlots(1) == 0) {
    Trims.fetch_add(1, std::memory_order_relaxed);
    return; // Buf's destructor frees the page (the pool is full)
  }
  uint32_t Idx = popNode(FreeNodes);
  if (Idx == NoNode) { // unreachable by the slot/node invariant
    TotalFree.fetch_sub(1, std::memory_order_relaxed);
    Trims.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Nodes[Idx].Page.store(Buf.release(), std::memory_order_relaxed);
  Accepted.fetch_add(1, std::memory_order_relaxed);
  pushChain(Shards[shardOrder()[0]].Head, Idx, Idx);
}

size_t PagePool::acquireMany(std::vector<PageBuffer> &Out,
                             size_t Pages) {
  if (Pages == 0)
    return 0;
  BatchAcq.fetch_add(1, std::memory_order_relaxed);
  const ShardOrder &O = shardOrder();
  size_t Got = 0;

  // Detach the whole home chain once, take up to Pages off its front
  // (preserving LIFO order), and re-prepend any remainder with one CAS.
  uint32_t Chain = detachChain(Shards[O[0]].Head);
  uint32_t TakenFirst = NoNode, TakenLast = NoNode;
  while (Chain != NoNode && Got < Pages) {
    uint32_t Idx = Chain;
    Chain = Nodes[Idx].Next.load(std::memory_order_relaxed);
    Out.emplace_back(Nodes[Idx].Page.load(std::memory_order_relaxed));
    Nodes[Idx].Page.store(nullptr, std::memory_order_relaxed);
    Nodes[Idx].Next.store(TakenFirst, std::memory_order_relaxed);
    if (TakenFirst == NoNode)
      TakenLast = Idx;
    TakenFirst = Idx;
    ++Got;
  }
  if (Chain != NoNode) {
    uint32_t Last = Chain;
    for (uint32_t Next;
         (Next = Nodes[Last].Next.load(std::memory_order_relaxed)) != NoNode;)
      Last = Next;
    pushChain(Shards[O[0]].Head, Chain, Last);
  }
  if (TakenFirst != NoNode) {
    pushChain(FreeNodes, TakenFirst, TakenLast);
    TotalFree.fetch_sub(Got, std::memory_order_relaxed);
  }

  // Steal for the shortfall so a batch behaves like that many single
  // acquires, just with the home shard touched once.
  if (Got < Pages && TotalFree.load(std::memory_order_relaxed) > 0) {
    std::lock_guard<std::mutex> Lock(StealM);
    Locks.fetch_add(1, std::memory_order_relaxed);
    for (size_t I = 1; I < NumShards && Got < Pages; ++I)
      while (Got < Pages) {
        uint64_t *Page = popPage(Shards[O[I]]);
        if (!Page)
          break;
        Out.emplace_back(Page);
        StealCount.fetch_add(1, std::memory_order_relaxed);
        ++Got;
      }
  }

  Hits.fetch_add(Got, std::memory_order_relaxed);
  Misses.fetch_add(Pages - Got, std::memory_order_relaxed);
  return Got;
}

void PagePool::releaseMany(std::vector<PageBuffer> Bufs) {
  Bufs.erase(std::remove_if(
                 Bufs.begin(), Bufs.end(),
                 [](const PageBuffer &B) { return !B; }),
             Bufs.end());
  if (Bufs.empty())
    return;
  BatchRel.fetch_add(1, std::memory_order_relaxed);
  size_t Won = reserveSlots(Bufs.size());
  if (Won < Bufs.size())
    Trims.fetch_add(Bufs.size() - Won, std::memory_order_relaxed);
  if (Won == 0)
    return; // the vector's destructors free everything

  // Pre-link the accepted pages into one chain, then prepend it onto
  // the home shard with a single CAS: one shard touch per heap.
  uint32_t First = NoNode, Last = NoNode;
  size_t Linked = 0;
  for (size_t I = 0; I < Won; ++I) {
    uint32_t Idx = popNode(FreeNodes);
    if (Idx == NoNode) // unreachable by the slot/node invariant
      break;
    Nodes[Idx].Page.store(Bufs[I].release(), std::memory_order_relaxed);
    Nodes[Idx].Next.store(First, std::memory_order_relaxed);
    if (First == NoNode)
      Last = Idx;
    First = Idx;
    ++Linked;
  }
  if (Linked < Won) {
    TotalFree.fetch_sub(Won - Linked, std::memory_order_relaxed);
    Trims.fetch_add(Won - Linked, std::memory_order_relaxed);
  }
  if (Linked) {
    Accepted.fetch_add(Linked, std::memory_order_relaxed);
    pushChain(Shards[shardOrder()[0]].Head, First, Last);
  }
}

void PagePool::trim() {
  // The mutex coordinates with concurrent steal scans and other trims
  // only; each shard is drained with one CAS, so the home-shard hit
  // path never serializes behind a trim.
  std::lock_guard<std::mutex> Lock(StealM);
  Locks.fetch_add(1, std::memory_order_relaxed);
  for (Shard &S : Shards) {
    uint32_t Chain = detachChain(S.Head);
    if (Chain == NoNode)
      continue;
    size_t N = 0;
    uint32_t Idx = Chain, Last = Chain;
    while (Idx != NoNode) {
      PageDeleter{}(Nodes[Idx].Page.load(std::memory_order_relaxed));
      Nodes[Idx].Page.store(nullptr, std::memory_order_relaxed);
      Last = Idx;
      Idx = Nodes[Idx].Next.load(std::memory_order_relaxed);
      ++N;
    }
    pushChain(FreeNodes, Chain, Last);
    TotalFree.fetch_sub(N, std::memory_order_relaxed);
    Trims.fetch_add(N, std::memory_order_relaxed);
  }
}

PagePoolStats PagePool::stats() const {
  PagePoolStats Out;
  Out.AcquireHits = Hits.load(std::memory_order_relaxed);
  Out.AcquireMisses = Misses.load(std::memory_order_relaxed);
  Out.Releases = Accepted.load(std::memory_order_relaxed);
  Out.Trims = Trims.load(std::memory_order_relaxed);
  Out.Steals = StealCount.load(std::memory_order_relaxed);
  Out.BatchAcquires = BatchAcq.load(std::memory_order_relaxed);
  Out.BatchReleases = BatchRel.load(std::memory_order_relaxed);
  Out.LockAcquires = Locks.load(std::memory_order_relaxed);
  Out.FreePages = TotalFree.load(std::memory_order_relaxed);
  Out.Capacity = MaxPages;
  return Out;
}
