//===- rt/PagePool.cpp ----------------------------------------------------===//

#include "rt/PagePool.h"

#include <algorithm>
#include <new>

using namespace rml;
using namespace rml::rt;

void PagePool::PageDeleter::operator()(uint64_t *Page) const noexcept {
  ::operator delete[](Page, std::align_val_t(PageBytes));
}

PagePool::PageBuffer PagePool::allocatePage() {
  return PageBuffer(static_cast<uint64_t *>(
      ::operator new[](PageBytes, std::align_val_t(PageBytes))));
}

PagePool::PageBuffer PagePool::acquire() {
  std::lock_guard<std::mutex> Lock(M);
  ++Counters.LockAcquires;
  if (Free.empty()) {
    ++Counters.AcquireMisses;
    return nullptr;
  }
  ++Counters.AcquireHits;
  PageBuffer Page = std::move(Free.back());
  Free.pop_back();
  return Page;
}

void PagePool::releaseMany(std::vector<PageBuffer> Bufs) {
  Bufs.erase(std::remove(Bufs.begin(), Bufs.end(), nullptr), Bufs.end());
  if (Bufs.empty())
    return;
  {
    std::lock_guard<std::mutex> Lock(M);
    ++Counters.LockAcquires;
    size_t Take = std::min(Bufs.size(), MaxPages - Free.size());
    for (size_t I = 0; I < Take; ++I)
      Free.push_back(std::move(Bufs[I]));
    Counters.Releases += Take;
    Counters.Trims += Bufs.size() - Take;
  }
  // Bufs' destructor frees the pages over the bound, outside the lock.
}

PagePoolStats PagePool::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  PagePoolStats Out = Counters;
  Out.FreePages = Free.size();
  Out.Capacity = MaxPages;
  return Out;
}

size_t PagePool::freePages() const {
  std::lock_guard<std::mutex> Lock(M);
  return Free.size();
}
