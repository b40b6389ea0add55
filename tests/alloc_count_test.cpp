//===- tests/alloc_count_test.cpp - Heap allocations on the run path ------===//
//
// Counts global operator new calls made by Compiler::run for the
// region-churning corpus programs under rg with default EvalOptions.
// The region heap's per-step, per-allocation and per-letregion
// bookkeeping (page table, region stack, profile table, collector
// forwarding) allocates nothing in steady state, so a run's count is its
// fresh pages and finite blocks plus a small multiple of its collections
// and its deepest region nesting. Each bound is
// the measured count with headroom: an ordered map or a per-object
// hash node creeping back onto the run path fails here, not only in
// the benchmark.
//
// This binary replaces the global allocation functions, so it is its
// own executable (label `alloc`).
//
//===----------------------------------------------------------------------===//

#include "bench/Programs.h"
#include "core/Pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <ostream>

namespace {
std::atomic<uint64_t> NewCalls{0};

void *countedAlloc(std::size_t Bytes, std::size_t Align) {
  NewCalls.fetch_add(1, std::memory_order_relaxed);
  if (Bytes == 0)
    Bytes = 1;
  void *P = nullptr;
  if (Align <= alignof(std::max_align_t))
    P = std::malloc(Bytes);
  else if (posix_memalign(&P, Align, Bytes) != 0)
    P = nullptr;
  if (!P)
    throw std::bad_alloc();
  return P;
}
} // namespace

void *operator new(std::size_t N) { return countedAlloc(N, 0); }
void *operator new[](std::size_t N) { return countedAlloc(N, 0); }
void *operator new(std::size_t N, std::align_val_t A) {
  return countedAlloc(N, static_cast<std::size_t>(A));
}
void *operator new[](std::size_t N, std::align_val_t A) {
  return countedAlloc(N, static_cast<std::size_t>(A));
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

namespace {

using namespace rml;

struct Case {
  const char *Program;
  uint64_t MaxNewCalls;
};

// Names the parameter by its program, so test names stay stable.
void PrintTo(const Case &C, std::ostream *OS) { *OS << C.Program; }

class AllocCountTest : public ::testing::TestWithParam<Case> {};

TEST_P(AllocCountTest, RunStaysUnderItsAllocationBound) {
  const Case &C = GetParam();
  const bench::BenchProgram *P = bench::findBenchmark(C.Program);
  ASSERT_NE(P, nullptr) << C.Program;
  Compiler Comp;
  CompileOptions Opts;
  Opts.Strat = Strategy::Rg;
  auto Unit = Comp.compile(P->Source, Opts);
  ASSERT_TRUE(Unit) << Comp.diagnostics().str();

  const uint64_t Before = NewCalls.load(std::memory_order_relaxed);
  rt::RunResult R = Comp.run(*Unit);
  const uint64_t Calls = NewCalls.load(std::memory_order_relaxed) - Before;

  ASSERT_EQ(R.Outcome, rt::RunOutcome::Ok) << R.Error;
  RecordProperty("new_calls", static_cast<int>(Calls));
  std::printf("%s: %llu operator new calls (%llu fresh pages and finite "
              "blocks, %llu regions, %llu collections)\n",
              C.Program, static_cast<unsigned long long>(Calls),
              static_cast<unsigned long long>(R.Heap.PagesAllocated),
              static_cast<unsigned long long>(R.Heap.RegionsCreated),
              static_cast<unsigned long long>(R.Heap.GcCount));
  EXPECT_LE(Calls, C.MaxNewCalls) << C.Program;
}

INSTANTIATE_TEST_SUITE_P(Corpus, AllocCountTest,
                         // Measured: 26080, 6517 and 33131 calls, of
                         // which 25433, 5744 and 32862 are fresh pages
                         // and finite blocks (HeapStats::PagesAllocated).
                         ::testing::Values(Case{"qsort", 32000},
                                           Case{"nrev", 8200},
                                           Case{"ratio", 40000}),
                         [](const auto &Info) {
                           return std::string(Info.param.Program);
                         });

} // namespace
