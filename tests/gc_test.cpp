//===- tests/gc_test.cpp - Copying collector unit tests -------------------===//
//
// The Cheney-style collector: liveness, sharing, region identity,
// tag-free layouts, root updates and — the paper's crash — dangling
// pointer detection.
//
//===----------------------------------------------------------------------===//

#include "rt/Gc.h"

#include <gtest/gtest.h>

using namespace rml;
using namespace rml::rt;

namespace {

class GcTest : public ::testing::Test {
protected:
  /// Allocates a tagged pair in \p R.
  Value pair(uint32_t R, Value A, Value B) {
    uint64_t *P = H.alloc(R, 3);
    P[0] = makeHeader(ObjKind::Pair, 0);
    P[1] = A;
    P[2] = B;
    return fromPtr(P);
  }

  /// Allocates a tag-free cons cell in \p R (must be a Cons region).
  Value cons(uint32_t R, Value Head, Value Tail) {
    uint64_t *P = H.alloc(R, 2);
    P[0] = Head;
    P[1] = Tail;
    return fromPtr(P);
  }

  Value str(uint32_t R, std::string_view S) {
    size_t Words = 1 + (S.size() + 7) / 8;
    uint64_t *P = H.alloc(R, Words);
    P[0] = makeHeader(ObjKind::String, S.size());
    if (!S.empty()) {
      P[Words - 1] = 0;
      memcpy(P + 1, S.data(), S.size());
    }
    return fromPtr(P);
  }

  static int64_t fst(Value V, bool TagFree = false) {
    return unboxScalar(asPtr(V)[TagFree ? 0 : 1]);
  }

  RegionHeap H;
};

TEST_F(GcTest, LiveObjectsSurviveGarbageDies) {
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  Value Live = pair(R, boxScalar(1), boxScalar(2));
  for (int I = 0; I < 1000; ++I)
    pair(R, boxScalar(I), boxScalar(I)); // garbage
  uint64_t WordsBefore = H.Stats.CurrentHeapWords;
  std::vector<Value *> Roots{&Live};
  GcResult G = collectGarbage(H, Roots);
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_EQ(G.CopiedWords, 3u);
  EXPECT_LT(H.Stats.CurrentHeapWords, WordsBefore);
  EXPECT_EQ(fst(Live), 1);
}

TEST_F(GcTest, RootsAreUpdatedToTheNewLocation) {
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  Value V = pair(R, boxScalar(7), boxScalar(8));
  Value Before = V;
  std::vector<Value *> Roots{&V};
  ASSERT_TRUE(collectGarbage(H, Roots).Ok);
  EXPECT_NE(V, Before); // moved
  EXPECT_EQ(fst(V), 7);
}

TEST_F(GcTest, SharingIsPreserved) {
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  Value Shared = pair(R, boxScalar(1), boxScalar(2));
  Value A = pair(R, Shared, boxScalar(0));
  Value B = pair(R, Shared, boxScalar(0));
  std::vector<Value *> Roots{&A, &B};
  GcResult G = collectGarbage(H, Roots);
  ASSERT_TRUE(G.Ok);
  // Both outer pairs reference the *same* copied object.
  EXPECT_EQ(asPtr(A)[1], asPtr(B)[1]);
  // 3 objects * 3 words each.
  EXPECT_EQ(G.CopiedWords, 9u);
}

TEST_F(GcTest, CyclesThroughSharingTerminate) {
  // Refs can create cycles: r := pair containing r.
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  uint64_t *Ref = H.alloc(R, 2);
  Ref[0] = makeHeader(ObjKind::Ref, 0);
  Ref[1] = NilValue;
  Value RefV = fromPtr(Ref);
  Value P = pair(R, RefV, boxScalar(1));
  asPtr(RefV)[1] = P; // cycle
  std::vector<Value *> Roots{&RefV};
  GcResult G = collectGarbage(H, Roots);
  ASSERT_TRUE(G.Ok) << G.Error;
  // ref(2 words) + pair(3 words).
  EXPECT_EQ(G.CopiedWords, 5u);
  // The cycle is intact after copying.
  uint64_t *NewRef = asPtr(RefV);
  Value NewPair = NewRef[1];
  EXPECT_EQ(asPtr(NewPair)[1], RefV);
}

TEST_F(GcTest, RegionIdentityIsPreserved) {
  uint32_t R1 = H.create(1, RegionKind::Mixed, 0);
  uint32_t R2 = H.create(2, RegionKind::Mixed, 0);
  Value V1 = pair(R1, boxScalar(1), boxScalar(1));
  Value V2 = pair(R2, boxScalar(2), boxScalar(2));
  std::vector<Value *> Roots{&V1, &V2};
  ASSERT_TRUE(collectGarbage(H, Roots).Ok);
  EXPECT_EQ(H.ownerOf(asPtr(V1)), std::optional<uint32_t>(R1));
  EXPECT_EQ(H.ownerOf(asPtr(V2)), std::optional<uint32_t>(R2));
}

TEST_F(GcTest, TagFreeConsRegionsScanByKind) {
  uint32_t R = H.create(1, RegionKind::Cons, 0);
  Value L = NilValue;
  for (int I = 5; I > 0; --I)
    L = cons(R, boxScalar(I), L);
  for (int I = 0; I < 100; ++I)
    cons(R, boxScalar(I), NilValue); // garbage
  std::vector<Value *> Roots{&L};
  GcResult G = collectGarbage(H, Roots);
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_EQ(G.CopiedWords, 10u); // 5 cells * 2 words, headerless
  int N = 0;
  for (Value Cur = L; Cur != NilValue; Cur = asPtr(Cur)[1])
    ++N;
  EXPECT_EQ(N, 5);
}

TEST_F(GcTest, StringsSurviveWithoutScanning) {
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  Value S = str(R, "hello world");
  std::vector<Value *> Roots{&S};
  ASSERT_TRUE(collectGarbage(H, Roots).Ok);
  uint64_t *P = asPtr(S);
  EXPECT_EQ(headerKind(P[0]), ObjKind::String);
  EXPECT_EQ(std::string_view(reinterpret_cast<const char *>(P + 1), 11),
            "hello world");
}

TEST_F(GcTest, ScalarsPassThroughUntouched) {
  Value V = boxScalar(-12345);
  Value U = unitValue();
  Value N = NilValue;
  std::vector<Value *> Roots{&V, &U, &N};
  ASSERT_TRUE(collectGarbage(H, Roots).Ok);
  EXPECT_EQ(unboxScalar(V), -12345);
  EXPECT_EQ(U, unitValue());
  EXPECT_EQ(N, NilValue);
}

TEST_F(GcTest, DanglingPointerIsDetected) {
  // The paper's failure: a live object referencing a deallocated region.
  // Graveyard mode makes detection exact (page reuse could otherwise let
  // a dangling pointer alias a fresh page).
  H.RetainReleasedPages = true;
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  uint32_t Dead = H.create(86, RegionKind::Mixed, 0);
  Value Doomed = pair(Dead, boxScalar(1), boxScalar(2));
  Value Holder = pair(R, Doomed, boxScalar(0));
  H.release(Dead); // the inner region dies; the outer one holds its pair
  std::vector<Value *> Roots{&Holder};
  GcResult G = collectGarbage(H, Roots);
  EXPECT_FALSE(G.Ok);
  EXPECT_NE(G.Error.find("dangling"), std::string::npos);
}

TEST_F(GcTest, DanglingDiagnosticsNameTheRegionInGraveyardMode) {
  H.RetainReleasedPages = true;
  uint32_t Dead = H.create(99, RegionKind::Mixed, 0);
  Value Doomed = pair(Dead, boxScalar(1), boxScalar(2));
  H.release(Dead);
  std::vector<Value *> Roots{&Doomed};
  GcResult G = collectGarbage(H, Roots);
  ASSERT_FALSE(G.Ok);
  EXPECT_NE(G.Error.find("r99"), std::string::npos) << G.Error;
}

TEST_F(GcTest, RepeatedCollectionsAreStable) {
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  Value L = pair(R, boxScalar(1), pair(R, boxScalar(2), boxScalar(3)));
  for (int I = 0; I < 5; ++I) {
    std::vector<Value *> Roots{&L};
    ASSERT_TRUE(collectGarbage(H, Roots).Ok);
  }
  EXPECT_EQ(fst(L), 1);
  EXPECT_EQ(H.Stats.GcCount, 5u);
}

TEST_F(GcTest, ClosureLayoutSkipsRegionWords) {
  // Closure: [hdr][fnIdx][nRegions][regionWord][capture...]: the region
  // word must not be traced as a pointer.
  uint32_t R = H.create(1, RegionKind::Mixed, 0);
  Value Cap = pair(R, boxScalar(9), boxScalar(9));
  uint64_t *C = H.alloc(R, 5);
  C[0] = makeHeader(ObjKind::Closure, 4);
  C[1] = 3;                         // fnIdx
  C[2] = 1;                         // nRegions
  C[3] = (uint64_t(7) << 32) | 1;   // packed region word (not a pointer)
  C[4] = Cap;                       // captured value
  Value Clos = fromPtr(C);
  std::vector<Value *> Roots{&Clos};
  GcResult G = collectGarbage(H, Roots);
  ASSERT_TRUE(G.Ok) << G.Error;
  uint64_t *NC = asPtr(Clos);
  EXPECT_EQ(NC[1], 3u);
  EXPECT_EQ(NC[3], (uint64_t(7) << 32) | 1);
  EXPECT_EQ(unboxScalar(asPtr(NC[4])[1]), 9);
}

} // namespace
