//===- tests/cost_model_test.cpp - Learned cost-model tests ---------------===//
//
// The CostModel in isolation: the bootstrap and per-byte-prior
// prediction ladder (whether a prediction came from the prior or from
// a learned entry shows in the snapshot's PriorUses and Hits), EWMA
// convergence of per-key entries,
// the prior's cold-completions-only update rule, and the snapshot
// counters /stats exposes.
// Labelled `cost` in ctest and expected to be clean under
// -DRML_SANITIZE=thread.
//
//===----------------------------------------------------------------------===//

#include "service/CostModel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

using namespace rml;
using namespace rml::service;

namespace {

/// One non-skipped phase profile worth \p Nanos of wall time.
PhaseProfile phase(const char *Name, uint64_t Nanos, bool Skipped = false) {
  PhaseProfile P;
  P.Name = Name;
  P.WallNanos = Nanos;
  P.Skipped = Skipped;
  return P;
}

TEST(CostModelUnit, BootstrapPredictionIsByteCountAndFromPrior) {
  CostModel M;
  // No history at all: the prediction is the byte count itself — wrong
  // units, right order — and counted as a prior use.
  EXPECT_EQ(M.predict(/*Hash=*/1, /*SourceBytes=*/100), 100u);
  // Predictions are clamped to >= 1 (a zero cost would confuse the
  // deficit charges).
  EXPECT_EQ(M.predict(2, 0), 1u);
  EXPECT_EQ(M.snapshot().PriorUses, 2u);
  EXPECT_EQ(M.snapshot().Hits, 0u);
}

TEST(CostModelUnit, ObservationCreatesALearnedEntry) {
  CostModel M;
  std::vector<PhaseProfile> Profiles = {
      phase("parse", 600),
      phase("rcheck", 0, /*Skipped=*/true), // reused work: not a cost
      phase("eval", 400),
  };
  M.observe(/*Hash=*/7, /*SourceBytes=*/50, Profiles, /*UpdatePrior=*/true);
  EXPECT_EQ(M.predict(7, 50), 1000u); // 600 + 400; the skipped phase is free
  EXPECT_EQ(M.snapshot().Hits, 1u);    // answered from the learned entry
}

TEST(CostModelUnit, EntryEwmaWeighsNewObservationsByAlpha) {
  CostModel M;
  M.observe(7, 10, {phase("parse", 1000)}, true);
  M.observe(7, 10, {phase("parse", 2000)}, true);
  // First observation seeds the entry, the second folds in at Alpha:
  // 0.4 * 2000 + 0.6 * 1000 = 1400.
  EXPECT_EQ(M.predict(7, 10), 1400u);

  // Repeated identical observations converge on the stable cost, each
  // step shrinking the gap by (1 - Alpha).
  uint64_t PrevGap = UINT64_MAX;
  for (int I = 0; I < 12; ++I) {
    M.observe(7, 10, {phase("parse", 2000)}, true);
    uint64_t Gap = 2000 - M.predict(7, 10);
    EXPECT_LE(Gap, PrevGap);
    PrevGap = Gap;
  }
  EXPECT_LE(PrevGap, 10u);
}

TEST(CostModelUnit, PerBytePriorScalesColdPredictions) {
  CostModel M;
  // One cold completion: 100 bytes costing 1000ns makes the prior
  // 10ns/byte; a never-seen 50-byte source now predicts 500ns.
  M.observe(/*Hash=*/1, /*SourceBytes=*/100, {phase("parse", 1000)},
            /*UpdatePrior=*/true);
  EXPECT_EQ(M.predict(/*Hash=*/999, /*SourceBytes=*/50), 500u);
  EXPECT_EQ(M.snapshot().PriorUses, 1u);

  // Cache-hit completions must not drag the prior down: UpdatePrior is
  // false, so the per-key entry moves but the prior holds at 10ns/byte.
  M.observe(/*Hash=*/2, /*SourceBytes=*/100, {phase("run", 10)},
            /*UpdatePrior=*/false);
  EXPECT_EQ(M.predict(999, 50), 500u);
  EXPECT_EQ(M.predict(2, 100), 10u); // the entry itself did learn
  EXPECT_EQ(M.snapshot().Hits, 1u);  // ... and answered that prediction
}

TEST(CostModelUnit, SnapshotCountsEntriesHitsAndPriorUses) {
  CostModel M;
  CostModel::Snapshot S0 = M.snapshot();
  EXPECT_EQ(S0.Entries, 0u);
  EXPECT_EQ(S0.Hits, 0u);
  EXPECT_EQ(S0.PriorUses, 0u);
  EXPECT_EQ(S0.PriorPerByte, 0.0);

  M.predict(1, 10); // bootstrap: a prior use
  M.observe(1, 10, {phase("parse", 500)}, true);
  M.predict(1, 10); // entry hit
  M.predict(2, 10); // prior use
  CostModel::Snapshot S = M.snapshot();
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.PriorUses, 2u);
  EXPECT_DOUBLE_EQ(S.PriorPerByte, 50.0);
}

TEST(CostModelUnit, ConcurrentObserversAndPredictorsStayCoherent) {
  // Hammer the model from several threads (TSan runs this suite): the
  // test is that counters add up and nothing tears, not any ordering.
  CostModel M;
  constexpr int Threads = 4;
  constexpr int PerThread = 500;
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&M, T] {
      for (int I = 0; I < PerThread; ++I) {
        uint64_t Hash = static_cast<uint64_t>(T * PerThread + I);
        M.observe(Hash, 10, {phase("parse", 100)}, true);
        M.predict(Hash, 10);
      }
    });
  for (std::thread &T : Ts)
    T.join();
  CostModel::Snapshot S = M.snapshot();
  EXPECT_EQ(S.Entries, static_cast<uint64_t>(Threads * PerThread));
  // Every predict followed its own observe: all hits, no prior uses.
  EXPECT_EQ(S.Hits, static_cast<uint64_t>(Threads * PerThread));
  EXPECT_EQ(S.PriorUses, 0u);
}

} // namespace
