//===- tests/compile_golden_test.cpp - Recorded compile outputs -----------===//
//
// The static pipeline's golden file (see compile_golden.h) against cold
// compiles on a fresh Compiler. The lines pin the compile path byte for
// byte: a change that only makes compiling cheaper must leave every one
// of them as recorded. A mismatch fails with the recorded and the
// current line side by side.
//
//===----------------------------------------------------------------------===//

#include "compile_golden.h"

using namespace rml;
using namespace rml::golden;

namespace {

TEST(CompileGolden, EveryProgramStrategyAndCaptureModeMatchesItsLine) {
  std::map<std::string, std::string> Lines = goldenLines();
  size_t Cases = 0;
  for (const auto &[Name, Source] : goldenPrograms()) {
    for (Strategy S : {Strategy::Rg, Strategy::RgMinus, Strategy::R}) {
      for (bool Caps : {false, true}) {
        CompileOptions Opts;
        Opts.Strat = S;
        Opts.Captures = Caps;
        std::string Key = caseKey(Name, Opts);
        Compiler C;
        auto Unit = C.compile(Source, Opts);
        std::string Now = compileLine(Key, Source, C, Unit.get());
        ++Cases;
        auto It = Lines.find(Key);
        if (It == Lines.end()) {
          ADD_FAILURE() << "no golden line for " << Key
                        << "; this compile's line:\n"
                        << Now;
          continue;
        }
        EXPECT_EQ(Now, It->second) << "compile golden mismatch for " << Key
                                   << "\n  recorded: " << It->second
                                   << "\n  now:      " << Now;
      }
    }
  }
  // Every recorded line has a case: a program dropped from the corpus
  // must take its lines with it.
  EXPECT_EQ(Cases, Lines.size());
}

} // namespace
