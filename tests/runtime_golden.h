//===- tests/runtime_golden.h - Recorded runtime observables ----*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime's golden file, tests/golden/runtime.txt: one line per
/// (program, EvalOptions) case, recorded from the tree-walking
/// evaluator that preceded the flat interpreter, while the suites still
/// pinned the two walkers equal. A line holds the case key, the source
/// hash, and every deterministic observable of the run: outcome, error,
/// output, result, steps, every HeapStats field, the pause sequence
/// (kind, copied words, live regions) and the region profiles. Wall
/// times are not recorded. The last column is the static GC trigger
/// (threshold words and minors per major, each at least 1), rendered
/// from the run's EvalOptions; it keeps the layout of the former
/// adaptive policy's counters so the recorded lines need no rewrite.
///
/// A test runs its case on the runtime and calls expectMatchesGolden;
/// a mismatch fails with both the recorded line and the line the
/// current runtime produced.
///
//===----------------------------------------------------------------------===//

#ifndef RML_TESTS_RUNTIME_GOLDEN_H
#define RML_TESTS_RUNTIME_GOLDEN_H

#include "rt/Eval.h"

#include <string>
#include <string_view>

namespace rml::golden {

/// Renders \p R, run under \p Opts, as the golden line of case \p Key
/// over \p Source.
std::string runLine(std::string_view Key, std::string_view Source,
                    const rt::RunResult &R, const rt::EvalOptions &Opts);

/// Fails the current test unless runLine(Key, Source, R, Opts) equals
/// the recorded line for \p Key.
void expectMatchesGolden(std::string_view Key, std::string_view Source,
                         const rt::RunResult &R, const rt::EvalOptions &Opts);

} // namespace rml::golden

#endif // RML_TESTS_RUNTIME_GOLDEN_H
