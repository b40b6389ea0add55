//===- bench_report/Corpus.h - The benchmark's own corpus -------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The programs bench_report runs: the 19 Figure 9 programs and the three
/// programs (Figure 1, Figure 8, Section 4.4) that rg- must get wrong,
/// each with the value it must print.
///
/// This is the benchmark's own copy of the library's corpus
/// (src/bench/Programs.cpp), frozen when the benchmark was defined: the
/// workloads are built only from files under bench_report/, so a change
/// to the library's corpus cannot change what the benchmark measures
/// without showing up as a change to the benchmark itself.
///
/// The expected values are written down by hand rather than taken from
/// the compiler under test. Eight are the ones
/// tests/bench_programs_test.cpp verifies independently; the other eleven
/// were worked out from the program text (closed forms where one exists,
/// otherwise a direct transcription of the program into another
/// language, evaluated there). Every run is compared against them under
/// rg, rg- and r, so the three strategies also agree with each other.
///
//===----------------------------------------------------------------------===//

#ifndef RML_BENCH_REPORT_CORPUS_H
#define RML_BENCH_REPORT_CORPUS_H

#include <string>
#include <utility>
#include <vector>

namespace rml::benchreport {

struct CorpusProgram {
  std::string Name;
  std::string Source;   ///< the shared basis, then the program
  std::string Expected; ///< the hand-written result
};

/// The 19 Figure 9 programs.
const std::vector<CorpusProgram> &corpus();

/// Figure 1 (composition), Figure 8 (g / o chain) and Section 4.4
/// (exception): each ends Ok under rg and traces a dangling pointer
/// under rg-. Pairs of (name, source).
const std::vector<std::pair<std::string, std::string>> &unsoundPrograms();

} // namespace rml::benchreport

#endif // RML_BENCH_REPORT_CORPUS_H
