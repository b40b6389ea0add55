//===- support/Diagnostics.h - Source locations and diagnostics -*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Source locations and a diagnostic sink. Library code never throws; every
/// pipeline phase reports failures through a DiagnosticEngine and returns a
/// failure marker. Messages follow the "lowercase start, no trailing period"
/// convention.
///
//===----------------------------------------------------------------------===//

#ifndef RML_SUPPORT_DIAGNOSTICS_H
#define RML_SUPPORT_DIAGNOSTICS_H

#include <cstdint>
#include <string>
#include <vector>

namespace rml {

/// A 1-based line/column source position. Line 0 means "unknown".
struct SrcLoc {
  uint32_t Line = 0;
  uint32_t Col = 0;

  bool isValid() const { return Line != 0; }
  std::string str() const;
  friend bool operator==(SrcLoc A, SrcLoc B) {
    return A.Line == B.Line && A.Col == B.Col;
  }
};

enum class DiagKind { Error, Warning, Note };

/// One reported diagnostic.
struct Diagnostic {
  DiagKind Kind = DiagKind::Error;
  SrcLoc Loc;
  std::string Message;

  std::string str() const;
};

/// Collects diagnostics across pipeline phases.
class DiagnosticEngine {
public:
  void error(SrcLoc Loc, std::string Message);
  void warning(SrcLoc Loc, std::string Message);
  void note(SrcLoc Loc, std::string Message);
  /// Re-reports a diagnostic recorded elsewhere (a declaration prefix's
  /// warnings, replayed by the compiles that resume after it).
  void report(const Diagnostic &D);

  bool hasErrors() const { return NumErrors != 0; }
  unsigned errorCount() const { return NumErrors; }
  const std::vector<Diagnostic> &all() const { return Diags; }

  /// Renders every diagnostic, one per line.
  std::string str() const;

  void clear() {
    Diags.clear();
    NumErrors = 0;
  }

private:
  std::vector<Diagnostic> Diags;
  unsigned NumErrors = 0;
};

} // namespace rml

#endif // RML_SUPPORT_DIAGNOSTICS_H
