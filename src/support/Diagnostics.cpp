//===- support/Diagnostics.cpp --------------------------------------------===//

#include "support/Diagnostics.h"

using namespace rml;

std::string SrcLoc::str() const {
  if (!isValid())
    return "<unknown>";
  return std::to_string(Line) + ":" + std::to_string(Col);
}

std::string Diagnostic::str() const {
  const char *Prefix = Kind == DiagKind::Error     ? "error"
                       : Kind == DiagKind::Warning ? "warning"
                                                   : "note";
  std::string Out = Loc.isValid() ? Loc.str() + ": " : "";
  Out += Prefix;
  Out += ": ";
  Out += Message;
  return Out;
}

void DiagnosticEngine::error(SrcLoc Loc, std::string Message) {
  Diags.push_back({DiagKind::Error, Loc, std::move(Message)});
  ++NumErrors;
}

void DiagnosticEngine::warning(SrcLoc Loc, std::string Message) {
  Diags.push_back({DiagKind::Warning, Loc, std::move(Message)});
}

void DiagnosticEngine::note(SrcLoc Loc, std::string Message) {
  Diags.push_back({DiagKind::Note, Loc, std::move(Message)});
}

void DiagnosticEngine::report(const Diagnostic &D) {
  Diags.push_back(D);
  if (D.Kind == DiagKind::Error)
    ++NumErrors;
}

std::string DiagnosticEngine::str() const {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    Out += D.str();
    Out += '\n';
  }
  return Out;
}
