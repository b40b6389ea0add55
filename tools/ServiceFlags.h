//===- tools/ServiceFlags.h - Command-line walk shared by rmlc and rmld ---===//
//
// Both tools walk argv with one ArgCursor, whose value and number
// readers fail closed ("<tool>: ..." and exit 2), and parse the service
// flags they share with one parseServiceFlag().
//
//===----------------------------------------------------------------------===//

#ifndef RML_TOOLS_SERVICEFLAGS_H
#define RML_TOOLS_SERVICEFLAGS_H

#include "service/Config.h"
#include "support/Number.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

namespace rml {

/// A cursor over one tool's argv.
class ArgCursor {
public:
  ArgCursor(const char *Tool, int Argc, char **Argv)
      : Tool(Tool), Argc(Argc), Argv(Argv) {}

  /// Moves to the next argument; false past the end.
  bool next() {
    if (++I >= Argc)
      return false;
    Flag = Argv[I];
    return true;
  }
  /// The argument next() moved to (the flag, once its value is read).
  const char *arg() const { return Flag; }
  bool is(const char *Name) const { return !std::strcmp(Flag, Name); }

  /// Consumes the current flag's value.
  const char *value() {
    if (I + 1 >= Argc)
      fail(std::string(Flag) + " needs an argument");
    return Argv[++I];
  }
  /// Consumes the current flag's value as a decimal number no greater
  /// than \p Max (see parseUnsigned): a malformed or out-of-range value
  /// is a usage error.
  uint64_t number(uint64_t Max) {
    const char *Text = value();
    if (std::optional<uint64_t> V = parseUnsigned(Text, Max))
      return *V;
    fail(std::string(Flag) + ": invalid number '" + Text + "'");
  }

  /// Prints "<tool>: \p Msg" and exits 2.
  [[noreturn]] void fail(const std::string &Msg) const {
    std::fprintf(stderr, "%s: %s\n", Tool, Msg.c_str());
    std::exit(2);
  }

private:
  const char *Tool;
  int Argc;
  char **Argv;
  int I = 0;
  const char *Flag = nullptr;
};

/// Parses the current argument into \p Cfg when it is a shared service
/// flag. \returns false, consuming nothing, for any other argument.
inline bool parseServiceFlag(ArgCursor &Args, service::ServiceConfig &Cfg) {
  if (Args.is("--jobs")) {
    Cfg.Workers = static_cast<unsigned>(Args.number(UINT_MAX));
  } else if (Args.is("--cache")) {
    Cfg.CacheCapacity = Args.number(SIZE_MAX);
  } else if (Args.is("--cache-dir")) {
    Cfg.CacheDir = Args.value();
  } else if (Args.is("--cache-max-bytes")) {
    Cfg.CacheMaxBytes = Args.number(UINT64_MAX);
  } else if (Args.is("--cache-max-age")) {
    Cfg.CacheMaxAgeSeconds = Args.number(UINT64_MAX);
  } else if (Args.is("--cache-sweep-ms")) {
    // A zero cadence would spin the sweeper: 0 means the 1 ms floor.
    Cfg.CacheSweepIntervalMillis =
        std::max<uint64_t>(Args.number(UINT64_MAX), 1);
  } else if (Args.is("--page-pool")) {
    Cfg.PagePoolPages = Args.number(SIZE_MAX);
  } else if (Args.is("--sched")) {
    const char *S = Args.value();
    if (!service::parseSchedPolicy(S, Cfg.Policy))
      Args.fail(std::string("unknown scheduler '") + S + "'");
  } else {
    return false;
  }
  return true;
}

} // namespace rml

#endif // RML_TOOLS_SERVICEFLAGS_H
