//===- tests/support_test.cpp - Support library unit tests ----------------===//

#include "service/Stats.h"
#include "support/Diagnostics.h"
#include "support/Interner.h"
#include "support/Number.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

using namespace rml;

namespace {

TEST(ParseUnsigned, AcceptsPlainDigits) {
  EXPECT_EQ(parseUnsigned("0"), 0u);
  EXPECT_EQ(parseUnsigned("2048"), 2048u);
  EXPECT_EQ(parseUnsigned("007"), 7u);
}

TEST(ParseUnsigned, RejectsEmptySignsAndSuffixes) {
  for (const char *Bad : {"", "-1", "+1", " 1", "1 ", "2k", "5ms", "0x10",
                          "1e3", "1.5"})
    EXPECT_EQ(parseUnsigned(Bad), std::nullopt) << "'" << Bad << "'";
}

TEST(ParseUnsigned, AcceptsTheExactMaximumAndNothingAbove) {
  EXPECT_EQ(parseUnsigned("65535", 65535), 65535u);
  EXPECT_EQ(parseUnsigned("65536", 65535), std::nullopt);
  EXPECT_EQ(parseUnsigned("70000", 65535), std::nullopt);
  EXPECT_EQ(parseUnsigned("0", 0), 0u);
  EXPECT_EQ(parseUnsigned("1", 0), std::nullopt);
  EXPECT_EQ(parseUnsigned("18446744073709551615"), UINT64_MAX);
  // One past 2^64-1, and far past it: overflow is a rejection, not a
  // wrap.
  EXPECT_EQ(parseUnsigned("18446744073709551616"), std::nullopt);
  EXPECT_EQ(parseUnsigned("99999999999999999999999"), std::nullopt);
}

TEST(Interner, InterningIsIdempotent) {
  Interner I;
  Symbol A = I.intern("foo");
  Symbol B = I.intern("foo");
  Symbol C = I.intern("bar");
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(I.text(A), "foo");
  EXPECT_EQ(I.text(C), "bar");
  EXPECT_EQ(I.size(), 2u);
}

TEST(Interner, FreshSymbolsNeverCollide) {
  Interner I;
  I.intern("x$0");
  Symbol F1 = I.fresh("x");
  Symbol F2 = I.fresh("x");
  EXPECT_NE(F1, F2);
  EXPECT_NE(I.text(F1), "x$0"); // the taken spelling is skipped
  EXPECT_NE(I.text(F1), I.text(F2));
}

TEST(Interner, InvalidSymbol) {
  Symbol S;
  EXPECT_FALSE(S.isValid());
  EXPECT_TRUE(Interner().intern("a").isValid());
}

TEST(Interner, ManySymbolsStayStable) {
  Interner I;
  std::vector<Symbol> Syms;
  for (int K = 0; K < 1000; ++K)
    Syms.push_back(I.intern("sym" + std::to_string(K)));
  for (int K = 0; K < 1000; ++K) {
    EXPECT_EQ(I.text(Syms[K]), "sym" + std::to_string(K));
    EXPECT_EQ(I.intern("sym" + std::to_string(K)), Syms[K]);
  }
}

TEST(Diagnostics, CountsAndRenders) {
  DiagnosticEngine D;
  EXPECT_FALSE(D.hasErrors());
  D.error({3, 7}, "something is off");
  D.warning({1, 1}, "suspicious");
  D.note({}, "context");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  EXPECT_EQ(D.all().size(), 3u);
  std::string S = D.str();
  EXPECT_NE(S.find("3:7: error: something is off"), std::string::npos);
  EXPECT_NE(S.find("1:1: warning: suspicious"), std::string::npos);
  EXPECT_NE(S.find("note: context"), std::string::npos);
}

TEST(Diagnostics, ClearResets) {
  DiagnosticEngine D;
  D.error({1, 1}, "x");
  D.clear();
  EXPECT_FALSE(D.hasErrors());
  EXPECT_TRUE(D.all().empty());
}

TEST(SrcLoc, Rendering) {
  EXPECT_EQ(SrcLoc().str(), "<unknown>");
  EXPECT_EQ((SrcLoc{12, 34}).str(), "12:34");
  EXPECT_FALSE(SrcLoc().isValid());
  EXPECT_TRUE((SrcLoc{1, 1}).isValid());
}

/// Counts record() calls; remembers the last profile it saw.
class CountingSink final : public TraceSink {
public:
  void record(const PhaseProfile &P) override {
    ++Records;
    Last = P;
  }
  unsigned Records = 0;
  PhaseProfile Last;
};

TEST(Trace, PhaseTimerMeasuresAndEmitsOnce) {
  CountingSink Sink;
  {
    PhaseTimer T("infer", &Sink);
    PhaseProfile &P = T.stop();
    EXPECT_EQ(P.Name, "infer");
    EXPECT_FALSE(P.Skipped);
    uint64_t First = P.WallNanos;
    EXPECT_EQ(&T.stop(), &P); // idempotent: same profile,
    EXPECT_EQ(P.WallNanos, First); // clock not re-read
    P.DiagnosticsEmitted = 7; // caller fills deltas after stop()
    EXPECT_EQ(Sink.Records, 0u); // nothing emitted before destruction
  }
  EXPECT_EQ(Sink.Records, 1u);
  EXPECT_EQ(Sink.Last.Name, "infer");
  EXPECT_EQ(Sink.Last.DiagnosticsEmitted, 7u);
}

TEST(Trace, PhaseTimerWithoutSinkIsSafe) {
  PhaseTimer T("parse");
  T.stop();
  EXPECT_EQ(T.profile().Name, "parse");
}

TEST(Trace, NoopSinkIsShared) {
  NoopTraceSink &A = NoopTraceSink::instance();
  NoopTraceSink &B = NoopTraceSink::instance();
  EXPECT_EQ(&A, &B);
  A.record(PhaseProfile{}); // and discarding is harmless
}

TEST(Trace, MonotonicClock) {
  uint64_t A = traceNowNanos();
  uint64_t B = traceNowNanos();
  EXPECT_LE(A, B);
}

/// Chrome trace-event shape: {"traceEvents":[...],"displayTimeUnit":"ms"}
/// where every event is an "X" (complete) event carrying name/cat/ph/
/// ts/dur/pid/tid/args. chrome://tracing and Perfetto both require
/// exactly this envelope, so the test pins it key by key.
TEST(Trace, ChromeTraceEventShape) {
  ChromeTraceSink Sink;
  PhaseProfile A;
  A.Name = "parse";
  A.StartNanos = 5'000;
  A.WallNanos = 2'500;
  A.DiagnosticsEmitted = 1;
  A.ArenaNodeDelta = 42;
  PhaseProfile B;
  B.Name = "run";
  B.StartNanos = 9'000;
  B.WallNanos = 10'000;
  B.GcCount = 3;
  B.AllocWords = 1'000;
  B.CopiedWords = 250;
  Sink.record(A);
  Sink.record(B);
  ASSERT_EQ(Sink.eventCount(), 2u);

  std::string J = Sink.json();
  // Envelope.
  EXPECT_EQ(J.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(J.find("],\"displayTimeUnit\":\"ms\"}"), std::string::npos);
  // Balanced structure (the cheap well-formedness proxy).
  EXPECT_EQ(std::count(J.begin(), J.end(), '{'),
            std::count(J.begin(), J.end(), '}'));
  EXPECT_EQ(std::count(J.begin(), J.end(), '['),
            std::count(J.begin(), J.end(), ']'));
  // Every event is a complete event with the required keys.
  EXPECT_EQ(std::count(J.begin(), J.end(), 'X'), 2);
  for (const char *Key :
       {"\"name\":", "\"cat\":\"phase\"", "\"ph\":\"X\"", "\"ts\":",
        "\"dur\":", "\"pid\":1", "\"tid\":", "\"args\":{"})
    EXPECT_NE(J.find(Key), std::string::npos) << Key;
  // Timestamps are microseconds normalised to the earliest phase:
  // A starts the trace at ts 0, B starts 4000ns = 4us later.
  EXPECT_NE(J.find("\"ts\":0.000,\"dur\":2.500"), std::string::npos);
  EXPECT_NE(J.find("\"ts\":4.000,\"dur\":10.000"), std::string::npos);
  // The args carry the profile's counters.
  EXPECT_NE(J.find("\"diagnostics\":1,\"arena_nodes\":42"),
            std::string::npos);
  EXPECT_NE(J.find("\"gc\":3,\"alloc_words\":1000,\"copied_words\":250"),
            std::string::npos);
}

TEST(Trace, ChromeSinkEscapesNames) {
  ChromeTraceSink Sink;
  PhaseProfile P;
  P.Name = "we\"ird\\phase\n\t\x01";
  Sink.record(P);
  std::string J = Sink.json();
  EXPECT_NE(J.find("we\\\"ird\\\\phase\\n\\t\\u0001"), std::string::npos);
  EXPECT_EQ(J.find('\n'), std::string::npos);
}

TEST(Trace, JsonEscapedCoversControlAndQuoting) {
  EXPECT_EQ(jsonEscaped("plain"), "plain");
  EXPECT_EQ(jsonEscaped("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscaped("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(jsonEscaped("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
  EXPECT_EQ(jsonEscaped(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  // UTF-8 multibyte sequences pass through untouched.
  EXPECT_EQ(jsonEscaped("r\xc3\xa9gion"), "r\xc3\xa9gion");
}

TEST(Trace, ChromeSinkNestsGcPausesInsideTheirPhase) {
  ChromeTraceSink Sink;
  PhaseProfile P;
  P.Name = "run";
  P.StartNanos = 10'000;
  P.WallNanos = 50'000;
  P.GcPauses.push_back({/*StartNanos=*/14'000, /*WallNanos=*/2'000,
                        /*Minor=*/true, /*CopiedWords=*/128,
                        /*LiveRegions=*/3});
  P.GcPauses.push_back({/*StartNanos=*/40'000, /*WallNanos=*/6'000,
                        /*Minor=*/false, /*CopiedWords=*/512,
                        /*LiveRegions=*/2});
  Sink.record(P);
  std::string J = Sink.json();
  // The pause events sit on the same pid/tid as the run span, offset
  // from the trace base (the run starts it at ts 0), so a viewer nests
  // them under the enclosing slice.
  EXPECT_NE(J.find("\"name\":\"gc:minor\",\"cat\":\"gc\",\"ph\":\"X\","
                   "\"ts\":4.000,\"dur\":2.000"),
            std::string::npos)
      << J;
  EXPECT_NE(J.find("\"name\":\"gc:major\",\"cat\":\"gc\",\"ph\":\"X\","
                   "\"ts\":30.000,\"dur\":6.000"),
            std::string::npos)
      << J;
  EXPECT_NE(J.find("\"copied_words\":128,\"live_regions\":3"),
            std::string::npos);
  EXPECT_NE(J.find("\"copied_words\":512,\"live_regions\":2"),
            std::string::npos);
  // Well-formedness proxy: still balanced after the nested events.
  EXPECT_EQ(std::count(J.begin(), J.end(), '{'),
            std::count(J.begin(), J.end(), '}'));
}

TEST(Trace, ChromeSinkAssignsOneTidPerThread) {
  ChromeTraceSink Sink;
  auto Record = [&Sink](const char *Name) {
    PhaseProfile P;
    P.Name = Name;
    Sink.record(P);
  };
  // Both threads alive at once: std::thread::id values may be reused
  // after a join, which would collapse the two tids into one.
  std::thread T1([&] { Record("a"); });
  std::thread T2([&] { Record("b"); });
  T1.join();
  T2.join();
  std::string J = Sink.json();
  EXPECT_NE(J.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(J.find("\"tid\":2"), std::string::npos);
}

TEST(Trace, WriteFileRoundTripsAndFailsGracefully) {
  ChromeTraceSink Sink;
  PhaseProfile P;
  P.Name = "parse";
  P.WallNanos = 1'000;
  Sink.record(P);

  std::string Path = ::testing::TempDir() + "rml_trace_test.json";
  ASSERT_TRUE(Sink.writeFile(Path));
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::ostringstream Got;
  Got << In.rdbuf();
  EXPECT_EQ(Got.str(), Sink.json() + "\n"); // file gets a final newline
  std::remove(Path.c_str());

  EXPECT_FALSE(Sink.writeFile("/nonexistent-dir-rml/trace.json"));
}

TEST(Trace, JsonFixedRendersLocaleIndependentNumbers) {
  EXPECT_EQ(jsonFixed(0.0), "0.000000");
  EXPECT_EQ(jsonFixed(0.5), "0.500000");
  EXPECT_EQ(jsonFixed(1.0), "1.000000");
  EXPECT_EQ(jsonFixed(-0.25), "-0.250000");
  EXPECT_EQ(jsonFixed(1.0 / 3.0), "0.333333");
  // Rounds, not truncates.
  EXPECT_EQ(jsonFixed(0.9999995), "1.000000");
}

TEST(Trace, JsonFixedClampsNonFiniteAndHugeValues) {
  // operator<< would spell these "nan"/"inf" — invalid JSON; jsonFixed
  // clamps instead so stats documents always parse.
  EXPECT_EQ(jsonFixed(std::numeric_limits<double>::quiet_NaN()), "0.000000");
  EXPECT_EQ(jsonFixed(std::numeric_limits<double>::infinity()), "0.000000");
  EXPECT_EQ(jsonFixed(-std::numeric_limits<double>::infinity()), "0.000000");
  EXPECT_EQ(jsonFixed(1e300), "1000000000000.000000");
  EXPECT_EQ(jsonFixed(-1e300), "-1000000000000.000000");
}

TEST(Stats, TenantKeysRenderSortedAndEscaped) {
  // The per-tenant block must render in sorted key order — Tenants is a
  // std::map precisely so two snapshots of the same state are the same
  // bytes, regardless of tenant arrival order — and tenant names are
  // user input, so they go through jsonEscaped like every other string.
  service::ServiceStats S;
  S.Tenants["zeta"] = {/*Admitted=*/3, /*Completed=*/2, /*Shed=*/1};
  S.Tenants["alpha"] = {/*Admitted=*/5, /*Completed=*/5, /*Shed=*/0};
  S.Tenants[""] = {/*Admitted=*/1, /*Completed=*/1, /*Shed=*/0};
  S.Tenants["with\"quote"] = {/*Admitted=*/1, /*Completed=*/0, /*Shed=*/0};
  std::string J = S.json();
  EXPECT_NE(
      J.find("\"tenants\":{"
             "\"\":{\"admitted\":1,\"completed\":1,\"shed\":0},"
             "\"alpha\":{\"admitted\":5,\"completed\":5,\"shed\":0},"
             "\"with\\\"quote\":{\"admitted\":1,\"completed\":0,\"shed\":0},"
             "\"zeta\":{\"admitted\":3,\"completed\":2,\"shed\":1}}"),
      std::string::npos)
      << J;
}

TEST(Stats, SaturationGaugesRenderInJson) {
  // The live gauges an operator polls from rmld's /stats endpoint:
  // queue depth, requests mid-worker, and uptime in whole seconds
  // (truncated, not rounded — 2.5 s of nanos reads as 2).
  service::ServiceStats S;
  S.QueueDepth = 3;
  S.InFlight = 2;
  S.UptimeNanos = 2'500'000'000ull;
  std::string J = S.json();
  EXPECT_NE(J.find("\"queue_depth\":3"), std::string::npos) << J;
  EXPECT_NE(J.find("\"in_flight\":2"), std::string::npos) << J;
  EXPECT_NE(J.find("\"uptime_seconds\":2"), std::string::npos) << J;
}

} // namespace
