//===- bench/bench_traffic.cpp - Open-loop load driver for rmld -----------===//
//
// Drive an rmld daemon with an open-loop arrival process and report the
// latency distribution and shed rate:
//
//   bench_traffic --port P --rate 200 --duration 5
//   bench_traffic --port P --rate 500 --conns 8 --mix 1:8:1 --poisson
//   bench_traffic --port P --hot 4 --hot-ratio 0.9   (cache-hit heavy)
//   bench_traffic --port P --tenants 2               (flood vs light,
//                                per-tenant latency; pair with an rmld
//                                running --sched fair to see isolation)
//
// Open-loop means arrivals are scheduled by the clock, not by
// completions: when the daemon saturates, requests queue (and shed)
// instead of the driver politely slowing down — which is exactly the
// regime the admission-control path (Service::trySubmit + WireStatus::
// Shed) exists for. Closed-loop drivers hide that cliff; this one is
// built to find it.
//
// Requests are numbered 0..N-1 and the id is echoed by the server, so
// one receiver per connection matches out-of-order completions to their
// send timestamps without any cross-thread bookkeeping. After the last
// send the driver half-closes every connection (SHUT_WR) and reads
// until EOF: the daemon's half-close handling flushes every owed
// response before closing.
//
// The last stdout line is a one-line JSON summary for scripts
// (tools/smoke_net.sh greps the shed count out of it).
//
//===----------------------------------------------------------------------===//

#include "net/Latency.h"
#include "net/Protocol.h"

#include <algorithm>
#include <arpa/inet.h>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <random>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace rml;
using namespace rml::net;
using Clock = std::chrono::steady_clock;

namespace {

struct Options {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;
  double Rate = 100.0;     // requests per second
  double Duration = 5.0;   // seconds of arrivals
  unsigned Conns = 4;      // connections (requests round-robin)
  unsigned MixCompile = 1; // --mix c:r:s[:q] weights
  unsigned MixRun = 8;
  unsigned MixScheme = 1;
  unsigned MixCapture = 0;
  unsigned HotPrograms = 4;  // size of the hot (cache-friendly) set
  double HotRatio = 0.8;     // probability a request draws from it
  bool Poisson = false;      // exponential inter-arrivals vs fixed pace
  unsigned Tenants = 0;      // 0 = untagged; >=2 = flood-vs-light tenants
  uint64_t Seed = 1;
  unsigned DrainTimeoutSecs = 30; // receive timeout after the last send
};

void usage() {
  std::fprintf(
      stderr,
      "usage: bench_traffic --port P [options]\n"
      "  --host ADDR            daemon address (default 127.0.0.1)\n"
      "  --port N               daemon port (required)\n"
      "  --rate R               arrivals per second (default 100)\n"
      "  --duration S           seconds of arrivals (default 5)\n"
      "  --conns N              client connections (default 4)\n"
      "  --mix C:R:S[:Q]        weight of compile-only, compile+run,\n"
      "                         scheme-query and capture-query requests\n"
      "                         (default 1:8:1:0)\n"
      "  --hot K                hot program set size (default 4)\n"
      "  --hot-ratio F          fraction of requests drawn from the hot\n"
      "                         set; the rest are unique cold sources\n"
      "                         (default 0.8)\n"
      "  --poisson              exponential inter-arrival gaps instead\n"
      "                         of a fixed pace\n"
      "  --tenants N            tag traffic with N tenants (2..8): t0\n"
      "                         floods cold compile+run work (7 of 8\n"
      "                         arrivals) while t1..tN-1 round-robin the\n"
      "                         rest as cheap cache-hot requests; the\n"
      "                         report gains per-tenant latency lines\n"
      "                         (overrides --mix and --hot-ratio)\n"
      "  --seed N               RNG seed (default 1)\n"
      "  --drain-timeout S      give up on missing responses after S\n"
      "                         seconds past the last send (default 30)\n");
}

/// The service_test workhorse program family: polymorphic closures and
/// enough allocation to exercise GC. \p Salt specializes literals so
/// distinct salts are distinct cache keys (cold traffic); equal salts
/// hit the compile cache (hot traffic).
std::string programSource(uint64_t Salt) {
  return "fun compose fg = fn x => #1 fg (#2 fg x)\n"
         "fun iter n acc =\n"
         "  if n = 0 then acc\n"
         "  else let val h = compose (fn x => x + " +
         std::to_string(1 + Salt % 7) +
         ", fn x => x * 2)\n"
         "       in iter (n - 1) acc + h n - h n end\n"
         ";iter " +
         std::to_string(60 + Salt % 40) + " " + std::to_string(Salt % 1000) +
         "\n";
}

int connectTo(const std::string &Host, uint16_t Port, unsigned RcvTimeoutSecs,
              std::string &Err) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    Err = "bad address: " + Host;
    ::close(Fd);
    return -1;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = std::string("connect: ") + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  timeval Tv{};
  Tv.tv_sec = RcvTimeoutSecs;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  return Fd;
}

bool sendAll(int Fd, const std::string &Bytes) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

struct Received {
  uint64_t Id;
  uint64_t RecvNanos;
  WireStatus Status;
};

/// Reads responses off one connection until EOF/timeout; purely local
/// state, merged after join.
void receiverMain(int Fd, Clock::time_point T0, std::vector<Received> &Out) {
  std::string Buf;
  char Chunk[64 * 1024];
  for (;;) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return; // EOF, timeout or error: the tally below reports shortfalls
    Buf.append(Chunk, static_cast<size_t>(N));
    size_t Used = 0;
    for (;;) {
      WireResponse R;
      std::string Err;
      size_t Consumed = 0;
      Decode D = decodeResponse(std::string_view(Buf).substr(Used), Consumed,
                                R, Err);
      if (D != Decode::Frame)
        break;
      Used += Consumed;
      uint64_t Nanos = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               T0)
              .count());
      Out.push_back({R.Id, Nanos, R.Status});
    }
    Buf.erase(0, Used);
  }
}

/// Fetches the daemon's /stats JSON (empty on any failure — the server
/// view is a best-effort addendum, never a reason to fail the bench).
std::string httpGetStats(const std::string &Host, uint16_t Port) {
  std::string Err;
  int Fd = connectTo(Host, Port, 5, Err);
  if (Fd < 0)
    return "";
  if (!sendAll(Fd, "GET /stats HTTP/1.1\r\nHost: bench\r\n"
                   "Connection: close\r\n\r\n")) {
    ::close(Fd);
    return "";
  }
  std::string Buf;
  char Chunk[16 * 1024];
  for (;;) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Buf.append(Chunk, static_cast<size_t>(N));
  }
  ::close(Fd);
  size_t H = Buf.find("\r\n\r\n");
  return H == std::string::npos ? std::string() : Buf.substr(H + 4);
}

/// First integer following \p Key in \p Body; 0 when absent. Enough
/// JSON "parsing" for pulling a few counters out of a line we wrote.
uint64_t jsonU64(const std::string &Body, const char *Key) {
  size_t P = Body.find(Key);
  if (P == std::string::npos)
    return 0;
  return std::strtoull(Body.c_str() + P + std::strlen(Key), nullptr, 10);
}

/// The raw balanced {...} object following \p Key; empty when absent.
std::string jsonObject(const std::string &Body, const char *Key) {
  size_t P = Body.find(Key);
  if (P == std::string::npos)
    return "";
  P = Body.find('{', P);
  if (P == std::string::npos)
    return "";
  int Depth = 0;
  for (size_t I = P; I < Body.size(); ++I) {
    if (Body[I] == '{')
      ++Depth;
    else if (Body[I] == '}' && --Depth == 0)
      return Body.substr(P, I - P + 1);
  }
  return "";
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "bench_traffic: %s needs an argument\n", A);
        std::exit(2);
      }
      return Argv[++I];
    };
    if (!std::strcmp(A, "--host")) {
      Opt.Host = Next();
    } else if (!std::strcmp(A, "--port")) {
      Opt.Port = static_cast<uint16_t>(std::strtoul(Next(), nullptr, 10));
    } else if (!std::strcmp(A, "--rate")) {
      Opt.Rate = std::strtod(Next(), nullptr);
    } else if (!std::strcmp(A, "--duration")) {
      Opt.Duration = std::strtod(Next(), nullptr);
    } else if (!std::strcmp(A, "--conns")) {
      Opt.Conns = static_cast<unsigned>(std::strtoul(Next(), nullptr, 10));
    } else if (!std::strcmp(A, "--mix")) {
      const char *S = Next();
      // Three weights is the historical spelling; the optional fourth
      // slot adds capture queries without breaking existing scripts.
      Opt.MixCapture = 0;
      int Got = std::sscanf(S, "%u:%u:%u:%u", &Opt.MixCompile, &Opt.MixRun,
                            &Opt.MixScheme, &Opt.MixCapture);
      if (Got < 3 || Opt.MixCompile + Opt.MixRun + Opt.MixScheme +
                             Opt.MixCapture ==
                         0) {
        std::fprintf(stderr,
                     "bench_traffic: --mix wants C:R:S[:Q], got '%s'\n", S);
        return 2;
      }
    } else if (!std::strcmp(A, "--hot")) {
      Opt.HotPrograms =
          static_cast<unsigned>(std::strtoul(Next(), nullptr, 10));
    } else if (!std::strcmp(A, "--hot-ratio")) {
      Opt.HotRatio = std::strtod(Next(), nullptr);
    } else if (!std::strcmp(A, "--poisson")) {
      Opt.Poisson = true;
    } else if (!std::strcmp(A, "--tenants")) {
      Opt.Tenants = static_cast<unsigned>(std::strtoul(Next(), nullptr, 10));
      if (Opt.Tenants < 2 || Opt.Tenants > 8) {
        std::fprintf(stderr, "bench_traffic: --tenants wants 2..8\n");
        return 2;
      }
    } else if (!std::strcmp(A, "--seed")) {
      Opt.Seed = std::strtoull(Next(), nullptr, 10);
    } else if (!std::strcmp(A, "--drain-timeout")) {
      Opt.DrainTimeoutSecs =
          static_cast<unsigned>(std::strtoul(Next(), nullptr, 10));
    } else if (!std::strcmp(A, "--help") || !std::strcmp(A, "-h")) {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "bench_traffic: unknown option '%s'\n", A);
      usage();
      return 2;
    }
  }
  if (Opt.Port == 0) {
    std::fprintf(stderr, "bench_traffic: --port is required\n");
    usage();
    return 2;
  }
  if (Opt.Conns == 0)
    Opt.Conns = 1;
  if (Opt.HotPrograms == 0)
    Opt.HotPrograms = 1;
  uint64_t N = static_cast<uint64_t>(Opt.Rate * Opt.Duration);
  if (N == 0)
    N = 1;

  // Connect the whole fleet before the first arrival.
  std::vector<int> Fds;
  for (unsigned I = 0; I < Opt.Conns; ++I) {
    std::string Err;
    int Fd = connectTo(Opt.Host, Opt.Port, Opt.DrainTimeoutSecs, Err);
    if (Fd < 0) {
      std::fprintf(stderr, "bench_traffic: %s\n", Err.c_str());
      for (int F : Fds)
        ::close(F);
      return 1;
    }
    Fds.push_back(Fd);
  }

  Clock::time_point T0 = Clock::now();
  std::vector<std::vector<Received>> PerConn(Opt.Conns);
  std::vector<std::thread> Receivers;
  for (unsigned I = 0; I < Opt.Conns; ++I)
    Receivers.emplace_back(
        [&, I] { receiverMain(Fds[I], T0, PerConn[I]); });

  // The open-loop sender: arrival i is scheduled at T0 + sum of gaps
  // (fixed 1/rate, or exponential with mean 1/rate), regardless of how
  // the daemon is doing.
  std::mt19937_64 Rng(Opt.Seed);
  std::exponential_distribution<double> Gap(Opt.Rate);
  std::uniform_real_distribution<double> Unit(0.0, 1.0);
  unsigned MixTotal =
      Opt.MixCompile + Opt.MixRun + Opt.MixScheme + Opt.MixCapture;
  // Latency is measured from the *scheduled* arrival (see net/Latency.h):
  // sender lag behind its own clock is queueing delay charged to the
  // daemon, not silently forgiven.
  std::vector<uint64_t> ScheduledNanos(N, 0);
  std::vector<uint8_t> SentTenant(N, 0);
  uint64_t SendFailures = 0;
  std::vector<uint64_t> SentKind(4, 0);
  double DueSecs = 0.0;
  for (uint64_t I = 0; I < N; ++I) {
    DueSecs += Opt.Poisson ? Gap(Rng) : 1.0 / Opt.Rate;
    std::this_thread::sleep_until(
        T0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(DueSecs)));

    WireRequest Req;
    Req.Id = I;
    if (Opt.Tenants >= 2) {
      // The fair-share scenario: t0 floods the queue with cold
      // compile+run work (every salt unique, so each one pays the full
      // compile); the light tenants trickle cache-hot requests in at 1
      // arrival in 8, round-robined among them. Under FIFO the light
      // requests wait behind t0's backlog; under --sched fair they are
      // interleaved ahead of it.
      unsigned Slot = static_cast<unsigned>(I % 8);
      unsigned TI = Slot < Opt.Tenants - 1 ? 1 + Slot : 0;
      Req.Kind = MsgKind::CompileRun;
      Req.Tenant = "t" + std::to_string(TI);
      SentTenant[I] = static_cast<uint8_t>(TI);
      Req.Source =
          programSource(TI == 0 ? 1000 + I : Rng() % Opt.HotPrograms);
      ++SentKind[static_cast<unsigned>(Req.Kind)];
    } else {
      unsigned Pick =
          static_cast<unsigned>(Unit(Rng) * static_cast<double>(MixTotal));
      if (Pick < Opt.MixCompile) {
        Req.Kind = MsgKind::Compile;
      } else if (Pick < Opt.MixCompile + Opt.MixRun) {
        Req.Kind = MsgKind::CompileRun;
      } else if (Pick < Opt.MixCompile + Opt.MixRun + Opt.MixScheme) {
        Req.Kind = MsgKind::SchemeQuery;
        Req.SchemeNames = {"compose", "iter"};
      } else {
        Req.Kind = MsgKind::CaptureQuery;
      }
      ++SentKind[static_cast<unsigned>(Req.Kind)];
      // Hot draws repeat a small salt set (compile-cache hits); cold
      // draws salt by a per-request unique value (guaranteed misses).
      bool Hot = Unit(Rng) < Opt.HotRatio;
      Req.Source = programSource(Hot ? Rng() % Opt.HotPrograms : 1000 + I);
    }

    std::string Frame;
    encodeRequest(Req, Frame);
    ScheduledNanos[I] =
        static_cast<uint64_t>(DueSecs * 1e9);
    if (!sendAll(Fds[I % Opt.Conns], Frame))
      ++SendFailures;
  }
  // Half-close: "no more requests", but keep reading until the daemon
  // has flushed every owed response.
  for (int Fd : Fds)
    ::shutdown(Fd, SHUT_WR);
  for (std::thread &T : Receivers)
    T.join();
  double WallSecs =
      std::chrono::duration<double>(Clock::now() - T0).count();
  for (int Fd : Fds)
    ::close(Fd);

  // Merge and tally. Every non-shed response with a known id lands one
  // latency sample — negative pairs are clamped and counted, never
  // dropped (a silently thinned population skews every percentile).
  uint64_t Responses = 0, Sheds = 0, Ok = 0, Errors = 0;
  LatencyAccumulator Lat;
  std::vector<LatencyAccumulator> TenantLat(Opt.Tenants);
  std::vector<uint64_t> TenantOk(Opt.Tenants, 0), TenantShed(Opt.Tenants, 0);
  for (const std::vector<Received> &V : PerConn)
    for (const Received &R : V) {
      ++Responses;
      unsigned TI = R.Id < N ? SentTenant[R.Id] : 0;
      if (R.Status == WireStatus::Shed) {
        ++Sheds;
        if (Opt.Tenants >= 2 && R.Id < N)
          ++TenantShed[TI];
        continue; // shed responses are instant; keep them out of latency
      }
      if (R.Status == WireStatus::Ok)
        ++Ok;
      else
        ++Errors;
      if (R.Id < N) {
        Lat.record(ScheduledNanos[R.Id], R.RecvNanos);
        if (Opt.Tenants >= 2) {
          ++TenantOk[TI];
          TenantLat[TI].record(ScheduledNanos[R.Id], R.RecvNanos);
        }
      }
    }
  Lat.finalize();
  double P50 = Lat.percentileMs(0.50);
  double P95 = Lat.percentileMs(0.95);
  double P99 = Lat.percentileMs(0.99);
  double Throughput =
      WallSecs > 0 ? static_cast<double>(Responses - Sheds) / WallSecs : 0.0;
  double ShedRate =
      N > 0 ? static_cast<double>(Sheds) / static_cast<double>(N) : 0.0;

  std::printf("bench_traffic: %llu arrivals over %.2fs (%s pace, "
              "%.0f/s target, %u conns, mix c:r:s:q = "
              "%llu:%llu:%llu:%llu)\n",
              static_cast<unsigned long long>(N), WallSecs,
              Opt.Poisson ? "poisson" : "fixed", Opt.Rate, Opt.Conns,
              static_cast<unsigned long long>(SentKind[0]),
              static_cast<unsigned long long>(SentKind[1]),
              static_cast<unsigned long long>(SentKind[2]),
              static_cast<unsigned long long>(SentKind[3]));
  std::printf("  responses %llu (ok %llu, errors %llu, shed %llu"
              ", send failures %llu, missing %lld)\n",
              static_cast<unsigned long long>(Responses),
              static_cast<unsigned long long>(Ok),
              static_cast<unsigned long long>(Errors),
              static_cast<unsigned long long>(Sheds),
              static_cast<unsigned long long>(SendFailures),
              static_cast<long long>(N - Responses - SendFailures));
  std::printf("  served throughput %.1f/s, shed rate %.1f%%\n", Throughput,
              100.0 * ShedRate);
  std::printf("  latency p50 %.2fms p95 %.2fms p99 %.2fms (n=%zu, "
              "clamped %llu; scheduled-arrival basis)\n",
              P50, P95, P99, Lat.count(),
              static_cast<unsigned long long>(Lat.clamped()));
  // The server-side view: GC pause shape (the stats JSON's "gc_pauses"
  // block) and, for tenant runs, the daemon's own per-tenant
  // admitted/completed/shed ledger.
  std::string StatsBody = httpGetStats(Opt.Host, Opt.Port);
  if (!StatsBody.empty()) {
    uint64_t PauseCount = jsonU64(StatsBody, "\"pause_count\":");
    if (PauseCount) {
      std::printf("  server gc pauses: %llu, p50 %.3fms p99 %.3fms "
                  "max %.3fms\n",
                  static_cast<unsigned long long>(PauseCount),
                  static_cast<double>(jsonU64(StatsBody, "\"pause_p50_ns\":")) /
                      1e6,
                  static_cast<double>(jsonU64(StatsBody, "\"pause_p99_ns\":")) /
                      1e6,
                  static_cast<double>(jsonU64(StatsBody, "\"pause_max_ns\":")) /
                      1e6);
    }
    if (Opt.Tenants >= 2) {
      std::string ServerTenants = jsonObject(StatsBody, "\"tenants\":");
      if (!ServerTenants.empty())
        std::printf("  server tenants: %s\n", ServerTenants.c_str());
    }
  }
  std::string TenantJson;
  if (Opt.Tenants >= 2) {
    TenantJson = ",\"tenants\":[";
    for (unsigned TI = 0; TI < Opt.Tenants; ++TI) {
      TenantLat[TI].finalize();
      double TP50 = TenantLat[TI].percentileMs(0.50);
      double TP95 = TenantLat[TI].percentileMs(0.95);
      double TP99 = TenantLat[TI].percentileMs(0.99);
      std::printf("  tenant t%u (%s): ok %llu shed %llu latency "
                  "p50 %.2fms p95 %.2fms p99 %.2fms\n",
                  TI, TI == 0 ? "heavy flood" : "light",
                  static_cast<unsigned long long>(TenantOk[TI]),
                  static_cast<unsigned long long>(TenantShed[TI]), TP50,
                  TP95, TP99);
      char Row[192];
      std::snprintf(Row, sizeof(Row),
                    "%s{\"tenant\":\"t%u\",\"ok\":%llu,\"shed\":%llu,"
                    "\"p50_ms\":%.2f,\"p95_ms\":%.2f,\"p99_ms\":%.2f}",
                    TI ? "," : "", TI,
                    static_cast<unsigned long long>(TenantOk[TI]),
                    static_cast<unsigned long long>(TenantShed[TI]), TP50,
                    TP95, TP99);
      TenantJson += Row;
    }
    TenantJson += "]";
  }
  std::printf("{\"sent\":%llu,\"responses\":%llu,\"ok\":%llu,"
              "\"errors\":%llu,\"shed\":%llu,\"shed_rate\":%.4f,"
              "\"throughput_rps\":%.1f,\"p50_ms\":%.2f,\"p95_ms\":%.2f,"
              "\"p99_ms\":%.2f,\"clamped\":%llu%s}\n",
              static_cast<unsigned long long>(N),
              static_cast<unsigned long long>(Responses),
              static_cast<unsigned long long>(Ok),
              static_cast<unsigned long long>(Errors),
              static_cast<unsigned long long>(Sheds), ShedRate, Throughput,
              P50, P95, P99,
              static_cast<unsigned long long>(Lat.clamped()),
              TenantJson.c_str());
  // Missing responses (beyond sheds and send failures) mean the daemon
  // broke its contract; make scripts notice.
  return Responses + SendFailures >= N ? 0 : 1;
}
