//===- tools/rmld.cpp - The RegionML compile-and-run daemon ---------------===//
//
// Serve the concurrent compile-and-run service over a socket:
//
//   rmld                               loopback, ephemeral port
//   rmld --port 7080                   fixed port
//   rmld --jobs 4 --queue 64           worker pool + admission bound
//   rmld --cache 256 --cache-dir D     warm-start compile cache
//   rmld --sched fair --tenant-default legacy
//                                      per-tenant fair share, untagged
//                                      traffic in the "legacy" bucket
//   curl http://127.0.0.1:PORT/stats   live ServiceStats JSON
//
// Clients speak the length-prefixed binary protocol (net/Protocol.h) —
// bench_traffic is the reference client — or plain HTTP GET for
// /healthz and /stats. SIGINT/SIGTERM begin a graceful drain: stop
// accepting, finish and flush every admitted request, then exit.
//
//===----------------------------------------------------------------------===//

#include "ServiceFlags.h"

#include "net/Server.h"
#include "service/Service.h"

#include <algorithm>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>

using namespace rml;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: rmld [options]\n"
      "  --bind ADDR            address to listen on (default 127.0.0.1)\n"
      "  --port N               port to listen on; 0 picks an ephemeral\n"
      "                         port and prints it (default 0)\n"
      "  --jobs N               service worker threads (default: one per\n"
      "                         hardware thread)\n"
      "  --queue N              admission queue capacity; a full queue\n"
      "                         sheds requests with an immediate Shed\n"
      "                         response (default 256)\n"
      "  --cache N              compile-cache entries (default 128)\n"
      "  --cache-dir DIR        persistent compile-cache directory\n"
      "  --cache-max-bytes N    disk-cache byte watermark; a background\n"
      "                         sweeper evicts oldest entries past it\n"
      "                         (default 0 = unbounded)\n"
      "  --cache-max-age SECS   disk-cache entry age cut-off (default 0\n"
      "                         = no age limit)\n"
      "  --cache-sweep-ms MS    sweep cadence (default 5000)\n"
      "  --page-pool N          cross-request page-pool pages; 0\n"
      "                         disables pooling (default 1024)\n"
      "  --sched fifo|fair      dequeue policy (default fifo): fair is\n"
      "                         per-tenant deficit round-robin\n"
      "  --fair-quantum N       fair-share DRR quantum in cost units\n"
      "                         (default 1Mi)\n"
      "  --tenant-default NAME  fair-share bucket for requests that sent\n"
      "                         no tenant (default: anonymous bucket)\n"
      "  --step-limit N         evaluation fuel per run; 0 keeps the\n"
      "                         runtime default\n"
      "  --gc-threshold WORDS   collection trigger per run; 0 keeps the\n"
      "                         runtime default (load-testing knob:\n"
      "                         small values make short requests\n"
      "                         collect)\n"
      "  --max-conns N          open-connection bound (default 1024)\n"
      "  --drain-grace MS       grace period for the shutdown drain\n"
      "                         before stragglers are closed "
      "(default 5000)\n");
}

} // namespace

int main(int Argc, char **Argv) {
  // Block the drain signals before any thread exists so the service
  // workers inherit the mask and the loop's signalfd is the only
  // consumer.
  sigset_t DrainSigs;
  sigemptyset(&DrainSigs);
  sigaddset(&DrainSigs, SIGINT);
  sigaddset(&DrainSigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &DrainSigs, nullptr);

  service::ServiceConfig SvcCfg;
  net::ServerConfig NetCfg;

  for (ArgCursor Args("rmld", Argc, Argv); Args.next();) {
    if (parseServiceFlag(Args, SvcCfg))
      continue;
    if (Args.is("--bind")) {
      NetCfg.BindAddr = Args.value();
    } else if (Args.is("--port")) {
      NetCfg.Port = static_cast<uint16_t>(Args.number(UINT16_MAX));
    } else if (Args.is("--queue")) {
      SvcCfg.QueueCapacity = Args.number(SIZE_MAX);
    } else if (Args.is("--fair-quantum")) {
      SvcCfg.FairShareQuantum =
          std::max<uint64_t>(Args.number(UINT64_MAX), 1);
    } else if (Args.is("--tenant-default")) {
      NetCfg.TenantDefault = Args.value();
    } else if (Args.is("--step-limit")) {
      NetCfg.StepLimit = Args.number(UINT64_MAX);
    } else if (Args.is("--gc-threshold")) {
      NetCfg.GcThresholdWords = Args.number(UINT64_MAX);
    } else if (Args.is("--max-conns")) {
      NetCfg.MaxConnections = Args.number(SIZE_MAX);
    } else if (Args.is("--drain-grace")) {
      NetCfg.DrainGraceMs = static_cast<unsigned>(Args.number(UINT_MAX));
    } else if (Args.is("--help") || Args.is("-h")) {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "rmld: unknown option '%s'\n", Args.arg());
      usage();
      return 2;
    }
  }
  // Service first, Server second: completion callbacks capture the
  // Server, so Service::shutdown() (which finishes every callback) must
  // run before the Server dies — and it does, below, before either
  // object goes out of scope in reverse order.
  service::Service Svc(SvcCfg);
  net::Server Srv(Svc, NetCfg);
  if (!Srv.ok()) {
    std::fprintf(stderr, "rmld: %s\n", Srv.error().c_str());
    return 1;
  }
  if (!Srv.drainOnSignals({SIGINT, SIGTERM})) {
    std::fprintf(stderr, "rmld: cannot route signals to the drain\n");
    return 1;
  }

  std::printf("rmld: listening on %s:%u (workers=%u queue=%zu sched=%s)\n",
              NetCfg.BindAddr.c_str(), static_cast<unsigned>(Srv.port()),
              Svc.config().effectiveWorkers(), SvcCfg.QueueCapacity,
              service::schedPolicyName(SvcCfg.Policy));
  std::fflush(stdout);

  Srv.run();

  // The loop has drained every connection; now drain the service so
  // any ShutdownRejected callbacks fire while the Server is alive.
  Svc.shutdown();

  net::NetStats NS = Srv.stats();
  std::fprintf(stderr,
               "rmld: net accepted=%llu closed=%llu requests=%llu "
               "http=%llu responses=%llu sheds=%llu "
               "protocol_errors=%llu orphaned=%llu overflows=%llu\n",
               static_cast<unsigned long long>(NS.Accepted),
               static_cast<unsigned long long>(NS.Closed),
               static_cast<unsigned long long>(NS.BinaryRequests),
               static_cast<unsigned long long>(NS.HttpRequests),
               static_cast<unsigned long long>(NS.Responses),
               static_cast<unsigned long long>(NS.Sheds),
               static_cast<unsigned long long>(NS.ProtocolErrors),
               static_cast<unsigned long long>(NS.OrphanedCompletions),
               static_cast<unsigned long long>(NS.AcceptOverflows));
  std::fprintf(stderr, "rmld: service %s\n", Svc.stats().json().c_str());
  std::printf("rmld: drained, exiting\n");
  return 0;
}
