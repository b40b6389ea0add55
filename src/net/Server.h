//===- net/Server.h - The epoll network front door --------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network front door in front of service::Service — the event-loop
/// frontend the callback submit path was built for. One thread runs the
/// epoll loop; the service's worker pool runs the requests:
///
///   accept ─> Connection ─> WireRequest ─> Service::trySubmit(cb)
///                 ^                            │ queue full?
///                 │                            ├── yes: Shed frame now
///        completion queue <─ worker callback ──┘   (load is shed at
///        (mutex + eventfd)                          admission, counted)
///
/// Admission is non-blocking by construction: the loop thread must
/// never park on a full queue, so a full queue turns into an immediate
/// Shed response — open-loop clients (bench_traffic) measure that shed
/// rate as the overload signal. That capacity check is the only one:
/// NetStats::DeadlineSheds and WaitSheds are constant 0, kept only for
/// bench_report. Completions arrive on worker threads;
/// the callback encodes the response, pushes it onto a mutex-protected
/// queue and rings an eventfd, and the loop drains the queue and writes
/// the frames out — workers never touch a socket.
///
/// Shutdown: requestDrain() (thread- and signal-safe; rmld wires
/// SIGINT/SIGTERM to it via drainOnSignals) stops accepting, stops
/// parsing, lets every admitted request complete and flush, then run()
/// returns. Connections that will not drain within DrainGraceMs are
/// force-closed so a stuck client cannot hold the process hostage.
///
//===----------------------------------------------------------------------===//

#ifndef RML_NET_SERVER_H
#define RML_NET_SERVER_H

#include "net/Connection.h"
#include "net/EventLoop.h"
#include "net/Http.h"
#include "net/Protocol.h"

#include "service/Service.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace rml::net {

/// Front-door counters, disjoint from ServiceStats: everything here
/// happened at the wire, before (or instead of) the service.
struct NetStats {
  uint64_t Accepted = 0;
  uint64_t Closed = 0;
  /// Connections turned away because MaxConnections were already open.
  uint64_t AcceptOverflows = 0;
  uint64_t BinaryRequests = 0;
  uint64_t HttpRequests = 0;
  /// Binary responses queued (every disposition, Shed included).
  uint64_t Responses = 0;
  /// Requests answered Shed because Service::trySubmit found the queue
  /// full — the wire-level view of ServiceStats::Rejected.
  uint64_t Sheds = 0;
  /// Always 0: the server sheds only at a full queue. Both fields stay
  /// because bench_report sums them into its net.sheds metric.
  uint64_t DeadlineSheds = 0;
  uint64_t WaitSheds = 0;
  /// Malformed frames / HTTP noise; each costs its connection.
  uint64_t ProtocolErrors = 0;
  /// Completions whose connection was already gone (counted, dropped).
  uint64_t OrphanedCompletions = 0;
};

struct ServerConfig {
  std::string BindAddr = "127.0.0.1";
  /// 0 binds an ephemeral port; port() reports the real one.
  uint16_t Port = 0;
  int Backlog = 128;
  size_t MaxConnections = 1024;
  /// How long a drain may wait for in-flight responses to flush before
  /// force-closing the stragglers.
  unsigned DrainGraceMs = 5000;
  /// Evaluation fuel applied to every run the daemon admits (rmld
  /// --step-limit); 0 keeps rt::EvalOptions' own default. A network
  /// service should not let one hostile loop pin a worker forever.
  uint64_t StepLimit = 0;
  /// Collection trigger in words applied to every run (rmld
  /// --gc-threshold); 0 keeps rt::EvalOptions' own default. Mostly a
  /// load-testing knob: small thresholds make short requests collect,
  /// so the pause histogram has something to show.
  uint64_t GcThresholdWords = 0;
  /// Tenant label substituted for requests that sent none (rmld
  /// --tenant-default): lets an operator fold untagged legacy traffic
  /// into a named fair-share bucket. Empty keeps them in the anonymous
  /// bucket.
  std::string TenantDefault;
};

/// The daemon core. Construct over a Service, then run() on the thread
/// that should own the loop. The Service must outlive the Server, and
/// —because completion callbacks capture `this`— the Server must not
/// be destroyed until Service::shutdown() has returned (rmld and the
/// tests declare Service first, Server second, and call shutdown()
/// after run(), which makes both orders fall out of scoping).
class Server final : public IoHandler {
public:
  explicit Server(service::Service &Svc, ServerConfig Cfg = {});
  ~Server() override;

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// The listening socket is up. When false, error() says why and
  /// run() returns immediately.
  bool ok() const { return Err.empty(); }
  const std::string &error() const { return Err; }

  /// The port actually bound (resolves Port == 0).
  uint16_t port() const { return BoundPort; }

  /// Runs the event loop until a drain completes. Call once.
  void run();

  /// Begins a graceful drain; safe from any thread and from signal
  /// handlers (one eventfd write). Idempotent.
  void requestDrain();

  /// Routes \p Sigs (e.g. {SIGINT, SIGTERM}) into requestDrain via a
  /// signalfd: the signals are blocked on the calling thread and
  /// consumed by the loop. Call before run(), from the loop thread;
  /// the caller is responsible for having blocked the signals
  /// process-wide before spawning other threads (rmld blocks them
  /// first thing in main).
  bool drainOnSignals(std::initializer_list<int> Sigs);

  NetStats stats() const;
  service::Service &svc() { return Svc; }

private:
  friend class Connection;

  struct Completion {
    uint64_t ConnId;
    std::string Encoded; // the wire frame, ready to send
  };

  /// Adapter so the eventfds/signalfd can register lambdas.
  struct FnHandler final : IoHandler {
    std::function<void(uint32_t)> Fn;
    void onIo(uint32_t Events) override { Fn(Events); }
  };

  // IoHandler for the listening socket.
  void onIo(uint32_t Events) override;

  void acceptConnections();
  void onRequest(Connection &C, WireRequest Req);
  void onHttp(Connection &C, const HttpRequest &Req);
  void onProtocolError(Connection &C, const std::string &What);
  void pushCompletion(Completion Done); // worker threads
  void drainCompletions();              // loop thread
  void beginDrain();
  void forceCloseAll();
  /// Logically closes \p C now; the object is destroyed at the end of
  /// the current loop batch (stale completions for it are counted as
  /// orphans).
  void closeConn(Connection &C);
  void maybeFinishDrain();
  bool draining() const { return Draining; }
  EventLoop &loop() { return Loop; }

  service::Service &Svc;
  ServerConfig Cfg;
  std::string Err; // construction failure, empty when ok()
  EventLoop Loop;
  int ListenFd = -1;
  int CompletionFd = -1; // eventfd rung by worker callbacks
  int StopFd = -1;       // eventfd rung by requestDrain
  int SignalFd = -1;     // optional signalfd (drainOnSignals)
  uint16_t BoundPort = 0;
  FnHandler CompletionHandler;
  FnHandler StopHandler;
  FnHandler SignalHandler;

  std::unordered_map<uint64_t, std::unique_ptr<Connection>> Conns;
  /// Connections closed during the current batch, kept alive until the
  /// batch ends so in-flight member functions stay valid.
  std::vector<std::unique_ptr<Connection>> Dead;
  uint64_t NextConnId = 1;
  /// Requests admitted into the service whose completions have not yet
  /// been drained (loop-thread-only; drain waits for zero).
  uint64_t InService = 0;
  bool Draining = false;
  bool Done = false;
  std::chrono::steady_clock::time_point DrainDeadline;

  std::mutex CompletionMutex;
  std::vector<Completion> Completions;

  mutable std::mutex StatsMutex;
  NetStats Stats;
};

} // namespace rml::net

#endif // RML_NET_SERVER_H
