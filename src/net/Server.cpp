//===- net/Server.cpp -----------------------------------------------------===//

#include "net/Server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/signalfd.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace rml;
using namespace rml::net;

// WireStatus values 0..5 are defined to mirror RequestOutcome so the
// wire mapping is a cast; keep the two enums in lockstep (3 is
// reserved in both).
static_assert(static_cast<uint8_t>(WireStatus::Ok) ==
              static_cast<uint8_t>(service::RequestOutcome::Ok));
static_assert(static_cast<uint8_t>(WireStatus::CompileError) ==
              static_cast<uint8_t>(service::RequestOutcome::CompileError));
static_assert(static_cast<uint8_t>(WireStatus::RunFailed) ==
              static_cast<uint8_t>(service::RequestOutcome::RunFailed));
static_assert(static_cast<uint8_t>(WireStatus::Shutdown) ==
              static_cast<uint8_t>(service::RequestOutcome::Shutdown));
static_assert(static_cast<uint8_t>(WireStatus::InternalError) ==
              static_cast<uint8_t>(service::RequestOutcome::InternalError));

namespace {

WireResponse toWire(uint64_t Id, const service::Response &R) {
  WireResponse W;
  W.Id = Id;
  W.Status = static_cast<WireStatus>(static_cast<uint8_t>(R.Status));
  W.CompileOk = R.CompileOk;
  W.CacheHit = R.CacheHit;
  W.Ran = R.Ran;
  W.Schemes = R.Schemes;
  // A capture query never runs, so ResultText is empty and the report
  // rides in the result slot; for every other kind the report is empty.
  W.Result = !R.CaptureReport.empty() ? R.CaptureReport : R.ResultText;
  W.Error = !R.Diagnostics.empty() ? R.Diagnostics : R.Error;
  return W;
}

} // namespace

Server::Server(service::Service &Svc, ServerConfig CfgIn)
    : Svc(Svc), Cfg(std::move(CfgIn)) {
  if (!Loop.ok()) {
    Err = "epoll_create1 failed";
    return;
  }
  CompletionFd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  StopFd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (CompletionFd < 0 || StopFd < 0) {
    Err = "eventfd failed";
    return;
  }
  ListenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (ListenFd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return;
  }
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Cfg.Port);
  if (::inet_pton(AF_INET, Cfg.BindAddr.c_str(), &Addr.sin_addr) != 1) {
    Err = "bad bind address: " + Cfg.BindAddr;
    return;
  }
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    Err = std::string("bind ") + Cfg.BindAddr + ":" +
          std::to_string(Cfg.Port) + ": " + std::strerror(errno);
    return;
  }
  if (::listen(ListenFd, Cfg.Backlog) != 0) {
    Err = std::string("listen: ") + std::strerror(errno);
    return;
  }
  sockaddr_in Bound{};
  socklen_t Len = sizeof(Bound);
  if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Bound), &Len) == 0)
    BoundPort = ntohs(Bound.sin_port);
  CompletionHandler.Fn = [this](uint32_t) { drainCompletions(); };
  StopHandler.Fn = [this](uint32_t) {
    uint64_t Junk;
    while (::read(StopFd, &Junk, sizeof(Junk)) > 0) {
    }
    beginDrain();
  };
  if (!Loop.add(ListenFd, EPOLLIN, this) ||
      !Loop.add(CompletionFd, EPOLLIN, &CompletionHandler) ||
      !Loop.add(StopFd, EPOLLIN, &StopHandler)) {
    Err = "epoll_ctl registration failed";
    return;
  }
}

Server::~Server() {
  if (ListenFd >= 0)
    ::close(ListenFd);
  if (CompletionFd >= 0)
    ::close(CompletionFd);
  if (StopFd >= 0)
    ::close(StopFd);
  if (SignalFd >= 0)
    ::close(SignalFd);
}

bool Server::drainOnSignals(std::initializer_list<int> Sigs) {
  sigset_t Mask;
  sigemptyset(&Mask);
  for (int S : Sigs)
    sigaddset(&Mask, S);
  if (pthread_sigmask(SIG_BLOCK, &Mask, nullptr) != 0)
    return false;
  SignalFd = ::signalfd(-1, &Mask, SFD_NONBLOCK | SFD_CLOEXEC);
  if (SignalFd < 0)
    return false;
  SignalHandler.Fn = [this](uint32_t) {
    signalfd_siginfo Info;
    while (::read(SignalFd, &Info, sizeof(Info)) > 0) {
    }
    beginDrain();
  };
  return Loop.add(SignalFd, EPOLLIN, &SignalHandler);
}

void Server::run() {
  if (!ok())
    return;
  while (!Done) {
    if (Loop.runOnce(Draining ? 50 : -1) < 0)
      break;
    // Destroy connections closed during the batch only now, when no
    // frame of theirs can still be on the call stack.
    Dead.clear();
    if (Draining) {
      if (std::chrono::steady_clock::now() >= DrainDeadline)
        forceCloseAll();
      maybeFinishDrain();
    }
  }
  Dead.clear();
}

void Server::requestDrain() {
  uint64_t One = 1;
  // Signal-safe: one write to a nonblocking eventfd.
  [[maybe_unused]] ssize_t N = ::write(StopFd, &One, sizeof(One));
}

void Server::beginDrain() {
  if (Draining)
    return;
  Draining = true;
  DrainDeadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(Cfg.DrainGraceMs);
  if (ListenFd >= 0) {
    Loop.del(ListenFd);
    ::close(ListenFd);
    ListenFd = -1;
  }
  // Idle connections have nothing to wait for; ones owing responses or
  // mid-flush stay until they drain (or the grace deadline).
  std::vector<Connection *> Idle;
  for (auto &KV : Conns)
    if (KV.second->Pending == 0 && KV.second->writeIdle())
      Idle.push_back(KV.second.get());
  for (Connection *C : Idle)
    closeConn(*C);
  maybeFinishDrain();
}

void Server::forceCloseAll() {
  std::vector<Connection *> All;
  All.reserve(Conns.size());
  for (auto &KV : Conns)
    All.push_back(KV.second.get());
  for (Connection *C : All)
    closeConn(*C);
}

void Server::maybeFinishDrain() {
  if (Draining && Conns.empty() && InService == 0)
    Done = true;
}

void Server::onIo(uint32_t) { acceptConnections(); }

void Server::acceptConnections() {
  for (;;) {
    if (ListenFd < 0)
      return;
    int Fd = ::accept4(ListenFd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // EAGAIN, or a transient accept failure: wait for epoll
    }
    if (Conns.size() >= Cfg.MaxConnections) {
      {
        std::lock_guard<std::mutex> Lock(StatsMutex);
        ++Stats.AcceptOverflows;
      }
      ::close(Fd);
      continue;
    }
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    uint64_t Id = NextConnId++;
    auto C = std::make_unique<Connection>(*this, Fd, Id);
    if (!Loop.add(Fd, EPOLLIN, C.get()))
      continue; // C's destructor closes Fd
    {
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++Stats.Accepted;
    }
    Conns.emplace(Id, std::move(C));
  }
}

void Server::onRequest(Connection &C, WireRequest Req) {
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.BinaryRequests;
  }
  service::Request SR;
  SR.Source = std::move(Req.Source);
  SR.Tenant = Req.Tenant.empty() ? Cfg.TenantDefault : std::move(Req.Tenant);
  if (Cfg.StepLimit)
    SR.EvalOpts.StepLimit = Cfg.StepLimit;
  if (Cfg.GcThresholdWords)
    SR.EvalOpts.GcThresholdWords = Cfg.GcThresholdWords;
  switch (Req.Kind) {
  case MsgKind::Compile:
    SR.Run = false;
    break;
  case MsgKind::CompileRun:
    SR.Run = true;
    break;
  case MsgKind::SchemeQuery:
    SR.Run = false;
    SR.SchemeNames = std::move(Req.SchemeNames);
    break;
  case MsgKind::CaptureQuery:
    SR.Run = false;
    SR.Opts.Captures = true;
    break;
  }
  uint64_t Id = Req.Id;
  uint64_t ConnId = C.id();
  // Count optimistically so a completion that races the admission
  // return can never observe InService == 0.
  ++InService;
  ++C.Pending;
  bool Admitted = Svc.trySubmit(
      std::move(SR), [this, Id, ConnId](service::Response R) {
        // Worker thread: encode here, hand the loop ready-to-send
        // bytes. Touches only the completion queue and the eventfd.
        std::string Encoded;
        encodeResponse(toWire(Id, R), Encoded);
        pushCompletion({ConnId, std::move(Encoded)});
      });
  if (Admitted)
    return;
  // Queue full: shed at admission, answer immediately from the loop.
  --InService;
  --C.Pending;
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.Sheds;
    ++Stats.Responses;
  }
  WireResponse W;
  W.Id = Id;
  W.Status = WireStatus::Shed;
  W.Error = "queue full: request shed at admission";
  std::string Out;
  encodeResponse(W, Out);
  C.sendBytes(std::move(Out));
}

void Server::onHttp(Connection &C, const HttpRequest &Req) {
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.HttpRequests;
  }
  // Honor the client's keep-alive intent, bounded: the per-connection
  // cap keeps a scraper from pinning a connection slot forever, and a
  // draining server closes regardless.
  ++C.HttpServed;
  bool Keep = Req.KeepAlive && C.HttpServed < MaxHttpRequestsPerConn &&
              !Draining && !C.PeerClosed;
  std::string Resp;
  if (Req.Method != "GET")
    Resp = httpResponse(405, "Method Not Allowed", "text/plain; charset=utf-8",
                        "method not allowed\n", Keep);
  else if (Req.Target == "/healthz")
    Resp = httpResponse(200, "OK", "text/plain; charset=utf-8", "ok\n", Keep);
  else if (Req.Target == "/stats")
    Resp = httpResponse(200, "OK", "application/json",
                        Svc.stats().json() + "\n", Keep);
  else
    Resp = httpResponse(404, "Not Found", "text/plain; charset=utf-8",
                        "not found\n", Keep);
  C.CloseAfterFlush = !Keep;
  C.sendBytes(std::move(Resp));
}

void Server::onProtocolError(Connection &C, const std::string &What) {
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.ProtocolErrors;
  }
  std::string Out;
  if (C.M == Connection::Mode::Http) {
    Out = httpResponse(400, "Bad Request", "text/plain; charset=utf-8",
                       What + "\n");
  } else {
    WireResponse W;
    W.Status = WireStatus::ProtocolError;
    W.Error = What;
    encodeResponse(W, Out);
  }
  C.CloseAfterFlush = true;
  C.sendBytes(std::move(Out));
}

void Server::pushCompletion(Completion Done) {
  {
    std::lock_guard<std::mutex> Lock(CompletionMutex);
    Completions.push_back(std::move(Done));
  }
  uint64_t One = 1;
  [[maybe_unused]] ssize_t N = ::write(CompletionFd, &One, sizeof(One));
}

void Server::drainCompletions() {
  uint64_t Junk;
  while (::read(CompletionFd, &Junk, sizeof(Junk)) > 0) {
  }
  std::vector<Completion> Batch;
  {
    std::lock_guard<std::mutex> Lock(CompletionMutex);
    Batch.swap(Completions);
  }
  for (Completion &Done : Batch) {
    if (InService > 0)
      --InService;
    auto It = Conns.find(Done.ConnId);
    if (It == Conns.end()) {
      // The connection died before its response came back.
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++Stats.OrphanedCompletions;
      continue;
    }
    Connection &C = *It->second;
    if (C.Pending > 0)
      --C.Pending;
    {
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++Stats.Responses;
    }
    // A draining server (or a half-closed peer) keeps the connection
    // only as long as responses are owed.
    if ((Draining || C.PeerClosed) && C.Pending == 0)
      C.CloseAfterFlush = true;
    C.sendBytes(std::move(Done.Encoded));
  }
  maybeFinishDrain();
}

void Server::closeConn(Connection &C) {
  if (C.Closed)
    return;
  C.Closed = true;
  Loop.del(C.Fd);
  auto It = Conns.find(C.ConnId);
  if (It != Conns.end()) {
    // Keep the object alive until the current loop batch finishes: a
    // member function of C may still be on the call stack.
    Dead.push_back(std::move(It->second));
    Conns.erase(It);
  }
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.Closed;
  }
  maybeFinishDrain();
}

NetStats Server::stats() const {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  return Stats;
}
