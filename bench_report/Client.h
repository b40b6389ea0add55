//===- bench_report/Client.h - Loopback load generator ----------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon workloads' load generator: one sender (the calling
/// thread), one receiver thread per connection, and two phases over the
/// same connections.
///
///  * Open loop: request i is due at start + i / rate whatever the server
///    is doing, and its latency is timed from that scheduled arrival, so
///    a stall is charged to every request it delays (see net/Latency.h).
///    How late the sender itself ran is reported as generator lag.
///  * Closed loop: the sender keeps a fixed number of requests
///    outstanding, and the completions per second are the highest rate
///    the server sustains.
///
/// Responses are matched to requests by the echoed id and checked by a
/// caller-supplied pure function on the receiver threads.
///
//===----------------------------------------------------------------------===//

#ifndef RML_BENCH_REPORT_CLIENT_H
#define RML_BENCH_REPORT_CLIENT_H

#include "net/Protocol.h"
#include "support/Trace.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

namespace rml::benchreport {

struct Received {
  uint64_t Id = 0;
  uint64_t RecvNanos = 0; ///< traceNowNanos() at decode
  net::WireStatus Status = net::WireStatus::Ok;
  /// The checker's verdict; meaningful only for Status == Ok.
  bool Correct = false;
};

/// What one phase sent. SendNanos[i] is request FirstId+i's scheduled
/// arrival (open loop) or actual send time (closed loop).
struct PhaseResult {
  uint64_t FirstId = 0;
  uint64_t Sent = 0;
  uint64_t SendFailures = 0;
  uint64_t StartNanos = 0;
  uint64_t EndNanos = 0; ///< when the last owed response had arrived
  std::vector<uint64_t> SendNanos;
  std::vector<double> LagMs; ///< open loop: send time minus due time
};

class LoadClient {
public:
  using Check = std::function<bool(const net::WireResponse &)>;
  using Maker = std::function<net::WireRequest(uint64_t Id)>;

  /// Seconds to wait for owed responses before counting them missing.
  static constexpr double DrainSeconds = 30.0;

  LoadClient(uint16_t Port, unsigned Conns, Check C) : Checker(std::move(C)) {
    for (unsigned I = 0; I < Conns; ++I) {
      int Fd = connectLoopback(Port);
      if (Fd < 0)
        return;
      Fds.push_back(Fd);
    }
    PerConn.resize(Fds.size());
    for (size_t I = 0; I < Fds.size(); ++I)
      Receivers.emplace_back([this, I] { receiverMain(I); });
  }

  ~LoadClient() { finish(); }

  LoadClient(const LoadClient &) = delete;
  LoadClient &operator=(const LoadClient &) = delete;

  bool ok() const { return Err.empty(); }
  const std::string &error() const { return Err; }

  PhaseResult openLoop(uint64_t FirstId, double Rate, double Seconds,
                       const Maker &Make) {
    PhaseResult R;
    R.FirstId = FirstId;
    uint64_t N = static_cast<uint64_t>(Rate * Seconds);
    N = N ? N : 1;
    uint64_t Base = received();
    R.StartNanos = traceNowNanos();
    for (uint64_t I = 0; I < N; ++I) {
      uint64_t Due = R.StartNanos + static_cast<uint64_t>(
                                        static_cast<double>(I) * 1e9 / Rate);
      std::string Frame;
      net::encodeRequest(Make(FirstId + I), Frame);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(Due)));
      uint64_t Now = traceNowNanos();
      R.LagMs.push_back(Now > Due ? static_cast<double>(Now - Due) / 1e6
                                  : 0.0);
      R.SendNanos.push_back(Due);
      if (!sendAll(Fds[I % Fds.size()], Frame))
        ++R.SendFailures;
    }
    R.Sent = N;
    waitReceived(Base + N - R.SendFailures);
    R.EndNanos = traceNowNanos();
    return R;
  }

  PhaseResult closedLoop(uint64_t FirstId, unsigned Outstanding,
                         double Seconds, const Maker &Make) {
    PhaseResult R;
    R.FirstId = FirstId;
    uint64_t Base = received();
    R.StartNanos = traceNowNanos();
    uint64_t Stop = R.StartNanos + static_cast<uint64_t>(Seconds * 1e9);
    while (traceNowNanos() < Stop) {
      std::string Frame;
      net::encodeRequest(Make(FirstId + R.Sent), Frame);
      uint64_t Owed = R.Sent - R.SendFailures;
      {
        std::unique_lock<std::mutex> Lock(M);
        if (!Cv.wait_for(Lock, std::chrono::duration<double>(DrainSeconds),
                         [&] {
                           uint64_t Got = Count - Base;
                           return Got >= Owed || Owed - Got < Outstanding;
                         }))
          break;
      }
      R.SendNanos.push_back(traceNowNanos());
      if (!sendAll(Fds[R.Sent % Fds.size()], Frame))
        ++R.SendFailures;
      ++R.Sent;
    }
    waitReceived(Base + R.Sent - R.SendFailures);
    R.EndNanos = traceNowNanos();
    return R;
  }

  /// Half-closes every connection, reads until the server has flushed
  /// what it owes (or DrainSeconds pass), joins the receivers and
  /// returns every response received. Idempotent.
  std::vector<Received> finish() {
    if (Finished)
      return {};
    Finished = true;
    for (int Fd : Fds)
      ::shutdown(Fd, SHUT_WR);
    {
      std::unique_lock<std::mutex> Lock(M);
      Cv.wait_for(Lock, std::chrono::duration<double>(DrainSeconds),
                  [&] { return Done == Receivers.size(); });
      Stopping = true;
    }
    for (std::thread &T : Receivers)
      T.join();
    for (int Fd : Fds)
      ::close(Fd);
    std::vector<Received> All;
    for (std::vector<Received> &V : PerConn)
      All.insert(All.end(), V.begin(), V.end());
    return All;
  }

private:
  int connectLoopback(uint16_t Port) {
    int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd < 0) {
      Err = std::string("socket: ") + std::strerror(errno);
      return -1;
    }
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      Err = std::string("connect: ") + std::strerror(errno);
      ::close(Fd);
      return -1;
    }
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    // A short receive timeout lets a receiver notice finish() giving up
    // on a server that never closes.
    timeval Tv{};
    Tv.tv_usec = 200 * 1000;
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
    return Fd;
  }

  static bool sendAll(int Fd, const std::string &Bytes) {
    size_t Off = 0;
    while (Off < Bytes.size()) {
      ssize_t N =
          ::send(Fd, Bytes.data() + Off, Bytes.size() - Off, MSG_NOSIGNAL);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  uint64_t received() {
    std::lock_guard<std::mutex> Lock(M);
    return Count;
  }

  void waitReceived(uint64_t Target) {
    std::unique_lock<std::mutex> Lock(M);
    Cv.wait_for(Lock, std::chrono::duration<double>(DrainSeconds),
                [&] { return Count >= Target; });
  }

  void receiverMain(size_t I) {
    std::string Buf;
    std::vector<char> Chunk(64 * 1024);
    for (;;) {
      ssize_t N = ::recv(Fds[I], Chunk.data(), Chunk.size(), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        std::lock_guard<std::mutex> Lock(M);
        if (Stopping)
          break;
        continue;
      }
      if (N <= 0)
        break; // EOF (the server flushed and closed) or an error
      Buf.append(Chunk.data(), static_cast<size_t>(N));
      size_t Used = 0;
      for (;;) {
        net::WireResponse Resp;
        std::string DecodeErr;
        size_t Consumed = 0;
        net::Decode D = net::decodeResponse(std::string_view(Buf).substr(Used),
                                            Consumed, Resp, DecodeErr);
        if (D != net::Decode::Frame)
          break;
        Used += Consumed;
        Received R;
        R.Id = Resp.Id;
        R.RecvNanos = traceNowNanos();
        R.Status = Resp.Status;
        R.Correct = Resp.Status == net::WireStatus::Ok && Checker(Resp);
        PerConn[I].push_back(R);
        {
          std::lock_guard<std::mutex> Lock(M);
          ++Count;
        }
        Cv.notify_all();
      }
      Buf.erase(0, Used);
    }
    {
      std::lock_guard<std::mutex> Lock(M);
      ++Done;
    }
    Cv.notify_all();
  }

  Check Checker;
  std::string Err;
  std::vector<int> Fds;
  /// Receiver I appends only to PerConn[I]; read after the join.
  std::vector<std::vector<Received>> PerConn;
  bool Finished = false;

  std::mutex M;
  std::condition_variable Cv;
  uint64_t Count = 0;   ///< responses decoded, all connections (under M)
  size_t Done = 0;      ///< receivers that have exited (under M)
  bool Stopping = false; ///< finish() gave up waiting (under M)

  /// Declared last: the receivers use every member above.
  std::vector<std::thread> Receivers;
};

} // namespace rml::benchreport

#endif // RML_BENCH_REPORT_CLIENT_H
