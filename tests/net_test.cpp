//===- tests/net_test.cpp - Network front-door tests ----------------------===//
//
// The net/ subsystem: wire-codec units (round-trips, truncation,
// hostile frames, randomized fuzz — the decoder must fail closed and
// never over-consume), the minimal HTTP parser, and loopback
// end-to-end tests against a real Server over a real Service:
// request/response round-trips, pipelining with out-of-order ids,
// /healthz and /stats, protocol-error handling, admission-control
// shedding, half-close, and the graceful drain. Labelled `net` in
// ctest and expected to be clean under -DRML_SANITIZE=thread.
//
//===----------------------------------------------------------------------===//

#include "net/Http.h"
#include "net/Latency.h"
#include "net/Protocol.h"
#include "net/Server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <random>
#include <set>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace rml;
using namespace rml::net;

namespace {

//===----------------------------------------------------------------------===//
// Codec units.
//===----------------------------------------------------------------------===//

WireRequest sampleRequest() {
  WireRequest R;
  R.Id = 0x0123456789ABCDEFull;
  R.Kind = MsgKind::SchemeQuery;
  R.Source = "fun id x = x\n;id 7";
  R.SchemeNames = {"id", "missing"};
  return R;
}

WireResponse sampleResponse() {
  WireResponse R;
  R.Id = 42;
  R.Status = WireStatus::Ok;
  R.CompileOk = true;
  R.CacheHit = true;
  R.Ran = true;
  R.Result = "7";
  R.Error = "";
  R.Schemes = {{"id", "forall 'a r1 r2 . ('a, r1) -> ('a, r2)"},
               {"missing", ""}};
  return R;
}

TEST(NetProtocol, RequestRoundTrip) {
  WireRequest In = sampleRequest();
  std::string Wire;
  encodeRequest(In, Wire);
  ASSERT_GE(Wire.size(), 4u);
  // MaxBodyBytes < 2^24 keeps byte 0 zero — the dialect sniff depends
  // on this.
  EXPECT_EQ(Wire[0], '\0');

  WireRequest Out;
  std::string Err;
  size_t Consumed = 0;
  ASSERT_EQ(decodeRequest(Wire, Consumed, Out, Err), Decode::Frame) << Err;
  EXPECT_EQ(Consumed, Wire.size());
  EXPECT_EQ(Out.Id, In.Id);
  EXPECT_EQ(Out.Kind, In.Kind);
  EXPECT_EQ(Out.Source, In.Source);
  EXPECT_EQ(Out.SchemeNames, In.SchemeNames);
}

TEST(NetProtocol, ResponseRoundTrip) {
  WireResponse In = sampleResponse();
  std::string Wire;
  encodeResponse(In, Wire);

  WireResponse Out;
  std::string Err;
  size_t Consumed = 0;
  ASSERT_EQ(decodeResponse(Wire, Consumed, Out, Err), Decode::Frame) << Err;
  EXPECT_EQ(Consumed, Wire.size());
  EXPECT_EQ(Out.Id, In.Id);
  EXPECT_EQ(Out.Status, In.Status);
  EXPECT_TRUE(Out.CompileOk);
  EXPECT_TRUE(Out.CacheHit);
  EXPECT_TRUE(Out.Ran);
  EXPECT_EQ(Out.Result, In.Result);
  EXPECT_EQ(Out.Schemes, In.Schemes);
}

TEST(NetProtocol, TenantRoundTrip) {
  // A request that carries the optional tenant flags it on the wire
  // and round-trips exactly; one that omits it decodes to the default
  // (empty tenant) and pays nothing for it.
  WireRequest In = sampleRequest();
  In.Tenant = "team-a";
  std::string Wire;
  encodeRequest(In, Wire);
  EXPECT_EQ(Wire[4 + 9], static_cast<char>(ReqFlagTenant));

  WireRequest Out;
  std::string Err;
  size_t Consumed = 0;
  ASSERT_EQ(decodeRequest(Wire, Consumed, Out, Err), Decode::Frame) << Err;
  EXPECT_EQ(Consumed, Wire.size());
  EXPECT_EQ(Out.Tenant, "team-a");
  EXPECT_EQ(Out.Source, In.Source);
  EXPECT_EQ(Out.SchemeNames, In.SchemeNames);

  WireRequest Plain = sampleRequest();
  std::string PlainWire;
  encodeRequest(Plain, PlainWire);
  EXPECT_LT(PlainWire.size(), Wire.size());
  WireRequest PlainOut;
  ASSERT_EQ(decodeRequest(PlainWire, Consumed, PlainOut, Err), Decode::Frame)
      << Err;
  EXPECT_TRUE(PlainOut.Tenant.empty());
}

/// \p Frame with its flags byte or-ed with ReqFlagDeadline and \p Tail
/// appended to the body, the length prefix patched to match: the frame
/// an older client that still sends a deadline puts on the wire.
std::string withDeadlineField(std::string Frame, const std::string &Tail) {
  Frame[4 + 9] = static_cast<char>(Frame[4 + 9] | ReqFlagDeadline);
  Frame += Tail;
  uint32_t Body = static_cast<uint32_t>(Frame.size() - 4);
  for (int I = 0; I < 4; ++I)
    Frame[static_cast<size_t>(I)] = static_cast<char>(Body >> (24 - 8 * I));
  return Frame;
}

TEST(NetProtocol, DeadlineFieldStillDecodesAndIsDropped) {
  // Flag bit 1 and its u64 are still accepted, and decode to exactly
  // the request the same frame without them carries. The re-encoded
  // bytes compare every WireRequest field at once.
  WireRequest In = sampleRequest();
  In.Tenant = "team-a";
  std::string Plain;
  encodeRequest(In, Plain);
  std::string Dated =
      withDeadlineField(Plain, std::string("\0\0\0\0\x07\x5B\xCD\x15", 8));

  WireRequest FromPlain, FromDated;
  std::string Err;
  size_t Consumed = 0;
  ASSERT_EQ(decodeRequest(Plain, Consumed, FromPlain, Err), Decode::Frame)
      << Err;
  ASSERT_EQ(decodeRequest(Dated, Consumed, FromDated, Err), Decode::Frame)
      << Err;
  EXPECT_EQ(Consumed, Dated.size());
  std::string PlainAgain, DatedAgain;
  encodeRequest(FromPlain, PlainAgain);
  encodeRequest(FromDated, DatedAgain);
  EXPECT_EQ(PlainAgain, Plain);
  EXPECT_EQ(DatedAgain, Plain);
}

TEST(NetProtocol, TruncatedDeadlineFieldFailsClosed) {
  // A body that ends inside the u64 is Bad ("truncated deadline") and
  // consumes nothing; a buffer that ends inside it is NeedMore.
  std::string Plain;
  encodeRequest(sampleRequest(), Plain);
  std::string Full = withDeadlineField(Plain, std::string(8, '\x01'));
  for (size_t Cut = 0; Cut < 8; ++Cut) {
    std::string Short = withDeadlineField(Plain, std::string(Cut, '\x01'));
    WireRequest Out;
    std::string Err;
    size_t Consumed = 99;
    EXPECT_EQ(decodeRequest(Short, Consumed, Out, Err), Decode::Bad)
        << "cut " << Cut;
    EXPECT_EQ(Consumed, 0u);
    EXPECT_NE(Err.find("truncated deadline"), std::string::npos) << Err;

    std::string Partial = Full.substr(0, Plain.size() + Cut);
    EXPECT_EQ(decodeRequest(Partial, Consumed, Out, Err), Decode::NeedMore)
        << "cut " << Cut;
    EXPECT_EQ(Consumed, 0u);
  }
}

TEST(NetProtocol, ReservedResponseStatusThreeIsBad) {
  // Status 3 was once a budget cut-off. It is reserved: no server sends
  // it, and a decoder must not accept it as any disposition.
  std::string Wire;
  encodeResponse(sampleResponse(), Wire);
  Wire[4 + 8] = '\x03';
  WireResponse Out;
  std::string Err;
  size_t Consumed = 99;
  EXPECT_EQ(decodeResponse(Wire, Consumed, Out, Err), Decode::Bad);
  EXPECT_EQ(Consumed, 0u);
  EXPECT_NE(Err.find("status"), std::string::npos) << Err;
  // Its neighbours still decode.
  for (char Status : {'\x02', '\x04'}) {
    Wire[4 + 8] = Status;
    EXPECT_EQ(decodeResponse(Wire, Consumed, Out, Err), Decode::Frame) << Err;
  }
}

TEST(NetProtocol, PipelinedFramesDecodeInSequence) {
  std::string Wire;
  for (uint64_t I = 0; I < 5; ++I) {
    WireRequest R;
    R.Id = I;
    R.Kind = MsgKind::CompileRun;
    R.Source = "1 + " + std::to_string(I);
    encodeRequest(R, Wire);
  }
  size_t Used = 0;
  for (uint64_t I = 0; I < 5; ++I) {
    WireRequest Out;
    std::string Err;
    size_t Consumed = 0;
    ASSERT_EQ(decodeRequest(std::string_view(Wire).substr(Used), Consumed,
                            Out, Err),
              Decode::Frame)
        << Err;
    EXPECT_EQ(Out.Id, I);
    Used += Consumed;
  }
  EXPECT_EQ(Used, Wire.size());
}

TEST(NetProtocol, EveryTruncationIsNeedMoreNeverARead) {
  // Fail-closed rule 1: an incomplete frame is NeedMore — for every
  // prefix length, with nothing consumed and nothing fabricated.
  WireRequest In = sampleRequest();
  std::string Wire;
  encodeRequest(In, Wire);
  for (size_t Len = 0; Len < Wire.size(); ++Len) {
    WireRequest Out;
    std::string Err;
    size_t Consumed = 1; // must be reset by the decoder
    EXPECT_EQ(decodeRequest(std::string_view(Wire).substr(0, Len), Consumed,
                            Out, Err),
              Decode::NeedMore)
        << "prefix " << Len;
    EXPECT_EQ(Consumed, 0u);
  }
}

TEST(NetProtocol, OversizedLengthPrefixFailsClosedImmediately) {
  // 0x00900000 = 9 MiB > MaxBodyBytes: rejected from the prefix alone,
  // not after buffering 9 MiB that can never parse.
  std::string Wire = {'\x00', '\x90', '\x00', '\x00'};
  WireRequest Out;
  std::string Err;
  size_t Consumed = 0;
  EXPECT_EQ(decodeRequest(Wire, Consumed, Out, Err), Decode::Bad);
  EXPECT_EQ(Consumed, 0u);
  EXPECT_NE(Err.find("exceeds"), std::string::npos) << Err;

  WireResponse RespOut;
  EXPECT_EQ(decodeResponse(Wire, Consumed, RespOut, Err), Decode::Bad);
}

TEST(NetProtocol, GarbageBodyFailsClosed) {
  // A plausible length prefix followed by noise: the inner structure
  // cannot parse and the decoder says Bad without consuming.
  std::string Wire = {'\x00', '\x00', '\x00', '\x08'};
  Wire += "garbage!";
  WireRequest Out;
  std::string Err;
  size_t Consumed = 0;
  EXPECT_EQ(decodeRequest(Wire, Consumed, Out, Err), Decode::Bad);
  EXPECT_EQ(Consumed, 0u);
}

TEST(NetProtocol, UnknownKindStatusAndFlagBitsAreRejected) {
  WireRequest Req = sampleRequest();
  std::string Wire;
  encodeRequest(Req, Wire);
  Wire[4 + 8] = '\x04'; // kind byte: 4 (past CaptureQuery) is out of range
  WireRequest Out;
  std::string Err;
  size_t Consumed = 0;
  EXPECT_EQ(decodeRequest(Wire, Consumed, Out, Err), Decode::Bad);
  EXPECT_NE(Err.find("kind"), std::string::npos) << Err;

  std::string BadReqFlags;
  encodeRequest(Req, BadReqFlags);
  BadReqFlags[4 + 9] = '\x04'; // request flag bits beyond Tenant|Deadline
  EXPECT_EQ(decodeRequest(BadReqFlags, Consumed, Out, Err), Decode::Bad);
  EXPECT_NE(Err.find("flag"), std::string::npos) << Err;

  WireResponse Resp = sampleResponse();
  std::string RWire;
  encodeResponse(Resp, RWire);
  std::string BadStatus = RWire;
  BadStatus[4 + 8] = '\x08'; // status byte: 8 is out of range
  WireResponse ROut;
  EXPECT_EQ(decodeResponse(BadStatus, Consumed, ROut, Err), Decode::Bad);

  std::string BadFlags = RWire;
  BadFlags[4 + 9] = '\x7F'; // flag bits beyond 0x7
  EXPECT_EQ(decodeResponse(BadFlags, Consumed, ROut, Err), Decode::Bad);
  EXPECT_NE(Err.find("flag"), std::string::npos) << Err;
}

TEST(NetProtocol, InnerLengthOverrunAndTrailingBytesAreRejected) {
  // Source length pointing past the body end must not read past it.
  WireRequest Req;
  Req.Id = 1;
  Req.Source = "abc";
  std::string Wire;
  encodeRequest(Req, Wire);
  std::string Overrun = Wire;
  Overrun[4 + 8 + 1 + 1 + 3] = '\x09'; // srcLen 3 -> 9, beyond the body
  WireRequest Out;
  std::string Err;
  size_t Consumed = 0;
  EXPECT_EQ(decodeRequest(Overrun, Consumed, Out, Err), Decode::Bad);
  EXPECT_NE(Err.find("overrun"), std::string::npos) << Err;

  // A frame whose declared body exceeds its parsed content is format
  // drift; fail closed rather than silently skipping bytes.
  std::string Trailing = Wire;
  Trailing += '\x00';
  Trailing[3] = static_cast<char>(static_cast<uint8_t>(Trailing[3]) + 1);
  EXPECT_EQ(decodeRequest(Trailing, Consumed, Out, Err), Decode::Bad);
  EXPECT_NE(Err.find("trailing"), std::string::npos) << Err;
}

TEST(NetProtocol, SchemeNameCountBoundIsEnforced) {
  // Build a request frame claiming MaxSchemeNames + 1 names by hand.
  std::string Body;
  for (int I = 0; I < 8; ++I)
    Body += '\x00'; // id
  Body += '\x02';   // SchemeQuery
  Body += '\x00';   // flags: none
  Body += std::string(4, '\x00'); // srcLen 0
  uint16_t N = MaxSchemeNames + 1;
  Body += static_cast<char>(N >> 8);
  Body += static_cast<char>(N & 0xFF);
  std::string Wire(4, '\x00');
  Wire[3] = static_cast<char>(Body.size());
  Wire += Body;
  WireRequest Out;
  std::string Err;
  size_t Consumed = 0;
  EXPECT_EQ(decodeRequest(Wire, Consumed, Out, Err), Decode::Bad);
  EXPECT_NE(Err.find("bound"), std::string::npos) << Err;
}

TEST(NetProtocol, FuzzNeverCrashesNeverOverConsumes) {
  // Randomized mutations of valid frames plus pure noise. The only
  // contract: decode returns one of the three values, never consumes
  // more than the buffer (or anything at all off a non-Frame), and
  // never reads out of bounds (the sanitizer builds would catch it).
  std::mt19937_64 Rng(0xE15BA9u); // fixed seed: reproducible failures
  std::string Valid;
  encodeRequest(sampleRequest(), Valid);
  encodeResponse(sampleResponse(), Valid);
  for (int Round = 0; Round < 3000; ++Round) {
    std::string Buf;
    if (Round % 3 == 0) {
      // Pure noise.
      size_t Len = Rng() % 64;
      for (size_t I = 0; I < Len; ++I)
        Buf += static_cast<char>(Rng());
    } else {
      // A valid pair of frames with a handful of byte flips.
      Buf = Valid;
      unsigned Flips = 1 + Rng() % 5;
      for (unsigned I = 0; I < Flips; ++I)
        Buf[Rng() % Buf.size()] = static_cast<char>(Rng());
      if (Rng() % 4 == 0)
        Buf.resize(Rng() % (Buf.size() + 1)); // also truncate
    }
    WireRequest Req;
    WireResponse Resp;
    std::string Err;
    size_t Consumed = 0;
    Decode D = decodeRequest(Buf, Consumed, Req, Err);
    EXPECT_LE(Consumed, Buf.size());
    if (D != Decode::Frame) {
      EXPECT_EQ(Consumed, 0u);
    }
    D = decodeResponse(Buf, Consumed, Resp, Err);
    EXPECT_LE(Consumed, Buf.size());
    if (D != Decode::Frame) {
      EXPECT_EQ(Consumed, 0u);
    }
  }
}

//===----------------------------------------------------------------------===//
// Open-loop latency accounting (bench_traffic's accumulator).
//===----------------------------------------------------------------------===//

TEST(NetLatency, RecordsFromTheScheduledArrival) {
  LatencyAccumulator L;
  // 100ns scheduled, 350ns received: 250ns of latency — including any
  // sender lag between the scheduled and actual send.
  EXPECT_EQ(L.record(/*ScheduledNanos=*/100, /*RecvNanos=*/350), 250u);
  EXPECT_EQ(L.count(), 1u);
  EXPECT_EQ(L.clamped(), 0u);
}

TEST(NetLatency, InvertedPairsClampToZeroAndAreCounted) {
  // The regression this type exists for: an inverted timestamp pair
  // must clamp to a zero sample — not wrap to ~2^64 ns (which would
  // wreck every percentile above it) and not vanish from the
  // population (which would skew the distribution the other way).
  LatencyAccumulator L;
  EXPECT_EQ(L.record(/*ScheduledNanos=*/500, /*RecvNanos=*/200), 0u);
  EXPECT_EQ(L.record(1'000'000, 999'999), 0u);
  EXPECT_EQ(L.record(100, 100), 0u); // equal is fine, not a clamp
  EXPECT_EQ(L.count(), 3u);
  EXPECT_EQ(L.clamped(), 2u);

  // The clamped samples stay in the population: with one real 8ms
  // sample among them, the median is a clamp, not 8ms.
  L.record(0, 8'000'000);
  L.finalize();
  EXPECT_EQ(L.percentileMs(0.50), 0.0);
  EXPECT_EQ(L.percentileMs(0.99), 8.0);
}

TEST(NetLatency, PercentilesOverASortedPopulation) {
  LatencyAccumulator L;
  // 1ms..100ms inserted in reverse order; finalize() sorts.
  for (uint64_t I = 100; I >= 1; --I)
    L.record(0, I * 1'000'000);
  EXPECT_EQ(L.finalize().front(), 1'000'000u);
  EXPECT_EQ(L.count(), 100u);
  EXPECT_EQ(L.clamped(), 0u);
  EXPECT_DOUBLE_EQ(L.percentileMs(0.50), 51.0);
  EXPECT_DOUBLE_EQ(L.percentileMs(0.95), 96.0);
  EXPECT_DOUBLE_EQ(L.percentileMs(0.99), 100.0);
  EXPECT_DOUBLE_EQ(L.percentileMs(1.0), 100.0); // clamped to the max
}

TEST(NetLatency, EmptyAccumulatorReportsZeroes) {
  LatencyAccumulator L;
  EXPECT_EQ(L.count(), 0u);
  EXPECT_EQ(L.clamped(), 0u);
  EXPECT_TRUE(L.finalize().empty());
  EXPECT_EQ(L.percentileMs(0.99), 0.0);
}

//===----------------------------------------------------------------------===//
// HTTP parser units.
//===----------------------------------------------------------------------===//

TEST(NetHttp, ParsesAMinimalGet) {
  std::string Buf = "GET /stats HTTP/1.1\r\nHost: x\r\n\r\ntrailing";
  HttpRequest Out;
  std::string Err;
  size_t Consumed = 0;
  ASSERT_EQ(parseHttpRequest(Buf, Consumed, Out, Err), Decode::Frame) << Err;
  EXPECT_EQ(Out.Method, "GET");
  EXPECT_EQ(Out.Target, "/stats");
  EXPECT_EQ(Consumed, Buf.size() - 8); // everything through the blank line
}

TEST(NetHttp, IncompleteHeaderBlockNeedsMore) {
  std::string Buf = "GET /healthz HTTP/1.1\r\nHost: x\r\n";
  HttpRequest Out;
  std::string Err;
  size_t Consumed = 0;
  EXPECT_EQ(parseHttpRequest(Buf, Consumed, Out, Err), Decode::NeedMore);
  EXPECT_EQ(Consumed, 0u);
}

TEST(NetHttp, BadRequestLineFailsAsSoonAsItIsComplete) {
  // No waiting for the full header block: binary-ish garbage that
  // reached the HTTP path dies at the first CRLF.
  for (const char *Bad :
       {"NONSENSE\r\n", "GET missing-slash HTTP/1.1\r\n",
        "get /lower HTTP/1.1\r\n", "GET /x HTTP/2.0\r\n",
        "GET /x HTTP/1.1 extra\r\n", "\x01\x02\x03\r\n"}) {
    HttpRequest Out;
    std::string Err;
    size_t Consumed = 0;
    EXPECT_EQ(parseHttpRequest(Bad, Consumed, Out, Err), Decode::Bad) << Bad;
    EXPECT_EQ(Consumed, 0u);
  }
}

TEST(NetHttp, OversizedHeaderBlockFailsClosed) {
  std::string Buf = "GET / HTTP/1.1\r\n";
  Buf += std::string(MaxHttpHeaderBytes + 16, 'a'); // no blank line ever
  HttpRequest Out;
  std::string Err;
  size_t Consumed = 0;
  EXPECT_EQ(parseHttpRequest(Buf, Consumed, Out, Err), Decode::Bad);
}

//===----------------------------------------------------------------------===//
// End-to-end over loopback: a real Server over a real Service.
//===----------------------------------------------------------------------===//

/// The service_test workhorse program (see there for why this shape).
const char *ComposeProgram = R"(
fun compose fg = fn x => #1 fg (#2 fg x)
fun iter n acc =
  if n = 0 then acc
  else let val h = compose (fn x => x + 1, fn x => x * 2)
       in iter (n - 1) acc + h n - h n end
;iter 600 21
)";

service::ServiceConfig smallConfig() {
  service::ServiceConfig Cfg;
  Cfg.Workers = 2;
  Cfg.QueueCapacity = 32;
  return Cfg;
}

/// A Service + Server pair with the loop on its own thread; the
/// destructor drains and joins.
struct ServerFixture {
  service::Service Svc;
  Server Srv;
  std::thread LoopThread;

  explicit ServerFixture(service::ServiceConfig SC = smallConfig(),
                         ServerConfig NC = ServerConfig())
      : Svc(SC), Srv(Svc, NC) {
    EXPECT_TRUE(Srv.ok()) << Srv.error();
    LoopThread = std::thread([this] { Srv.run(); });
  }

  ~ServerFixture() { drain(); }

  void drain() {
    if (LoopThread.joinable()) {
      Srv.requestDrain();
      LoopThread.join();
    }
    Svc.shutdown();
  }
};

/// A blocking loopback client with a receive timeout, so a server bug
/// fails the test instead of hanging the suite.
struct TestClient {
  int Fd = -1;
  std::string Buf;

  explicit TestClient(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(Fd, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    EXPECT_EQ(
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)), 0)
        << std::strerror(errno);
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    timeval Tv{};
    Tv.tv_sec = 30;
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  }

  ~TestClient() {
    if (Fd >= 0)
      ::close(Fd);
  }

  void send(const std::string &Bytes) {
    size_t Off = 0;
    while (Off < Bytes.size()) {
      ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                         MSG_NOSIGNAL);
      ASSERT_GT(N, 0) << std::strerror(errno);
      Off += static_cast<size_t>(N);
    }
  }

  void sendRequest(const WireRequest &R) {
    std::string Wire;
    encodeRequest(R, Wire);
    send(Wire);
  }

  /// Reads until one full response frame decodes; fails the test on
  /// EOF, timeout or a malformed frame.
  WireResponse recvResponse() {
    WireResponse Out;
    for (;;) {
      std::string Err;
      size_t Consumed = 0;
      Decode D = decodeResponse(Buf, Consumed, Out, Err);
      if (D == Decode::Frame) {
        Buf.erase(0, Consumed);
        return Out;
      }
      EXPECT_EQ(D, Decode::NeedMore) << Err;
      if (D != Decode::NeedMore)
        return Out;
      char Chunk[4096];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      EXPECT_GT(N, 0) << (N == 0 ? "EOF" : std::strerror(errno));
      if (N <= 0)
        return Out;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

  /// Reads exactly one HTTP response, delimited by its Content-Length
  /// (keep-alive connections never close, so EOF framing cannot work).
  std::string recvHttpResponse() {
    for (;;) {
      size_t End = Buf.find("\r\n\r\n");
      if (End != std::string::npos) {
        size_t Cl = Buf.find("Content-Length: ");
        EXPECT_NE(Cl, std::string::npos) << Buf;
        if (Cl == std::string::npos)
          return std::string();
        size_t BodyLen = std::strtoul(Buf.c_str() + Cl + 16, nullptr, 10);
        size_t Total = End + 4 + BodyLen;
        if (Buf.size() >= Total) {
          std::string Out = Buf.substr(0, Total);
          Buf.erase(0, Total);
          return Out;
        }
      }
      char Chunk[4096];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      EXPECT_GT(N, 0) << (N == 0 ? "EOF" : std::strerror(errno));
      if (N <= 0)
        return std::string();
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

  /// Reads to EOF (close-mode HTTP responses end the connection).
  std::string recvAll() {
    std::string Out = std::move(Buf);
    Buf.clear();
    char Chunk[4096];
    for (;;) {
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0)
        return Out;
      Out.append(Chunk, static_cast<size_t>(N));
    }
  }

  bool atEof() {
    char C;
    return ::recv(Fd, &C, 1, 0) == 0;
  }
};

TEST(NetServer, CompileRunRoundTrip) {
  ServerFixture F;
  TestClient C(F.Srv.port());
  WireRequest Req;
  Req.Id = 7;
  Req.Kind = MsgKind::CompileRun;
  Req.Source = "1 + 2";
  C.sendRequest(Req);
  WireResponse Resp = C.recvResponse();
  EXPECT_EQ(Resp.Id, 7u);
  EXPECT_EQ(Resp.Status, WireStatus::Ok);
  EXPECT_TRUE(Resp.CompileOk);
  EXPECT_TRUE(Resp.Ran);
  EXPECT_EQ(Resp.Result, "3");
}

TEST(NetServer, CompileOnlyDoesNotRun) {
  ServerFixture F;
  TestClient C(F.Srv.port());
  WireRequest Req;
  Req.Id = 1;
  Req.Kind = MsgKind::Compile;
  Req.Source = ComposeProgram;
  C.sendRequest(Req);
  WireResponse Resp = C.recvResponse();
  EXPECT_EQ(Resp.Status, WireStatus::Ok);
  EXPECT_TRUE(Resp.CompileOk);
  EXPECT_FALSE(Resp.Ran);
  EXPECT_TRUE(Resp.Result.empty());
}

TEST(NetServer, CompileErrorIsReportedOnTheWire) {
  ServerFixture F;
  TestClient C(F.Srv.port());
  WireRequest Req;
  Req.Id = 2;
  Req.Kind = MsgKind::CompileRun;
  Req.Source = "1 + true"; // ill-typed
  C.sendRequest(Req);
  WireResponse Resp = C.recvResponse();
  EXPECT_EQ(Resp.Status, WireStatus::CompileError);
  EXPECT_FALSE(Resp.CompileOk);
  EXPECT_FALSE(Resp.Error.empty());
}

TEST(NetServer, SchemeQueryRendersRegionTypeSchemes) {
  ServerFixture F;
  TestClient C(F.Srv.port());
  WireRequest Req;
  Req.Id = 3;
  Req.Kind = MsgKind::SchemeQuery;
  Req.Source = ComposeProgram;
  Req.SchemeNames = {"compose", "no_such_name"};
  C.sendRequest(Req);
  WireResponse Resp = C.recvResponse();
  EXPECT_EQ(Resp.Status, WireStatus::Ok);
  ASSERT_EQ(Resp.Schemes.size(), 2u);
  EXPECT_EQ(Resp.Schemes[0].first, "compose");
  EXPECT_FALSE(Resp.Schemes[0].second.empty());
  EXPECT_EQ(Resp.Schemes[1].first, "no_such_name");
  EXPECT_TRUE(Resp.Schemes[1].second.empty());
}

TEST(NetServer, PipelinedRequestsMatchResponsesById) {
  ServerFixture F;
  TestClient C(F.Srv.port());
  // One write carrying several frames; completions may come back in
  // any order (two workers), so match by echoed id.
  std::string Wire;
  constexpr uint64_t N = 8;
  for (uint64_t I = 0; I < N; ++I) {
    WireRequest Req;
    Req.Id = 100 + I;
    Req.Kind = MsgKind::CompileRun;
    Req.Source = "1 + " + std::to_string(I);
    encodeRequest(Req, Wire);
  }
  C.send(Wire);
  std::set<uint64_t> Seen;
  for (uint64_t I = 0; I < N; ++I) {
    WireResponse Resp = C.recvResponse();
    EXPECT_EQ(Resp.Status, WireStatus::Ok);
    uint64_t K = Resp.Id - 100;
    ASSERT_LT(K, N);
    EXPECT_EQ(Resp.Result, std::to_string(1 + K));
    Seen.insert(Resp.Id);
  }
  EXPECT_EQ(Seen.size(), N);
}

TEST(NetServer, HttpHealthzStatsAnd404) {
  ServerFixture F;
  {
    TestClient C(F.Srv.port());
    C.send("GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    std::string Resp = C.recvAll();
    EXPECT_NE(Resp.find("200 OK"), std::string::npos) << Resp;
    EXPECT_NE(Resp.find("ok\n"), std::string::npos) << Resp;
  }
  {
    TestClient C(F.Srv.port());
    C.send("GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    std::string Resp = C.recvAll();
    EXPECT_NE(Resp.find("200 OK"), std::string::npos);
    EXPECT_NE(Resp.find("application/json"), std::string::npos);
    // ServiceStats::json(), saturation gauges included.
    EXPECT_NE(Resp.find("\"submitted\":"), std::string::npos);
    EXPECT_NE(Resp.find("\"queue_depth\":"), std::string::npos);
    EXPECT_NE(Resp.find("\"in_flight\":"), std::string::npos);
    EXPECT_NE(Resp.find("\"uptime_seconds\":"), std::string::npos);
    // The cost-model block rides along for operators tuning admission.
    EXPECT_NE(Resp.find("\"cost_model\":{"), std::string::npos);
  }
  {
    TestClient C(F.Srv.port());
    C.send("GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    EXPECT_NE(C.recvAll().find("404 Not Found"), std::string::npos);
  }
  {
    TestClient C(F.Srv.port());
    C.send("POST /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    EXPECT_NE(C.recvAll().find("405 Method Not Allowed"), std::string::npos);
  }
  F.drain();
  EXPECT_EQ(F.Srv.stats().HttpRequests, 4u);
}

TEST(NetServer, HttpKeepAliveServesMultipleRequests) {
  ServerFixture F;
  TestClient C(F.Srv.port());
  // HTTP/1.1 defaults to keep-alive: the connection survives a
  // response and serves the next request.
  C.send("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  std::string R1 = C.recvHttpResponse();
  EXPECT_NE(R1.find("200 OK"), std::string::npos) << R1;
  EXPECT_NE(R1.find("Connection: keep-alive"), std::string::npos) << R1;
  C.send("GET /stats HTTP/1.1\r\nHost: t\r\n\r\n");
  std::string R2 = C.recvHttpResponse();
  EXPECT_NE(R2.find("application/json"), std::string::npos) << R2;
  EXPECT_NE(R2.find("Connection: keep-alive"), std::string::npos) << R2;
  // ...until the client asks to close.
  C.send("GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  std::string R3 = C.recvAll();
  EXPECT_NE(R3.find("Connection: close"), std::string::npos) << R3;
  EXPECT_TRUE(C.atEof());
  F.drain();
  EXPECT_EQ(F.Srv.stats().HttpRequests, 3u);
  EXPECT_EQ(F.Srv.stats().Accepted, 1u); // one connection served all three
}

TEST(NetServer, Http10ClosesUnlessAskedToKeep) {
  ServerFixture F;
  {
    // HTTP/1.0 defaults to close...
    TestClient C(F.Srv.port());
    C.send("GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n");
    std::string R = C.recvAll();
    EXPECT_NE(R.find("Connection: close"), std::string::npos) << R;
    EXPECT_TRUE(C.atEof());
  }
  {
    // ...and keeps only on an explicit opt-in.
    TestClient C(F.Srv.port());
    C.send("GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
    std::string R = C.recvHttpResponse();
    EXPECT_NE(R.find("Connection: keep-alive"), std::string::npos) << R;
    C.send("GET /healthz HTTP/1.0\r\nConnection: close\r\n\r\n");
    EXPECT_NE(C.recvAll().find("200 OK"), std::string::npos);
  }
}

TEST(NetServer, HttpKeepAliveCapClosesOnTheFinalSequentialResponse) {
  ServerFixture F;
  TestClient C(F.Srv.port());
  // One request at a time (no pipelining): every response up to the
  // per-connection cap keeps the connection alive, the cap-th response
  // itself carries Connection: close — the client learns about the cap
  // from the response that exhausts it, never from a surprise EOF on
  // its next request.
  for (uint32_t I = 1; I <= MaxHttpRequestsPerConn; ++I) {
    C.send("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    std::string R =
        I < MaxHttpRequestsPerConn ? C.recvHttpResponse() : C.recvAll();
    ASSERT_NE(R.find("200 OK"), std::string::npos) << "request " << I;
    if (I < MaxHttpRequestsPerConn)
      EXPECT_NE(R.find("Connection: keep-alive"), std::string::npos)
          << "request " << I << " of " << MaxHttpRequestsPerConn << ": " << R;
    else
      EXPECT_NE(R.find("Connection: close"), std::string::npos)
          << "final request did not announce the close: " << R;
  }
  EXPECT_TRUE(C.atEof());
  F.drain();
  EXPECT_EQ(F.Srv.stats().HttpRequests, uint64_t(MaxHttpRequestsPerConn));
  EXPECT_EQ(F.Srv.stats().Accepted, 1u);
}

TEST(NetServer, HttpKeepAlivePipelineCapForcesClose) {
  ServerFixture F;
  TestClient C(F.Srv.port());
  // Pipeline more requests than the per-connection cap in one write:
  // exactly MaxHttpRequestsPerConn are answered, the last one carries
  // Connection: close, and the surplus is discarded with the close.
  std::string Wire;
  for (uint32_t I = 0; I < MaxHttpRequestsPerConn + 4; ++I)
    Wire += "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  C.send(Wire);
  std::string All = C.recvAll();
  size_t Count = 0;
  for (size_t Pos = All.find("200 OK"); Pos != std::string::npos;
       Pos = All.find("200 OK", Pos + 1))
    ++Count;
  EXPECT_EQ(Count, size_t(MaxHttpRequestsPerConn));
  size_t LastClose = All.rfind("Connection: close");
  ASSERT_NE(LastClose, std::string::npos);
  EXPECT_GT(LastClose, All.rfind("Connection: keep-alive"));
  F.drain();
  EXPECT_EQ(F.Srv.stats().HttpRequests, uint64_t(MaxHttpRequestsPerConn));
}

TEST(NetServer, BinaryGarbageGetsProtocolErrorAndCloses) {
  ServerFixture F;
  {
    // First byte 0x00 selects the binary dialect; the frame is noise.
    TestClient C(F.Srv.port());
    std::string Garbage = {'\x00', '\x00', '\x00', '\x05'};
    Garbage += "ncdl!";
    C.send(Garbage);
    WireResponse Resp = C.recvResponse();
    EXPECT_EQ(Resp.Status, WireStatus::ProtocolError);
    EXPECT_EQ(Resp.Id, 0u);
    EXPECT_TRUE(C.atEof()); // fail closed: the connection is gone
  }
  {
    // An oversized length prefix dies before any body is buffered.
    TestClient C(F.Srv.port());
    C.send(std::string({'\x00', '\x90', '\x00', '\x00'}));
    WireResponse Resp = C.recvResponse();
    EXPECT_EQ(Resp.Status, WireStatus::ProtocolError);
    EXPECT_TRUE(C.atEof());
  }
  {
    // Non-HTTP text garbage lands in the HTTP path and gets a 400.
    TestClient C(F.Srv.port());
    C.send("latrine protocol v9\r\n\r\n");
    EXPECT_NE(C.recvAll().find("400 Bad Request"), std::string::npos);
  }
  F.drain();
  EXPECT_EQ(F.Srv.stats().ProtocolErrors, 3u);
}

TEST(NetServer, ShedsAtFullQueueWithImmediateResponse) {
  // Workers=1 + QueueCapacity=1 + a parked worker make admission
  // deterministic: one request queues, the rest shed instantly.
  service::ServiceConfig SC;
  SC.Workers = 1;
  SC.QueueCapacity = 1;
  ServerFixture F(SC);

  std::atomic<bool> Parked{false}, Release{false};
  service::Request Blocker;
  Blocker.Source = "1 + 1";
  ASSERT_TRUE(F.Svc.trySubmit(std::move(Blocker), [&](service::Response) {
    Parked = true;
    while (!Release)
      std::this_thread::yield();
  }));
  // The callback runs on the worker after processing: once Parked is
  // up the single worker is pinned inside the callback.
  while (!Parked)
    std::this_thread::yield();

  TestClient C(F.Srv.port());
  for (uint64_t I = 0; I < 3; ++I) {
    WireRequest Req;
    Req.Id = I;
    Req.Kind = MsgKind::CompileRun;
    Req.Source = "2 + " + std::to_string(I);
    C.sendRequest(Req);
  }
  // The two sheds come back immediately, while the worker is still
  // parked; the queued request completes only after release.
  WireResponse S1 = C.recvResponse();
  WireResponse S2 = C.recvResponse();
  EXPECT_EQ(S1.Status, WireStatus::Shed);
  EXPECT_EQ(S2.Status, WireStatus::Shed);
  EXPECT_NE(S1.Error.find("shed"), std::string::npos);
  Release = true;
  WireResponse Done = C.recvResponse();
  EXPECT_EQ(Done.Status, WireStatus::Ok);
  EXPECT_EQ(Done.Id, 0u); // the first request was the one that queued

  F.drain();
  EXPECT_EQ(F.Srv.stats().Sheds, 2u);
  EXPECT_EQ(F.Svc.stats().Rejected, 2u);
}

TEST(NetServer, HalfCloseStillFlushesOwedResponses) {
  ServerFixture F;
  TestClient C(F.Srv.port());
  std::string Wire;
  for (uint64_t I = 0; I < 4; ++I) {
    WireRequest Req;
    Req.Id = I;
    Req.Kind = MsgKind::CompileRun;
    Req.Source = "3 + " + std::to_string(I);
    encodeRequest(Req, Wire);
  }
  C.send(Wire);
  // Half-close before reading anything: the server must still answer
  // all four, then close.
  ::shutdown(C.Fd, SHUT_WR);
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(C.recvResponse().Status, WireStatus::Ok);
  EXPECT_TRUE(C.atEof());
}

TEST(NetServer, DrainFinishesInFlightWorkThenExits) {
  service::ServiceConfig SC;
  SC.Workers = 1;
  SC.QueueCapacity = 8;
  ServerFixture F(SC);

  std::atomic<bool> Parked{false}, Release{false};
  service::Request Blocker;
  Blocker.Source = "1 + 1";
  ASSERT_TRUE(F.Svc.trySubmit(std::move(Blocker), [&](service::Response) {
    Parked = true;
    while (!Release)
      std::this_thread::yield();
  }));
  while (!Parked)
    std::this_thread::yield();

  TestClient C(F.Srv.port());
  WireRequest Req;
  Req.Id = 9;
  Req.Kind = MsgKind::CompileRun;
  Req.Source = "4 + 1";
  C.sendRequest(Req);
  // Give the loop a moment to admit the request before draining, then
  // drain while it is still queued behind the parked worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  F.Srv.requestDrain();
  Release = true;
  // The drain must wait for the admitted request: response, then EOF,
  // then the loop exits.
  WireResponse Resp = C.recvResponse();
  EXPECT_EQ(Resp.Status, WireStatus::Ok);
  EXPECT_EQ(Resp.Id, 9u);
  EXPECT_EQ(Resp.Result, "5");
  EXPECT_TRUE(C.atEof());
  F.LoopThread.join();
  F.Svc.shutdown();
  EXPECT_EQ(F.Srv.stats().OrphanedCompletions, 0u);
}

TEST(NetServer, DrainClosesIdleConnectionsImmediately) {
  ServerFixture F;
  TestClient C(F.Srv.port());
  // Prove the connection is established (one round-trip)...
  WireRequest Req;
  Req.Id = 1;
  Req.Kind = MsgKind::CompileRun;
  Req.Source = "1 + 1";
  C.sendRequest(Req);
  EXPECT_EQ(C.recvResponse().Status, WireStatus::Ok);
  // ...then drain: the idle connection is closed, run() returns.
  F.Srv.requestDrain();
  EXPECT_TRUE(C.atEof());
  F.LoopThread.join();
  F.Svc.shutdown();
}

} // namespace
