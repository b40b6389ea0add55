//===- net/Protocol.cpp ---------------------------------------------------===//

#include "net/Protocol.h"

#include <algorithm>

using namespace rml;
using namespace rml::net;

namespace {

//===----------------------------------------------------------------------===//
// Big-endian writers. All appends; frames are patched in place once the
// body size is known.
//===----------------------------------------------------------------------===//

void putU16(std::string &Out, uint16_t V) {
  Out.push_back(static_cast<char>(V >> 8));
  Out.push_back(static_cast<char>(V));
}

void putU32(std::string &Out, uint32_t V) {
  Out.push_back(static_cast<char>(V >> 24));
  Out.push_back(static_cast<char>(V >> 16));
  Out.push_back(static_cast<char>(V >> 8));
  Out.push_back(static_cast<char>(V));
}

void putU64(std::string &Out, uint64_t V) {
  putU32(Out, static_cast<uint32_t>(V >> 32));
  putU32(Out, static_cast<uint32_t>(V));
}

void patchU32(std::string &Out, size_t At, uint32_t V) {
  Out[At] = static_cast<char>(V >> 24);
  Out[At + 1] = static_cast<char>(V >> 16);
  Out[At + 2] = static_cast<char>(V >> 8);
  Out[At + 3] = static_cast<char>(V);
}

/// Truncates a string to what a u16/u32 length prefix can carry.
std::string_view clamp(std::string_view S, size_t Max) {
  return S.substr(0, std::min(S.size(), Max));
}

//===----------------------------------------------------------------------===//
// Bounds-checked body reader: every primitive verifies the remaining
// body before touching it, so a malformed inner length can never read
// past the frame (let alone the buffer).
//===----------------------------------------------------------------------===//

class Reader {
public:
  Reader(const char *Data, size_t Size)
      : P(reinterpret_cast<const unsigned char *>(Data)), N(Size) {}

  bool u8(uint8_t &V) {
    if (N - Off < 1)
      return false;
    V = P[Off++];
    return true;
  }

  bool u16(uint16_t &V) {
    if (N - Off < 2)
      return false;
    V = static_cast<uint16_t>(P[Off] << 8 | P[Off + 1]);
    Off += 2;
    return true;
  }

  bool u32(uint32_t &V) {
    if (N - Off < 4)
      return false;
    V = static_cast<uint32_t>(P[Off]) << 24 |
        static_cast<uint32_t>(P[Off + 1]) << 16 |
        static_cast<uint32_t>(P[Off + 2]) << 8 |
        static_cast<uint32_t>(P[Off + 3]);
    Off += 4;
    return true;
  }

  bool u64(uint64_t &V) {
    uint32_t Hi = 0, Lo = 0;
    if (!u32(Hi) || !u32(Lo))
      return false;
    V = static_cast<uint64_t>(Hi) << 32 | Lo;
    return true;
  }

  bool str(size_t Len, std::string &S) {
    if (N - Off < Len)
      return false;
    S.assign(reinterpret_cast<const char *>(P + Off), Len);
    Off += Len;
    return true;
  }

  /// The body was consumed exactly — anything less means trailing
  /// bytes, which decode rejects (fail closed on format drift).
  bool done() const { return Off == N; }

private:
  const unsigned char *P;
  size_t N;
  size_t Off = 0;
};

Decode bad(std::string &Err, std::string What) {
  Err = std::move(What);
  return Decode::Bad;
}

/// Shared prefix handling: NeedMore until the whole frame is buffered,
/// Bad on an oversized length prefix (the one malformation detectable
/// before the body arrives — waiting for 2 GiB that will never parse
/// would be an amplification hazard).
Decode frameBody(std::string_view Buf, uint32_t &BodyLen, std::string &Err) {
  if (Buf.size() < 4)
    return Decode::NeedMore;
  BodyLen = static_cast<uint32_t>(static_cast<uint8_t>(Buf[0])) << 24 |
            static_cast<uint32_t>(static_cast<uint8_t>(Buf[1])) << 16 |
            static_cast<uint32_t>(static_cast<uint8_t>(Buf[2])) << 8 |
            static_cast<uint32_t>(static_cast<uint8_t>(Buf[3]));
  if (BodyLen > MaxBodyBytes)
    return bad(Err, "length prefix " + std::to_string(BodyLen) +
                        " exceeds the " + std::to_string(MaxBodyBytes) +
                        "-byte frame bound");
  if (Buf.size() - 4 < BodyLen)
    return Decode::NeedMore;
  return Decode::Frame;
}

} // namespace

const char *rml::net::wireStatusName(WireStatus S) {
  switch (S) {
  case WireStatus::Ok:
    return "ok";
  case WireStatus::CompileError:
    return "compile_error";
  case WireStatus::RunFailed:
    return "run_failed";
  case WireStatus::Shutdown:
    return "shutdown";
  case WireStatus::InternalError:
    return "internal_error";
  case WireStatus::Shed:
    return "shed";
  case WireStatus::ProtocolError:
    return "protocol_error";
  }
  return "unknown";
}

Decode rml::net::decodeRequest(std::string_view Buf, size_t &Consumed,
                               WireRequest &Out, std::string &Err) {
  Consumed = 0;
  Err.clear();
  uint32_t BodyLen = 0;
  Decode D = frameBody(Buf, BodyLen, Err);
  if (D != Decode::Frame)
    return D;

  Reader R(Buf.data() + 4, BodyLen);
  WireRequest Req;
  uint8_t Kind = 0, Flags = 0;
  uint32_t SrcLen = 0;
  uint16_t NSchemes = 0;
  if (!R.u64(Req.Id) || !R.u8(Kind) || !R.u8(Flags) || !R.u32(SrcLen))
    return bad(Err, "truncated request header");
  if (Kind > static_cast<uint8_t>(MsgKind::CaptureQuery))
    return bad(Err, "unknown request kind " + std::to_string(Kind));
  if (Flags & ~(ReqFlagTenant | ReqFlagDeadline))
    return bad(Err, "unknown request flag bits");
  Req.Kind = static_cast<MsgKind>(Kind);
  if (!R.str(SrcLen, Req.Source))
    return bad(Err, "source length overruns the frame body");
  if (!R.u16(NSchemes))
    return bad(Err, "truncated scheme-name count");
  if (NSchemes > MaxSchemeNames)
    return bad(Err, "scheme-name count " + std::to_string(NSchemes) +
                        " exceeds the bound of " +
                        std::to_string(MaxSchemeNames));
  Req.SchemeNames.reserve(NSchemes);
  for (uint16_t I = 0; I < NSchemes; ++I) {
    uint16_t Len = 0;
    std::string Name;
    if (!R.u16(Len) || !R.str(Len, Name))
      return bad(Err, "scheme name overruns the frame body");
    Req.SchemeNames.push_back(std::move(Name));
  }
  if (Flags & ReqFlagTenant) {
    uint16_t Len = 0;
    if (!R.u16(Len) || !R.str(Len, Req.Tenant))
      return bad(Err, "tenant label overruns the frame body");
    if (Req.Tenant.size() > MaxTenantBytes)
      return bad(Err, "tenant label exceeds the bound of " +
                          std::to_string(MaxTenantBytes));
  }
  uint64_t Deadline = 0; // read for framing, then dropped
  if ((Flags & ReqFlagDeadline) && !R.u64(Deadline))
    return bad(Err, "truncated deadline");
  if (!R.done())
    return bad(Err, "trailing bytes in frame body");

  Out = std::move(Req);
  Consumed = 4 + static_cast<size_t>(BodyLen);
  return Decode::Frame;
}

Decode rml::net::decodeResponse(std::string_view Buf, size_t &Consumed,
                                WireResponse &Out, std::string &Err) {
  Consumed = 0;
  Err.clear();
  uint32_t BodyLen = 0;
  Decode D = frameBody(Buf, BodyLen, Err);
  if (D != Decode::Frame)
    return D;

  Reader R(Buf.data() + 4, BodyLen);
  WireResponse Resp;
  uint8_t Status = 0, Flags = 0;
  uint32_t Len32 = 0;
  uint16_t NSchemes = 0;
  if (!R.u64(Resp.Id) || !R.u8(Status) || !R.u8(Flags))
    return bad(Err, "truncated response header");
  // Status 3 is reserved (see WireStatus): no server sends it.
  if (Status == 3 || Status > static_cast<uint8_t>(WireStatus::ProtocolError))
    return bad(Err, "unknown response status " + std::to_string(Status));
  if (Flags & ~0x7u)
    return bad(Err, "unknown response flag bits");
  Resp.Status = static_cast<WireStatus>(Status);
  Resp.CompileOk = Flags & 0x1;
  Resp.CacheHit = Flags & 0x2;
  Resp.Ran = Flags & 0x4;
  if (!R.u32(Len32) || !R.str(Len32, Resp.Result))
    return bad(Err, "result overruns the frame body");
  if (!R.u32(Len32) || !R.str(Len32, Resp.Error))
    return bad(Err, "error text overruns the frame body");
  if (!R.u16(NSchemes))
    return bad(Err, "truncated scheme count");
  if (NSchemes > MaxSchemeNames)
    return bad(Err, "scheme count exceeds the bound");
  Resp.Schemes.reserve(NSchemes);
  for (uint16_t I = 0; I < NSchemes; ++I) {
    uint16_t NameLen = 0;
    std::string Name, Scheme;
    if (!R.u16(NameLen) || !R.str(NameLen, Name) || !R.u32(Len32) ||
        !R.str(Len32, Scheme))
      return bad(Err, "scheme entry overruns the frame body");
    Resp.Schemes.emplace_back(std::move(Name), std::move(Scheme));
  }
  if (!R.done())
    return bad(Err, "trailing bytes in frame body");

  Out = std::move(Resp);
  Consumed = 4 + static_cast<size_t>(BodyLen);
  return Decode::Frame;
}

void rml::net::encodeRequest(const WireRequest &R, std::string &Out) {
  size_t Mark = Out.size();
  putU32(Out, 0); // body length, patched below
  putU64(Out, R.Id);
  Out.push_back(static_cast<char>(R.Kind));
  uint8_t Flags = R.Tenant.empty() ? 0 : ReqFlagTenant;
  Out.push_back(static_cast<char>(Flags));
  std::string_view Src = clamp(R.Source, MaxBodyBytes / 2);
  putU32(Out, static_cast<uint32_t>(Src.size()));
  Out += Src;
  size_t NSchemes = std::min<size_t>(R.SchemeNames.size(), MaxSchemeNames);
  putU16(Out, static_cast<uint16_t>(NSchemes));
  for (size_t I = 0; I < NSchemes; ++I) {
    std::string_view Name = clamp(R.SchemeNames[I], 0xFFFF);
    putU16(Out, static_cast<uint16_t>(Name.size()));
    Out += Name;
  }
  if (Flags & ReqFlagTenant) {
    std::string_view Tenant = clamp(R.Tenant, MaxTenantBytes);
    putU16(Out, static_cast<uint16_t>(Tenant.size()));
    Out += Tenant;
  }
  patchU32(Out, Mark, static_cast<uint32_t>(Out.size() - Mark - 4));
}

void rml::net::encodeResponse(const WireResponse &R, std::string &Out) {
  size_t Mark = Out.size();
  putU32(Out, 0); // body length, patched below
  putU64(Out, R.Id);
  Out.push_back(static_cast<char>(R.Status));
  uint8_t Flags = (R.CompileOk ? 0x1 : 0) | (R.CacheHit ? 0x2 : 0) |
                  (R.Ran ? 0x4 : 0);
  Out.push_back(static_cast<char>(Flags));
  std::string_view Result = clamp(R.Result, MaxBodyBytes / 4);
  putU32(Out, static_cast<uint32_t>(Result.size()));
  Out += Result;
  std::string_view Error = clamp(R.Error, MaxBodyBytes / 4);
  putU32(Out, static_cast<uint32_t>(Error.size()));
  Out += Error;
  size_t NSchemes = std::min<size_t>(R.Schemes.size(), MaxSchemeNames);
  putU16(Out, static_cast<uint16_t>(NSchemes));
  for (size_t I = 0; I < NSchemes; ++I) {
    std::string_view Name = clamp(R.Schemes[I].first, 0xFFFF);
    putU16(Out, static_cast<uint16_t>(Name.size()));
    Out += Name;
    std::string_view Scheme = clamp(R.Schemes[I].second, MaxBodyBytes / 4);
    putU32(Out, static_cast<uint32_t>(Scheme.size()));
    Out += Scheme;
  }
  patchU32(Out, Mark, static_cast<uint32_t>(Out.size() - Mark - 4));
}
