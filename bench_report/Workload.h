//===- bench_report/Workload.h - Seeded request streams ---------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic request streams and source generation for bench_report.
///
/// Request I of a stream is a pure function of (seed, I): the sender and
/// the response checker compute it independently, and the traced replay
/// reproduces exactly the first N requests of the measured run. Every
/// proportion is exact over each block of the stream (kinds are dealt
/// from a shuffled block of mix slots, programs from a shuffled
/// permutation of the corpus, variants from a shuffled block of variant
/// ids), so two seeds differ in order only and a run measures the same
/// work whatever its seed.
///
/// Cold sources embed (seed, id) in a comment, so they never repeat
/// within a run or across runs with different seeds, and each one misses
/// every cache tier. The comment is fixed-width hex, so source sizes and
/// every byte count derived from them do not depend on the seed.
///
//===----------------------------------------------------------------------===//

#ifndef RML_BENCH_REPORT_WORKLOAD_H
#define RML_BENCH_REPORT_WORKLOAD_H

#include "net/Protocol.h"

#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

namespace rml::benchreport {

inline uint64_t splitmix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// A permutation of 0..N-1 drawn from (Seed, Stream, Block): independent
/// streams of one seed use distinct Stream tags.
inline std::vector<uint32_t> blockPermutation(uint64_t Seed, uint64_t Stream,
                                              uint64_t Block, uint32_t N) {
  std::vector<uint32_t> P(N);
  std::iota(P.begin(), P.end(), 0u);
  uint64_t State = splitmix64(Seed ^ splitmix64(Stream ^ splitmix64(Block)));
  for (uint32_t I = N; I > 1; --I) {
    State = splitmix64(State);
    std::swap(P[I - 1], P[State % I]);
  }
  return P;
}

/// Relative weights of the four wire request kinds, in MsgKind order.
struct KindMix {
  unsigned Compile = 0;
  unsigned CompileRun = 0;
  unsigned SchemeQuery = 0;
  unsigned CaptureQuery = 0;
  unsigned total() const {
    return Compile + CompileRun + SchemeQuery + CaptureQuery;
  }
  /// The weight of \p K.
  unsigned share(net::MsgKind K) const {
    switch (K) {
    case net::MsgKind::Compile:
      return Compile;
    case net::MsgKind::CompileRun:
      return CompileRun;
    case net::MsgKind::SchemeQuery:
      return SchemeQuery;
    case net::MsgKind::CaptureQuery:
      return CaptureQuery;
    }
    return 0;
  }
};

struct RequestSpec {
  net::MsgKind Kind = net::MsgKind::Compile;
  uint32_t Program = 0; ///< index into corpus()
  uint32_t Variant = 0; ///< comment variant (serve-disk only)
};

class RequestStream {
public:
  RequestStream(uint64_t Seed, KindMix Mix, uint32_t Programs,
                uint32_t Variants)
      : Seed(Seed), Mix(Mix), Programs(Programs), Variants(Variants) {}

  RequestSpec at(uint64_t I) const {
    RequestSpec S;
    unsigned Slots = Mix.total();
    unsigned Slot = blockPermutation(Seed, 1, I / Slots, Slots)[I % Slots];
    if (Slot < Mix.Compile)
      S.Kind = net::MsgKind::Compile;
    else if (Slot < Mix.Compile + Mix.CompileRun)
      S.Kind = net::MsgKind::CompileRun;
    else if (Slot < Mix.Compile + Mix.CompileRun + Mix.SchemeQuery)
      S.Kind = net::MsgKind::SchemeQuery;
    else
      S.Kind = net::MsgKind::CaptureQuery;
    S.Program = blockPermutation(Seed, 2, I / Programs, Programs)[I % Programs];
    if (Variants > 1)
      S.Variant =
          blockPermutation(Seed, 3, I / Variants, Variants)[I % Variants];
    return S;
  }

private:
  uint64_t Seed;
  KindMix Mix;
  uint32_t Programs;
  uint32_t Variants;
};

/// \p Program behind a comment naming (\p Seed, \p Id): a source no cache
/// tier has seen. The corpus sources start with a newline, so the comment
/// takes line 1 alone and diagnostics keep their line numbers.
inline std::string coldSource(const std::string &Program, uint64_t Seed,
                              uint64_t Id) {
  char Salt[64];
  std::snprintf(Salt, sizeof(Salt), "(* salt %016llx-%016llx *)",
                static_cast<unsigned long long>(Seed),
                static_cast<unsigned long long>(Id));
  return Salt + Program;
}

/// Comment variant \p Variant of \p Program: serve-disk's working set is
/// every (program, variant) pair.
inline std::string variantSource(const std::string &Program, uint64_t Seed,
                                 uint32_t Variant) {
  char Tag[64];
  std::snprintf(Tag, sizeof(Tag), "(* variant %016llx-%08x *)",
                static_cast<unsigned long long>(Seed), Variant);
  return Tag + Program;
}

} // namespace rml::benchreport

#endif // RML_BENCH_REPORT_WORKLOAD_H
