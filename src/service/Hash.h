//===- service/Hash.h - Content-addressed cache keys ------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content addressing for the compile cache. The static pipeline is pure
/// and deterministic per (source, CompileOptions) — the same pair always
/// yields the same region-annotated program, schemes and analyses — so a
/// compilation is fully identified by hashing exactly the inputs the
/// pipeline reads: the source text plus the CompileOptions, encoded by
/// encodeOptions() (core/Options.h). EvalOptions deliberately do NOT
/// enter the key; they only affect run(), which is recomputed per
/// request.
///
/// The hash is 64-bit FNV-1a: no dependencies, stable across platforms,
/// and cheap enough to be negligible next to a parse. Collisions are
/// harmless for correctness — CacheKey keeps the full source and option
/// fields and compares them on lookup; the hash is only the bucket index.
///
//===----------------------------------------------------------------------===//

#ifndef RML_SERVICE_HASH_H
#define RML_SERVICE_HASH_H

#include "core/Options.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace rml::service {

/// 64-bit FNV-1a, incremental: fold in bytes as they arrive.
class Fnv1a {
public:
  static constexpr uint64_t Offset = 0xcbf29ce484222325ull;
  static constexpr uint64_t Prime = 0x100000001b3ull;

  Fnv1a &bytes(std::string_view S) {
    for (unsigned char C : S) {
      H ^= C;
      H *= Prime;
    }
    return *this;
  }
  Fnv1a &byte(uint8_t B) {
    H ^= B;
    H *= Prime;
    return *this;
  }
  uint64_t value() const { return H; }

private:
  uint64_t H = Offset;
};

/// Hash of everything the static pipeline reads.
inline uint64_t hashCompileInputs(std::string_view Source,
                                  const CompileOptions &Opts) {
  Fnv1a H;
  H.bytes(Source);
  for (uint8_t B : encodeOptions(Opts))
    H.byte(B);
  return H.value();
}

/// The cache key: precomputed hash plus the exact inputs, so lookups are
/// collision-proof (full comparison) while hashing stays O(1) amortised.
struct CacheKey {
  uint64_t Hash = 0;
  std::string Source;
  CompileOptions Opts;

  static CacheKey of(std::string_view Source, const CompileOptions &Opts) {
    return {hashCompileInputs(Source, Opts), std::string(Source), Opts};
  }

  friend bool operator==(const CacheKey &A, const CacheKey &B) {
    return A.Hash == B.Hash &&
           encodeOptions(A.Opts) == encodeOptions(B.Opts) &&
           A.Source == B.Source;
  }
  friend bool operator!=(const CacheKey &A, const CacheKey &B) {
    return !(A == B);
  }
};

} // namespace rml::service

#endif // RML_SERVICE_HASH_H
