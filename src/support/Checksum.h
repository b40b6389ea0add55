//===- support/Checksum.h - Word-wise damage checksum -----------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checksum the persisted formats use to turn damage into a
/// deterministic reject: flat unit images (flat/Flat.h) and disk cache
/// entries (service/DiskCache.h) both verify it before parsing anything.
///
/// It is FNV-1a's xor-multiply step applied to 8-byte little-endian
/// words, with a rotate between the xor and the multiply, then to the
/// tail bytes one at a time. Words are dealt round-robin to four
/// independent lanes (so the multiplies overlap instead of forming one
/// dependency chain), and the lanes are folded into one hash through the
/// same step before the tail. Every step is a bijection of the running
/// hash for a fixed input word and injective in the word for a fixed
/// hash, so any damage confined to one word — every single-bit flip
/// included — changes its lane, hence the result, for certain. The
/// rotate moves a difference in a word's top bit down before the
/// multiply spreads it upwards; without it such a difference survives
/// every later step unchanged, and two top-bit flips in one lane would
/// cancel.
///
/// This is a damage check, not a content address: the cache key hash
/// (service/Hash.h) stays byte-wise FNV-1a, because entry file names
/// depend on it.
///
//===----------------------------------------------------------------------===//

#ifndef RML_SUPPORT_CHECKSUM_H
#define RML_SUPPORT_CHECKSUM_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace rml {

static_assert(std::endian::native == std::endian::little,
              "wordChecksum reads native words as little-endian");

inline uint64_t wordChecksum(std::string_view Bytes) {
  constexpr uint64_t Prime = 0x100000001b3ull;
  constexpr uint64_t Offset = 0xcbf29ce484222325ull;
  auto Step = [](uint64_t H, uint64_t W) {
    return std::rotl(H ^ W, 29) * Prime;
  };
  const char *P = Bytes.data();
  auto Word = [P](size_t I) {
    uint64_t W;
    std::memcpy(&W, P + I, sizeof(W));
    return W;
  };
  size_t N = Bytes.size(), I = 0;
  uint64_t L0 = Offset, L1 = Offset + 1, L2 = Offset + 2, L3 = Offset + 3;
  for (; N - I >= 32; I += 32) {
    L0 = Step(L0, Word(I));
    L1 = Step(L1, Word(I + 8));
    L2 = Step(L2, Word(I + 16));
    L3 = Step(L3, Word(I + 24));
  }
  for (; N - I >= 8; I += 8)
    L0 = Step(L0, Word(I));
  uint64_t H = Step(Step(Step(L0, L1), L2), L3);
  for (; I < N; ++I)
    H = (H ^ static_cast<unsigned char>(P[I])) * Prime;
  return H;
}

} // namespace rml

#endif // RML_SUPPORT_CHECKSUM_H
