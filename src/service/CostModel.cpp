//===- service/CostModel.cpp ----------------------------------------------===//

#include "service/CostModel.h"

#include <algorithm>

using namespace rml;
using namespace rml::service;

namespace {

/// Clamps a non-negative double into the >= 1 nano contract.
uint64_t toNanos(double V) {
  if (!(V >= 1.0))
    return 1;
  return static_cast<uint64_t>(V);
}

uint64_t executedNanos(const std::vector<PhaseProfile> &Profiles) {
  uint64_t Total = 0;
  for (const PhaseProfile &P : Profiles)
    if (!P.Skipped)
      Total += P.WallNanos;
  return Total;
}

} // namespace

uint64_t CostModel::predict(uint64_t Hash, size_t SourceBytes) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Entries.find(Hash);
  if (It != Entries.end()) {
    ++Hits;
    return toNanos(It->second.TotalNanos);
  }
  ++PriorUses;
  double Bytes = static_cast<double>(std::max<size_t>(SourceBytes, 1));
  if (PriorCount)
    return toNanos(PriorPerByte * Bytes);
  // Bootstrap: no observation yet, so the byte count itself is the
  // estimate — wrong units, right order (see the file comment).
  return toNanos(Bytes);
}

void CostModel::observe(uint64_t Hash, size_t SourceBytes,
                        const std::vector<PhaseProfile> &Profiles,
                        bool UpdatePrior) {
  uint64_t Total = executedNanos(Profiles);
  std::lock_guard<std::mutex> Lock(M);
  Entry &E = Entries[Hash];
  E.TotalNanos = E.Count ? Alpha * static_cast<double>(Total) +
                               (1.0 - Alpha) * E.TotalNanos
                         : static_cast<double>(Total);
  ++E.Count;
  if (UpdatePrior && SourceBytes) {
    double PerByte =
        static_cast<double>(Total) / static_cast<double>(SourceBytes);
    PriorPerByte =
        PriorCount ? Alpha * PerByte + (1.0 - Alpha) * PriorPerByte : PerByte;
    ++PriorCount;
  }
}

CostModel::Snapshot CostModel::snapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  Snapshot S;
  S.Entries = Entries.size();
  S.Hits = Hits;
  S.PriorUses = PriorUses;
  S.PriorPerByte = PriorCount ? PriorPerByte : 0.0;
  return S;
}
