//===- region/Effect.cpp --------------------------------------------------===//

#include "region/Effect.h"

using namespace rml;

Effect Effect::unionWith(const Effect &Other) const {
  std::vector<AtomicEffect> Out;
  Out.reserve(Items.size() + Other.Items.size());
  std::set_union(Items.begin(), Items.end(), Other.Items.begin(),
                 Other.Items.end(), std::back_inserter(Out));
  Effect E;
  E.Items = std::move(Out);
  return E;
}

void Effect::insertAll(const Effect &Other) {
  if (Other.Items.empty())
    return;
  if (Items.empty()) {
    Items = Other.Items;
    return;
  }
  // Merge from the back into the grown vector, then drop the duplicates
  // the merge left side by side.
  size_t I = Items.size(), J = Other.Items.size();
  Items.resize(I + J);
  for (size_t K = Items.size(); J > 0;) {
    if (I > 0 && Other.Items[J - 1] < Items[I - 1])
      Items[--K] = Items[--I];
    else
      Items[--K] = Other.Items[--J];
  }
  Items.erase(std::unique(Items.begin(), Items.end()), Items.end());
}

Effect Effect::minus(const Effect &Other) const {
  std::vector<AtomicEffect> Out;
  std::set_difference(Items.begin(), Items.end(), Other.Items.begin(),
                      Other.Items.end(), std::back_inserter(Out));
  Effect E;
  E.Items = std::move(Out);
  return E;
}

Effect Effect::intersect(const Effect &Other) const {
  std::vector<AtomicEffect> Out;
  std::set_intersection(Items.begin(), Items.end(), Other.Items.begin(),
                        Other.Items.end(), std::back_inserter(Out));
  Effect E;
  E.Items = std::move(Out);
  return E;
}

std::vector<RegionVar> Effect::regions() const {
  std::vector<RegionVar> Out;
  for (AtomicEffect A : Items)
    if (A.isRegion())
      Out.push_back(A.region());
  return Out;
}

std::vector<EffectVar> Effect::effectVars() const {
  std::vector<EffectVar> Out;
  for (AtomicEffect A : Items)
    if (A.isEffect())
      Out.push_back(A.effect());
  return Out;
}

std::string rml::printRegionVar(RegionVar R) {
  if (!R.isValid())
    return "r?";
  if (R.isGlobal())
    return "rG";
  std::string Out = "r";
  Out += std::to_string(R.Id);
  return Out;
}

std::string rml::printEffectVar(EffectVar E) {
  if (!E.isValid())
    return "e?";
  if (E == EffectVar::global())
    return "eG";
  std::string Out = "e";
  Out += std::to_string(E.Id);
  return Out;
}

std::string rml::printAtomic(AtomicEffect A) {
  return A.isRegion() ? printRegionVar(A.region())
                      : printEffectVar(A.effect());
}

std::string rml::printEffect(const Effect &Phi) {
  std::string Out = "{";
  bool First = true;
  for (AtomicEffect A : Phi) {
    if (!First)
      Out += ",";
    First = false;
    Out += printAtomic(A);
  }
  Out += "}";
  return Out;
}

std::string rml::printArrowEff(const ArrowEff &Nu) {
  return printEffectVar(Nu.Handle) + "." + printEffect(Nu.Phi);
}
