//===- core/Prefix.cpp ----------------------------------------------------===//

#include "core/Prefix.h"

#include "ast/Parser.h"
#include "support/Checksum.h"

#include <algorithm>
#include <bit>
#include <cstring>

using namespace rml;

namespace {

/// One step of the key hash: FNV-1a's xor-multiply on a whole word,
/// with wordChecksum's rotate (support/Checksum.h).
uint64_t step(uint64_t H, uint64_t W) {
  return std::rotl(H ^ W, 29) * Fnv1a::Prime;
}

uint64_t hashToken(uint64_t H, const Token &T) {
  H = step(H, uint64_t(T.Loc.Line) << 32 | T.Loc.Col);
  H = step(H, uint64_t(T.Kind) | uint64_t(T.Text.size()) << 8);
  H = step(H, static_cast<uint64_t>(T.IntValue));
  for (size_t I = 0; I < T.Text.size(); I += 8) {
    uint64_t W = 0;
    std::memcpy(&W, T.Text.data() + I, std::min<size_t>(8, T.Text.size() - I));
    H = step(H, W);
  }
  return H;
}

/// One declaration prefix of a source: its tokens are [0, End).
struct PrefixKey {
  size_t End;
  uint64_t Hash;
};

/// The key of every declaration prefix of \p Tokens, shortest first:
/// one ending before each top-level declaration but the first.
std::vector<PrefixKey> prefixKeys(const std::vector<Token> &Tokens,
                                  const CompileOptions &Opts) {
  std::vector<size_t> Starts = topLevelDecStarts(Tokens);
  std::vector<PrefixKey> Keys;
  // A program's declarations come first; anything else does not parse.
  if (Starts.empty() || Starts.front() != 0)
    return Keys;
  uint64_t H = Fnv1a::Offset;
  size_t Next = 0;
  OptionBytes O = encodeOptions(Opts);
  static_assert(sizeof(OptionBytes) <= sizeof(uint64_t));
  uint64_t OptWord = 0;
  std::memcpy(&OptWord, O.data(), O.size());
  for (size_t I = 1; I < Starts.size(); ++I) {
    for (; Next < Starts[I]; ++Next)
      H = hashToken(H, Tokens[Next]);
    Keys.push_back({Starts[I], step(H, OptWord)});
  }
  return Keys;
}

bool sameToken(const Token &A, const Token &B) {
  return A.Kind == B.Kind && A.Loc == B.Loc && A.IntValue == B.IntValue &&
         A.Text == B.Text;
}

} // namespace

//===----------------------------------------------------------------------===//
// PrefixSnapshot
//===----------------------------------------------------------------------===//

std::shared_ptr<const PrefixSnapshot>
PrefixSnapshot::build(const std::vector<Token> &Tokens, size_t End,
                      const CompileOptions &Opts) {
  auto S = std::make_shared<PrefixSnapshot>();
  S->Tokens.assign(Tokens.begin(), Tokens.begin() + End);
  S->Opts = Opts;
  DiagnosticEngine Diags;
  // The parser sees the whole source, so its lookahead at the boundary
  // is a cold compile's.
  Parser P(Tokens, S->Ast, S->Names, Diags);
  if (!P.parseTopDecs(End, S->Decs))
    return nullptr;
  if (!checkTopLevel(S->Decs, nullptr, S->TypeEnv, S->Types, S->Names, Diags,
                     S->Info) ||
      !S->TypeEnv.closed(S->Info))
    return nullptr;
  S->TypecheckDiags = Diags.all();
  S->Spurious = analyzeSpurious(S->Decs, nullptr, S->Info, SpuriousInfo());
  InferOptions IOpts;
  IOpts.Strat = Opts.Strat;
  IOpts.Spurious = Opts.Spurious;
  S->Inferred = inferPrefix(S->Decs, S->Info, S->Spurious, IOpts, S->RTypes,
                            S->RExprs, S->Names, Diags);
  if (!S->Inferred)
    return nullptr;
  S->InferDiags.assign(Diags.all().begin() + S->TypecheckDiags.size(),
                       Diags.all().end());
  // From here on the types are shared between threads.
  S->TypeEnv.compressLinks();
  return S;
}

bool PrefixSnapshot::matches(const std::vector<Token> &Source,
                             const CompileOptions &O) const {
  return encodeOptions(O) == encodeOptions(Opts) &&
         Source.size() > Tokens.size() &&
         std::equal(Tokens.begin(), Tokens.end(), Source.begin(), sameToken);
}

void PrefixSnapshot::exportTypes(TypeInfo &Out) const {
  for (const Dec *D : Decs) {
    if (D->K == Dec::Kind::Exn)
      Out.ExnArgTypes.emplace(D, Info.ExnArgTypes.at(D));
    else
      Out.DecSchemes.emplace(D, Info.DecSchemes.at(D));
  }
}

//===----------------------------------------------------------------------===//
// PrefixStore
//===----------------------------------------------------------------------===//

std::shared_ptr<const PrefixSnapshot>
PrefixStore::acquire(const std::vector<Token> &Tokens,
                     const CompileOptions &Opts) {
  std::vector<PrefixKey> Keys = prefixKeys(Tokens, Opts);
  if (Keys.empty())
    return nullptr;
  size_t BuildAt = Keys.size();
  {
    std::lock_guard<std::mutex> Lock(M);
    for (size_t I = Keys.size(); I-- > 0;)
      for (Entry &E : Entries)
        if (E.Key == Keys[I].Hash && E.Snap->matches(Tokens, Opts)) {
          E.LastUse = ++Clock;
          ++C.Hits;
          return E.Snap;
        }
    ++C.Misses;
    for (size_t I = Keys.size(); I-- > 0;) {
      auto It = Seen.find(Keys[I].Hash);
      if (It != Seen.end() && !It->second) {
        BuildAt = I;
        break;
      }
    }
    for (const PrefixKey &K : Keys)
      remember(K.Hash);
  }
  if (BuildAt == Keys.size())
    return nullptr;
  // Outside the lock: building compiles the prefix.
  std::shared_ptr<const PrefixSnapshot> Snap =
      PrefixSnapshot::build(Tokens, Keys[BuildAt].End, Opts);
  uint64_t Key = Keys[BuildAt].Hash;
  std::lock_guard<std::mutex> Lock(M);
  if (!Snap) {
    if (auto It = Seen.find(Key); It != Seen.end())
      It->second = true; // never try this prefix again
    return nullptr;
  }
  // Two compiles may race to build one prefix; the later replaces it.
  auto Slot = std::find_if(Entries.begin(), Entries.end(),
                           [&](const Entry &E) { return E.Key == Key; });
  if (Slot == Entries.end() && Entries.size() == Capacity) {
    Slot = std::min_element(Entries.begin(), Entries.end(),
                            [](const Entry &A, const Entry &B) {
                              return A.LastUse < B.LastUse;
                            });
    ++C.Evictions;
  }
  if (Slot == Entries.end())
    Entries.push_back({Key, Snap, ++Clock});
  else
    *Slot = {Key, Snap, ++Clock};
  ++C.Snapshots;
  return Snap;
}

void PrefixStore::remember(uint64_t Key) {
  if (!Seen.emplace(Key, false).second)
    return;
  SeenOrder.push_back(Key);
  if (SeenOrder.size() > SeenCapacity) {
    Seen.erase(SeenOrder.front());
    SeenOrder.pop_front();
  }
}

PrefixStore::Counters PrefixStore::counters() const {
  std::lock_guard<std::mutex> Lock(M);
  return C;
}
