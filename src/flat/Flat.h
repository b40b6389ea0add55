//===- flat/Flat.h - Flat, offset-based compiled units ----------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat, serialisable form of a compiled program. A CompiledUnit is a
/// web of arena pointers (RExpr nodes, Mu/Tau types, interner symbols)
/// that cannot outlive its Compiler; a FlatUnit is the same program
/// rewritten into dense index-based tables that are (a) directly
/// executable by the runtime (rt/FlatEval.h) and (b) byte-serialisable
/// into the persistent disk cache, which is what makes a warm restart's
/// first Run=true request a pure disk hit.
///
/// Layout — six tables plus a string section, all cross-referenced by
/// u32 indices (UINT32_MAX = absent), never by pointer:
///
///   Nodes    flattened RExpr tree: kind + child indices + per-kind
///            payload (literal, name ids, region ids, fn/rapp links)
///   Fns      one entry per lambda / fun binding: body node, parameter
///            and self name ids, capture name-id span, free-region span
///   Aux      a shared u32 pool holding the variable-length spans:
///            Seq item lists, RApp (formal,target) pairs, fn captures
///            and free-region sets
///   Mus/Taus the result type reachable from RootMu, for rendering the
///            final value
///   Regions  per static region id: kind (tag-free layout decisions)
///            and finite-multiplicity sizing
///   ExnNames exception-constructor names in id order (the ids baked
///            into ExnConE/Handle nodes), for rendering
///   Strings  one deduplicated blob; name ids ARE string-table indices,
///            so a FlatUnit never needs the Compiler's interner
///
/// Everything semantic the runtime consults — drop analysis (absorbed
/// into RApp pairs and free-region sets), multiplicity, region kinds,
/// exception ids — is resolved at flatten time, so executing a FlatUnit
/// needs no analysis structures at all.
///
/// **Determinism and verification.** flattenProgram walks the program in
/// one fixed order, so equal compiled units flatten to equal tables and
/// encodeFlat is bit-deterministic. The encoding carries a checksum over
/// its body; decodeFlat verifies it, then validates every index and
/// span against its table before returning — truncation, bit flips,
/// out-of-range indices and section-length overruns all fail closed to
/// a null return (the disk cache counts that as a load rejection).
///
//===----------------------------------------------------------------------===//

#ifndef RML_FLAT_FLAT_H
#define RML_FLAT_FLAT_H

#include "region/RExpr.h"
#include "rinfer/Captures.h"
#include "rinfer/DropRegions.h"
#include "rinfer/Multiplicity.h"
#include "rinfer/RegionKinds.h"
#include "rinfer/Strategy.h"
#include "support/Interner.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rml::flat {

/// "No index" for any u32 cross-reference (node, string, fn, type).
inline constexpr uint32_t NoIndex = UINT32_MAX;

/// One flattened RExpr. Fixed-size; the per-kind payload overlaps in
/// the obvious way (a node only reads the fields its kind defines).
struct FlatNode {
  uint8_t Kind = 0; ///< RExpr::Kind
  uint8_t Op = 0;   ///< BinOpKind (BinOp)
  uint8_t Prim = 0; ///< Expr::PrimKind (Prim)
  uint8_t Sel = 1;  ///< Sel field index (1 or 2)
  uint32_t A = NoIndex, B = NoIndex, C = NoIndex; ///< child nodes
  /// Span into FlatUnit::Aux — Seq: item node indices; RApp: resolved
  /// (formal, target) static region id pairs, flattened (count is the
  /// number of u32 entries, i.e. 2x the pair count).
  uint32_t AuxBegin = 0, AuxCount = 0;
  uint32_t Name = NoIndex;     ///< Var ref / Let binder (string index)
  uint32_t HeadName = NoIndex; ///< ListCase head binder
  uint32_t TailName = NoIndex; ///< ListCase tail binder
  uint32_t BindName = NoIndex; ///< Handle argument binder
  /// ExnConE: the resolved exception id (an unregistered constructor
  /// resolves to the UINT32_MAX-2 sentinel). Handle:
  /// the id the handler matches, or NoIndex for a catch-all.
  uint32_t ExnId = NoIndex;
  uint32_t Str = NoIndex; ///< StrE literal (string index)
  int64_t Int = 0;        ///< IntLit value; BoolLit as 0/1
  uint32_t AtRho = NoIndex;    ///< allocation destination static id
  uint32_t BoundRho = NoIndex; ///< LetRegion binder static id
  uint32_t Fn = NoIndex;       ///< Lam/FunBind: FlatUnit::Fns index
};

/// One closure's captured-region sets (rinfer/Captures.h), spans into
/// Aux holding ascending static region ids. Present (Caps parallel to
/// Fns) only when the unit was compiled with the captures analysis.
struct FlatCapture {
  uint32_t ValueBegin = 0, ValueCount = 0;   ///< captured via value
  uint32_t EffectBegin = 0, EffectCount = 0; ///< in the latent effect
};

/// One compiled lambda / fun binding, with the drop analysis already
/// applied to the free-region set.
struct FlatFn {
  uint32_t Body = NoIndex;  ///< body node
  uint32_t Param = NoIndex; ///< parameter name id
  uint32_t Self = NoIndex;  ///< self name id (FunBind), else NoIndex
  /// Captured variable name ids, in freeVars order (span into Aux).
  uint32_t CapturesBegin = 0, CapturesCount = 0;
  /// Free static region ids to pack into closures (span into Aux;
  /// ascending).
  uint32_t FreeRegionsBegin = 0, FreeRegionsCount = 0;
};

/// Flattened result types: only what rendering reads (kind + children).
struct FlatMu {
  uint8_t Kind = 0;      ///< Mu::Kind
  uint32_t T = NoIndex;  ///< Taus index (Boxed)
};
struct FlatTau {
  uint8_t Kind = 0;                 ///< Tau::Kind
  uint32_t A = NoIndex, B = NoIndex; ///< Mus indices
};

/// Per static region id: the representation facts letregion consults.
struct FlatRegion {
  uint32_t Id = 0;
  uint8_t Kind = 0;   ///< RegionKind (unfiltered; TagFreePairs applies
                      ///< at runtime)
  uint8_t Finite = 0; ///< multiplicity verdict
  uint32_t Words = 0; ///< exact block size for finite regions (0 unknown)
};

/// The flat program. Plain data: no pointers, no interner dependence;
/// safe to share across threads, processes and (serialised) restarts.
struct FlatUnit {
  /// Strategy the unit was compiled under (Strategy::R disables GC at
  /// run time, mirroring Compiler::run).
  uint8_t Strat = 0;
  /// 1 when the unit carries the capture-tracking table (then Caps is
  /// parallel to Fns — even when both are empty, so a closure-free
  /// program still renders a report).
  uint8_t HasCaptures = 0;
  uint32_t Root = NoIndex;   ///< program root node
  uint32_t RootMu = NoIndex; ///< result type (Mus index; NoIndex = none)
  std::vector<FlatNode> Nodes;
  std::vector<FlatFn> Fns;
  std::vector<FlatCapture> Caps; ///< empty, or one entry per Fns entry
  std::vector<uint32_t> Aux;
  std::vector<FlatMu> Mus;
  std::vector<FlatTau> Taus;
  std::vector<FlatRegion> Regions;  ///< strictly ascending by Id
  std::vector<uint32_t> ExnNames;   ///< exn id -> string index
  /// Deduplicated string section: Spans are contiguous and ascending,
  /// covering Blob exactly (the encode/decode invariant).
  std::string StringBlob;
  std::vector<std::pair<uint32_t, uint32_t>> StringSpans; ///< (offset, len)

  std::string_view str(uint32_t I) const {
    const auto &[Off, Len] = StringSpans[I];
    return std::string_view(StringBlob).substr(Off, Len);
  }

  /// Region facts for \p Id (binary search), or null when the id has no
  /// entry — then the kind is RegionKind::Empty and the region is
  /// infinite.
  const FlatRegion *regionInfo(uint32_t Id) const;
};

/// Flattens a compiled program. Deterministic: the node, function and
/// string tables are filled in one fixed pre-order walk, so identical
/// inputs yield identical (and identically serialisable) units.
/// \p Caps, when non-null, is the capture-tracking table for \p P in
/// the same closure pre-order this pass discovers functions in; it is
/// embedded as the Caps/Aux sections so the report survives
/// serialisation.
FlatUnit flattenProgram(const RProgram &P, const Mu *RootMu,
                        const MultiplicityInfo &Mult,
                        const RegionKindInfo &Kinds, const DropInfo &Drops,
                        const Interner &Names, Strategy Strat,
                        const CaptureInfo *Caps = nullptr);

/// Renders the capture report from a flat unit's embedded table —
/// byte-identical to Compiler::captureReport on the compiled unit (same
/// formatter, same data). Empty when the unit carries no table.
std::string renderCaptureReport(const FlatUnit &U);

/// Serialises \p U: magic + version + body checksum + the tables in
/// fixed order, explicit little-endian widths. Bit-deterministic, and
/// a decode/encode round trip reproduces the input bytes exactly.
std::string encodeFlat(const FlatUnit &U);

/// Deserialises and fully validates: checksum first, then every index,
/// span and enum against its table. Returns null on any damage —
/// truncation, bit flips, out-of-range indices, section-length
/// overruns, trailing bytes — never throws, never returns a unit the
/// evaluator could walk out of bounds.
std::shared_ptr<const FlatUnit> decodeFlat(std::string_view Bytes);

} // namespace rml::flat

#endif // RML_FLAT_FLAT_H
