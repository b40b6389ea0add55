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
///   Nodes    flattened RExpr tree, one fixed 24-byte FlatNode record
///            per node: kind, one sub-op byte and five u32 operands
///            whose meaning depends on the kind (see FlatNode)
///   Fns      one entry per lambda / fun binding: body node, parameter
///            and self name ids, and the static spans that fix its
///            frames: capture names, free regions, runtime formals
///   Aux      a shared u32 pool holding the variable-length spans:
///            Seq item lists, RApp (formal, target, target ref)
///            triples, closure-site capture slots and free-region refs,
///            fn captures, free-region and formal sets
///   Mus/Taus the result type reachable from RootMu, for rendering the
///            final value
///   Regions  per static region id: kind (tag-free layout decisions)
///            and finite-multiplicity sizing
///   ExnNames exception-constructor names in id order (the ids baked
///            into ExnConE/Handle nodes), for rendering
///   Strings  one deduplicated blob; name ids ARE string-table indices,
///            so a FlatUnit never needs the Compiler's interner
///
/// **Frames (lexical addressing).** Every variable and region occurrence
/// is resolved to a frame slot at flatten time, so the evaluator indexes
/// instead of searching by name. A function's variable frame is its
/// captures (in freeVars order), then self for a `fun`, then the
/// parameter, then the let / case / handle binders in nesting order; the
/// root frame starts empty. A function's region frame is its free
/// regions, then its runtime formals, then its letregion binders. A
/// region ref is a slot in the current region frame or GlobalRegionRef
/// (region 0). A closure site resolves its captures and free regions in
/// the *defining* frame. The names and static ids stay in the unit
/// beside their slots: the runtime resolves through the slots (static
/// ids only label closure region pairs and errors); the renderer and
/// the scope tests read the names.
///
/// Everything semantic the runtime consults — drop analysis (absorbed
/// into RApp triples and free-region sets), multiplicity, region kinds,
/// exception ids — is resolved at flatten time, so executing a FlatUnit
/// needs no analysis structures at all.
///
/// **Determinism and verification.** flattenProgram walks the program in
/// one fixed order, so equal compiled units flatten to equal tables and
/// encodeFlat is bit-deterministic. The encoding carries a checksum over
/// its body; decodeFlat verifies it, then validates every index, span
/// and slot before returning: a scoped walk from Root and from each fn
/// body checks every slot and region ref against its frame depth and
/// rejects a child cycle or a node reached at two depths. Truncation,
/// bit flips, out-of-range indices and section-length overruns all fail
/// closed to a null return (the disk cache counts that as a load
/// rejection).
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

/// The region ref of region 0, which no frame holds.
inline constexpr uint32_t GlobalRegionRef = UINT32_MAX - 1;

/// One flattened RExpr: a fixed 24-byte record, identical in memory and
/// in the encoding. Operands a kind does not list hold NoIndex (Pad and
/// Sub are then 0). "slot" is a variable-frame slot, "ref" a region ref,
/// "rho" the static region id a ref was resolved from.
///
///   IntLit    A,B = low, high 32 bits of the value
///   BoolLit   A = 0 or 1
///   StrE      A = string id, X = ref, Y = rho
///   Var       A = slot, B = name id
///   Lam/FunBind  A = Fns index, B = Aux span start of the closure site:
///             Fns[A].CapturesCount capture slots, then
///             Fns[A].FreeRegionsCount region refs; X = ref, Y = rho
///   Let       A = bound expr, B = body (binds one slot), C = name id
///   App       A = function, B = argument
///   RApp      A = callee (a Var), B,C = Aux span of C triples
///             (formal rho, target rho, target ref), X = ref, Y = rho
///   LetRegion A = body (binds one region slot), B = Regions index,
///             C = bound rho
///   Sel       A = pair; Sub = field (1 or 2)
///   If        A = condition, B = then, C = else
///   BinOp     A,B = operands; Sub = BinOpKind; X = ref, Y = rho (Concat)
///   ListCase  A = scrutinee, B = nil branch, C = cons branch (binds two
///             slots), X = head name id, Y = tail name id
///   RefE      A = contents, X = ref, Y = rho
///   PairE/ConsE  A,B = fields, X = ref, Y = rho
///   Deref     A;  Assign A = ref, B = value;  Raise A
///   Seq       B,C = Aux span of item nodes
///   Handle    A = body, B = handler (binds one slot iff X != NoIndex),
///             C = matched exn id (NoIndex: catch-all), X = binder name
///   ExnConE   A = argument (NoIndex: none), B = exn id (an unregistered
///             constructor resolves to the UINT32_MAX-2 sentinel)
///   Prim      A = argument; Sub = PrimKind; X = ref, Y = rho (Itos)
///   UnitLit, NilVal and the value forms carry nothing.
struct FlatNode {
  uint8_t Kind = 0; ///< RExpr::Kind
  uint8_t Sub = 0;  ///< BinOpKind / Expr::PrimKind / Sel field
  uint16_t Pad = 0;
  uint32_t A = NoIndex, B = NoIndex, C = NoIndex, X = NoIndex, Y = NoIndex;
};
static_assert(sizeof(FlatNode) == 24, "the node record is 24 bytes");

/// One closure's captured-region sets (rinfer/Captures.h), spans into
/// Aux holding ascending static region ids. Present (Caps parallel to
/// Fns) only when the unit was compiled with the captures analysis.
struct FlatCapture {
  uint32_t ValueBegin = 0, ValueCount = 0;   ///< captured via value
  uint32_t EffectBegin = 0, EffectCount = 0; ///< in the latent effect
};

/// One compiled lambda / fun binding, with the drop analysis already
/// applied to the free-region set. The spans fix the function's frames
/// (see the file comment); all three hold name or static region ids.
struct FlatFn {
  uint32_t Body = NoIndex;  ///< body node
  uint32_t Param = NoIndex; ///< parameter name id
  uint32_t Self = NoIndex;  ///< self name id (FunBind), else NoIndex
  /// Captured variable name ids, in freeVars order (span into Aux).
  uint32_t CapturesBegin = 0, CapturesCount = 0;
  /// Free static region ids to pack into closures (span into Aux;
  /// ascending).
  uint32_t FreeRegionsBegin = 0, FreeRegionsCount = 0;
  /// Runtime formal static ids (the undropped quantified regions), in
  /// the order RApp appends their instantiations (span into Aux).
  uint32_t FormalsBegin = 0, FormalsCount = 0;

  /// Depths of the frames the body runs in.
  uint32_t varFrame() const {
    return CapturesCount + (Self != NoIndex ? 1 : 0) + 1;
  }
  uint32_t regionFrame() const { return FreeRegionsCount + FormalsCount; }
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
};

/// Flattens a compiled program. Deterministic: the node, function and
/// string tables are filled in one fixed pre-order walk, so identical
/// inputs yield identical (and identically serialisable) units. A
/// variable or region with no binder in its frame, or an absent
/// operand, cannot be given a slot: the unit is then unusable and
/// \p Error (when non-null) receives the first such problem.
/// \p Caps, when non-null, is the capture-tracking table for \p P in
/// the same closure pre-order this pass discovers functions in; it is
/// embedded as the Caps/Aux sections so the report survives
/// serialisation.
FlatUnit flattenProgram(const RProgram &P, const Mu *RootMu,
                        const MultiplicityInfo &Mult,
                        const RegionKindInfo &Kinds, const DropInfo &Drops,
                        const Interner &Names, Strategy Strat,
                        const CaptureInfo *Caps = nullptr,
                        std::string *Error = nullptr);

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
