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
/// Layout — eight tables plus a string section, all cross-referenced by
/// u32 indices (UINT32_MAX = absent), never by pointer:
///
///   Nodes    flattened RExpr tree, one fixed 24-byte FlatNode record
///            per node: kind, one sub-op byte and five u32 operands
///            whose meaning depends on the kind (see FlatNode)
///   Fns      one entry per lambda / fun binding: body node, parameter
///            and self name ids, and the static spans that fix its
///            frames: capture names, free regions, runtime formals
///   Caps     the capture-tracking table, parallel to Fns when the unit
///            was compiled with the captures analysis, else empty
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
///   Strings  one deduplicated blob plus the end offset of each string;
///            name ids ARE string-table indices, so a FlatUnit never
///            needs the Compiler's interner
///
/// **One image (flat v4).** A unit is one immutable byte image, the
/// same in memory and on disk: a fixed ImageHeader (magic, version,
/// checksum, the compile option bytes, Root, RootMu) with a table
/// of (offset, count) pairs, one per Section, then the sections in
/// Section order. Each section starts at the next 8-byte boundary after
/// the previous one (zero padding between) and is an array of fixed-
/// size, padding-free little-endian records; the image ends at the
/// 8-byte boundary after the blob. The layout is canonical — the
/// counts fix every offset — so equal tables give equal bytes. A
/// FlatUnit's tables are spans into its image: the flattener fills a
/// FlatBuilder and freezes it into an image, decodeFlat copies and
/// verifies one, and encodeFlat returns the image bytes as they are.
///
/// **Frames (lexical addressing).** Every variable and region occurrence
/// is resolved to a frame slot at flatten time, so the evaluator indexes
/// instead of searching by name. A function's variable frame is its
/// captures (in FreeVars order), then self for a `fun`, then the
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
/// one fixed order, so equal compiled units flatten to equal images.
/// The header carries a word-wise checksum (support/Checksum.h) over
/// everything after it; decodeFlat verifies it, then checks every
/// section bound and validates every index, span and slot before
/// returning: a scoped walk from Root and from each fn body checks
/// every slot and region ref against its frame depth and rejects a
/// child cycle or a node reached at two depths. Truncation, bit flips,
/// forged section tables, out-of-range indices and section-length
/// overruns all fail closed to a null return (the disk cache counts
/// that as a load rejection).
///
//===----------------------------------------------------------------------===//

#ifndef RML_FLAT_FLAT_H
#define RML_FLAT_FLAT_H

#include "core/Options.h"
#include "region/RExpr.h"
#include "rinfer/Captures.h"
#include "rinfer/DropRegions.h"
#include "rinfer/Multiplicity.h"
#include "rinfer/RegionKinds.h"
#include "rinfer/Strategy.h"
#include "support/Interner.h"

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
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
  /// Captured variable name ids, in FreeVars order (span into Aux).
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
  uint8_t Kind = 0; ///< Mu::Kind
  uint8_t Pad[3] = {};
  uint32_t T = NoIndex; ///< Taus index (Boxed)
};
struct FlatTau {
  uint8_t Kind = 0;                  ///< Tau::Kind
  uint8_t Pad[3] = {};
  uint32_t A = NoIndex, B = NoIndex; ///< Mus indices
};

/// Per static region id: the representation facts letregion consults.
struct FlatRegion {
  uint32_t Id = 0;
  uint8_t Kind = 0;   ///< RegionKind (unfiltered; TagFreePairs applies
                      ///< at runtime)
  uint8_t Finite = 0; ///< multiplicity verdict (0 or 1)
  uint16_t Pad = 0;
  uint32_t Words = 0; ///< exact block size for finite regions (0 unknown)
};

/// The sections of a unit image, in image order.
enum class Section : uint32_t {
  Nodes,      ///< FlatNode records
  Fns,        ///< FlatFn records
  Caps,       ///< FlatCapture records
  Aux,        ///< u32
  Mus,        ///< FlatMu records
  Taus,       ///< FlatTau records
  Regions,    ///< FlatRegion records
  ExnNames,   ///< u32 string ids
  StringEnds, ///< u32 end offset of each string in the blob
  Blob,       ///< the string bytes
};
inline constexpr uint32_t NumSections = 10;

/// The fixed header at the start of every unit image (flat v4). All
/// fields are little-endian; the Pad fields are zero.
struct ImageHeader {
  char Magic[8];      ///< "RMLFLAT1"
  uint32_t Version;   ///< 4
  uint32_t Pad0;
  uint64_t Checksum;  ///< wordChecksum of bytes [ChecksumFrom, size)
  /// encodeOptions of the compile (core/Options.h), zero-padded: room
  /// for new options without a layout change.
  uint8_t Options[8];
  uint32_t Root;   ///< program root node
  uint32_t RootMu; ///< result type (Mus index; NoIndex = none)
  struct {
    uint32_t Offset; ///< byte offset from the image start
    uint32_t Count;  ///< records in the section
  } Sections[NumSections];

  /// The checksum covers everything after its own field.
  static constexpr size_t ChecksumFrom = 24;
};

/// The flat program: a validated view over one immutable image.
///
/// The tables are spans into the image the unit owns through a shared
/// handle, so copying a FlatUnit copies views, never tables, and a copy
/// stays valid as long as it lives. Only FlatBuilder::freeze and
/// decodeFlat make units; plain data, no pointers into anything else,
/// safe to share across threads and (serialised) restarts.
class FlatUnit {
public:
  uint32_t Root = NoIndex;   ///< program root node
  uint32_t RootMu = NoIndex; ///< result type (Mus index; NoIndex = none)
  std::span<const FlatNode> Nodes;
  std::span<const FlatFn> Fns;
  std::span<const FlatCapture> Caps; ///< empty, or one entry per Fns entry
  std::span<const uint32_t> Aux;
  std::span<const FlatMu> Mus;
  std::span<const FlatTau> Taus;
  std::span<const FlatRegion> Regions; ///< strictly ascending by Id
  std::span<const uint32_t> ExnNames;  ///< exn id -> string index

  /// String \p I of the deduplicated string section.
  std::string_view str(uint32_t I) const {
    uint32_t Begin = I ? StringEnds[I - 1] : 0;
    return Blob.substr(Begin, StringEnds[I] - Begin);
  }
  uint32_t numStrings() const {
    return static_cast<uint32_t>(StringEnds.size());
  }

  /// The options the unit was compiled under, as stored and decoded.
  const OptionBytes &optionBytes() const { return Options; }
  CompileOptions options() const {
    return decodeOptions(Options).value_or(CompileOptions());
  }
  /// Strategy::R disables GC at run time, mirroring Compiler::run.
  Strategy strat() const { return options().Strat; }
  /// True when the unit carries the capture-tracking table (then Caps
  /// is parallel to Fns — even when both are empty, so a closure-free
  /// program still renders a report).
  bool hasCaptures() const { return options().Captures; }

  /// The image: exactly the bytes encodeFlat returns.
  std::string_view bytes() const {
    return {reinterpret_cast<const char *>(Image.get()), Size};
  }

private:
  friend class FlatBuilder;
  friend std::shared_ptr<const FlatUnit> decodeFlat(std::string_view Bytes);

  /// Points every table at its section of \p Img, whose header and
  /// section bounds the caller has checked.
  void attach(std::shared_ptr<const unsigned char> Img, size_t Bytes);

  OptionBytes Options{};
  std::span<const uint32_t> StringEnds;
  std::string_view Blob;
  std::shared_ptr<const unsigned char> Image;
  size_t Size = 0;
};

/// The mutable form a unit is built in: one vector per section. The
/// flattener fills one and freezes it; tests thaw a unit into one to
/// forge damage.
class FlatBuilder {
public:
  OptionBytes Options{};
  uint32_t Root = NoIndex;
  uint32_t RootMu = NoIndex;
  std::vector<FlatNode> Nodes;
  std::vector<FlatFn> Fns;
  std::vector<FlatCapture> Caps;
  std::vector<uint32_t> Aux;
  std::vector<FlatMu> Mus;
  std::vector<FlatTau> Taus;
  std::vector<FlatRegion> Regions;
  std::vector<uint32_t> ExnNames;
  std::vector<uint32_t> StringEnds;
  std::string Blob;

  FlatBuilder() = default;
  /// Copies \p U's tables back into vectors.
  explicit FlatBuilder(const FlatUnit &U);

  /// Lays the sections out as one image and returns the unit viewing
  /// it. Does not validate: decodeFlat does, so a forged builder's
  /// damage shows when its bytes are decoded.
  FlatUnit freeze() const;
};

/// Flattens a compiled program. Deterministic: the node, function and
/// string tables are filled in one fixed pre-order walk, so identical
/// inputs yield identical (and identically serialisable) units. A
/// variable or region with no binder in its frame, or an absent
/// operand, cannot be given a slot: the unit is then unusable and
/// \p Error (when non-null) receives the first such problem.
/// \p Opts are the options \p P was compiled under; they go into the
/// unit header. \p Caps is the capture-tracking table for \p P, in the
/// same closure pre-order this pass discovers functions in, and must be
/// present exactly when Opts.Captures; it is embedded as the Caps/Aux
/// sections so the report survives serialisation. P.FreeVars must cover
/// P.Root: it gives each closure its capture list.
FlatUnit flattenProgram(const RProgram &P, const Mu *RootMu,
                        const MultiplicityInfo &Mult,
                        const RegionKindInfo &Kinds, const DropInfo &Drops,
                        const Interner &Names, const CompileOptions &Opts,
                        const CaptureInfo *Caps = nullptr,
                        std::string *Error = nullptr);

/// Renders the capture report from a flat unit's embedded table —
/// byte-identical to Compiler::captureReport on the compiled unit (same
/// formatter, same data). Empty when the unit carries no table.
std::string renderCaptureReport(const FlatUnit &U);

/// The unit's image bytes. A unit *is* its encoding, so nothing is
/// re-serialised: bit-deterministic, and decodeFlat(encodeFlat(U))
/// re-encodes to the same bytes.
std::string encodeFlat(const FlatUnit &U);

/// Copies \p Bytes once into an owned, aligned image (so any view,
/// aligned or not, is safe), then verifies it completely before
/// returning a unit that views it: magic, version and checksum first,
/// then the option bytes, every section bound (each section at its one
/// canonical, 8-byte aligned offset), and every index, span, slot and
/// enum against its table through the scoped walk. Returns null on any
/// damage — truncation, bit flips, forged section tables, out-of-range
/// indices, trailing bytes — never throws, never returns a unit the
/// evaluator could walk out of bounds. Nothing is checked lazily.
std::shared_ptr<const FlatUnit> decodeFlat(std::string_view Bytes);

} // namespace rml::flat

#endif // RML_FLAT_FLAT_H
