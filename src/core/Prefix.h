//===- core/Prefix.h - Declaration-prefix snapshots -------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiling a shared basis once. The sources a service compiles mostly
/// begin with the same top-level declarations (a basis library) and
/// differ after them, as the MLKit compiles programs against a
/// compilation basis it exported once. A PrefixSnapshot is the front
/// end's state after such a declaration prefix. A compile whose leading
/// declarations match one resumes there: it parses, type-checks and
/// region-infers only the declarations after the prefix and the result,
/// then puts letregions around the whole program and materialises,
/// checks, analyses and flattens it as a cold compile does. The output
/// is the same, byte for byte.
///
/// **Key.** A prefix is keyed by a word-wise FNV-1a-style hash, rolled
/// over its tokens one top-level declaration at a time, plus the encoded
/// CompileOptions.
/// A token's hash covers its kind, text, value and line/column, because
/// outputs carry source locations; comments and blanks are not tokens,
/// so a comment in front of a basis leaves the key alone. The options
/// are in the key so that an rg- prefix never serves an rg compile: an
/// interface built without the paper's fix is exactly its bug. A hash
/// hit is verified against the prefix's exact tokens before use.
///
/// **Eligibility.** A snapshot is only taken where every top-level
/// scheme is closed: its ML type variables are its own quantified ones
/// and no exception argument type has a variable (see
/// TopLevelTypeEnv::closed). Later code instantiates such schemes with
/// fresh variables, so it never writes to a Type node of the prefix,
/// and the prefix's nodes can be shared. A prefix that fails to
/// compile, or ends where a scheme is open (`val r = ref nil`), is
/// never a snapshot.
///
/// **What a resumed compile shares, copies and clones.**
///  * Shared read-only: the prefix's AST, its HM types and type
///    information, its region types, and inference's pending scheme
///    and instantiation records (read through the clones' originals).
///  * Copied: the interner (only the parser creates symbols, so symbol
///    ids come out as in a cold compile), the typing environment, the
///    spurious-variable analysis, and inference's union-find store,
///    environment and fresh-id counters — later code may unify the
///    prefix's unquantified region and effect variables. The prefix's
///    warnings are replayed.
///  * Cloned into the compile's arena: the prefix's region-annotated
///    terms, which materialisation rewrites in place.
///
/// **Bound.** A PrefixStore holds at most Capacity snapshots (least
/// recently used evicted first) and remembers the keys of the last
/// SeenCapacity prefixes compiles sent. It builds no snapshot on its
/// own: on a miss it builds one at the longest prefix an earlier
/// compile also sent, so a basis is compiled alone the second time it
/// is seen, and every later compile resumes after it.
///
//===----------------------------------------------------------------------===//

#ifndef RML_CORE_PREFIX_H
#define RML_CORE_PREFIX_H

#include "ast/Ast.h"
#include "ast/Token.h"
#include "core/Options.h"
#include "region/RExpr.h"
#include "region/RegionType.h"
#include "rinfer/Infer.h"
#include "rinfer/Spurious.h"
#include "support/Diagnostics.h"
#include "support/Interner.h"
#include "types/Type.h"
#include "types/TypeCheck.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

namespace rml {

/// The front end's state after a source's leading top-level
/// declarations, compiled under one set of options. Immutable once
/// built; compiles on any number of threads resume from one at once.
struct PrefixSnapshot {
  /// Compiles the top-level declarations of \p Tokens that begin before
  /// token \p End on their own. Null unless they end exactly there,
  /// compile without error and leave every top-level scheme closed.
  static std::shared_ptr<const PrefixSnapshot>
  build(const std::vector<Token> &Tokens, size_t End,
        const CompileOptions &Opts);

  /// Whether \p Tokens, compiled under \p Opts, begins with exactly
  /// this prefix.
  bool matches(const std::vector<Token> &Tokens,
               const CompileOptions &Opts) const;

  /// The prefix's declarations as the rest of a program sees them, so
  /// \p Info can type that rest: their schemes and exception argument
  /// types.
  void exportTypes(TypeInfo &Info) const;

  /// The prefix's tokens; a resumed parse starts at Tokens.size().
  std::vector<Token> Tokens;
  CompileOptions Opts;

  // Shared read-only by every compile that resumes here.
  AstArena Ast;
  TypeArena Types;
  RTypeArena RTypes;
  std::vector<const Dec *> Decs;
  TypeInfo Info;

  // Copied (or cloned) by every compile that resumes here.
  Interner Names;
  TopLevelTypeEnv TypeEnv;
  SpuriousInfo Spurious;
  RExprArena RExprs; // the terms Inferred refers to
  std::shared_ptr<const InferPrefix> Inferred;
  /// Warnings the prefix's type-check and inference phases emitted, in
  /// order (the parse phase's shadowing lint reruns over every
  /// declaration).
  std::vector<Diagnostic> TypecheckDiags, InferDiags;
};

/// A bounded, thread-safe store of prefix snapshots (see the file
/// comment). A Service owns one and hands it to every cold compile.
class PrefixStore {
public:
  /// Snapshots held at once.
  static constexpr size_t Capacity = 8;
  /// Prefix keys remembered as sent by a compile.
  static constexpr size_t SeenCapacity = 1024;

  struct Counters {
    /// Compiles that resumed from a stored snapshot.
    uint64_t Hits = 0;
    /// Compiles with a declaration prefix that found none.
    uint64_t Misses = 0;
    /// Snapshots built and stored.
    uint64_t Snapshots = 0;
    /// Snapshots evicted at the capacity.
    uint64_t Evictions = 0;
  };

  /// The snapshot a compile of \p Tokens (a whole lexed source) under
  /// \p Opts resumes from: the stored one at its longest matching
  /// declaration prefix, or, on a miss, one built at the longest prefix
  /// an earlier compile also sent. Null when there is neither.
  std::shared_ptr<const PrefixSnapshot>
  acquire(const std::vector<Token> &Tokens, const CompileOptions &Opts);

  Counters counters() const;

private:
  struct Entry {
    uint64_t Key;
    std::shared_ptr<const PrefixSnapshot> Snap;
    uint64_t LastUse;
  };

  /// Records \p Key as sent (under M).
  void remember(uint64_t Key);

  mutable std::mutex M;
  std::vector<Entry> Entries; // at most Capacity
  uint64_t Clock = 0;         // LastUse stamps
  /// Sent prefix keys -> whether building a snapshot there failed;
  /// SeenOrder forgets the oldest beyond SeenCapacity.
  std::unordered_map<uint64_t, bool> Seen;
  std::deque<uint64_t> SeenOrder;
  Counters C;
};

} // namespace rml

#endif // RML_CORE_PREFIX_H
