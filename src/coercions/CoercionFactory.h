//===----------------------------------------------------------------------===//
///
/// \file
/// CoercionFactory owns all coercions and implements the two operations
/// the runtime needs:
///
///   * `make(S, T, p)` — coercion creation (T₁ ⇒ᵖ T₂) of paper Figure 17,
///     extended to equirecursive types with μ back-edges.
///
///   * `compose(c, d)` — the space-efficiency workhorse (c ⨟ d) of
///     Figures 15/17: composes two normal-form coercions into a
///     normal-form coercion, using an association stack to tie recursive
///     knots and collapsing identity-equivalent recursive results to ι.
///
/// `make` results are interned per (S, T, label) triple and `compose`
/// results are memoized for μ-free pairs, so the memory used by coercions
/// is bounded by the number of distinct casts, mirroring the paper's
/// statically-allocated coercions plus a bounded runtime cache.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_COERCIONS_COERCIONFACTORY_H
#define GRIFT_COERCIONS_COERCIONFACTORY_H

#include "coercions/Coercion.h"
#include "types/TypeContext.h"

#include <deque>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace grift {

class CoercionFactory {
public:
  explicit CoercionFactory(TypeContext &Types);
  CoercionFactory(const CoercionFactory &) = delete;
  CoercionFactory &operator=(const CoercionFactory &) = delete;

  TypeContext &typeContext() { return Types; }

  /// ι.
  const Coercion *id() const { return IdC; }
  /// ⊥ᵖ.
  const Coercion *fail(std::string_view Label);
  /// T! — \p T must not be Dyn.
  const Coercion *inject(const Type *T);
  /// T?ᵖ — \p T must not be Dyn. (Only appears inside sequences.)
  const Coercion *project(const Type *T, std::string_view Label);

  /// Coercion creation (S ⇒ᵖ T). Requires nothing of S and T; returns
  /// ⊥ᵖ when they are inconsistent.
  const Coercion *make(const Type *S, const Type *T, std::string_view Label);

  /// Hot-path variant taking an already-interned label (from a coercion
  /// or a compiled cast site); avoids re-interning on every runtime
  /// projection.
  const Coercion *makeInterned(const Type *S, const Type *T,
                               const std::string *Label);

  /// Interns \p Label in this factory's label arena.
  const std::string *internLabel(std::string_view Label);

  /// The runtime-projection fast path of Figure 6: the coercion from the
  /// runtime type \p Source to \p Projection's target, memoized per
  /// (projection, source-type) pair.
  const Coercion *makeForProjection(const Coercion *Projection,
                                    const Type *Source);

  /// Space-efficient composition c ⨟ d. Both inputs and the result are in
  /// normal form.
  const Coercion *compose(const Coercion *C, const Coercion *D);

  /// True if \p C satisfies the normal-form grammar (tests).
  static bool isNormalForm(const Coercion *C);

  /// Number of coercion nodes allocated so far (space-bound tests).
  size_t allocatedNodes() const { return Arena.size(); }

  /// Drops every coercion, label, and memo table and starts a fresh
  /// epoch. All `const Coercion *` and interned-label pointers handed
  /// out before the call dangle afterwards, so callers must discard
  /// every Executable compiled against this factory in the same epoch
  /// (EnginePool does exactly that when a long-lived slot's arena grows
  /// past its cap).
  void reset();

  //===------------------------------------------------------------------===//
  // Store-deserialization hooks (src/store/Serialize.cpp). These rebuild
  // a coercion graph loaded from a persistent image through the same
  // interner make/compose use, so a loaded node is pointer-identical to
  // the node this factory would build itself and the interning
  // invariants (structural equality = pointer equality, zero new nodes
  // on re-make) survive the round trip.
  //===------------------------------------------------------------------===//

  /// Rebuilds one non-μ node from its loaded pieces. Every normal-form
  /// precondition is re-checked explicitly (a store image is untrusted
  /// input and release builds compile the asserts out); violations
  /// return nullptr with \p Error set instead of constructing a
  /// malformed node.
  const Coercion *buildForLoad(CoercionKind Kind, const Type *Ty,
                               const std::string *Label,
                               const std::vector<const Coercion *> &Parts,
                               std::string &Error);

  /// μ nodes load in two steps so back edges have a target before the
  /// body subgraph exists: allocate all μ placeholders first, then seal
  /// each with its body. sealRecForLoad rejects double-sealing and
  /// non-μ arguments instead of asserting.
  Coercion *newRecForLoad() { return newRec(); }
  bool sealRecForLoad(Coercion *Mu, const Coercion *Body);

  /// Seeds the make() memo with a loaded (S ⇒ᵖ T) ↦ C association so a
  /// later makeInterned on a store-loaded program returns the loaded
  /// node with zero allocations (the makeSub zero-new-nodes property).
  /// An existing entry wins: a warm factory's own derivation is never
  /// displaced by a loaded image.
  void seedMakeCache(const Type *S, const Type *T, const std::string *Label,
                     const Coercion *C);

private:
  friend class Composer;

  TypeContext &Types;
  std::deque<Coercion> Arena;
  /// Interned labels. Set nodes never move, so a label's address is
  /// stable; lookups take a string_view.
  struct LabelHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>()(S);
    }
  };
  std::unordered_set<std::string, LabelHash, std::equal_to<>> Labels;

  const Coercion *IdC = nullptr;

  // Interners (pointer-keyed; cheap and exact). The node interner holds
  // the nodes themselves and is probed with a Key that views the
  // caller's parts, so a hit copies nothing.
  struct Key {
    CoercionKind Kind;
    const Type *Ty;
    const std::string *Label;
    const std::vector<const Coercion *> &Parts;
    bool operator==(const Key &Other) const {
      return Kind == Other.Kind && Ty == Other.Ty && Label == Other.Label &&
             Parts == Other.Parts;
    }
  };
  static Key keyOf(const Coercion *C) {
    return {C->Kind, C->Ty, C->Label, C->Parts};
  }
  static const Key &keyOf(const Key &K) { return K; }
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(const Key &K) const;
    size_t operator()(const Coercion *C) const { return (*this)(keyOf(C)); }
  };
  struct KeyEq {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A &X, const B &Y) const {
      return keyOf(X) == keyOf(Y);
    }
  };
  std::unordered_set<const Coercion *, KeyHash, KeyEq> Interner;

  struct TripleKey {
    const Type *S;
    const Type *T;
    const std::string *Label;
    bool operator==(const TripleKey &Other) const {
      return S == Other.S && T == Other.T && Label == Other.Label;
    }
  };
  struct TripleHash {
    size_t operator()(const TripleKey &K) const;
  };
  std::unordered_map<TripleKey, const Coercion *, TripleHash> MakeCache;

  struct PairKey {
    const void *C;
    const void *D;
    bool operator==(const PairKey &Other) const {
      return C == Other.C && D == Other.D;
    }
  };
  struct PairHash {
    size_t operator()(const PairKey &K) const;
  };
  std::unordered_map<PairKey, const Coercion *, PairHash> ComposeCache;
  std::unordered_map<PairKey, const Coercion *, PairHash> ProjectCache;
  const Coercion *intern(CoercionKind Kind, const Type *Ty,
                         const std::string *Label,
                         std::vector<const Coercion *> Parts);
  /// ⊥ᵖ and T?ᵖ with an already-interned label (makeImpl's hot path).
  const Coercion *fail(const std::string *Label);
  const Coercion *project(const Type *T, const std::string *Label);
  Coercion *allocate();
  /// Fixes \p C's ApplyShape from its kind and parts; intern calls it on
  /// every node it creates, so every path into the factory (make,
  /// compose, store loads) agrees.
  static void setApplyShape(Coercion *C);

  // Normal-form smart constructors (shared by make and compose).
  // Reference coercions record their target reference type and blame
  // label so the monotonic-reference runtime can interpret them as
  // in-place cell strengthening (Mode::Monotonic).
  const Coercion *sequence(const Coercion *First, const Coercion *Second);
  const Coercion *fun(std::vector<const Coercion *> ArgsAndRet);
  const Coercion *refc(const Coercion *Write, const Coercion *Read,
                       const Type *Target, const std::string *Label);
  const Coercion *tup(std::vector<const Coercion *> Elements);
  Coercion *newRec();
  void sealRec(Coercion *Mu, const Coercion *Body);

  struct MakeFrame {
    const Type *S;
    const Type *T;
    Coercion *Mu; // lazily allocated on back-reference
  };
  const Coercion *makeImpl(const Type *S, const Type *T,
                           const std::string *Label,
                           std::vector<MakeFrame> &Stack);

  /// Structural subderivation of makeImpl. With no μ frames on \p Stack
  /// the subpair is self-contained, so the derivation is routed through
  /// makeInterned — consulting (and seeding) MakeCache for every nested
  /// subpair instead of re-deriving identical sub-coercions on each
  /// outer make.
  const Coercion *makeSub(const Type *S, const Type *T,
                          const std::string *Label,
                          std::vector<MakeFrame> &Stack);
};

} // namespace grift

#endif // GRIFT_COERCIONS_COERCIONFACTORY_H
