//===----------------------------------------------------------------------===//
///
/// \file
/// The cast runtime: the `coerce` function of paper Figure 6, the
/// traditional type-based `cast` it is compared against, and the
/// proxy-aware reference operations shared by both. The VM calls into
/// this class for every runtime type conversion.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_RUNTIME_RUNTIME_H
#define GRIFT_RUNTIME_RUNTIME_H

#include "coercions/CoercionFactory.h"
#include "runtime/Blame.h"
#include "runtime/Heap.h"
#include "runtime/Mode.h"
#include "runtime/Stats.h"
#include "runtime/Value.h"

#include <memory>
#include <string>

namespace grift {

class CastBackend;

/// A compiled cast site: source type, target type, blame label, and (in
/// the modes that prebuild coercions) the statically allocated coercion.
/// The VM's cast table holds one of these per cast instruction — paper:
/// "the coercions that are statically known are allocated once at the
/// start of the program".
struct CastDescriptor {
  const Type *Src = nullptr;
  const Type *Tgt = nullptr;
  const std::string *Label = nullptr;
  /// Set when the mode prebuilds coercions (castModePrebuildsCoercions).
  const Coercion *C = nullptr;
};

/// A small inline cache for runtime-resolved coercions. Types, coercions
/// and blame labels are interned, so a cache key is up to three raw
/// pointers and a probe is a handful of pointer compares — the
/// steady-state replacement for a MakeCache / ComposeCache /
/// ProjectCache hash lookup at a hot cast site. Four entries with
/// round-robin replacement: one entry thrashes on sites that alternate
/// between two operands (the fig4 even/odd pair), and the fully-dynamic
/// Figure 8 programs funnel several value types through one Dyn
/// elimination site; beyond four the probe stops being cheaper than the
/// hash it replaces.
struct CoercionCache {
  struct Entry {
    const void *K0 = nullptr;
    const void *K1 = nullptr;
    const void *K2 = nullptr;
    const Coercion *R = nullptr;
  };
  Entry E[4];
  uint8_t Next = 0;

  const Coercion *lookup(const void *K0, const void *K1,
                         const void *K2) const {
    for (const Entry &En : E)
      if (En.R && En.K0 == K0 && En.K1 == K1 && En.K2 == K2)
        return En.R;
    return nullptr;
  }

  void insert(const void *K0, const void *K1, const void *K2,
              const Coercion *R) {
    E[Next] = {K0, K1, K2, R};
    Next = (Next + 1) & 3;
  }
};

class Runtime {
public:
  Runtime(TypeContext &Types, CoercionFactory &Coercions, CastMode Mode);
  ~Runtime();
  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  TypeContext &typeContext() { return Types; }
  CoercionFactory &coercionFactory() { return Coercions; }
  Heap &heap() { return TheHeap; }
  RuntimeStats &stats() { return Stats; }
  CastMode mode() const { return Mode; }

  /// The mode's cast backend: owns cast application, Dyn elimination,
  /// reference semantics, and the VM call-protocol predicates. Every
  /// former `switch (Mode)` in the runtime delegates through here.
  CastBackend &backend() { return *Backend; }

  //===--------------------------------------------------------------------===//
  // Cast application (mode dispatch)
  //===--------------------------------------------------------------------===//

  /// Applies a compiled cast site to a value. Counts one runtime cast.
  /// \p IC, when given, is the call site's inline cache (the VM passes
  /// one per Cast instruction); without one the runtime falls back to
  /// its own shared per-operation caches. An atomic injection or an
  /// exact-match projection (atomicCastShape) returns here, in every
  /// mode; any other cast goes to the backend.
  Value applyCast(Value V, const CastDescriptor &Desc,
                  CoercionCache *IC = nullptr);

  /// Applies a coercion (coercion mode). Counts one runtime cast. The
  /// node's apply shape, fixed at interning, picks the inline path: an
  /// Identity shape returns the value, a Project shape untags a value
  /// whose runtime type already matches; everything else, and a
  /// projection that does not match, goes through coerce.
  Value applyCoercion(Value V, const Coercion *C,
                      CoercionCache *IC = nullptr) {
    ++Stats.CastsApplied;
    switch (C->applyShape()) {
    case ApplyShape::Identity:
      return V;
    case ApplyShape::Project:
      if (runtimeTypeOf(V) == C->applyType())
        return dynUnwrap(V);
      break;
    case ApplyShape::General:
      break;
    }
    return coerce(V, C, IC);
  }

  /// Applies a type-based cast (type-based mode). Counts one runtime cast.
  Value applyTypeBased(Value V, const Type *S, const Type *T,
                       const std::string *Label);

  /// Casts between \p S and \p T at runtime under the current mode; used
  /// by the Dyn elimination forms whose target types are only known at
  /// run time. Counts one runtime cast. S == T and the atomic shapes
  /// (atomicCastShape) return here, as in applyCast. The VM sends the
  /// coercion modes' runtime casts to castRuntimeCoercion instead.
  Value castRuntime(Value V, const Type *S, const Type *T,
                    const std::string *Label, CoercionCache *IC = nullptr);

  /// applyCast and castRuntime for a backend whose casts take the default
  /// coercion path (CastBackend::castsAreCoercions: applyCast applies the
  /// site's coercion, castRuntime the interned S => T coercion through
  /// the site cache). The VM calls these directly, so the common case —
  /// a cache hit followed by one of applyCoercion's inline shapes — runs
  /// without a virtual or out-of-line call. Counts exactly like
  /// applyCast / castRuntime: one cast-torture step and one cast, plus
  /// castRuntime's cache probe (a miss falls to the backend, which
  /// probes again and counts the miss once).
  Value applyCoercionCast(Value V, const CastDescriptor &Desc,
                          CoercionCache *IC) {
    TheHeap.maybeCastTortureMinor(V);
    return applyCoercion(V, Desc.C, IC);
  }

  Value castRuntimeCoercion(Value V, const Type *S, const Type *T,
                            const std::string *Label, CoercionCache *IC) {
    TheHeap.maybeCastTortureMinor(V);
    return coerceRuntime(V, S, T, Label, IC);
  }

  /// The coercion backends' own CastBackend::castRuntime, inline: like
  /// castRuntimeCoercion but without the cast-torture step, which only
  /// Runtime's entry points take. The default Dyn-site reference hooks
  /// cast this way, so the VM's inline versions of them do too.
  Value coerceRuntime(Value V, const Type *S, const Type *T,
                      const std::string *Label, CoercionCache *IC) {
    const Coercion *C = (IC ? *IC : DynCastIC).lookup(S, T, Label);
    if (!C) [[unlikely]]
      return castRuntimeMiss(V, S, T, Label, IC);
    ++Stats.CacheHits;
    return applyCoercion(V, C, IC);
  }

  /// The interned normal-form coercion for S ⇒ T, through \p IC (the
  /// shared DynCastIC when null). Used by the VM to turn a runtime-typed
  /// pending return cast into an explicit coercion argument
  /// (coercion-passing style).
  const Coercion *internedCoercion(const Type *S, const Type *T,
                                   const std::string *Label,
                                   CoercionCache *IC);

  /// compose(First, Second): the coercion applying \p First then
  /// \p Second, through the shared return-composition cache. Counts one
  /// composition. Used by the VM to fold a frame's pending return
  /// coercions into one (coercion-passing style).
  const Coercion *composeForReturn(const Coercion *First,
                                   const Coercion *Second);

  //===--------------------------------------------------------------------===//
  // Dyn introspection (lazy-D)
  //===--------------------------------------------------------------------===//

  /// TYPE(v): the source type of a value of static type Dyn, read inline
  /// from the value's encoding. Fixnums, the bulk of Dyn traffic, are
  /// tested first.
  const Type *runtimeTypeOf(Value V) const {
    if (V.isFixnum()) [[likely]]
      return Types.integer();
    if (V.isHeap() && V.object()->kind() == ObjectKind::DynBox)
      return static_cast<const Type *>(V.object()->meta(0));
    if (V.isFloat())
      return Types.floating();
    if (V.isImm())
      return V.isUnit()   ? Types.unit()
             : V.isChar() ? Types.character()
                          : Types.boolean();
    return runtimeTypeOfSlow(V);
  }

  /// UNTAG(v): the underlying value of a value of static type Dyn.
  Value dynUnwrap(Value V) const {
    if (V.isHeap() && V.object()->kind() == ObjectKind::DynBox)
      return V.object()->slot(0);
    return V;
  }

  /// INJECT(v, S): tags \p V (of type \p S ≠ Dyn) as Dyn. Self-describing
  /// values (ints, bools, chars, unit, floats) are returned unchanged;
  /// everything else is wrapped in a DynBox recording \p S.
  Value inject(Value V, const Type *S);

  //===--------------------------------------------------------------------===//
  // Proxy-aware reference operations
  //===--------------------------------------------------------------------===//

  // The bare-object paths are inline; a proxied reference (or an
  // out-of-bounds index) goes out of line, and only a proxied reference
  // pays the virtual dispatch into the backend's slow path.

  Value boxRead(Value Box) {
    if (!Box.isProxy())
      return Box.object()->slot(0);
    return boxReadProxied(Box);
  }

  void boxWrite(Value Box, Value Content) {
    if (Box.isProxy())
      return boxWriteProxied(Box, Content);
    HeapObject *Object = Box.object();
    Object->slot(0) = Content;
    TheHeap.recordWrite(Object, Content);
  }

  Value vectorRef(Value Vect, int64_t Index) {
    if (!Vect.isProxy()) {
      HeapObject *Object = Vect.object();
      if (Index >= 0 && Index < Object->slotCount())
        return Object->slot(static_cast<uint32_t>(Index));
    }
    return vectorRefSlow(Vect, Index);
  }

  void vectorSet(Value Vect, int64_t Index, Value Content) {
    if (!Vect.isProxy()) {
      HeapObject *Object = Vect.object();
      if (Index >= 0 && Index < Object->slotCount()) {
        Object->slot(static_cast<uint32_t>(Index)) = Content;
        TheHeap.recordWrite(Object, Content);
        return;
      }
    }
    vectorSetSlow(Vect, Index, Content);
  }

  int64_t vectorLength(Value Vect);

  /// The function-proxy chain length starting at \p Callee (0 for a plain
  /// closure). Used by the VM for chain statistics.
  static unsigned proxyDepth(Value Callee);

  //===--------------------------------------------------------------------===//
  // Monotonic references (CastMode::Monotonic)
  //===--------------------------------------------------------------------===//

  /// Monotonic cast: like a type-based cast except reference casts never
  /// allocate a proxy — they strengthen the target cell's runtime type
  /// (meta slot 0) to the meet of its current type and the cast's element
  /// type, converting stored values in place. Function casts use
  /// coercions. Counts one runtime cast.
  Value applyMonotonic(Value V, const Type *S, const Type *T,
                       const std::string *Label);

  /// Monotonic read: loads from a bare cell whose runtime type (RTTI) may
  /// be more precise than the static view type \p ViewElem, converting
  /// the loaded value up to the view. The fully static fast path never
  /// reaches here (the compiler emits unchecked reads).
  Value monoBoxRead(Value Box, const Type *ViewElem,
                    const std::string *Label);
  void monoBoxWrite(Value Box, Value Content, const Type *ViewElem,
                    const std::string *Label);
  Value monoVectorRef(Value Vect, int64_t Index, const Type *ViewElem,
                      const std::string *Label);
  void monoVectorSet(Value Vect, int64_t Index, Value Content,
                     const Type *ViewElem, const std::string *Label);

  //===--------------------------------------------------------------------===//
  // Errors
  //===--------------------------------------------------------------------===//

  [[noreturn]] void blame(const std::string *Label, std::string Message);
  [[noreturn]] void trap(std::string Message);

  /// Renders a value for program output / tests. Reads through proxies
  /// (applying read conversions) so every mode prints the same answer.
  std::string valueToString(Value V, unsigned Depth = 6);

private:
  friend class CastBackend; // reaches cachedCoercion / strengthenCell /
                            // the shared fallback caches on behalf of
                            // the concrete backends

  TypeContext &Types;
  CoercionFactory &Coercions;
  CastMode Mode;
  std::unique_ptr<CastBackend> Backend;
  Heap TheHeap;
  RuntimeStats Stats;

  Value coerce(Value V, const Coercion *C, CoercionCache *IC = nullptr);

  // Out-of-line halves of the inline entry points above.
  const Type *runtimeTypeOfSlow(Value V) const;
  Value castRuntimeMiss(Value V, const Type *S, const Type *T,
                        const std::string *Label, CoercionCache *IC);
  Value boxReadProxied(Value Box);
  void boxWriteProxied(Value Box, Value Content);
  Value vectorRefSlow(Value Vect, int64_t Index);
  void vectorSetSlow(Value Vect, int64_t Index, Value Content);
  Value castTB(Value V, const Type *S, const Type *T,
               const std::string *Label);

  /// The cast shapes that do the same in every mode: an injection of an
  /// atomic value (its encoding is its own tag) and a projection whose
  /// value already carries the target type. True when S => T is one of
  /// them; \p V then holds the result.
  bool atomicCastShape(Value &V, const Type *S, const Type *T) const {
    if (T->isDyn())
      return S->isAtomic();
    if (S->isDyn() && runtimeTypeOf(V) == T) {
      V = dynUnwrap(V);
      return true;
    }
    return false;
  }

  /// Probes \p IC for (K0, K1, K2); on a miss runs \p Make, fills the
  /// cache and returns the result. Counts the probe in the stats either
  /// way (a site's first visit is the miss that seeds its cache).
  template <class MakeFn>
  const Coercion *cachedCoercion(CoercionCache &IC, const void *K0,
                                 const void *K1, const void *K2,
                                 MakeFn Make) {
    if (const Coercion *C = IC.lookup(K0, K1, K2)) {
      ++Stats.CacheHits;
      return C;
    }
    ++Stats.CacheMisses;
    const Coercion *C = Make();
    IC.insert(K0, K1, K2, C);
    return C;
  }

  /// Shared fallback caches for conversion sites that have no per-site
  /// slot in the VM: proxy-apply composition (function and reference),
  /// projection of a Dyn payload, runtime-typed make at a site without a
  /// cache of its own (monotonic function casts), and pending
  /// return-coercion composition (coercion-passing style).
  CoercionCache FunComposeIC, RefComposeIC, ProjectIC, DynCastIC,
      RetComposeIC;
  Value castMono(Value V, const Type *S, const Type *T,
                 const std::string *Label);
  void strengthenCell(HeapObject *Cell, const Type *TargetElem,
                      const std::string *Label);

  HeapObject *underlyingRef(Value Ref) const;

  /// (cell, target-type) pairs currently being strengthened; breaks
  /// cycles through self-referential heap structures. Each entry points
  /// at a Value pinned as a heap temp root by the owning strengthenCell
  /// frame, so when a mid-strengthen minor collection promotes the cell
  /// the identity comparison follows it — a raw HeapObject* would go
  /// stale the moment the nursery copy moved.
  std::vector<std::pair<const Value *, const Type *>> Strengthening;
};

} // namespace grift

#endif // GRIFT_RUNTIME_RUNTIME_H
