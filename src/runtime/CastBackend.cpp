//===----------------------------------------------------------------------===//
///
/// \file
/// The five cast backends. Coercions is the paper's space-efficient
/// semantics; CoercionPassing shares its value-level behavior and only
/// flips the call protocol to composed per-frame return coercions;
/// Monotonic reuses the coercion machinery for functions but strengthens
/// reference cells in place; TypeBased is the proxy-stacking baseline;
/// Static admits no runtime casts at all.
///
//===----------------------------------------------------------------------===//
#include "runtime/CastBackend.h"

#include "runtime/Runtime.h"

#include <cassert>

using namespace grift;

//===----------------------------------------------------------------------===//
// Protected forwarders into Runtime privates
//===----------------------------------------------------------------------===//

const Coercion *CastBackend::cachedCompose(CoercionCache *IC,
                                           const Coercion *Old,
                                           const Coercion *New) {
  return RT.cachedCoercion(IC ? *IC : RT.RefComposeIC, Old, New, nullptr,
                           [&] { return RT.Coercions.compose(Old, New); });
}

const Coercion *CastBackend::cachedMake(CoercionCache *IC, const Type *S,
                                        const Type *T,
                                        const std::string *Label) {
  return RT.cachedCoercion(IC ? *IC : RT.DynCastIC, S, T, Label, [&] {
    return RT.Coercions.makeInterned(S, T, Label);
  });
}

void CastBackend::strengthenCell(Value Ref, const Type *TargetElem,
                                 const std::string *Label) {
  RT.strengthenCell(Ref.object(), TargetElem, Label);
}

//===----------------------------------------------------------------------===//
// Base defaults shared by the coercion-flavored backends
//===----------------------------------------------------------------------===//

Value CastBackend::coerceRef(Value V, const Coercion *C, CoercionCache *IC) {
  if (V.isProxy()) {
    HeapObject *P = V.object();
    assert(P->kind() == ObjectKind::RefProxy && "expected ref proxy");
    const Coercion *Old = static_cast<const Coercion *>(P->meta(0));
    const Coercion *New = cachedCompose(IC, Old, C);
    ++RT.stats().Compositions;
    Value Wrapped = P->slot(0);
    if (New->isId())
      return Wrapped;
    ++RT.stats().ProxiesAllocated;
    return RT.heap().allocRefProxy(Wrapped, New, nullptr, nullptr);
  }
  assert(V.isHeap() && (V.object()->kind() == ObjectKind::Box ||
                        V.object()->kind() == ObjectKind::Vector) &&
         "reference coercion applied to non-reference");
  ++RT.stats().ProxiesAllocated;
  return RT.heap().allocRefProxy(V, C, nullptr, nullptr);
}

Value CastBackend::dynBoxRead(Value Inner, const Type *Elem,
                              const std::string *Label, CoercionCache *IC) {
  Value Content = RT.boxRead(Inner);
  return castRuntime(Content, Elem, RT.typeContext().dyn(), Label, IC);
}

void CastBackend::dynBoxWrite(Value Inner, Value Content, const Type *Elem,
                              const std::string *Label, CoercionCache *IC) {
  // The content cast can allocate and move Inner; pin it across the cast.
  Rooted Ref(RT.heap(), Inner);
  Value Converted =
      castRuntime(Content, RT.typeContext().dyn(), Elem, Label, IC);
  RT.boxWrite(Ref.get(), Converted);
}

Value CastBackend::dynVectorRef(Value Inner, int64_t Index, const Type *Elem,
                                const std::string *Label, CoercionCache *IC) {
  Value Element = RT.vectorRef(Inner, Index);
  return castRuntime(Element, Elem, RT.typeContext().dyn(), Label, IC);
}

void CastBackend::dynVectorSet(Value Inner, int64_t Index, Value Content,
                               const Type *Elem, const std::string *Label,
                               CoercionCache *IC) {
  Rooted Ref(RT.heap(), Inner);
  Value Converted =
      castRuntime(Content, RT.typeContext().dyn(), Elem, Label, IC);
  RT.vectorSet(Ref.get(), Index, Converted);
}

namespace {

//===----------------------------------------------------------------------===//
// Coercions — the paper's space-efficient normal-form semantics
//===----------------------------------------------------------------------===//

class CoercionsBackend : public CastBackend {
public:
  using CastBackend::CastBackend;

  CastMode castMode() const override { return CastMode::Coercions; }
  bool castsAreCoercions() const override { return true; }

  Value applyCast(Value V, const CastDescriptor &Desc,
                  CoercionCache *IC) override {
    return RT.applyCoercion(V, Desc.C, IC);
  }

  Value castRuntime(Value V, const Type *S, const Type *T,
                    const std::string *Label, CoercionCache *IC) override {
    return RT.applyCoercion(V, cachedMake(IC, S, T, Label), IC);
  }

  // Invariant: at most one proxy per reference, so the slow paths are a
  // single read/write coercion around the base object.
  Value proxyBoxRead(Value Box) override {
    HeapObject *P = Box.object();
    RT.stats().noteChain(1);
    Value Raw = P->slot(0).object()->slot(0);
    const Coercion *C = static_cast<const Coercion *>(P->meta(0));
    return RT.applyCoercion(Raw, C->readCoercion());
  }

  void proxyBoxWrite(Value Box, Value Content) override {
    RT.stats().noteChain(1);
    // The write coercion can allocate (and so move the proxy and its
    // base); the coercion itself is interned and safe to read up front.
    const Coercion *C = static_cast<const Coercion *>(Box.object()->meta(0));
    Rooted Proxy(RT.heap(), Box);
    Value Converted = RT.applyCoercion(Content, C->writeCoercion());
    HeapObject *Base = Proxy.get().object()->slot(0).object();
    Base->slot(0) = Converted;
    RT.heap().recordWrite(Base, Converted);
  }

  Value proxyVectorRef(Value Vect, int64_t Index) override {
    HeapObject *P = Vect.object();
    RT.stats().noteChain(1);
    HeapObject *Base = P->slot(0).object();
    if (Index < 0 || Index >= Base->slotCount())
      RT.trap("vector index out of bounds");
    const Coercion *C = static_cast<const Coercion *>(P->meta(0));
    return RT.applyCoercion(Base->slot(static_cast<uint32_t>(Index)),
                            C->readCoercion());
  }

  void proxyVectorSet(Value Vect, int64_t Index, Value Content) override {
    RT.stats().noteChain(1);
    const Coercion *C = static_cast<const Coercion *>(Vect.object()->meta(0));
    Rooted Proxy(RT.heap(), Vect);
    Value Converted = RT.applyCoercion(Content, C->writeCoercion());
    HeapObject *Base = Proxy.get().object()->slot(0).object();
    if (Index < 0 || Index >= Base->slotCount())
      RT.trap("vector index out of bounds");
    Base->slot(static_cast<uint32_t>(Index)) = Converted;
    RT.heap().recordWrite(Base, Converted);
  }
};

//===----------------------------------------------------------------------===//
// Coercion-passing style (Tsuda, Igarashi & Tabuchi)
//===----------------------------------------------------------------------===//

/// Identical value-level semantics to Coercions — casts compile to the
/// same interned normal-form coercion graph, so zero-new-nodes and the
/// one-proxy invariant carry over verbatim. The observable difference is
/// the call protocol: the VM composes a frame's pending return coercions
/// into one explicit coercion argument per frame (composesPendingReturns),
/// bounding return-cast space at O(1) per frame where the stacked
/// protocol grows Θ(n) across n proxied tail calls.
class CoercionPassingBackend : public CoercionsBackend {
public:
  using CoercionsBackend::CoercionsBackend;
  CastMode castMode() const override { return CastMode::CoercionPassing; }
  bool composesPendingReturns() const override { return true; }
};

//===----------------------------------------------------------------------===//
// Type-based casts — the proxy-stacking baseline
//===----------------------------------------------------------------------===//

class TypeBasedBackend : public CastBackend {
public:
  using CastBackend::CastBackend;

  CastMode castMode() const override { return CastMode::TypeBased; }
  bool coercionCallProtocol() const override { return false; }

  Value applyCast(Value V, const CastDescriptor &Desc,
                  CoercionCache *IC) override {
    (void)IC; // type-based casts re-walk the types; nothing to cache
    return RT.applyTypeBased(V, Desc.Src, Desc.Tgt, Desc.Label);
  }

  Value castRuntime(Value V, const Type *S, const Type *T,
                    const std::string *Label, CoercionCache *) override {
    return RT.applyTypeBased(V, S, T, Label);
  }

  // Chains grow without bound; every operation traverses the whole chain
  // (reads innermost-outwards, writes outermost-inwards).
  //
  // The recorded chain holds the proxies' (S, T, label) triples, not the
  // proxy objects: types, labels — and the triples — are interned and
  // immortal, while the proxies themselves can move when a conversion
  // below allocates and triggers a minor collection.
  struct ProxyView {
    const Type *S;
    const Type *T;
    const std::string *L;
  };

  Value proxyBoxRead(Value Box) override {
    std::vector<ProxyView> Chain;
    const HeapObject *Object = Box.object();
    while (Object->kind() == ObjectKind::RefProxy) {
      Chain.push_back({static_cast<const Type *>(Object->meta(0)),
                       static_cast<const Type *>(Object->meta(1)),
                       static_cast<const std::string *>(Object->meta(2))});
      Object = Object->slots()[0].object();
    }
    RT.stats().noteChain(Chain.size());
    Value V = Object->slots()[0];
    for (size_t I = Chain.size(); I-- > 0;)
      V = RT.applyTypeBased(V, Chain[I].S, Chain[I].T, Chain[I].L);
    return V;
  }

  void proxyBoxWrite(Value Box, Value Content) override {
    // Inward walk: each conversion can allocate, so the current position
    // is held in a pinned slot and re-derived after every step.
    Rooted Pos(RT.heap(), Box);
    uint64_t Depth = 0;
    Value V = Content;
    while (Pos.get().object()->kind() == ObjectKind::RefProxy) {
      ++Depth;
      const HeapObject *P = Pos.get().object();
      const Type *From = static_cast<const Type *>(P->meta(1));
      const Type *To = static_cast<const Type *>(P->meta(0));
      const std::string *L = static_cast<const std::string *>(P->meta(2));
      V = RT.applyTypeBased(V, From, To, L);
      Pos.set(Pos.get().object()->slot(0));
    }
    RT.stats().noteChain(Depth);
    HeapObject *Base = Pos.get().object();
    Base->slot(0) = V;
    RT.heap().recordWrite(Base, V);
  }

  Value proxyVectorRef(Value Vect, int64_t Index) override {
    std::vector<ProxyView> Chain;
    const HeapObject *Object = Vect.object();
    while (Object->kind() == ObjectKind::RefProxy) {
      Chain.push_back({static_cast<const Type *>(Object->meta(0)),
                       static_cast<const Type *>(Object->meta(1)),
                       static_cast<const std::string *>(Object->meta(2))});
      Object = Object->slots()[0].object();
    }
    RT.stats().noteChain(Chain.size());
    if (Index < 0 || Index >= Object->slotCount())
      RT.trap("vector index out of bounds");
    Value V = Object->slots()[static_cast<uint32_t>(Index)];
    for (size_t I = Chain.size(); I-- > 0;)
      V = RT.applyTypeBased(V, Chain[I].S, Chain[I].T, Chain[I].L);
    return V;
  }

  void proxyVectorSet(Value Vect, int64_t Index, Value Content) override {
    Rooted Pos(RT.heap(), Vect);
    uint64_t Depth = 0;
    Value V = Content;
    while (Pos.get().object()->kind() == ObjectKind::RefProxy) {
      ++Depth;
      const HeapObject *P = Pos.get().object();
      const Type *From = static_cast<const Type *>(P->meta(1));
      const Type *To = static_cast<const Type *>(P->meta(0));
      const std::string *L = static_cast<const std::string *>(P->meta(2));
      V = RT.applyTypeBased(V, From, To, L);
      Pos.set(Pos.get().object()->slot(0));
    }
    RT.stats().noteChain(Depth);
    HeapObject *Base = Pos.get().object();
    if (Index < 0 || Index >= Base->slotCount())
      RT.trap("vector index out of bounds");
    Base->slot(static_cast<uint32_t>(Index)) = V;
    RT.heap().recordWrite(Base, V);
  }
};

//===----------------------------------------------------------------------===//
// Monotonic references
//===----------------------------------------------------------------------===//

/// Functions use coercions (so the proxy-closure protocol and fun-proxy
/// slow paths come from CoercionsBackend); references are never proxied —
/// coerceRef strengthens the cell's runtime type in place, and the Dyn
/// elimination forms read/write against the cell's own RTTI. The proxied
/// reference slow paths inherited from CoercionsBackend are unreachable
/// (no RefProxy is ever allocated in this mode).
class MonotonicBackend : public CoercionsBackend {
public:
  using CoercionsBackend::CoercionsBackend;

  CastMode castMode() const override { return CastMode::Monotonic; }
  bool castsAreCoercions() const override { return false; }

  Value applyCast(Value V, const CastDescriptor &Desc,
                  CoercionCache *) override {
    return RT.applyMonotonic(V, Desc.Src, Desc.Tgt, Desc.Label);
  }

  Value castRuntime(Value V, const Type *S, const Type *T,
                    const std::string *Label, CoercionCache *) override {
    return RT.applyMonotonic(V, S, T, Label);
  }

  Value coerceRef(Value V, const Coercion *C, CoercionCache *) override {
    // Strengthening converts stored values and can run a minor
    // collection; return the pinned (possibly moved) reference.
    Rooted Ref(RT.heap(), V);
    strengthenCell(Ref.get(), C->type()->inner(), C->labelPointer());
    return Ref.get();
  }

  Value dynBoxRead(Value Inner, const Type *, const std::string *Label,
                   CoercionCache *) override {
    // Monotonic cells may be more precise than the DynBox's view type;
    // read against the cell's own runtime type.
    return RT.monoBoxRead(Inner, RT.typeContext().dyn(), Label);
  }

  void dynBoxWrite(Value Inner, Value Content, const Type *,
                   const std::string *Label, CoercionCache *) override {
    RT.monoBoxWrite(Inner, Content, RT.typeContext().dyn(), Label);
  }

  Value dynVectorRef(Value Inner, int64_t Index, const Type *,
                     const std::string *Label, CoercionCache *) override {
    return RT.monoVectorRef(Inner, Index, RT.typeContext().dyn(), Label);
  }

  void dynVectorSet(Value Inner, int64_t Index, Value Content, const Type *,
                    const std::string *Label, CoercionCache *) override {
    RT.monoVectorSet(Inner, Index, Content, RT.typeContext().dyn(), Label);
  }
};

//===----------------------------------------------------------------------===//
// Static — no gradual typing, no runtime casts
//===----------------------------------------------------------------------===//

/// The compiler rejects any program with Dyn in it, so none of these
/// entry points can be reached by a well-compiled static program; the
/// asserts document that contract (release builds fall back to the
/// shared coercion machinery, which is a no-op on identity casts).
class StaticBackend : public CoercionsBackend {
public:
  using CoercionsBackend::CoercionsBackend;

  CastMode castMode() const override { return CastMode::Static; }
  bool castsAreCoercions() const override { return false; }

  Value applyCast(Value V, const CastDescriptor &,
                  CoercionCache *) override {
    assert(false && "cast instruction in a static program");
    return V;
  }

  Value castRuntime(Value V, const Type *S, const Type *T,
                    const std::string *Label, CoercionCache *) override {
    assert(false && "runtime cast in a static program");
    return RT.applyTypeBased(V, S, T, Label);
  }
};

} // namespace

std::unique_ptr<CastBackend> grift::createCastBackend(CastMode Mode,
                                                      Runtime &RT) {
  static_assert(NumCastModes == 5,
                "new cast mode: register its backend in createCastBackend");
  switch (Mode) {
  case CastMode::Coercions:
    return std::make_unique<CoercionsBackend>(RT);
  case CastMode::TypeBased:
    return std::make_unique<TypeBasedBackend>(RT);
  case CastMode::Static:
    return std::make_unique<StaticBackend>(RT);
  case CastMode::Monotonic:
    return std::make_unique<MonotonicBackend>(RT);
  case CastMode::CoercionPassing:
    return std::make_unique<CoercionPassingBackend>(RT);
  }
  assert(false && "invalid cast mode");
  return std::make_unique<CoercionsBackend>(RT);
}
