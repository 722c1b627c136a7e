#include "runtime/Runtime.h"

#include "runtime/CastBackend.h"
#include "support/StringUtil.h"
#include "types/TypeOps.h"

#include <cassert>

using namespace grift;

Runtime::Runtime(TypeContext &Types, CoercionFactory &Coercions,
                 CastMode Mode)
    : Types(Types), Coercions(Coercions), Mode(Mode),
      Backend(createCastBackend(Mode, *this)) {}

Runtime::~Runtime() = default;

//===----------------------------------------------------------------------===//
// Errors
//===----------------------------------------------------------------------===//

void Runtime::blame(const std::string *Label, std::string Message) {
  throw RuntimeError{ErrorKind::Blame, Label ? *Label : "?",
                     std::move(Message)};
}

void Runtime::trap(std::string Message) {
  throw RuntimeError{ErrorKind::Trap, "", std::move(Message)};
}

//===----------------------------------------------------------------------===//
// Dyn introspection
//===----------------------------------------------------------------------===//

const Type *Runtime::runtimeTypeOfSlow(Value V) const {
  // Only a pointer that is not a DynBox gets here. A bare tuple, closure,
  // reference or proxy can reach a Dyn context only through a DynBox, so
  // seeing one is a compiler bug.
  (void)V;
  assert(!V.isPointer() && "untagged pointer value in Dyn context");
  return Types.dyn();
}

Value Runtime::inject(Value V, const Type *S) {
  assert(!S->isDyn() && "cannot inject Dyn");
  // Self-describing representations stay inline (paper: atomic values are
  // stored inline; NaN-boxed floats carry their type in the encoding, so
  // float injection is a no-op and never allocates).
  if (S->isAtomic())
    return V;
  return TheHeap.allocDynBox(V, S);
}

//===----------------------------------------------------------------------===//
// Cast application entry points
//===----------------------------------------------------------------------===//

Value Runtime::applyCast(Value V, const CastDescriptor &Desc,
                         CoercionCache *IC) {
  // Cast-torture hook: under MinorGCTorturePeriod every Nth cast runs a
  // minor collection with V pinned, so the backend below sees a value
  // that just survived an evacuation.
  TheHeap.maybeCastTortureMinor(V);
  if (atomicCastShape(V, Desc.Src, Desc.Tgt)) {
    ++Stats.CastsApplied;
    return V;
  }
  return Backend->applyCast(V, Desc, IC);
}

Value Runtime::applyMonotonic(Value V, const Type *S, const Type *T,
                              const std::string *Label) {
  ++Stats.CastsApplied;
  return castMono(V, S, T, Label);
}

Value Runtime::applyTypeBased(Value V, const Type *S, const Type *T,
                              const std::string *Label) {
  ++Stats.CastsApplied;
  return castTB(V, S, T, Label);
}

Value Runtime::castRuntime(Value V, const Type *S, const Type *T,
                           const std::string *Label, CoercionCache *IC) {
  TheHeap.maybeCastTortureMinor(V);
  if (S == T || atomicCastShape(V, S, T)) {
    ++Stats.CastsApplied;
    return V;
  }
  return Backend->castRuntime(V, S, T, Label, IC);
}

Value Runtime::castRuntimeMiss(Value V, const Type *S, const Type *T,
                               const std::string *Label, CoercionCache *IC) {
  // No cast-torture step: coerceRuntime's callers have taken theirs.
  return Backend->castRuntime(V, S, T, Label, IC);
}

const Coercion *Runtime::internedCoercion(const Type *S, const Type *T,
                                          const std::string *Label,
                                          CoercionCache *IC) {
  return cachedCoercion(IC ? *IC : DynCastIC, S, T, Label,
                        [&] { return Coercions.makeInterned(S, T, Label); });
}

const Coercion *Runtime::composeForReturn(const Coercion *First,
                                          const Coercion *Second) {
  ++Stats.Compositions;
  return cachedCoercion(RetComposeIC, First, Second, nullptr,
                        [&] { return Coercions.compose(First, Second); });
}

//===----------------------------------------------------------------------===//
// coerce — paper Figure 6
//===----------------------------------------------------------------------===//

// GC note: coerce does not root V up front. Every allocating branch roots
// the values it still needs across its own allocations (alloc* helpers
// root their value arguments; the tuple branch keeps explicit roots), so
// a blanket root would only add overhead to the hot Id/Project paths.
Value Runtime::coerce(Value V, const Coercion *C, CoercionCache *IC) {
  switch (C->kind()) {
  case CoercionKind::Id:
    return V;

  case CoercionKind::Sequence:
    return coerce(coerce(V, C->first(), IC), C->second(), IC);

  case CoercionKind::Project: {
    // Build the coercion from the value's runtime type to the target and
    // apply it to the untagged value (lazy-D). The exact-match fast path
    // (types are interned, so equality is pointer equality) covers the
    // overwhelmingly common case of a projection that succeeds outright
    // and is not a cache probe — only the mismatch path consults the
    // inline cache before falling back to the ProjectCache hash.
    const Type *S = runtimeTypeOf(V);
    if (S == C->type())
      return dynUnwrap(V);
    const Coercion *C2 =
        cachedCoercion(IC ? *IC : ProjectIC, C, S, nullptr,
                       [&] { return Coercions.makeForProjection(C, S); });
    return coerce(dynUnwrap(V), C2, IC);
  }

  case CoercionKind::Inject:
    return inject(V, C->type());

  case CoercionKind::Fail:
    blame(&C->label(),
          "the value " + valueToString(V, 3) + " does not have the type "
          "promised at this cast");

  case CoercionKind::Fun: {
    if (V.isProxy()) {
      // Already-proxied function: compose so that there is only ever one
      // proxy — this is what maintains space efficiency.
      HeapObject *P = V.object();
      assert(P->kind() == ObjectKind::ProxyClosure && "expected fun proxy");
      const Coercion *Old = static_cast<const Coercion *>(P->meta(0));
      const Coercion *New =
          cachedCoercion(IC ? *IC : FunComposeIC, Old, C, nullptr,
                         [&] { return Coercions.compose(Old, C); });
      ++Stats.Compositions;
      Value Wrapped = P->slot(0);
      if (New->isId())
        return Wrapped; // the conversions cancelled; drop the proxy
      ++Stats.ProxiesAllocated;
      return TheHeap.allocProxyClosure(Wrapped, New, nullptr, nullptr);
    }
    assert(V.isHeap() && V.object()->kind() == ObjectKind::Closure &&
           "function coercion applied to non-function");
    ++Stats.ProxiesAllocated;
    return TheHeap.allocProxyClosure(V, C, nullptr, nullptr);
  }

  case CoercionKind::RefC:
    // What a reference coercion does is the backend's call: proxy
    // composition (space-efficient, at most one proxy) or monotonic
    // in-place strengthening.
    return Backend->coerceRef(V, C, IC);

  case CoercionKind::TupleC: {
    assert(V.isHeap() && V.object()->kind() == ObjectKind::Tuple &&
           "tuple coercion applied to non-tuple");
    uint32_t Size = V.object()->slotCount();
    assert(Size == C->tupleSize() && "tuple coercion arity mismatch");
    Rooted Src(TheHeap, V);
    Value Fresh = TheHeap.allocTuple(Size);
    Rooted Dst(TheHeap, Fresh);
    for (uint32_t I = 0; I != Size; ++I) {
      Value Element = coerce(Src.get().object()->slot(I), C->element(I));
      // The element coercion may have triggered a minor collection that
      // promoted Dst while Element is still young.
      Dst.get().object()->slot(I) = Element;
      TheHeap.recordWrite(Dst.get(), Element);
    }
    return Dst.get();
  }

  case CoercionKind::Rec:
    return coerce(V, C->body());
  }
  return V;
}

//===----------------------------------------------------------------------===//
// Type-based casts — the traditional baseline
//===----------------------------------------------------------------------===//

Value Runtime::castTB(Value V, const Type *S, const Type *T,
                      const std::string *Label) {
  if (S == T)
    return V;
  if (T->isDyn())
    return inject(V, S);
  if (S->isDyn()) {
    const Type *S2 = runtimeTypeOf(V);
    if (!consistent(Types, S2, T))
      blame(Label, "cannot cast " + S2->str() + " to " + T->str());
    return castTB(dynUnwrap(V), S2, T, Label);
  }
  if (S->isRec())
    return castTB(V, Types.unfold(S), T, Label);
  if (T->isRec())
    return castTB(V, S, Types.unfold(T), Label);
  if (!consistent(Types, S, T))
    blame(Label, "cannot cast " + S->str() + " to " + T->str());

  switch (S->kind()) {
  case TypeKind::Function:
    // Proxies stack: this is the unbounded-space behaviour the paper's
    // coercions eliminate.
    ++Stats.ProxiesAllocated;
    return TheHeap.allocProxyClosure(V, S, T, Label);
  case TypeKind::Box:
  case TypeKind::Vect:
    ++Stats.ProxiesAllocated;
    return TheHeap.allocRefProxy(V, S->inner(), T->inner(), Label);
  case TypeKind::Tuple: {
    assert(V.isHeap() && V.object()->kind() == ObjectKind::Tuple &&
           "tuple cast applied to non-tuple");
    uint32_t Size = V.object()->slotCount();
    Rooted Src(TheHeap, V);
    Value Fresh = TheHeap.allocTuple(Size);
    Rooted Dst(TheHeap, Fresh);
    for (uint32_t I = 0; I != Size; ++I) {
      Value Element = castTB(Src.get().object()->slot(I), S->element(I),
                             T->element(I), Label);
      Dst.get().object()->slot(I) = Element;
      TheHeap.recordWrite(Dst.get(), Element);
    }
    return Dst.get();
  }
  default:
    // Consistent atomic types are equal, which was handled above.
    assert(false && "castTB: unexpected type kind");
    blame(Label, "impossible cast");
  }
}

//===----------------------------------------------------------------------===//
// Monotonic references
//===----------------------------------------------------------------------===//

Value Runtime::castMono(Value V, const Type *S, const Type *T,
                        const std::string *Label) {
  if (S == T)
    return V;
  if (T->isDyn())
    return inject(V, S);
  if (S->isDyn()) {
    const Type *S2 = runtimeTypeOf(V);
    if (!consistent(Types, S2, T))
      blame(Label, "cannot cast " + S2->str() + " to " + T->str());
    return castMono(dynUnwrap(V), S2, T, Label);
  }
  if (S->isRec())
    return castMono(V, Types.unfold(S), T, Label);
  if (T->isRec())
    return castMono(V, S, Types.unfold(T), Label);
  if (!consistent(Types, S, T))
    blame(Label, "cannot cast " + S->str() + " to " + T->str());

  switch (S->kind()) {
  case TypeKind::Function: {
    // Functions still use space-efficient coercions; their reference
    // components are interpreted monotonically when applied (see the
    // RefC branch of coerce).
    const Coercion *C =
        cachedCoercion(DynCastIC, S, T, Label,
                       [&] { return Coercions.makeInterned(S, T, Label); });
    if (C->isId())
      return V;
    return coerce(V, C);
  }
  case TypeKind::Box:
  case TypeKind::Vect: {
    // The monotonic step: no proxy, stronger cell type. Strengthening
    // converts the stored values, which can allocate and run a minor
    // collection, so the cell is pinned and re-derived rather than held
    // as a raw pointer.
    Rooted Ref(TheHeap, V);
    strengthenCell(Ref.get().object(), T->inner(), Label);
    return Ref.get();
  }
  case TypeKind::Tuple: {
    uint32_t Size = V.object()->slotCount();
    Rooted Src(TheHeap, V);
    Value Fresh = TheHeap.allocTuple(Size);
    Rooted Dst(TheHeap, Fresh);
    for (uint32_t I = 0; I != Size; ++I) {
      Value Element = castMono(Src.get().object()->slot(I), S->element(I),
                               T->element(I), Label);
      Dst.get().object()->slot(I) = Element;
      TheHeap.recordWrite(Dst.get(), Element);
    }
    return Dst.get();
  }
  default:
    assert(false && "castMono: unexpected type kind");
    blame(Label, "impossible cast");
  }
}

void Runtime::strengthenCell(HeapObject *Cell, const Type *TargetElem,
                             const std::string *Label) {
  assert((Cell->kind() == ObjectKind::Box ||
          Cell->kind() == ObjectKind::Vector) &&
         "monotonic cast of a non-reference");
  const Type *M = static_cast<const Type *>(Cell->meta(0));
  assert(M && "monotonic cell without runtime type information");
  const Type *M2 = meet(Types, M, TargetElem);
  if (!M2)
    blame(Label, "a reference holding " + M->str() +
                     " cannot be viewed at " + TargetElem->str());
  if (M2 == M)
    return;
  // Guard against cycles through self-referential structures: updating
  // the RTTI before converting makes re-entrant strengthening with the
  // same target a no-op; the explicit stack catches deeper cycles. The
  // identity Value is pinned as a temp root, so when a mid-strengthen
  // minor collection promotes the cell both this frame's view and every
  // stacked cycle entry follow the move.
  Value CellVal = Value::fromHeap(Cell);
  for (const auto &Entry : Strengthening)
    if (Entry.first->object() == Cell && Entry.second == M2)
      return;
  TheHeap.pushTempRoot(&CellVal);
  Strengthening.push_back({&CellVal, M2});
  // Slot conversion can blame; unwind must still unpin the cell and pop
  // the cycle entry so the runtime stays usable after a caught error.
  struct Scope {
    Heap &H;
    std::vector<std::pair<const Value *, const Type *>> &S;
    ~Scope() {
      S.pop_back();
      H.popTempRoot();
    }
  } Unpin{TheHeap, Strengthening};
  CellVal.object()->setMeta(0, M2);
  for (uint32_t I = 0; I != CellVal.object()->slotCount(); ++I) {
    Value Converted = castMono(CellVal.object()->slot(I), M, M2, Label);
    HeapObject *Current = CellVal.object(); // re-derive: cell may have moved
    Current->slot(I) = Converted;
    TheHeap.recordWrite(Current, Converted);
  }
}

Value Runtime::monoBoxRead(Value Box, const Type *ViewElem,
                           const std::string *Label) {
  HeapObject *Cell = Box.object();
  Value V = Cell->slot(0);
  const Type *M = static_cast<const Type *>(Cell->meta(0));
  if (M == ViewElem)
    return V;
  // The cell is at least as precise as any view; convert outward.
  return castRuntime(V, M, ViewElem, Label);
}

void Runtime::monoBoxWrite(Value Box, Value Content, const Type *ViewElem,
                           const std::string *Label) {
  const Type *M = static_cast<const Type *>(Box.object()->meta(0));
  if (M != ViewElem) {
    // The inward conversion may allocate (and so move the cell); pin the
    // box and re-derive the raw pointer after.
    Rooted Cell(TheHeap, Box);
    Content = castRuntime(Content, ViewElem, M, Label); // may blame
    Box = Cell.get();
  }
  HeapObject *Object = Box.object();
  Object->slot(0) = Content;
  TheHeap.recordWrite(Object, Content);
}

Value Runtime::monoVectorRef(Value Vect, int64_t Index, const Type *ViewElem,
                             const std::string *Label) {
  HeapObject *Cell = Vect.object();
  if (Index < 0 || Index >= Cell->slotCount())
    trap("vector index " + std::to_string(Index) + " out of bounds");
  Value V = Cell->slot(static_cast<uint32_t>(Index));
  const Type *M = static_cast<const Type *>(Cell->meta(0));
  if (M == ViewElem)
    return V;
  return castRuntime(V, M, ViewElem, Label);
}

void Runtime::monoVectorSet(Value Vect, int64_t Index, Value Content,
                            const Type *ViewElem, const std::string *Label) {
  if (Index < 0 || Index >= Vect.object()->slotCount())
    trap("vector index " + std::to_string(Index) + " out of bounds");
  const Type *M = static_cast<const Type *>(Vect.object()->meta(0));
  if (M != ViewElem) {
    Rooted Cell(TheHeap, Vect);
    Content = castRuntime(Content, ViewElem, M, Label);
    Vect = Cell.get();
  }
  HeapObject *Object = Vect.object();
  Object->slot(static_cast<uint32_t>(Index)) = Content;
  TheHeap.recordWrite(Object, Content);
}

//===----------------------------------------------------------------------===//
// Proxy-aware reference operations
//===----------------------------------------------------------------------===//

HeapObject *Runtime::underlyingRef(Value Ref) const {
  HeapObject *Object = Ref.object();
  while (Object->kind() == ObjectKind::RefProxy)
    Object = Object->slot(0).object();
  return Object;
}

Value Runtime::boxReadProxied(Value Box) {
  return Backend->proxyBoxRead(Box);
}

void Runtime::boxWriteProxied(Value Box, Value Content) {
  Backend->proxyBoxWrite(Box, Content);
}

// The inline vectorRef/vectorSet come here for a proxied vector, or for
// an out-of-bounds index into a bare one.

static std::string outOfBounds(int64_t Index, const HeapObject *Vect) {
  return "vector index " + std::to_string(Index) + " out of bounds for " +
         "length " + std::to_string(Vect->slotCount());
}

Value Runtime::vectorRefSlow(Value Vect, int64_t Index) {
  if (!Vect.isProxy())
    trap(outOfBounds(Index, Vect.object()));
  return Backend->proxyVectorRef(Vect, Index);
}

void Runtime::vectorSetSlow(Value Vect, int64_t Index, Value Content) {
  if (!Vect.isProxy())
    trap(outOfBounds(Index, Vect.object()));
  Backend->proxyVectorSet(Vect, Index, Content);
}

int64_t Runtime::vectorLength(Value Vect) {
  if (!Vect.isProxy())
    return Vect.object()->slotCount();
  uint64_t Depth = 0;
  const HeapObject *Object = Vect.object();
  while (Object->kind() == ObjectKind::RefProxy) {
    ++Depth;
    Object = Object->slots()[0].object();
  }
  Stats.noteChain(Depth);
  return Object->slotCount();
}

unsigned Runtime::proxyDepth(Value Callee) {
  unsigned Depth = 0;
  while (Callee.isProxy() &&
         Callee.object()->kind() == ObjectKind::ProxyClosure) {
    ++Depth;
    Callee = Callee.object()->slot(0);
  }
  return Depth;
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

std::string Runtime::valueToString(Value V, unsigned Depth) {
  if (Depth == 0)
    return "...";
  if (V.isFloat())
    return formatDouble(V.asFloat());
  switch (V.tag()) {
  case ValueTag::Fixnum:
    return std::to_string(V.asFixnum());
  case ValueTag::Imm:
    switch (V.immKind()) {
    case ImmKind::Unit:
      return "()";
    case ImmKind::False:
      return "#f";
    case ImmKind::True:
      return "#t";
    case ImmKind::Char:
      return std::string("#\\") + V.asChar();
    }
    return "()";
  case ValueTag::Heap: {
    // Nested prints can allocate (reading a proxied element applies its
    // conversion); pin the object and re-derive it each iteration.
    Rooted Self(TheHeap, V);
    switch (Self.get().object()->kind()) {
    case ObjectKind::Tuple: {
      std::string Out = "#(";
      for (uint32_t I = 0; I != Self.get().object()->slotCount(); ++I) {
        if (I != 0)
          Out += ' ';
        Out += valueToString(Self.get().object()->slot(I), Depth - 1);
      }
      return Out + ")";
    }
    case ObjectKind::Box:
      return "#&" + valueToString(boxRead(Self.get()), Depth - 1);
    case ObjectKind::Vector: {
      std::string Out = "#vec(";
      uint32_t Limit = std::min<uint32_t>(Self.get().object()->slotCount(), 8);
      for (uint32_t I = 0; I != Limit; ++I) {
        if (I != 0)
          Out += ' ';
        Out += valueToString(Self.get().object()->slot(I), Depth - 1);
      }
      if (Self.get().object()->slotCount() > Limit)
        Out += " ...";
      return Out + ")";
    }
    case ObjectKind::Closure:
      return "#<procedure>";
    case ObjectKind::DynBox:
      return valueToString(Self.get().object()->slot(0), Depth);
    default:
      return "#<object>";
    }
  }
  case ValueTag::Proxy: {
    if (V.object()->kind() == ObjectKind::ProxyClosure)
      return "#<procedure>";
    // Proxied reference: render through the proxy so every cast mode
    // prints the same contents. Reading through the proxy applies its
    // conversions, which can allocate — keep the proxy pinned.
    Rooted Self(TheHeap, V);
    if (underlyingRef(Self.get())->kind() == ObjectKind::Box)
      return "#&" + valueToString(boxRead(Self.get()), Depth - 1);
    std::string Out = "#vec(";
    int64_t Length = vectorLength(Self.get());
    int64_t Limit = std::min<int64_t>(Length, 8);
    for (int64_t I = 0; I != Limit; ++I) {
      if (I != 0)
        Out += ' ';
      Out += valueToString(vectorRef(Self.get(), I), Depth - 1);
    }
    if (Length > Limit)
      Out += " ...";
    return Out + ")";
  }
  }
  return "?";
}
