#include "coercions/CoercionFactory.h"

#include "support/StringUtil.h"
#include "types/TypeOps.h"

#include <cassert>

using namespace grift;

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

size_t CoercionFactory::KeyHash::operator()(const Key &K) const {
  uint64_t Hash = hashCombine(static_cast<uint64_t>(K.Kind),
                              reinterpret_cast<uintptr_t>(K.Ty));
  Hash = hashCombine(Hash, reinterpret_cast<uintptr_t>(K.Label));
  for (const Coercion *Part : K.Parts)
    Hash = hashCombine(Hash, reinterpret_cast<uintptr_t>(Part));
  return static_cast<size_t>(Hash);
}

size_t CoercionFactory::TripleHash::operator()(const TripleKey &K) const {
  uint64_t Hash = hashCombine(reinterpret_cast<uintptr_t>(K.S),
                              reinterpret_cast<uintptr_t>(K.T));
  return static_cast<size_t>(
      hashCombine(Hash, reinterpret_cast<uintptr_t>(K.Label)));
}

size_t CoercionFactory::PairHash::operator()(const PairKey &K) const {
  return static_cast<size_t>(hashCombine(
      reinterpret_cast<uintptr_t>(K.C), reinterpret_cast<uintptr_t>(K.D)));
}

//===----------------------------------------------------------------------===//
// Allocation and interning
//===----------------------------------------------------------------------===//

CoercionFactory::CoercionFactory(TypeContext &Types) : Types(Types) {
  IdC = intern(CoercionKind::Id, nullptr, nullptr, {});
}

void CoercionFactory::reset() {
  Arena.clear();
  Labels.clear();
  Interner.clear();
  MakeCache.clear();
  ComposeCache.clear();
  ProjectCache.clear();
  IdC = intern(CoercionKind::Id, nullptr, nullptr, {});
}

Coercion *CoercionFactory::allocate() {
  return &Arena.emplace_back(Coercion());
}

const std::string *CoercionFactory::internLabel(std::string_view Label) {
  auto It = Labels.find(Label);
  if (It == Labels.end())
    It = Labels.emplace(Label).first;
  return &*It;
}

const Coercion *CoercionFactory::intern(CoercionKind Kind, const Type *Ty,
                                        const std::string *Label,
                                        std::vector<const Coercion *> Parts) {
  auto It = Interner.find(Key{Kind, Ty, Label, Parts});
  if (It != Interner.end())
    return *It;
  Coercion *C = allocate();
  C->Kind = Kind;
  C->Ty = Ty;
  C->Label = Label;
  C->Parts = std::move(Parts);
  C->HasRec = Kind == CoercionKind::Rec;
  for (const Coercion *Part : C->Parts)
    C->HasRec |= Part->hasRec();
  setApplyShape(C);
  Interner.insert(C);
  return C;
}

void CoercionFactory::setApplyShape(Coercion *C) {
  auto AtomicInject = [](const Coercion *D) {
    return D->kind() == CoercionKind::Inject && D->type()->isAtomic();
  };
  switch (C->Kind) {
  case CoercionKind::Id:
    C->Shape = ApplyShape::Identity;
    return;
  case CoercionKind::Inject:
    if (AtomicInject(C))
      C->Shape = ApplyShape::Identity;
    return;
  case CoercionKind::Project:
    C->Shape = ApplyShape::Project;
    C->ShapeTy = C->Ty;
    return;
  case CoercionKind::Sequence:
    if (C->first()->isId() && AtomicInject(C->second())) {
      C->Shape = ApplyShape::Identity; // (ι ; G!)
    } else if (C->first()->kind() == CoercionKind::Project &&
               C->second()->isId()) {
      C->Shape = ApplyShape::Project; // (T?ᵖ ; ι)
      C->ShapeTy = C->first()->type();
    }
    return;
  default:
    return;
  }
}

const Coercion *CoercionFactory::fail(std::string_view Label) {
  return fail(internLabel(Label));
}

const Coercion *CoercionFactory::fail(const std::string *Label) {
  return intern(CoercionKind::Fail, nullptr, Label, {});
}

const Coercion *CoercionFactory::inject(const Type *T) {
  assert(!T->isDyn() && "cannot inject Dyn into Dyn");
  return intern(CoercionKind::Inject, T, nullptr, {});
}

const Coercion *CoercionFactory::project(const Type *T,
                                         std::string_view Label) {
  return project(T, internLabel(Label));
}

const Coercion *CoercionFactory::project(const Type *T,
                                         const std::string *Label) {
  assert(!T->isDyn() && "cannot project to Dyn");
  return intern(CoercionKind::Project, T, Label, {});
}

const Coercion *CoercionFactory::sequence(const Coercion *First,
                                          const Coercion *Second) {
  assert((First->kind() == CoercionKind::Project ||
          Second->kind() == CoercionKind::Inject) &&
         "sequence must be (I? ; i) or (g ; I!)");
  return intern(CoercionKind::Sequence, nullptr, nullptr, {First, Second});
}

const Coercion *
CoercionFactory::fun(std::vector<const Coercion *> ArgsAndRet) {
  for (const Coercion *Part : ArgsAndRet)
    if (!Part->isId())
      return intern(CoercionKind::Fun, nullptr, nullptr,
                    std::move(ArgsAndRet));
  return IdC; // identity on every argument and the result
}

const Coercion *CoercionFactory::refc(const Coercion *Write,
                                      const Coercion *Read,
                                      const Type *Target,
                                      const std::string *Label) {
  if (Write->isId() && Read->isId())
    return IdC;
  return intern(CoercionKind::RefC, Target, Label, {Write, Read});
}

const Coercion *CoercionFactory::tup(std::vector<const Coercion *> Elements) {
  for (const Coercion *Part : Elements)
    if (!Part->isId())
      return intern(CoercionKind::TupleC, nullptr, nullptr,
                    std::move(Elements));
  return IdC;
}

Coercion *CoercionFactory::newRec() {
  Coercion *Mu = allocate();
  Mu->Kind = CoercionKind::Rec;
  Mu->HasRec = true;
  return Mu;
}

void CoercionFactory::sealRec(Coercion *Mu, const Coercion *Body) {
  assert(Mu->Kind == CoercionKind::Rec && Mu->Parts.empty() &&
         "μ coercion sealed twice");
  Mu->Parts.push_back(Body);
}

//===----------------------------------------------------------------------===//
// Store-deserialization hooks
//===----------------------------------------------------------------------===//

const Coercion *
CoercionFactory::buildForLoad(CoercionKind Kind, const Type *Ty,
                              const std::string *Label,
                              const std::vector<const Coercion *> &Parts,
                              std::string &Error) {
  auto Reject = [&](const char *Why) -> const Coercion * {
    Error = Why;
    return nullptr;
  };
  for (const Coercion *Part : Parts)
    if (!Part)
      return Reject("null part");
  switch (Kind) {
  case CoercionKind::Id:
    if (Ty || Label || !Parts.empty())
      return Reject("malformed ι node");
    return IdC;
  case CoercionKind::Fail:
    if (Ty || !Label || !Parts.empty())
      return Reject("malformed ⊥ node");
    return intern(CoercionKind::Fail, nullptr, Label, {});
  case CoercionKind::Inject:
    if (!Ty || Ty->isDyn() || Label || !Parts.empty())
      return Reject("malformed injection");
    return intern(CoercionKind::Inject, Ty, nullptr, {});
  case CoercionKind::Project:
    if (!Ty || Ty->isDyn() || !Label || !Parts.empty())
      return Reject("malformed projection");
    return intern(CoercionKind::Project, Ty, Label, {});
  case CoercionKind::Sequence: {
    if (Ty || Label || Parts.size() != 2)
      return Reject("malformed sequence");
    const Coercion *First = Parts[0], *Second = Parts[1];
    // Normal form admits exactly (I?ᵖ ; i) and (g ; I!).
    bool ProjectSeq = First->kind() == CoercionKind::Project &&
                      (Second->isMiddle() || Second->isFail() ||
                       Second->isInjectSeq());
    bool InjectSeq =
        Second->kind() == CoercionKind::Inject && First->isMiddle();
    if (!ProjectSeq && !InjectSeq)
      return Reject("sequence outside the normal-form grammar");
    return sequence(First, Second);
  }
  case CoercionKind::Fun:
    if (Ty || Label || Parts.empty())
      return Reject("malformed function coercion");
    return fun(Parts);
  case CoercionKind::RefC:
    if (!Ty || !Ty->isRefLike() || !Label || Parts.size() != 2)
      return Reject("malformed reference coercion");
    return refc(Parts[0], Parts[1], Ty, Label);
  case CoercionKind::TupleC:
    if (Ty || Label || Parts.empty())
      return Reject("malformed tuple coercion");
    return tup(Parts);
  case CoercionKind::Rec:
    return Reject("μ nodes load through newRecForLoad/sealRecForLoad");
  }
  return Reject("unknown coercion kind");
}

bool CoercionFactory::sealRecForLoad(Coercion *Mu, const Coercion *Body) {
  if (!Mu || Mu->Kind != CoercionKind::Rec || !Mu->Parts.empty() || !Body)
    return false;
  Mu->Parts.push_back(Body);
  return true;
}

void CoercionFactory::seedMakeCache(const Type *S, const Type *T,
                                    const std::string *Label,
                                    const Coercion *C) {
  MakeCache.emplace(TripleKey{S, T, Label}, C);
}

//===----------------------------------------------------------------------===//
// Coercion creation: (S ⇒ᵖ T) of Figure 17
//===----------------------------------------------------------------------===//

const Coercion *CoercionFactory::make(const Type *S, const Type *T,
                                      std::string_view Label) {
  return makeInterned(S, T, internLabel(Label));
}

const Coercion *CoercionFactory::makeInterned(const Type *S, const Type *T,
                                              const std::string *L) {
  TripleKey K{S, T, L};
  auto It = MakeCache.find(K);
  if (It != MakeCache.end())
    return It->second;
  std::vector<MakeFrame> Stack;
  const Coercion *C = makeImpl(S, T, L, Stack);
  MakeCache.emplace(K, C);
  return C;
}

const Coercion *CoercionFactory::makeForProjection(const Coercion *Projection,
                                                   const Type *Source) {
  assert(Projection->kind() == CoercionKind::Project);
  PairKey K{Projection, Source};
  auto It = ProjectCache.find(K);
  if (It != ProjectCache.end())
    return It->second;
  const Coercion *C =
      makeInterned(Source, Projection->type(), Projection->labelPointer());
  ProjectCache.emplace(K, C);
  return C;
}

const Coercion *CoercionFactory::makeImpl(const Type *S, const Type *T,
                                          const std::string *Label,
                                          std::vector<MakeFrame> &Stack) {
  if (S == T)
    return IdC; // covers (B ⇒ B), (Dyn ⇒ Dyn), identical structures
  if (S->isDyn())
    return sequence(project(T, Label), IdC); // (T?ᵖ ; ι)
  if (T->isDyn())
    return sequence(IdC, inject(S)); // (ι ; S!) — lazy-D: any S injects
  if (!consistent(Types, S, T))
    return fail(Label);

  if (S->isRec() || T->isRec()) {
    // Tie recursive knots: a revisited (S, T) pair becomes a back edge to
    // a μ node allocated on demand.
    for (size_t I = Stack.size(); I-- > 0;) {
      if (Stack[I].S == S && Stack[I].T == T) {
        if (!Stack[I].Mu)
          Stack[I].Mu = newRec();
        return Stack[I].Mu;
      }
    }
    Stack.push_back({S, T, nullptr});
    const Type *SU = S->isRec() ? Types.unfold(S) : S;
    const Type *TU = T->isRec() ? Types.unfold(T) : T;
    const Coercion *Body = makeImpl(SU, TU, Label, Stack);
    MakeFrame Frame = Stack.back();
    Stack.pop_back();
    if (!Frame.Mu)
      return Body; // no back edge was needed
    sealRec(Frame.Mu, Body);
    return Frame.Mu;
  }

  assert(S->kind() == T->kind() && "consistency guarantees matching kinds");
  switch (S->kind()) {
  case TypeKind::Function: {
    assert(S->arity() == T->arity() && "consistency guarantees equal arity");
    std::vector<const Coercion *> Parts;
    Parts.reserve(S->arity() + 1);
    for (size_t I = 0; I != S->arity(); ++I)
      Parts.push_back(makeSub(T->param(I), S->param(I), Label, Stack));
    Parts.push_back(makeSub(S->result(), T->result(), Label, Stack));
    return fun(std::move(Parts));
  }
  case TypeKind::Tuple: {
    std::vector<const Coercion *> Parts;
    Parts.reserve(S->tupleSize());
    for (size_t I = 0; I != S->tupleSize(); ++I)
      Parts.push_back(makeSub(S->element(I), T->element(I), Label, Stack));
    return tup(std::move(Parts));
  }
  case TypeKind::Box:
  case TypeKind::Vect: {
    const Coercion *Write = makeSub(T->inner(), S->inner(), Label, Stack);
    const Coercion *Read = makeSub(S->inner(), T->inner(), Label, Stack);
    return refc(Write, Read, T, Label);
  }
  default:
    // Equal atomic kinds were caught by pointer equality above.
    assert(false && "makeImpl: unexpected type kind");
    return fail(Label);
  }
}

const Coercion *CoercionFactory::makeSub(const Type *S, const Type *T,
                                         const std::string *Label,
                                         std::vector<MakeFrame> &Stack) {
  // Inside a μ derivation the subpair may close over an outer frame, so
  // it must share the association stack; see makeImpl's Rec case.
  if (Stack.empty())
    return makeInterned(S, T, Label);
  return makeImpl(S, T, Label, Stack);
}

//===----------------------------------------------------------------------===//
// Space-efficient composition: c ⨟ d of Figures 15 and 17
//===----------------------------------------------------------------------===//

namespace grift {

/// One composition run. Holds the association stack used to tie recursive
/// knots and the free-variable count used to collapse identity-equivalent
/// recursive compositions back to ι (paper Figure 15).
class Composer {
public:
  explicit Composer(CoercionFactory &F) : F(F) {}

  const Coercion *run(const Coercion *C, const Coercion *D) {
    bool IdEqv = true;
    return compose(C, D, IdEqv);
  }

private:
  CoercionFactory &F;
  struct Entry {
    const Coercion *C;
    const Coercion *D;
    Coercion *Mu; // allocated lazily when a back edge appears
  };
  std::vector<Entry> Stack;
  int FreeVars = 0;

  /// \p IdEqv is an accumulator: it stays true only while the result is
  /// identity-equivalent under the assumption that μ back-references
  /// created by this run denote identity.
  const Coercion *compose(const Coercion *C, const Coercion *D, bool &IdEqv) {
    // Identity short-circuits.
    if (C->isId() && D->isId())
      return F.id();
    if (C->isId()) {
      IdEqv = false;
      return D;
    }
    if (D->isId()) {
      IdEqv = false;
      return C;
    }

    // Memoized μ-free pairs (pure, stack-independent).
    bool Cacheable = !C->hasRec() && !D->hasRec();
    if (Cacheable) {
      auto It = F.ComposeCache.find({C, D});
      if (It != F.ComposeCache.end()) {
        if (!It->second->isId())
          IdEqv = false;
        return It->second;
      }
    }

    const Coercion *Result = composeUncached(C, D, IdEqv);
    if (Cacheable)
      F.ComposeCache.emplace(CoercionFactory::PairKey{C, D}, Result);
    return Result;
  }

  const Coercion *composeUncached(const Coercion *C, const Coercion *D,
                                  bool &IdEqv) {
    // ⊥ᵖ ⨟ d = ⊥ᵖ
    if (C->isFail()) {
      IdEqv = false;
      return C;
    }
    // (I?ᵖ ; i) ⨟ d = (I?ᵖ ; (i ⨟ d))
    if (C->isProjectSeq()) {
      IdEqv = false;
      bool Unused = true;
      return F.sequence(C->first(), compose(C->second(), D, Unused));
    }
    // (g ; I!) ⨟ ...
    if (C->isInjectSeq()) {
      if (D->isFail()) {
        IdEqv = false;
        return D;
      }
      assert(D->isProjectSeq() &&
             "coercion from Dyn must be ι, ⊥, or start with a projection");
      // (g ; I!) ⨟ (J?ᵠ ; i) = g ⨟ (I ⇒ᵠ J) ⨟ i — this is where long
      // chains collapse: the injection meets the projection and both
      // disappear into a direct coercion.
      const Type *I = C->second()->type();
      const Type *J = D->first()->type();
      const Coercion *Mid =
          F.makeInterned(I, J, D->first()->labelPointer());
      const Coercion *Left = compose(C->first(), Mid, IdEqv);
      return compose(Left, D->second(), IdEqv);
    }

    assert(C->isMiddle() && "normal form exhausted");
    if (D->isFail()) {
      IdEqv = false;
      return D;
    }
    // g ⨟ (h ; J!) = ((g ⨟ h) ; J!)
    if (D->isInjectSeq()) {
      IdEqv = false;
      bool Unused = true;
      const Coercion *Left = compose(C, D->first(), Unused);
      if (Left->isFail())
        return Left;
      return F.sequence(Left, D->second());
    }
    assert(D->isMiddle() &&
           "projection sequence cannot follow a non-Dyn-targeted coercion");

    // Recursive coercions: tie the knot with the association stack.
    if (C->kind() == CoercionKind::Rec || D->kind() == CoercionKind::Rec)
      return composeRec(C, D, IdEqv);

    switch (C->kind()) {
    case CoercionKind::Fun: {
      assert(D->kind() == CoercionKind::Fun && C->arity() == D->arity() &&
             "function coercions compose with function coercions");
      std::vector<const Coercion *> Parts;
      Parts.reserve(C->arity() + 1);
      for (size_t I = 0; I != C->arity(); ++I)
        Parts.push_back(compose(D->arg(I), C->arg(I), IdEqv));
      Parts.push_back(compose(C->result(), D->result(), IdEqv));
      return F.fun(std::move(Parts));
    }
    case CoercionKind::RefC: {
      assert(D->kind() == CoercionKind::RefC);
      const Coercion *Read = compose(C->readCoercion(), D->readCoercion(),
                                     IdEqv);
      const Coercion *Write = compose(D->writeCoercion(), C->writeCoercion(),
                                      IdEqv);
      // The composite converts to D's target view; blame the newer cast.
      return F.refc(Write, Read, D->type(), D->labelPointer());
    }
    case CoercionKind::TupleC: {
      assert(D->kind() == CoercionKind::TupleC &&
             C->tupleSize() == D->tupleSize());
      std::vector<const Coercion *> Parts;
      Parts.reserve(C->tupleSize());
      for (size_t I = 0; I != C->tupleSize(); ++I)
        Parts.push_back(compose(C->element(I), D->element(I), IdEqv));
      return F.tup(std::move(Parts));
    }
    default:
      assert(false && "composeUncached: impossible middle kind");
      return F.id();
    }
  }

  const Coercion *composeRec(const Coercion *C, const Coercion *D,
                             bool &IdEqv) {
    for (size_t I = Stack.size(); I-- > 0;) {
      if (Stack[I].C == C && Stack[I].D == D) {
        if (!Stack[I].Mu) {
          Stack[I].Mu = F.newRec();
          ++FreeVars;
        }
        return Stack[I].Mu; // a maybe-identity back edge: IdEqv unchanged
      }
    }
    Stack.push_back({C, D, nullptr});
    bool NewIdEqv = true;
    const Coercion *CU = C->kind() == CoercionKind::Rec ? C->body() : C;
    const Coercion *DU = D->kind() == CoercionKind::Rec ? D->body() : D;
    const Coercion *Body = compose(CU, DU, NewIdEqv);
    Entry Popped = Stack.back();
    Stack.pop_back();
    if (!NewIdEqv)
      IdEqv = false;
    if (!Popped.Mu)
      return Body;
    --FreeVars;
    if (FreeVars == 0 && NewIdEqv)
      return F.id(); // μX.c where c ≡ ι modulo X: the whole thing is ι
    F.sealRec(Popped.Mu, Body);
    return Popped.Mu;
  }
};

} // namespace grift

const Coercion *CoercionFactory::compose(const Coercion *C,
                                         const Coercion *D) {
  return Composer(*this).run(C, D);
}

//===----------------------------------------------------------------------===//
// Normal-form validation
//===----------------------------------------------------------------------===//

namespace {

bool validTop(const Coercion *C);

bool validMiddle(const Coercion *C) {
  switch (C->kind()) {
  case CoercionKind::Id:
    return true;
  case CoercionKind::Fun: {
    for (size_t I = 0; I != C->arity(); ++I)
      if (!validTop(C->arg(I)))
        return false;
    return validTop(C->result());
  }
  case CoercionKind::RefC:
    return validTop(C->writeCoercion()) && validTop(C->readCoercion());
  case CoercionKind::TupleC: {
    for (size_t I = 0; I != C->tupleSize(); ++I)
      if (!validTop(C->element(I)))
        return false;
    return true;
  }
  case CoercionKind::Rec:
    // The body participates in a cycle; checking it here would not
    // terminate. Its shape is enforced at construction.
    return !C->body()->isFail();
  default:
    return false;
  }
}

bool validFinal(const Coercion *C) {
  if (C->isFail())
    return true;
  if (C->isInjectSeq())
    return !C->second()->type()->isDyn() && validMiddle(C->first());
  return validMiddle(C);
}

bool validTop(const Coercion *C) {
  if (C->isProjectSeq())
    return !C->first()->type()->isDyn() && validFinal(C->second());
  return validFinal(C);
}

} // namespace

bool CoercionFactory::isNormalForm(const Coercion *C) { return validTop(C); }
