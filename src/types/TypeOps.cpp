#include "types/TypeOps.h"

#include "support/StringUtil.h"

#include <cassert>
#include <unordered_set>
#include <vector>

using namespace grift;

namespace {

struct PairHash {
  size_t operator()(const std::pair<const Type *, const Type *> &P) const {
    return static_cast<size_t>(
        hashCombine(reinterpret_cast<uintptr_t>(P.first),
                    reinterpret_cast<uintptr_t>(P.second)));
  }
};

using PairSet =
    std::unordered_set<std::pair<const Type *, const Type *>, PairHash>;

/// Coinductive consistency: assume pairs already under consideration are
/// consistent. Because interned types form a finite subterm closure under
/// unfolding, the assumption set guarantees termination.
bool consistentImpl(TypeContext &Ctx, const Type *A, const Type *B,
                    PairSet &Assumed) {
  if (A == B)
    return true;
  if (A->isDyn() || B->isDyn())
    return true;
  if (A->isRec() || B->isRec()) {
    if (!Assumed.insert({A, B}).second)
      return true;
    const Type *AU = A->isRec() ? Ctx.unfold(A) : A;
    const Type *BU = B->isRec() ? Ctx.unfold(B) : B;
    return consistentImpl(Ctx, AU, BU, Assumed);
  }
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case TypeKind::Function: {
    if (A->arity() != B->arity())
      return false;
    for (size_t I = 0; I != A->arity(); ++I)
      if (!consistentImpl(Ctx, A->param(I), B->param(I), Assumed))
        return false;
    return consistentImpl(Ctx, A->result(), B->result(), Assumed);
  }
  case TypeKind::Tuple: {
    if (A->tupleSize() != B->tupleSize())
      return false;
    for (size_t I = 0; I != A->tupleSize(); ++I)
      if (!consistentImpl(Ctx, A->element(I), B->element(I), Assumed))
        return false;
    return true;
  }
  case TypeKind::Box:
  case TypeKind::Vect:
    return consistentImpl(Ctx, A->inner(), B->inner(), Assumed);
  default:
    // Distinct atomic kinds were rejected by the kind comparison; equal
    // atomic kinds were caught by pointer equality.
    return false;
  }
}

/// Shifts free variables with index > 0 down by one; Var(0) must not occur.
const Type *shiftDown(TypeContext &Ctx, const Type *T, uint32_t Depth) {
  if (T->freeVarBound() <= Depth)
    return T;
  if (T->isVar()) {
    assert(T->varIndex() != Depth && "shiftDown: variable still in use");
    return T->varIndex() > Depth ? Ctx.var(T->varIndex() - 1) : T;
  }
  std::vector<const Type *> Children;
  Children.reserve(T->children().size());
  uint32_t ChildDepth = T->isRec() ? Depth + 1 : Depth;
  for (const Type *Child : T->children())
    Children.push_back(shiftDown(Ctx, Child, ChildDepth));
  switch (T->kind()) {
  case TypeKind::Function: {
    const Type *Result = Children.back();
    Children.pop_back();
    return Ctx.function(std::move(Children), Result);
  }
  case TypeKind::Tuple:
    return Ctx.tuple(std::move(Children));
  case TypeKind::Box:
    return Ctx.box(Children[0]);
  case TypeKind::Vect:
    return Ctx.vect(Children[0]);
  case TypeKind::Rec:
    return Ctx.rec(Children[0]);
  default:
    assert(false && "shiftDown: unexpected kind");
    return T;
  }
}

/// True if Var(\p Depth) occurs free in \p T.
bool usesVar(const Type *T, uint32_t Depth) {
  if (T->freeVarBound() <= Depth)
    return false;
  if (T->isVar())
    return T->varIndex() == Depth;
  uint32_t ChildDepth = T->isRec() ? Depth + 1 : Depth;
  for (const Type *Child : T->children())
    if (usesVar(Child, ChildDepth))
      return true;
  return false;
}

/// Meet with support for recursive types. `Stack` records the (A, B) pairs
/// currently being met; re-encountering a pair emits a back-reference
/// Var(k) to the corresponding binder. Every Rec-involved frame wraps its
/// result in a binder, which is dropped afterwards if unused.
class MeetBuilder {
public:
  explicit MeetBuilder(TypeContext &Ctx) : Ctx(Ctx) {}

  const Type *run(const Type *A, const Type *B) {
    if (!consistent(Ctx, A, B))
      return nullptr;
    return meetRec(A, B);
  }

private:
  TypeContext &Ctx;
  std::vector<std::pair<const Type *, const Type *>> Stack;

  // Note: the traversed A and B are always closed interned types (unfolding
  // a closed Rec yields a closed type); de Bruijn Vars appear only in the
  // result being built.
  const Type *meetRec(const Type *A, const Type *B) {
    if (A == B)
      return A;
    if (A->isDyn())
      return B;
    if (B->isDyn())
      return A;
    if (A->isRec() || B->isRec()) {
      for (size_t I = Stack.size(); I-- > 0;) {
        if (Stack[I].first == A && Stack[I].second == B)
          return Ctx.var(static_cast<uint32_t>(Stack.size() - 1 - I));
      }
      Stack.push_back({A, B});
      const Type *AU = A->isRec() ? Ctx.unfold(A) : A;
      const Type *BU = B->isRec() ? Ctx.unfold(B) : B;
      const Type *Body = meetRec(AU, BU);
      Stack.pop_back();
      if (!Body)
        return nullptr;
      if (usesVar(Body, 0))
        return Ctx.rec(Body);
      return shiftDown(Ctx, Body, 0);
    }
    if (A->kind() != B->kind())
      return nullptr;
    switch (A->kind()) {
    case TypeKind::Function: {
      if (A->arity() != B->arity())
        return nullptr;
      std::vector<const Type *> Params;
      Params.reserve(A->arity());
      for (size_t I = 0; I != A->arity(); ++I) {
        const Type *P = meetRec(A->param(I), B->param(I));
        if (!P)
          return nullptr;
        Params.push_back(P);
      }
      const Type *Result = meetRec(A->result(), B->result());
      if (!Result)
        return nullptr;
      return Ctx.function(std::move(Params), Result);
    }
    case TypeKind::Tuple: {
      if (A->tupleSize() != B->tupleSize())
        return nullptr;
      std::vector<const Type *> Elements;
      Elements.reserve(A->tupleSize());
      for (size_t I = 0; I != A->tupleSize(); ++I) {
        const Type *E = meetRec(A->element(I), B->element(I));
        if (!E)
          return nullptr;
        Elements.push_back(E);
      }
      return Ctx.tuple(std::move(Elements));
    }
    case TypeKind::Box: {
      const Type *E = meetRec(A->inner(), B->inner());
      return E ? Ctx.box(E) : nullptr;
    }
    case TypeKind::Vect: {
      const Type *E = meetRec(A->inner(), B->inner());
      return E ? Ctx.vect(E) : nullptr;
    }
    default:
      return nullptr;
    }
  }
};

} // namespace

bool grift::consistent(TypeContext &Ctx, const Type *A, const Type *B) {
  // The common answers need no assumption set.
  if (A == B || A->isDyn() || B->isDyn())
    return true;
  PairSet Assumed;
  return consistentImpl(Ctx, A, B, Assumed);
}

const Type *grift::meet(TypeContext &Ctx, const Type *A, const Type *B) {
  return MeetBuilder(Ctx).run(A, B);
}

double grift::precision(const Type *T) {
  if (T->nodeCount() == 0)
    return 1.0;
  return static_cast<double>(T->typedNodeCount()) / T->nodeCount();
}

namespace {

/// A ⊑ B coinductively: A is B with some subtrees replaced by Dyn.
bool lessPreciseImpl(TypeContext &Ctx, const Type *A, const Type *B,
                     PairSet &Assumed) {
  if (A->isDyn())
    return true;
  if (A == B)
    return true;
  if (A->isRec() || B->isRec()) {
    if (!Assumed.insert({A, B}).second)
      return true;
    const Type *AU = A->isRec() ? Ctx.unfold(A) : A;
    const Type *BU = B->isRec() ? Ctx.unfold(B) : B;
    return lessPreciseImpl(Ctx, AU, BU, Assumed);
  }
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case TypeKind::Function: {
    if (A->arity() != B->arity())
      return false;
    for (size_t I = 0; I != A->arity(); ++I)
      if (!lessPreciseImpl(Ctx, A->param(I), B->param(I), Assumed))
        return false;
    return lessPreciseImpl(Ctx, A->result(), B->result(), Assumed);
  }
  case TypeKind::Tuple: {
    if (A->tupleSize() != B->tupleSize())
      return false;
    for (size_t I = 0; I != A->tupleSize(); ++I)
      if (!lessPreciseImpl(Ctx, A->element(I), B->element(I), Assumed))
        return false;
    return true;
  }
  case TypeKind::Box:
  case TypeKind::Vect:
    return lessPreciseImpl(Ctx, A->inner(), B->inner(), Assumed);
  default:
    return false;
  }
}

} // namespace

bool grift::lessPrecise(TypeContext &Ctx, const Type *A, const Type *B) {
  PairSet Assumed;
  return lessPreciseImpl(Ctx, A, B, Assumed);
}
