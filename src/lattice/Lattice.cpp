#include "lattice/Lattice.h"

#include "support/RNG.h"

#include <cassert>
#include <cmath>
#include <functional>

using namespace grift;

//===----------------------------------------------------------------------===//
// Annotation traversal
//===----------------------------------------------------------------------===//

namespace {

/// Visits every type-annotation slot in an expression tree. The callback
/// receives a mutable pointer-to-annotation; a null annotation slot (an
/// omitted annotation) is skipped.
void forEachAnnot(Expr &E, const std::function<void(const Type *&)> &Visit) {
  for (Param &P : E.Params)
    if (P.Annot)
      Visit(P.Annot);
  for (Binding &B : E.Bindings) {
    if (B.Annot)
      Visit(B.Annot);
    forEachAnnot(*B.Init, Visit);
  }
  if (E.ReturnAnnot)
    Visit(E.ReturnAnnot);
  if (E.AccAnnot)
    Visit(E.AccAnnot);
  if (E.Annot)
    Visit(E.Annot);
  for (Expr *Sub : E.SubExprs)
    forEachAnnot(*Sub, Visit);
}

void forEachAnnot(Program &Prog,
                  const std::function<void(const Type *&)> &Visit) {
  for (Define &D : Prog.Defines) {
    if (D.Annot)
      Visit(D.Annot);
    forEachAnnot(*D.Body, Visit);
  }
}

/// Rebuilds \p T keeping each constructor with probability \p Keep and
/// replacing it (and its subtree) with Dyn otherwise.
const Type *randomErase(TypeContext &Ctx, const Type *T, double Keep,
                        RNG &Gen) {
  if (!Gen.flip(Keep))
    return Ctx.dyn();
  switch (T->kind()) {
  case TypeKind::Function: {
    std::vector<const Type *> Params;
    Params.reserve(T->arity());
    for (size_t I = 0; I != T->arity(); ++I)
      Params.push_back(randomErase(Ctx, T->param(I), Keep, Gen));
    return Ctx.function(std::move(Params),
                        randomErase(Ctx, T->result(), Keep, Gen));
  }
  case TypeKind::Tuple: {
    std::vector<const Type *> Elements;
    Elements.reserve(T->tupleSize());
    for (size_t I = 0; I != T->tupleSize(); ++I)
      Elements.push_back(randomErase(Ctx, T->element(I), Keep, Gen));
    return Ctx.tuple(std::move(Elements));
  }
  case TypeKind::Box:
    return Ctx.box(randomErase(Ctx, T->inner(), Keep, Gen));
  case TypeKind::Vect:
    return Ctx.vect(randomErase(Ctx, T->inner(), Keep, Gen));
  case TypeKind::Rec:
    return Ctx.rec(randomErase(Ctx, T->inner(), Keep, Gen));
  case TypeKind::Var:
    // Erasing a bound variable occurrence (to Dyn) is legal; keeping it
    // keeps the back edge.
    return T;
  default:
    return T;
  }
}

/// Wraps a constructed value with an explicit ascription to Dyn (the
/// "every constructed value is explicitly cast to Dyn" part of the
/// Dynamic Grift configuration).
bool isValueConstructor(ExprKind Kind) {
  switch (Kind) {
  case ExprKind::LitBool:
  case ExprKind::LitInt:
  case ExprKind::LitFloat:
  case ExprKind::LitChar:
  case ExprKind::Lambda:
  case ExprKind::Tuple:
  case ExprKind::BoxE:
  case ExprKind::MakeVect:
    return true;
  default:
    return false;
  }
}

/// Erases the expression in slot \p E of a program whose arena is \p A;
/// the Dyn ascriptions it adds come from that arena.
void dynamizeExpr(Expr *&E, Arena &A, TypeContext &Ctx, bool WrapTop = true) {
  Expr &Node = *E;
  for (Param &P : Node.Params)
    P.Annot = Ctx.dyn();
  bool IsLetrec = Node.Kind == ExprKind::Letrec;
  for (Binding &B : Node.Bindings) {
    // letrec initializers must stay syntactic lambdas (no ascription
    // wrapper) and take their Dyn type from the lambda's parameters.
    B.Annot = IsLetrec ? nullptr : Ctx.dyn();
    dynamizeExpr(B.Init, A, Ctx, /*WrapTop=*/!IsLetrec);
  }
  if (Node.Kind == ExprKind::Lambda)
    Node.ReturnAnnot = Ctx.dyn();
  if (Node.AccAnnot || Node.HasAcc)
    Node.AccAnnot = Ctx.dyn();
  if (Node.Kind == ExprKind::Ascribe)
    Node.Annot = Ctx.dyn();
  for (Expr *&Sub : Node.SubExprs)
    dynamizeExpr(Sub, A, Ctx);

  if (WrapTop && isValueConstructor(Node.Kind)) {
    Expr *Wrapper = makeExpr(A, ExprKind::Ascribe, Node.Loc);
    Wrapper->Annot = Ctx.dyn();
    Wrapper->SubExprs = A.copy<Expr *>({{E}});
    E = Wrapper;
  }
}

void dynamizeDefine(Define &D, Arena &A, TypeContext &Ctx) {
  D.Annot = Ctx.dyn();
  dynamizeExpr(D.Body, A, Ctx);
}

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

double grift::programPrecision(const Program &Prog) {
  uint64_t Nodes = 0;
  uint64_t Typed = 0;
  // forEachAnnot needs a mutable program; clone metadata-free walk
  // instead by const_cast (the callback only reads).
  auto &Mutable = const_cast<Program &>(Prog);
  forEachAnnot(Mutable, [&](const Type *&T) {
    Nodes += T->nodeCount();
    Typed += T->typedNodeCount();
  });
  if (Nodes == 0)
    return 0;
  return static_cast<double>(Typed) / static_cast<double>(Nodes);
}

Program grift::eraseTypes(const Program &Prog, TypeContext &Ctx) {
  Program Out = Prog.clone();
  for (Define &D : Out.Defines)
    dynamizeDefine(D, Out.arena(), Ctx);
  return Out;
}

std::vector<Configuration> grift::sampleFineGrained(const Program &Prog,
                                                    TypeContext &Ctx,
                                                    unsigned Bins,
                                                    unsigned PerBin,
                                                    uint64_t Seed) {
  std::vector<Configuration> Out;
  if (Bins == 0 || PerBin == 0)
    return Out;
  RNG Gen(Seed);
  for (unsigned Bin = 0; Bin != Bins; ++Bin) {
    double Lo = static_cast<double>(Bin) / Bins;
    double Hi = static_cast<double>(Bin + 1) / Bins;
    for (unsigned Sample = 0; Sample != PerBin; ++Sample) {
      // Try keep-probabilities around the bin midpoint until the actual
      // precision lands inside the bin; accept the closest attempt after
      // a bounded number of tries (extreme bins can be hard to hit).
      Configuration Best;
      double BestDistance = 2.0;
      for (unsigned Attempt = 0; Attempt != 24; ++Attempt) {
        // Erasing a node discards its whole subtree, so the achieved
        // precision is below the per-node keep probability; bias the
        // keep probability upward (square root ≈ inverting an average
        // annotation depth of two).
        double Target = Lo + (Hi - Lo) * Gen.unit();
        double Keep = std::sqrt(Target);
        Program Candidate = Prog.clone();
        forEachAnnot(Candidate, [&](const Type *&T) {
          T = randomErase(Ctx, T, Keep, Gen);
        });
        double Precision = programPrecision(Candidate);
        double Mid = (Lo + Hi) / 2;
        double Distance = Precision >= Lo && Precision < Hi
                              ? 0.0
                              : std::abs(Precision - Mid);
        if (Distance < BestDistance) {
          BestDistance = Distance;
          Best.Prog = std::move(Candidate);
          Best.Precision = Precision;
        }
        if (BestDistance == 0.0)
          break;
      }
      Out.push_back(std::move(Best));
    }
  }
  return Out;
}

std::vector<Configuration> grift::coarseConfigs(const Program &Prog,
                                                TypeContext &Ctx,
                                                unsigned MaxConfigs,
                                                uint64_t Seed) {
  // Collect the indices of named defines ("modules").
  std::vector<size_t> Modules;
  for (size_t I = 0; I != Prog.Defines.size(); ++I)
    if (!Prog.Defines[I].Name.empty())
      Modules.push_back(I);
  size_t M = Modules.size();

  auto buildConfig = [&](uint64_t Mask) {
    Configuration C;
    C.Prog = Prog.clone();
    for (size_t I = 0; I != M; ++I)
      if (Mask & (UINT64_C(1) << I))
        dynamizeDefine(C.Prog.Defines[Modules[I]], C.Prog.arena(), Ctx);
    C.Precision = programPrecision(C.Prog);
    return C;
  };

  std::vector<Configuration> Out;
  if (MaxConfigs == 0)
    return Out;
  if (M < 64 && (UINT64_C(1) << M) <= MaxConfigs) {
    for (uint64_t Mask = 0; Mask != (UINT64_C(1) << M); ++Mask)
      Out.push_back(buildConfig(Mask));
    return Out;
  }
  // Sample: always include all-typed and (budget permitting) all-dynamic.
  RNG Gen(Seed);
  Out.push_back(buildConfig(0));
  if (MaxConfigs == 1)
    return Out;
  uint64_t Full = M >= 64 ? ~UINT64_C(0) : (UINT64_C(1) << M) - 1;
  Out.push_back(buildConfig(Full));
  for (unsigned I = 2; I < MaxConfigs; ++I)
    Out.push_back(buildConfig(Gen.next() & Full));
  return Out;
}
