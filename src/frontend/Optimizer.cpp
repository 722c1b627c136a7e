#include "frontend/Optimizer.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace grift;
using namespace grift::core;

namespace {

bool isLiteral(const Node &N) {
  switch (N.Kind) {
  case NodeKind::LitUnit:
  case NodeKind::LitBool:
  case NodeKind::LitInt:
  case NodeKind::LitFloat:
  case NodeKind::LitChar:
    return true;
  default:
    return false;
  }
}

/// Effect-free expressions can be dropped from statement position.
bool isEffectFree(const Node &N) {
  switch (N.Kind) {
  case NodeKind::LocalRef:
  case NodeKind::GlobalRef:
  case NodeKind::Lambda:
    return true;
  default:
    return isLiteral(N);
  }
}

class Optimizer {
public:
  Optimizer(TypeContext &Types, CoreProgram &Prog)
      : Types(Types), Prog(Prog), A(Prog.arena()) {}

  unsigned run() {
    for (Def &D : Prog.Defs)
      rewrite(D.Body);
    return Rewrites;
  }

private:
  TypeContext &Types;
  CoreProgram &Prog;
  /// Prog's arena, which every folded literal comes from.
  Arena &A;
  unsigned Rewrites = 0;

  Node *makeLit(NodeKind Kind, const Type *Ty, SourceLoc Loc) {
    Node *N = A.make<Node>();
    N->Kind = Kind;
    N->Ty = Ty;
    N->Loc = Loc;
    return N;
  }

  Node *makeLitInt(int64_t Value, SourceLoc Loc) {
    Node *N = makeLit(NodeKind::LitInt, Types.integer(), Loc);
    N->IntVal = Value;
    return N;
  }

  Node *makeLitBool(bool Value, SourceLoc Loc) {
    Node *N = makeLit(NodeKind::LitBool, Types.boolean(), Loc);
    N->BoolVal = Value;
    return N;
  }

  Node *makeLitFloat(double Value, SourceLoc Loc) {
    Node *N = makeLit(NodeKind::LitFloat, Types.floating(), Loc);
    N->FloatVal = Value;
    return N;
  }

  void rewrite(Node *&Slot) {
    // Children first (innermost folds enable outer folds).
    for (Node *&Sub : Slot->Subs)
      rewrite(Sub);

    switch (Slot->Kind) {
    case NodeKind::PrimApp:
      foldPrim(Slot);
      return;
    case NodeKind::If:
      // (if #t a b) => a; (if #f a b) => b.
      if (Slot->Subs[0]->Kind == NodeKind::LitBool) {
        Slot = Slot->Subs[0]->BoolVal ? Slot->Subs[1] : Slot->Subs[2];
        ++Rewrites;
      }
      return;
    case NodeKind::Begin: {
      // Flatten nested begins and drop effect-free statements. The
      // statements go back into the begin's own list when they fit.
      std::vector<Node *> Flat;
      for (size_t I = 0; I != Slot->Subs.size(); ++I) {
        bool Last = I + 1 == Slot->Subs.size();
        Node *Sub = Slot->Subs[I];
        if (Sub->Kind == NodeKind::Begin) {
          Flat.insert(Flat.end(), Sub->Subs.begin(), Sub->Subs.end());
          ++Rewrites;
          continue;
        }
        if (!Last && isEffectFree(*Sub)) {
          ++Rewrites;
          continue;
        }
        Flat.push_back(Sub);
      }
      if (Flat.size() <= Slot->Subs.size()) {
        std::copy(Flat.begin(), Flat.end(), Slot->Subs.begin());
        Slot->Subs = Slot->Subs.first(Flat.size());
      } else {
        Slot->Subs = A.copy<Node *>(Flat);
      }
      if (Slot->Subs.size() == 1) {
        Slot = Slot->Subs[0];
        ++Rewrites;
      }
      return;
    }
    case NodeKind::Cast: {
      // Injecting an atomic literal into Dyn is a representation
      // identity in every engine (atomic values are self-describing),
      // so the runtime check disappears entirely — the paper's
      // "eliminate many first-order checks" in miniature.
      Node *Body = Slot->Subs[0];
      if (isLiteral(*Body) && Slot->Ty->isDyn() && Body->Ty->isAtomic()) {
        Body->Ty = Slot->Ty;
        Slot = Body;
        ++Rewrites;
      }
      return;
    }
    default:
      return;
    }
  }

  void foldPrim(Node *&Slot) {
    const Node &N = *Slot;
    auto AllInts = [&] {
      for (const Node *Sub : N.Subs)
        if (Sub->Kind != NodeKind::LitInt)
          return false;
      return true;
    };
    auto AllFloats = [&] {
      for (const Node *Sub : N.Subs)
        if (Sub->Kind != NodeKind::LitFloat)
          return false;
      return true;
    };
    auto I = [&](size_t Index) { return N.Subs[Index]->IntVal; };
    auto Fl = [&](size_t Index) { return N.Subs[Index]->FloatVal; };

    switch (N.Prim) {
    case PrimOp::AddI:
    case PrimOp::SubI:
    case PrimOp::MulI: {
      if (!AllInts())
        return;
      int64_t Value = N.Prim == PrimOp::AddI   ? I(0) + I(1)
                      : N.Prim == PrimOp::SubI ? I(0) - I(1)
                                               : I(0) * I(1);
      Slot = makeLitInt(Value, N.Loc);
      ++Rewrites;
      return;
    }
    case PrimOp::DivI:
    case PrimOp::ModI:
      // Folding would hide the runtime division-by-zero trap; only fold
      // provably safe divisors.
      if (AllInts() && I(1) != 0) {
        Slot = makeLitInt(N.Prim == PrimOp::DivI ? I(0) / I(1) : I(0) % I(1),
                          N.Loc);
        ++Rewrites;
      }
      return;
    case PrimOp::LtI:
    case PrimOp::LeI:
    case PrimOp::EqI:
    case PrimOp::GeI:
    case PrimOp::GtI: {
      if (!AllInts())
        return;
      bool Value = N.Prim == PrimOp::LtI   ? I(0) < I(1)
                   : N.Prim == PrimOp::LeI ? I(0) <= I(1)
                   : N.Prim == PrimOp::EqI ? I(0) == I(1)
                   : N.Prim == PrimOp::GeI ? I(0) >= I(1)
                                           : I(0) > I(1);
      Slot = makeLitBool(Value, N.Loc);
      ++Rewrites;
      return;
    }
    case PrimOp::AddF:
    case PrimOp::SubF:
    case PrimOp::MulF: {
      if (!AllFloats())
        return;
      double Value = N.Prim == PrimOp::AddF   ? Fl(0) + Fl(1)
                     : N.Prim == PrimOp::SubF ? Fl(0) - Fl(1)
                                              : Fl(0) * Fl(1);
      Slot = makeLitFloat(Value, N.Loc);
      ++Rewrites;
      return;
    }
    case PrimOp::Not:
      if (N.Subs[0]->Kind == NodeKind::LitBool) {
        Slot = makeLitBool(!N.Subs[0]->BoolVal, N.Loc);
        ++Rewrites;
      }
      return;
    case PrimOp::IntToFloat:
      if (N.Subs[0]->Kind == NodeKind::LitInt) {
        Slot = makeLitFloat(static_cast<double>(N.Subs[0]->IntVal),
                            N.Loc);
        ++Rewrites;
      }
      return;
    default:
      return;
    }
  }
};

} // namespace

unsigned grift::optimizeCore(TypeContext &Types, CoreProgram &Prog) {
  return Optimizer(Types, Prog).run();
}
