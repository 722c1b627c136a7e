#include "fuzz/Shrink.h"

#include "ast/Ast.h"
#include "grift/Grift.h"

#include <vector>

using namespace grift;
using namespace grift::fuzz;

namespace {

/// Collects every mutable expression slot (define bodies, binding
/// initializers, subexpressions) in pre-order, parents before children,
/// so the greedy pass tries the biggest reductions first.
void collectSlots(Expr &E, std::vector<Expr **> &Slots) {
  for (Binding &B : E.Bindings) {
    Slots.push_back(&B.Init);
    collectSlots(*B.Init, Slots);
  }
  for (Expr *&Sub : E.SubExprs) {
    Slots.push_back(&Sub);
    collectSlots(*Sub, Slots);
  }
}

void collectSlots(Program &Prog, std::vector<Expr **> &Slots) {
  for (Define &D : Prog.Defines) {
    Slots.push_back(&D.Body);
    collectSlots(*D.Body, Slots);
  }
}

/// Children of the expression in slot \p Index of \p Ast: SubExprs
/// first, then binding initializers.
size_t childCount(Program &Ast, size_t Index) {
  std::vector<Expr **> Slots;
  collectSlots(Ast, Slots);
  const Expr &Node = **Slots[Index];
  return Node.SubExprs.size() + Node.Bindings.size();
}

/// Clones \p Ast and replaces slot \p Index with its \p Child-th child
/// (hoisting it over the parent). Returns the rendered candidate.
std::string hoistChild(const Program &Ast, size_t Index, size_t Child) {
  Program Clone = Ast.clone();
  std::vector<Expr **> Slots;
  collectSlots(Clone, Slots);
  const Expr &Node = **Slots[Index];
  *Slots[Index] = Child < Node.SubExprs.size()
                      ? Node.SubExprs[Child]
                      : Node.Bindings[Child - Node.SubExprs.size()].Init;
  return Clone.str();
}

/// Clones \p Ast and replaces slot \p Index with a scalar literal, taken
/// from the clone's arena.
std::string literalize(const Program &Ast, size_t Index, unsigned Which) {
  Program Clone = Ast.clone();
  std::vector<Expr **> Slots;
  collectSlots(Clone, Slots);
  SourceLoc Loc = (*Slots[Index])->Loc;
  switch (Which) {
  case 0:
    *Slots[Index] = makeLitInt(Clone.arena(), 0, Loc);
    break;
  case 1:
    *Slots[Index] = makeLitBool(Clone.arena(), true, Loc);
    break;
  default:
    *Slots[Index] = makeLitFloat(Clone.arena(), 0.0, Loc);
    break;
  }
  return Clone.str();
}

} // namespace

std::string grift::fuzz::shrinkSource(const std::string &Source,
                                      const SourcePredicate &StillFails,
                                      unsigned MaxAttempts,
                                      ShrinkStats *Stats) {
  ShrinkStats Local;
  ShrinkStats &S = Stats ? *Stats : Local;
  if (!StillFails(Source))
    return Source;

  Grift G; // parser + printer host; candidates are judged as text
  std::string Current = Source;
  bool Progress = true;
  while (Progress && S.Attempts < MaxAttempts) {
    Progress = false;
    ++S.Rounds;
    std::string Errors;
    auto Ast = G.parse(Current, Errors);
    if (!Ast)
      break; // predicate accepted text the parser rejects; stop here

    // Accepting only strictly smaller candidates guarantees termination.
    auto accept = [&](const std::string &Text) {
      if (Text.empty() || Text.size() >= Current.size())
        return false;
      ++S.Attempts;
      if (!StillFails(Text))
        return false;
      ++S.Accepted;
      Current = Text;
      Progress = true;
      return true;
    };

    // 1) Drop whole top-level defines / statements.
    for (size_t I = 0; I != Ast->Defines.size(); ++I) {
      if (Ast->Defines.size() == 1)
        break;
      Program Cand = Ast->clone();
      Cand.Defines.erase(Cand.Defines.begin() + static_cast<long>(I));
      if (accept(Cand.str()))
        break;
      if (S.Attempts >= MaxAttempts)
        break;
    }
    if (Progress || S.Attempts >= MaxAttempts)
      continue;

    // 2) Hoist children over their parents (inlines let bodies and
    //    initializers, flattens begin, picks an if branch, unwraps
    //    casts), then 3) collapse subtrees to literals.
    size_t NumSlots;
    {
      std::vector<Expr **> Slots;
      collectSlots(*Ast, Slots);
      NumSlots = Slots.size();
    }
    for (size_t Slot = 0; Slot != NumSlots && !Progress; ++Slot) {
      size_t Children = childCount(*Ast, Slot);
      for (size_t Child = 0; Child != Children && !Progress; ++Child) {
        if (S.Attempts >= MaxAttempts)
          break;
        accept(hoistChild(*Ast, Slot, Child));
      }
      for (unsigned Which = 0; Which != 3 && !Progress; ++Which) {
        if (S.Attempts >= MaxAttempts)
          break;
        accept(literalize(*Ast, Slot, Which));
      }
    }
  }
  return Current;
}
