#include "ast/Ast.h"

#include "support/StringUtil.h"

#include <cassert>

using namespace grift;

namespace {

/// Deep-copies expressions, names and lists into one arena.
struct Cloner {
  Arena &A;

  Expr *expr(const Expr &E) {
    Expr *Copy = A.make<Expr>(E);
    Copy->Name = A.copy(E.Name);
    Copy->AccName = A.copy(E.AccName);
    Copy->Params = A.copy<Param>(E.Params);
    for (Param &P : Copy->Params)
      P.Name = A.copy(P.Name);
    Copy->Bindings = A.copy<Binding>(E.Bindings);
    for (Binding &B : Copy->Bindings) {
      B.Name = A.copy(B.Name);
      B.Init = expr(*B.Init);
    }
    Copy->SubExprs = A.copy<Expr *>(E.SubExprs);
    for (Expr *&Sub : Copy->SubExprs)
      Sub = expr(*Sub);
    return Copy;
  }
};

} // namespace

Program::Program() : Nodes(std::make_unique<Arena>()) {}

Program Program::clone() const {
  Program Copy;
  Cloner C{Copy.arena()};
  Copy.Defines.reserve(Defines.size());
  for (const Define &D : Defines) {
    Define &New = Copy.Defines.emplace_back(D);
    New.Name = C.A.copy(D.Name);
    New.Body = C.expr(*D.Body);
  }
  return Copy;
}

Expr *grift::makeExpr(Arena &A, ExprKind Kind, SourceLoc Loc) {
  Expr *E = A.make<Expr>();
  E->Kind = Kind;
  E->Loc = Loc;
  return E;
}

Expr *grift::makeLitUnit(Arena &A, SourceLoc Loc) {
  return makeExpr(A, ExprKind::LitUnit, Loc);
}

Expr *grift::makeLitBool(Arena &A, bool Value, SourceLoc Loc) {
  Expr *E = makeExpr(A, ExprKind::LitBool, Loc);
  E->BoolVal = Value;
  return E;
}

Expr *grift::makeLitInt(Arena &A, int64_t Value, SourceLoc Loc) {
  Expr *E = makeExpr(A, ExprKind::LitInt, Loc);
  E->IntVal = Value;
  return E;
}

Expr *grift::makeLitFloat(Arena &A, double Value, SourceLoc Loc) {
  Expr *E = makeExpr(A, ExprKind::LitFloat, Loc);
  E->FloatVal = Value;
  return E;
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

namespace {

void printExpr(const Expr &E, std::string &Out);

void printChar(char C, std::string &Out) {
  if (C == '\n')
    Out += "#\\newline";
  else if (C == ' ')
    Out += "#\\space";
  else if (C == '\t')
    Out += "#\\tab";
  else {
    Out += "#\\";
    Out += C;
  }
}

void printParam(const Param &P, std::string &Out) {
  if (P.Annot) {
    Out += '[';
    Out += P.Name;
    Out += " : ";
    Out += P.Annot->str();
    Out += ']';
  } else {
    Out += P.Name;
  }
}

void printBody(std::span<Expr *const> Body, std::string &Out) {
  for (const Expr *Sub : Body) {
    Out += ' ';
    printExpr(*Sub, Out);
  }
}

void printExpr(const Expr &E, std::string &Out) {
  switch (E.Kind) {
  case ExprKind::LitUnit:
    Out += "()";
    return;
  case ExprKind::LitBool:
    Out += E.BoolVal ? "#t" : "#f";
    return;
  case ExprKind::LitInt:
    Out += std::to_string(E.IntVal);
    return;
  case ExprKind::LitFloat:
    Out += formatDouble(E.FloatVal);
    return;
  case ExprKind::LitChar:
    printChar(E.CharVal, Out);
    return;
  case ExprKind::Var:
    Out += E.Name;
    return;
  case ExprKind::If:
    Out += "(if ";
    printExpr(*E.SubExprs[0], Out);
    Out += ' ';
    printExpr(*E.SubExprs[1], Out);
    Out += ' ';
    printExpr(*E.SubExprs[2], Out);
    Out += ')';
    return;
  case ExprKind::Lambda: {
    Out += "(lambda (";
    for (size_t I = 0; I != E.Params.size(); ++I) {
      if (I != 0)
        Out += ' ';
      printParam(E.Params[I], Out);
    }
    Out += ')';
    if (E.ReturnAnnot) {
      Out += " : ";
      Out += E.ReturnAnnot->str();
    }
    Out += ' ';
    printExpr(*E.SubExprs[0], Out);
    Out += ')';
    return;
  }
  case ExprKind::App: {
    Out += '(';
    for (size_t I = 0; I != E.SubExprs.size(); ++I) {
      if (I != 0)
        Out += ' ';
      printExpr(*E.SubExprs[I], Out);
    }
    Out += ')';
    return;
  }
  case ExprKind::PrimApp: {
    Out += '(';
    Out += primName(E.Prim);
    printBody(E.SubExprs, Out);
    Out += ')';
    return;
  }
  case ExprKind::Let:
  case ExprKind::Letrec: {
    Out += E.Kind == ExprKind::Let ? "(let (" : "(letrec (";
    for (size_t I = 0; I != E.Bindings.size(); ++I) {
      const Binding &B = E.Bindings[I];
      if (I != 0)
        Out += ' ';
      Out += '[';
      Out += B.Name;
      if (B.Annot) {
        Out += " : ";
        Out += B.Annot->str();
      }
      Out += ' ';
      printExpr(*B.Init, Out);
      Out += ']';
    }
    Out += ')';
    printBody(E.SubExprs, Out);
    Out += ')';
    return;
  }
  case ExprKind::Begin:
    Out += "(begin";
    printBody(E.SubExprs, Out);
    Out += ')';
    return;
  case ExprKind::Repeat: {
    Out += "(repeat (";
    Out += E.Name;
    Out += ' ';
    printExpr(*E.SubExprs[0], Out);
    Out += ' ';
    printExpr(*E.SubExprs[1], Out);
    Out += ')';
    size_t BodyIndex = 2;
    if (E.HasAcc) {
      Out += " (";
      Out += E.AccName;
      if (E.AccAnnot) {
        Out += " : ";
        Out += E.AccAnnot->str();
      }
      Out += ' ';
      printExpr(*E.SubExprs[2], Out);
      Out += ')';
      BodyIndex = 3;
    }
    Out += ' ';
    printExpr(*E.SubExprs[BodyIndex], Out);
    Out += ')';
    return;
  }
  case ExprKind::Time:
    Out += "(time ";
    printExpr(*E.SubExprs[0], Out);
    Out += ')';
    return;
  case ExprKind::Tuple:
    Out += "(tuple";
    printBody(E.SubExprs, Out);
    Out += ')';
    return;
  case ExprKind::TupleProj:
    Out += "(tuple-proj ";
    printExpr(*E.SubExprs[0], Out);
    Out += ' ';
    Out += std::to_string(E.Index);
    Out += ')';
    return;
  case ExprKind::BoxE:
    Out += "(box ";
    printExpr(*E.SubExprs[0], Out);
    Out += ')';
    return;
  case ExprKind::Unbox:
    Out += "(unbox ";
    printExpr(*E.SubExprs[0], Out);
    Out += ')';
    return;
  case ExprKind::BoxSet:
    Out += "(box-set! ";
    printExpr(*E.SubExprs[0], Out);
    Out += ' ';
    printExpr(*E.SubExprs[1], Out);
    Out += ')';
    return;
  case ExprKind::MakeVect:
    Out += "(make-vector ";
    printExpr(*E.SubExprs[0], Out);
    Out += ' ';
    printExpr(*E.SubExprs[1], Out);
    Out += ')';
    return;
  case ExprKind::VectRef:
    Out += "(vector-ref ";
    printExpr(*E.SubExprs[0], Out);
    Out += ' ';
    printExpr(*E.SubExprs[1], Out);
    Out += ')';
    return;
  case ExprKind::VectSet:
    Out += "(vector-set! ";
    printExpr(*E.SubExprs[0], Out);
    Out += ' ';
    printExpr(*E.SubExprs[1], Out);
    Out += ' ';
    printExpr(*E.SubExprs[2], Out);
    Out += ')';
    return;
  case ExprKind::VectLen:
    Out += "(vector-length ";
    printExpr(*E.SubExprs[0], Out);
    Out += ')';
    return;
  case ExprKind::Ascribe:
    Out += "(ann ";
    printExpr(*E.SubExprs[0], Out);
    Out += ' ';
    Out += E.Annot->str();
    Out += ')';
    return;
  }
}

} // namespace

std::string Expr::str() const {
  std::string Out;
  printExpr(*this, Out);
  return Out;
}

std::string Program::str() const {
  std::string Out;
  for (const Define &D : Defines) {
    if (D.Name.empty()) {
      Out += D.Body->str();
    } else {
      Out += "(define ";
      Out += D.Name;
      if (D.Annot) {
        Out += " : ";
        Out += D.Annot->str();
      }
      Out += ' ';
      Out += D.Body->str();
      Out += ')';
    }
    Out += '\n';
  }
  return Out;
}
