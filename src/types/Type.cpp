#include "types/Type.h"

#include <cassert>

using namespace grift;

uint32_t Type::varIndex() const {
  assert(isVar() && "varIndex of non-var");
  return VarIdx;
}

/// Renders a type; \p Depth counts enclosing Rec binders so bound
/// variables can be printed as r0, r1, ...
static void printType(const Type *T, uint32_t Depth, std::string &Out) {
  switch (T->kind()) {
  case TypeKind::Dyn:
    Out += "Dyn";
    return;
  case TypeKind::Unit:
    Out += "Unit";
    return;
  case TypeKind::Bool:
    Out += "Bool";
    return;
  case TypeKind::Int:
    Out += "Int";
    return;
  case TypeKind::Char:
    Out += "Char";
    return;
  case TypeKind::Float:
    Out += "Float";
    return;
  case TypeKind::Function: {
    Out += '(';
    for (size_t I = 0; I != T->arity(); ++I) {
      printType(T->param(I), Depth, Out);
      Out += ' ';
    }
    Out += "-> ";
    printType(T->result(), Depth, Out);
    Out += ')';
    return;
  }
  case TypeKind::Tuple: {
    Out += "(Tuple";
    for (size_t I = 0; I != T->tupleSize(); ++I) {
      Out += ' ';
      printType(T->element(I), Depth, Out);
    }
    Out += ')';
    return;
  }
  case TypeKind::Box:
    Out += "(Ref ";
    printType(T->inner(), Depth, Out);
    Out += ')';
    return;
  case TypeKind::Vect:
    Out += "(Vect ";
    printType(T->inner(), Depth, Out);
    Out += ')';
    return;
  case TypeKind::Rec:
    Out += "(Rec r" + std::to_string(Depth) + " ";
    printType(T->inner(), Depth + 1, Out);
    Out += ')';
    return;
  case TypeKind::Var: {
    // Var(k) refers to the binder k levels out; that binder was printed
    // with index Depth - 1 - k.
    assert(T->varIndex() < Depth && "free type variable while printing");
    Out += "r" + std::to_string(Depth - 1 - T->varIndex());
    return;
  }
  }
}

std::string Type::str() const {
  std::string Out;
  printType(this, 0, Out);
  return Out;
}
