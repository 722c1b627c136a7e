#include "frontend/CoreIR.h"

#include "support/StringUtil.h"

using namespace grift;
using namespace grift::core;

namespace {

/// Renders nodes, reading binder and global names from the program's
/// name table.
struct Printer {
  const NameTable &Names;
  std::string &Out;

  void subs(const Node &N) {
    for (const Node *Sub : N.Subs) {
      Out += ' ';
      node(*Sub);
    }
  }

  void head(const char *Head, const Node &N) {
    Out += '(';
    Out += Head;
    subs(N);
    Out += ')';
  }

  void binder(uint32_t Id) { Out += Names.Binders[Id]; }

  void node(const Node &N) {
    switch (N.Kind) {
    case NodeKind::LitUnit:
      Out += "()";
      return;
    case NodeKind::LitBool:
      Out += N.BoolVal ? "#t" : "#f";
      return;
    case NodeKind::LitInt:
      Out += std::to_string(N.IntVal);
      return;
    case NodeKind::LitFloat:
      Out += formatDouble(N.FloatVal);
      return;
    case NodeKind::LitChar:
      Out += "#\\";
      Out += N.CharVal;
      return;
    case NodeKind::LocalRef:
      binder(N.Id);
      return;
    case NodeKind::GlobalRef:
      Out += Names.Globals[N.Id];
      return;
    case NodeKind::If:
      head("if", N);
      return;
    case NodeKind::Lambda: {
      Out += "(lambda (";
      for (size_t I = 0; I != N.Ty->arity(); ++I) {
        if (I != 0)
          Out += ' ';
        binder(N.Id + I);
        Out += " : ";
        Out += N.Ty->param(I)->str();
      }
      Out += ") ";
      node(*N.Subs[0]);
      Out += ')';
      return;
    }
    case NodeKind::App:
      head("app", N);
      return;
    case NodeKind::AppDyn:
      head("app-dyn", N);
      return;
    case NodeKind::PrimApp:
      Out += '(';
      Out += primName(N.Prim);
      subs(N);
      Out += ')';
      return;
    case NodeKind::Let:
    case NodeKind::Letrec: {
      Out += N.Kind == NodeKind::Let ? "(let (" : "(letrec (";
      for (size_t I = 0; I + 1 != N.Subs.size(); ++I) {
        if (I != 0)
          Out += ' ';
        Out += '[';
        binder(N.Id + I);
        Out += ' ';
        node(*N.Subs[I]);
        Out += ']';
      }
      Out += ") ";
      node(*N.Subs.back());
      Out += ')';
      return;
    }
    case NodeKind::Begin:
      head("begin", N);
      return;
    case NodeKind::Repeat: {
      Out += "(repeat (";
      binder(N.Id);
      Out += ' ';
      node(*N.Subs[0]);
      Out += ' ';
      node(*N.Subs[1]);
      Out += ')';
      if (N.HasAcc) {
        Out += " (";
        binder(N.Id + 1);
        Out += ' ';
        node(*N.Subs[2]);
        Out += ')';
      }
      Out += ' ';
      node(*N.Subs[N.HasAcc ? 3 : 2]);
      Out += ')';
      return;
    }
    case NodeKind::Time:
      head("time", N);
      return;
    case NodeKind::Tuple:
      head("tuple", N);
      return;
    case NodeKind::TupleProj:
    case NodeKind::TupleProjDyn:
      Out += N.Kind == NodeKind::TupleProj ? "(tuple-proj " : "(tuple-proj-dyn ";
      node(*N.Subs[0]);
      Out += ' ';
      Out += std::to_string(N.Index);
      Out += ')';
      return;
    case NodeKind::BoxAlloc:
      head("box", N);
      return;
    case NodeKind::Unbox:
      head("unbox", N);
      return;
    case NodeKind::UnboxDyn:
      head("unbox-dyn", N);
      return;
    case NodeKind::BoxSet:
      head("box-set!", N);
      return;
    case NodeKind::BoxSetDyn:
      head("box-set-dyn!", N);
      return;
    case NodeKind::MakeVect:
      head("make-vector", N);
      return;
    case NodeKind::VectRef:
      head("vector-ref", N);
      return;
    case NodeKind::VectRefDyn:
      head("vector-ref-dyn", N);
      return;
    case NodeKind::VectSet:
      head("vector-set!", N);
      return;
    case NodeKind::VectSetDyn:
      head("vector-set-dyn!", N);
      return;
    case NodeKind::VectLen:
      head("vector-length", N);
      return;
    case NodeKind::VectLenDyn:
      head("vector-length-dyn", N);
      return;
    case NodeKind::Cast:
      Out += "(cast ";
      node(*N.Subs[0]);
      Out += ' ';
      Out += N.SrcTy->str();
      Out += ' ';
      Out += N.Ty->str();
      Out += " \"";
      Out += N.blameLabel();
      Out += "\")";
      return;
    }
  }
};

unsigned countCastsIn(const Node &N) {
  unsigned Count = N.Kind == NodeKind::Cast ? 1 : 0;
  for (const Node *Sub : N.Subs)
    Count += countCastsIn(*Sub);
  return Count;
}

} // namespace

CoreProgram::CoreProgram() : Nodes(std::make_unique<Arena>()) {}

std::string CoreProgram::str() const {
  std::string Out;
  Printer P{Names, Out};
  for (const Def &D : Defs) {
    if (D.Global >= 0) {
      Out += "(define ";
      Out += Names.Globals[D.Global];
      Out += " : ";
      Out += D.Ty->str();
      Out += ' ';
      P.node(*D.Body);
      Out += ")\n";
    } else {
      P.node(*D.Body);
      Out += '\n';
    }
  }
  return Out;
}

unsigned grift::core::countCasts(const CoreProgram &Prog) {
  unsigned Count = 0;
  for (const Def &D : Prog.Defs)
    Count += countCastsIn(*D.Body);
  return Count;
}
