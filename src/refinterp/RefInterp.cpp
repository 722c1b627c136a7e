#include "refinterp/RefInterp.h"

#include "runtime/Blame.h"
#include "support/StringUtil.h"
#include "types/TypeOps.h"

#include <cassert>
#include <cctype>
#include <chrono>
#include <cmath>
#include <memory>
#include <new>
#include <pthread.h>
#include <unordered_map>
#include <vector>

using namespace grift;
using namespace grift::core;
using namespace grift::refinterp;

namespace {

//===----------------------------------------------------------------------===//
// Values (Figure 18)
//===----------------------------------------------------------------------===//

struct RV;
using RVal = std::shared_ptr<RV>;

struct EnvNode;
using Env = std::shared_ptr<EnvNode>;

/// v ::= u | (v, v) | u⟨g ; I!⟩ | u⟨c → d⟩ ... plus addresses and
/// reference proxies.
struct RV {
  enum class Kind {
    Unit,
    Bool,
    Int,
    Float,
    Char,
    Tuple,
    Closure,  ///< λ with captured environment
    FunProxy, ///< u⟨c → d⟩ — Wrapped is always a Closure (normal form)
    Addr,     ///< a — index into the store
    RefProxy, ///< u⟨Ref c d⟩ — Wrapped is always an Addr
    Dyn,      ///< u⟨g ; I!⟩ — an injected value with its source type
  };

  Kind K = Kind::Unit;
  bool B = false;
  int64_t I = 0;
  double F = 0;
  char C = 0;
  std::vector<RVal> Elements;        // Tuple
  const Node *Lambda = nullptr;      // Closure
  Env Captured;                      // Closure
  RVal Wrapped;                      // FunProxy / RefProxy / Dyn
  const Coercion *Crcn = nullptr;    // FunProxy / RefProxy
  const Type *SourceType = nullptr;  // Dyn
  size_t Address = 0;                // Addr
};

RVal mk(RV::Kind K) {
  auto V = std::make_shared<RV>();
  V->K = K;
  return V;
}

RVal mkUnit() { return mk(RV::Kind::Unit); }

RVal mkBool(bool B) {
  RVal V = mk(RV::Kind::Bool);
  V->B = B;
  return V;
}

RVal mkInt(int64_t I) {
  RVal V = mk(RV::Kind::Int);
  V->I = I;
  return V;
}

RVal mkFloat(double F) {
  RVal V = mk(RV::Kind::Float);
  V->F = F;
  return V;
}

RVal mkChar(char C) {
  RVal V = mk(RV::Kind::Char);
  V->C = C;
  return V;
}

/// Environments are immutable linked lists; letrec cells are patched
/// through the shared node.
struct EnvNode {
  std::string Name;
  RVal Value;
  Env Parent;
};

Env extend(Env Parent, std::string Name, RVal Value) {
  auto N = std::make_shared<EnvNode>();
  N->Name = std::move(Name);
  N->Value = std::move(Value);
  N->Parent = std::move(Parent);
  return N;
}

//===----------------------------------------------------------------------===//
// The interpreter
//===----------------------------------------------------------------------===//

class Interp {
public:
  Interp(TypeContext &Types, CoercionFactory &F, std::string Input,
         const RunLimits &Limits)
      : Types(Types), F(F), Input(std::move(Input)), Limits(Limits),
        StartTime(std::chrono::steady_clock::now()) {}

  RefResult run(const CoreProgram &Prog) {
    Names = &Prog.Names;
    RefResult Result;
    try {
      RVal Last = mkUnit();
      for (const Def &D : Prog.Defs) {
        RVal V = eval(*D.Body, nullptr);
        if (D.Global >= 0)
          Globals[Names->Globals[D.Global]] = V;
        Last = V;
      }
      Result.OK = true;
      Result.ResultText = render(Last, 6);
    } catch (RuntimeError &E) {
      Result.OK = false;
      Result.Kind = E.Kind;
      Result.Label = E.Label;
      Result.Message = E.Message;
    } catch (std::bad_alloc &) {
      Result.OK = false;
      Result.Kind = ErrorKind::OutOfMemory;
      Result.Message = "allocator failed growing interpreter state";
    }
    Result.Output = Output;
    return Result;
  }

private:
  TypeContext &Types;
  CoercionFactory &F;
  std::string Input;
  size_t InputPos = 0;
  std::string Output;
  /// Variables resolve by name, not by the checker's binder ids, so a
  /// wrong id shows up as a VM-versus-reference difference.
  const NameTable *Names = nullptr;
  std::unordered_map<std::string, RVal> Globals;
  std::vector<std::vector<RVal>> Store; // μ: addresses to cells
  std::vector<bool> IsBoxCell;          // rendering: box vs vector
  RunLimits Limits;
  uint64_t Steps = 0;
  size_t CallDepth = 0; // interpreted (apply) nesting, mirrors VM frames
  size_t EvalDepth = 0; // native eval() recursion, tracks the C++ stack
  std::chrono::steady_clock::time_point StartTime;

  [[noreturn]] void blame(const std::string &Label, std::string Message) {
    throw RuntimeError{ErrorKind::Blame, Label, std::move(Message)};
  }
  [[noreturn]] void trap(std::string Message) {
    throw RuntimeError{ErrorKind::Trap, "", std::move(Message)};
  }

  /// One fuel unit per eval() step; the wall clock is sampled every 4096
  /// steps (this interpreter is slow enough that finer is pointless).
  void chargeStep() {
    ++Steps;
    if (Limits.MaxSteps && Steps >= Limits.MaxSteps)
      throw RuntimeError{ErrorKind::FuelExhausted, "",
                         "step budget of " +
                             std::to_string(Limits.MaxSteps) +
                             " eval steps exhausted"};
    if (Limits.MaxWallNanos && (Steps & 4095) == 0) {
      int64_t Elapsed =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - StartTime)
              .count();
      if (Elapsed > Limits.MaxWallNanos)
        throw RuntimeError{ErrorKind::Timeout, "",
                           "wall-clock budget of " +
                               std::to_string(Limits.MaxWallNanos) +
                               " ns exhausted"};
    }
  }

  /// Hard cap on native eval() recursion. The reference interpreter has
  /// no tail calls — every interpreted call consumes real C++ stack — so
  /// without this guard a divergent program overflows the process stack
  /// long before any fuel budget trips. interpret() runs the evaluator
  /// on a thread whose stack is provisioned for this many levels even
  /// with sanitizer-inflated frames.
  static constexpr size_t NativeEvalDepthCap = 6000;

  /// RAII guard for native eval() recursion (always on).
  struct EvalDepthGuard {
    Interp &I;
    explicit EvalDepthGuard(Interp &I) : I(I) {
      if (I.EvalDepth >= NativeEvalDepthCap)
        throw RuntimeError{
            ErrorKind::StackOverflow, "",
            "evaluator recursion exceeded " +
                std::to_string(NativeEvalDepthCap) +
                " levels (the reference interpreter has no tail calls)"};
      ++I.EvalDepth;
    }
    ~EvalDepthGuard() { --I.EvalDepth; }
  };

  /// RAII guard for interpreted call depth (MaxFrames budget).
  struct DepthGuard {
    Interp &I;
    explicit DepthGuard(Interp &I) : I(I) {
      if (I.Limits.MaxFrames && I.CallDepth >= I.Limits.MaxFrames)
        throw RuntimeError{ErrorKind::StackOverflow, "",
                           "call depth exceeded " +
                               std::to_string(I.Limits.MaxFrames) +
                               " frames"};
      ++I.CallDepth;
    }
    ~DepthGuard() { --I.CallDepth; }
  };

  //===--------------------------------------------------------------------===//
  // Lookup
  //===--------------------------------------------------------------------===//

  const std::string &binder(uint32_t Id) const { return Names->Binders[Id]; }

  RVal lookup(const Env &E, const std::string &Name) {
    for (const EnvNode *N = E.get(); N; N = N->Parent.get())
      if (N->Name == Name)
        return N->Value;
    trap("unbound local '" + Name + "' in reference interpreter");
  }

  //===--------------------------------------------------------------------===//
  // Dyn introspection (lazy-D: injected values carry their type)
  //===--------------------------------------------------------------------===//

  const Type *typeOfDyn(const RVal &V) {
    switch (V->K) {
    case RV::Kind::Unit:
      return Types.unit();
    case RV::Kind::Bool:
      return Types.boolean();
    case RV::Kind::Int:
      return Types.integer();
    case RV::Kind::Float:
      return Types.floating();
    case RV::Kind::Char:
      return Types.character();
    case RV::Kind::Dyn:
      return V->SourceType;
    default:
      trap("untagged structured value in Dyn position");
    }
  }

  RVal dynUnwrap(const RVal &V) {
    return V->K == RV::Kind::Dyn ? V->Wrapped : V;
  }

  RVal inject(RVal V, const Type *S) {
    if (S->isAtomic())
      return V; // atomic values are self-describing
    RVal D = mk(RV::Kind::Dyn);
    D->Wrapped = std::move(V);
    D->SourceType = S;
    return D;
  }

  //===--------------------------------------------------------------------===//
  // Cast reduction (Figure 18 cast rules + Figure 6 structure)
  //===--------------------------------------------------------------------===//

  RVal applyCoercion(const RVal &V, const Coercion *C) {
    switch (C->kind()) {
    case CoercionKind::Id:
      return V;
    case CoercionKind::Sequence:
      return applyCoercion(applyCoercion(V, C->first()), C->second());
    case CoercionKind::Project: {
      const Type *S = typeOfDyn(V);
      const Coercion *C2 = F.makeForProjection(C, S);
      return applyCoercion(dynUnwrap(V), C2);
    }
    case CoercionKind::Inject:
      return inject(V, C->type());
    case CoercionKind::Fail:
      blame(C->label(), "the value " + render(V, 3) +
                            " does not have the type promised at this cast");
    case CoercionKind::Fun: {
      // u⟨i⟩⟨c⟩ → u⟨i ⨟ c⟩ — the space-efficiency reduction.
      if (V->K == RV::Kind::FunProxy) {
        const Coercion *Composed = F.compose(V->Crcn, C);
        if (Composed->isId())
          return V->Wrapped;
        RVal P = mk(RV::Kind::FunProxy);
        P->Wrapped = V->Wrapped;
        P->Crcn = Composed;
        return P;
      }
      assert(V->K == RV::Kind::Closure && "fun coercion on non-function");
      RVal P = mk(RV::Kind::FunProxy);
      P->Wrapped = V;
      P->Crcn = C;
      return P;
    }
    case CoercionKind::RefC: {
      if (V->K == RV::Kind::RefProxy) {
        const Coercion *Composed = F.compose(V->Crcn, C);
        if (Composed->isId())
          return V->Wrapped;
        RVal P = mk(RV::Kind::RefProxy);
        P->Wrapped = V->Wrapped;
        P->Crcn = Composed;
        return P;
      }
      assert(V->K == RV::Kind::Addr && "ref coercion on non-reference");
      RVal P = mk(RV::Kind::RefProxy);
      P->Wrapped = V;
      P->Crcn = C;
      return P;
    }
    case CoercionKind::TupleC: {
      assert(V->K == RV::Kind::Tuple);
      RVal T = mk(RV::Kind::Tuple);
      for (size_t I = 0; I != V->Elements.size(); ++I)
        T->Elements.push_back(
            applyCoercion(V->Elements[I], C->element(I)));
      return T;
    }
    case CoercionKind::Rec:
      return applyCoercion(V, C->body());
    }
    trap("unknown coercion");
  }

  RVal castTo(const RVal &V, const Type *S, const Type *T,
              const std::string &Label) {
    return applyCoercion(V, F.make(S, T, Label));
  }

  //===--------------------------------------------------------------------===//
  // Store operations (the statefull reduction rules)
  //===--------------------------------------------------------------------===//

  RVal storeRead(const RVal &Ref, int64_t Index) {
    if (Ref->K == RV::Kind::RefProxy) {
      // !(a⟨Ref c d⟩) → (!a)⟨d⟩
      RVal Raw = storeRead(Ref->Wrapped, Index);
      return applyCoercion(Raw, Ref->Crcn->readCoercion());
    }
    assert(Ref->K == RV::Kind::Addr);
    auto &Cell = Store[Ref->Address];
    if (Index < 0 || static_cast<size_t>(Index) >= Cell.size())
      trap("vector index " + std::to_string(Index) + " out of bounds");
    return Cell[static_cast<size_t>(Index)];
  }

  void storeWrite(const RVal &Ref, int64_t Index, RVal V) {
    if (Ref->K == RV::Kind::RefProxy) {
      // a⟨Ref c d⟩ := v → a := v⟨c⟩
      storeWrite(Ref->Wrapped, Index,
                 applyCoercion(V, Ref->Crcn->writeCoercion()));
      return;
    }
    assert(Ref->K == RV::Kind::Addr);
    auto &Cell = Store[Ref->Address];
    if (Index < 0 || static_cast<size_t>(Index) >= Cell.size())
      trap("vector index " + std::to_string(Index) + " out of bounds");
    Cell[static_cast<size_t>(Index)] = std::move(V);
  }

  size_t storeLength(const RVal &Ref) {
    if (Ref->K == RV::Kind::RefProxy)
      return storeLength(Ref->Wrapped);
    return Store[Ref->Address].size();
  }

  //===--------------------------------------------------------------------===//
  // Application
  //===--------------------------------------------------------------------===//

  RVal apply(const RVal &Callee, std::vector<RVal> Args,
             const std::string &Where) {
    if (Callee->K == RV::Kind::FunProxy) {
      // u⟨c → d⟩ v → (u (v⟨c⟩))⟨d⟩
      const Coercion *C = Callee->Crcn;
      assert(C->kind() == CoercionKind::Fun && C->arity() == Args.size());
      for (size_t I = 0; I != Args.size(); ++I)
        Args[I] = applyCoercion(Args[I], C->arg(I));
      RVal Result = apply(Callee->Wrapped, std::move(Args), Where);
      return applyCoercion(Result, C->result());
    }
    if (Callee->K != RV::Kind::Closure)
      trap("application of a non-function at " + Where);
    const Node &Lambda = *Callee->Lambda;
    if (Lambda.Ty->arity() != Args.size())
      trap("arity mismatch at " + Where);
    Env E = Callee->Captured;
    for (size_t I = 0; I != Args.size(); ++I)
      E = extend(E, binder(Lambda.Id + I), std::move(Args[I]));
    DepthGuard Depth(*this);
    return eval(*Lambda.Subs[0], E);
  }

  //===--------------------------------------------------------------------===//
  // Evaluation
  //===--------------------------------------------------------------------===//

  RVal eval(const Node &N, Env E) {
    EvalDepthGuard Depth(*this);
    chargeStep();
    switch (N.Kind) {
    case NodeKind::LitUnit:
      return mkUnit();
    case NodeKind::LitBool:
      return mkBool(N.BoolVal);
    case NodeKind::LitInt:
      return mkInt(N.IntVal);
    case NodeKind::LitFloat:
      return mkFloat(N.FloatVal);
    case NodeKind::LitChar:
      return mkChar(N.CharVal);
    case NodeKind::LocalRef:
      return lookup(E, binder(N.Id));
    case NodeKind::GlobalRef: {
      const std::string &Name = Names->Globals[N.Id];
      auto It = Globals.find(Name);
      if (It == Globals.end())
        trap("global '" + Name + "' used before its definition");
      return It->second;
    }
    case NodeKind::If: {
      RVal Cond = eval(*N.Subs[0], E);
      assert(Cond->K == RV::Kind::Bool);
      return eval(Cond->B ? *N.Subs[1] : *N.Subs[2], E);
    }
    case NodeKind::Lambda: {
      RVal V = mk(RV::Kind::Closure);
      V->Lambda = &N;
      V->Captured = E;
      return V;
    }
    case NodeKind::App: {
      RVal Callee = eval(*N.Subs[0], E);
      std::vector<RVal> Args;
      for (size_t I = 1; I != N.Subs.size(); ++I)
        Args.push_back(eval(*N.Subs[I], E));
      return apply(Callee, std::move(Args), N.Loc.str());
    }
    case NodeKind::AppDyn: {
      RVal Callee = eval(*N.Subs[0], E);
      std::vector<RVal> Args;
      for (size_t I = 1; I != N.Subs.size(); ++I)
        Args.push_back(eval(*N.Subs[I], E));
      const Type *FT = typeOfDyn(Callee);
      if (FT->isRec())
        FT = Types.unfold(FT);
      if (!FT->isFunction())
        blame(N.blameLabel(),
              "application of a value of type " + FT->str());
      if (FT->arity() != Args.size())
        blame(N.blameLabel(), "arity mismatch");
      for (size_t I = 0; I != Args.size(); ++I)
        Args[I] = castTo(Args[I], Types.dyn(), FT->param(I), N.blameLabel());
      RVal Result =
          apply(dynUnwrap(Callee), std::move(Args), N.Loc.str());
      return castTo(Result, FT->result(), Types.dyn(), N.blameLabel());
    }
    case NodeKind::PrimApp:
      return evalPrim(N, E);
    case NodeKind::Let: {
      Env E2 = E;
      for (size_t I = 0; I + 1 != N.Subs.size(); ++I)
        E2 = extend(E2, binder(N.Id + I), eval(*N.Subs[I], E));
      return eval(*N.Subs.back(), E2);
    }
    case NodeKind::Letrec: {
      Env E2 = E;
      std::vector<EnvNode *> Cells;
      for (size_t I = 0; I + 1 != N.Subs.size(); ++I) {
        E2 = extend(E2, binder(N.Id + I), mkUnit());
        Cells.push_back(E2.get());
      }
      for (size_t I = 0; I != Cells.size(); ++I)
        Cells[I]->Value = eval(*N.Subs[I], E2);
      return eval(*N.Subs.back(), E2);
    }
    case NodeKind::Begin: {
      RVal Last = mkUnit();
      for (const Node *Sub : N.Subs)
        Last = eval(*Sub, E);
      return Last;
    }
    case NodeKind::Repeat: {
      RVal Lo = eval(*N.Subs[0], E);
      RVal Hi = eval(*N.Subs[1], E);
      RVal Acc = mkUnit();
      size_t BodyIndex = 2;
      if (N.HasAcc) {
        Acc = eval(*N.Subs[2], E);
        BodyIndex = 3;
      }
      for (int64_t I = Lo->I; I < Hi->I; ++I) {
        Env E2 = extend(E, binder(N.Id), mkInt(I));
        if (N.HasAcc)
          E2 = extend(E2, binder(N.Id + 1), Acc);
        RVal Body = eval(*N.Subs[BodyIndex], E2);
        if (N.HasAcc)
          Acc = Body;
      }
      return Acc;
    }
    case NodeKind::Time:
      return eval(*N.Subs[0], E); // no measurement in the ref semantics
    case NodeKind::Tuple: {
      RVal T = mk(RV::Kind::Tuple);
      for (const Node *Sub : N.Subs)
        T->Elements.push_back(eval(*Sub, E));
      return T;
    }
    case NodeKind::TupleProj: {
      RVal T = eval(*N.Subs[0], E);
      assert(T->K == RV::Kind::Tuple && N.Index < T->Elements.size());
      return T->Elements[N.Index];
    }
    case NodeKind::TupleProjDyn: {
      RVal V = eval(*N.Subs[0], E);
      const Type *T = typeOfDyn(V);
      if (T->isRec())
        T = Types.unfold(T);
      if (!T->isTuple() || N.Index >= T->tupleSize())
        blame(N.blameLabel(),
              "tuple projection from a value of type " + T->str());
      RVal Tup = dynUnwrap(V);
      return castTo(Tup->Elements[N.Index], T->element(N.Index),
                    Types.dyn(), N.blameLabel());
    }
    case NodeKind::BoxAlloc: {
      RVal Init = eval(*N.Subs[0], E);
      RVal A = mk(RV::Kind::Addr);
      A->Address = Store.size();
      Store.push_back({std::move(Init)});
      IsBoxCell.push_back(true);
      return A;
    }
    case NodeKind::Unbox:
      return storeRead(eval(*N.Subs[0], E), 0);
    case NodeKind::UnboxDyn: {
      RVal V = eval(*N.Subs[0], E);
      const Type *T = typeOfDyn(V);
      if (T->isRec())
        T = Types.unfold(T);
      if (!T->isBox())
        blame(N.blameLabel(), "unbox of a value of type " + T->str());
      RVal Content = storeRead(dynUnwrap(V), 0);
      return castTo(Content, T->inner(), Types.dyn(), N.blameLabel());
    }
    case NodeKind::BoxSet: {
      RVal Ref = eval(*N.Subs[0], E);
      RVal V = eval(*N.Subs[1], E);
      storeWrite(Ref, 0, std::move(V));
      return mkUnit();
    }
    case NodeKind::BoxSetDyn: {
      RVal D = eval(*N.Subs[0], E);
      RVal V = eval(*N.Subs[1], E);
      const Type *T = typeOfDyn(D);
      if (T->isRec())
        T = Types.unfold(T);
      if (!T->isBox())
        blame(N.blameLabel(), "box-set! of a value of type " + T->str());
      storeWrite(dynUnwrap(D), 0,
                 castTo(V, Types.dyn(), T->inner(), N.blameLabel()));
      return mkUnit();
    }
    case NodeKind::MakeVect: {
      RVal Size = eval(*N.Subs[0], E);
      RVal Init = eval(*N.Subs[1], E);
      if (Size->I < 0)
        trap("invalid vector size " + std::to_string(Size->I));
      RVal A = mk(RV::Kind::Addr);
      A->Address = Store.size();
      Store.emplace_back(static_cast<size_t>(Size->I), Init);
      IsBoxCell.push_back(false);
      return A;
    }
    case NodeKind::VectRef: {
      RVal Ref = eval(*N.Subs[0], E);
      RVal Index = eval(*N.Subs[1], E);
      return storeRead(Ref, Index->I);
    }
    case NodeKind::VectRefDyn: {
      RVal D = eval(*N.Subs[0], E);
      RVal Index = eval(*N.Subs[1], E);
      const Type *T = typeOfDyn(D);
      if (T->isRec())
        T = Types.unfold(T);
      if (!T->isVect())
        blame(N.blameLabel(), "vector-ref of a value of type " + T->str());
      RVal V = storeRead(dynUnwrap(D), Index->I);
      return castTo(V, T->inner(), Types.dyn(), N.blameLabel());
    }
    case NodeKind::VectSet: {
      RVal Ref = eval(*N.Subs[0], E);
      RVal Index = eval(*N.Subs[1], E);
      RVal V = eval(*N.Subs[2], E);
      storeWrite(Ref, Index->I, std::move(V));
      return mkUnit();
    }
    case NodeKind::VectSetDyn: {
      RVal D = eval(*N.Subs[0], E);
      RVal Index = eval(*N.Subs[1], E);
      RVal V = eval(*N.Subs[2], E);
      const Type *T = typeOfDyn(D);
      if (T->isRec())
        T = Types.unfold(T);
      if (!T->isVect())
        blame(N.blameLabel(), "vector-set! of a value of type " + T->str());
      storeWrite(dynUnwrap(D), Index->I,
                 castTo(V, Types.dyn(), T->inner(), N.blameLabel()));
      return mkUnit();
    }
    case NodeKind::VectLen:
      return mkInt(static_cast<int64_t>(storeLength(eval(*N.Subs[0], E))));
    case NodeKind::VectLenDyn: {
      RVal D = eval(*N.Subs[0], E);
      const Type *T = typeOfDyn(D);
      if (T->isRec())
        T = Types.unfold(T);
      if (!T->isVect())
        blame(N.blameLabel(),
              "vector-length of a value of type " + T->str());
      return mkInt(static_cast<int64_t>(storeLength(dynUnwrap(D))));
    }
    case NodeKind::Cast: {
      RVal V = eval(*N.Subs[0], E);
      return castTo(V, N.SrcTy, N.Ty, N.blameLabel());
    }
    }
    trap("unhandled node kind in reference interpreter");
  }

  RVal evalPrim(const Node &N, Env E) {
    std::vector<RVal> Args;
    for (const Node *Sub : N.Subs)
      Args.push_back(eval(*Sub, E));
    auto AsI = [&](size_t I) { return Args[I]->I; };
    auto AsF = [&](size_t I) { return Args[I]->F; };
    switch (N.Prim) {
    case PrimOp::AddI:
      return mkInt(AsI(0) + AsI(1));
    case PrimOp::SubI:
      return mkInt(AsI(0) - AsI(1));
    case PrimOp::MulI:
      return mkInt(AsI(0) * AsI(1));
    case PrimOp::DivI:
      if (AsI(1) == 0)
        trap("integer division by zero");
      return mkInt(AsI(0) / AsI(1));
    case PrimOp::ModI:
      if (AsI(1) == 0)
        trap("integer modulo by zero");
      return mkInt(AsI(0) % AsI(1));
    case PrimOp::LtI:
      return mkBool(AsI(0) < AsI(1));
    case PrimOp::LeI:
      return mkBool(AsI(0) <= AsI(1));
    case PrimOp::EqI:
      return mkBool(AsI(0) == AsI(1));
    case PrimOp::GeI:
      return mkBool(AsI(0) >= AsI(1));
    case PrimOp::GtI:
      return mkBool(AsI(0) > AsI(1));
    case PrimOp::AddF:
      return mkFloat(AsF(0) + AsF(1));
    case PrimOp::SubF:
      return mkFloat(AsF(0) - AsF(1));
    case PrimOp::MulF:
      return mkFloat(AsF(0) * AsF(1));
    case PrimOp::DivF:
      return mkFloat(AsF(0) / AsF(1));
    case PrimOp::ModF:
      return mkFloat(std::fmod(AsF(0), AsF(1)));
    case PrimOp::ExptF:
      return mkFloat(std::pow(AsF(0), AsF(1)));
    case PrimOp::Atan2F:
      return mkFloat(std::atan2(AsF(0), AsF(1)));
    case PrimOp::MinF:
      return mkFloat(std::fmin(AsF(0), AsF(1)));
    case PrimOp::MaxF:
      return mkFloat(std::fmax(AsF(0), AsF(1)));
    case PrimOp::LtF:
      return mkBool(AsF(0) < AsF(1));
    case PrimOp::LeF:
      return mkBool(AsF(0) <= AsF(1));
    case PrimOp::EqF:
      return mkBool(AsF(0) == AsF(1));
    case PrimOp::GeF:
      return mkBool(AsF(0) >= AsF(1));
    case PrimOp::GtF:
      return mkBool(AsF(0) > AsF(1));
    case PrimOp::NegF:
      return mkFloat(-AsF(0));
    case PrimOp::AbsF:
      return mkFloat(std::fabs(AsF(0)));
    case PrimOp::SqrtF:
      return mkFloat(std::sqrt(AsF(0)));
    case PrimOp::SinF:
      return mkFloat(std::sin(AsF(0)));
    case PrimOp::CosF:
      return mkFloat(std::cos(AsF(0)));
    case PrimOp::TanF:
      return mkFloat(std::tan(AsF(0)));
    case PrimOp::AsinF:
      return mkFloat(std::asin(AsF(0)));
    case PrimOp::AcosF:
      return mkFloat(std::acos(AsF(0)));
    case PrimOp::AtanF:
      return mkFloat(std::atan(AsF(0)));
    case PrimOp::ExpF:
      return mkFloat(std::exp(AsF(0)));
    case PrimOp::LogF:
      return mkFloat(std::log(AsF(0)));
    case PrimOp::FloorF:
      return mkFloat(std::floor(AsF(0)));
    case PrimOp::CeilingF:
      return mkFloat(std::ceil(AsF(0)));
    case PrimOp::RoundF:
      return mkFloat(std::nearbyint(AsF(0)));
    case PrimOp::IntToFloat:
      return mkFloat(static_cast<double>(AsI(0)));
    case PrimOp::FloatToInt:
      return mkInt(static_cast<int64_t>(AsF(0)));
    case PrimOp::IntToChar:
      return mkChar(static_cast<char>(AsI(0)));
    case PrimOp::CharToInt:
      return mkInt(static_cast<unsigned char>(Args[0]->C));
    case PrimOp::Not:
      return mkBool(!Args[0]->B);
    case PrimOp::PrintInt:
      Output += std::to_string(AsI(0));
      return mkUnit();
    case PrimOp::PrintFloat:
      Output += formatDouble(AsF(0));
      return mkUnit();
    case PrimOp::PrintChar:
      Output += Args[0]->C;
      return mkUnit();
    case PrimOp::PrintBool:
      Output += Args[0]->B ? "#t" : "#f";
      return mkUnit();
    case PrimOp::ReadInt:
      return mkInt(readIntFromInput());
    case PrimOp::ReadChar: {
      if (InputPos >= Input.size())
        trap("read-char: end of input");
      return mkChar(Input[InputPos++]);
    }
    }
    trap("unknown primitive");
  }

  int64_t readIntFromInput() {
    while (InputPos < Input.size() &&
           std::isspace(static_cast<unsigned char>(Input[InputPos])))
      ++InputPos;
    size_t Start = InputPos;
    if (InputPos < Input.size() &&
        (Input[InputPos] == '-' || Input[InputPos] == '+'))
      ++InputPos;
    while (InputPos < Input.size() &&
           std::isdigit(static_cast<unsigned char>(Input[InputPos])))
      ++InputPos;
    int64_t Out = 0;
    if (!parseInt64(std::string_view(Input).substr(Start, InputPos - Start),
                    Out))
      trap("read-int: no integer available on input");
    return Out;
  }

  //===--------------------------------------------------------------------===//
  // Rendering
  //===--------------------------------------------------------------------===//

  std::string render(const RVal &V, unsigned Depth) {
    if (Depth == 0)
      return "...";
    switch (V->K) {
    case RV::Kind::Unit:
      return "()";
    case RV::Kind::Bool:
      return V->B ? "#t" : "#f";
    case RV::Kind::Int:
      return std::to_string(V->I);
    case RV::Kind::Float:
      return formatDouble(V->F);
    case RV::Kind::Char:
      return std::string("#\\") + V->C;
    case RV::Kind::Tuple: {
      std::string Out = "#(";
      for (size_t I = 0; I != V->Elements.size(); ++I) {
        if (I != 0)
          Out += ' ';
        Out += render(V->Elements[I], Depth - 1);
      }
      return Out + ")";
    }
    case RV::Kind::Closure:
    case RV::Kind::FunProxy:
      return "#<procedure>";
    case RV::Kind::Addr:
    case RV::Kind::RefProxy: {
      size_t Length = storeLength(V);
      RVal Base = V;
      while (Base->K == RV::Kind::RefProxy)
        Base = Base->Wrapped;
      if (IsBoxCell[Base->Address])
        return "#&" + render(storeRead(V, 0), Depth - 1);
      std::string Out = "#vec(";
      size_t Limit = std::min<size_t>(Length, 8);
      for (size_t I = 0; I != Limit; ++I) {
        if (I != 0)
          Out += ' ';
        Out += render(storeRead(V, static_cast<int64_t>(I)), Depth - 1);
      }
      if (Length > Limit)
        Out += " ...";
      return Out + ")";
    }
    case RV::Kind::Dyn:
      return render(V->Wrapped, Depth);
    }
    return "?";
  }
};

} // namespace

RefResult grift::refinterp::interpret(TypeContext &Types,
                                      CoercionFactory &Coercions,
                                      const CoreProgram &Prog,
                                      std::string Input,
                                      const RunLimits &Limits) {
  // Run the evaluator on a thread with a large explicit stack: eval()
  // recursion tracks interpreted call depth (no tail calls), and
  // sanitizer builds inflate each frame several-fold, so the default
  // process stack cannot hold NativeEvalDepthCap levels. 128 MB of
  // (lazily committed) stack gives the cap a wide margin in any build.
  struct Job {
    TypeContext &Types;
    CoercionFactory &Coercions;
    const CoreProgram &Prog;
    std::string Input;
    const RunLimits &Limits;
    RefResult Result;
  } TheJob{Types, Coercions, Prog, std::move(Input), Limits, {}};

  auto Run = [](void *Arg) -> void * {
    Job &J = *static_cast<Job *>(Arg);
    J.Result = Interp(J.Types, J.Coercions, std::move(J.Input), J.Limits)
                   .run(J.Prog);
    return nullptr;
  };

  pthread_attr_t Attr;
  pthread_t Thread;
  if (pthread_attr_init(&Attr) != 0 ||
      pthread_attr_setstacksize(&Attr, 128u << 20) != 0 ||
      pthread_create(&Thread, &Attr, Run, &TheJob) != 0) {
    // Could not provision the big stack; interpret on this thread (the
    // eval-depth guard still bounds recursion, with less headroom).
    return Interp(Types, Coercions, std::move(TheJob.Input), Limits)
        .run(Prog);
  }
  pthread_attr_destroy(&Attr);
  pthread_join(Thread, nullptr);
  return std::move(TheJob.Result);
}
