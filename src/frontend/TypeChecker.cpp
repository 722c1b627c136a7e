#include "frontend/TypeChecker.h"

#include "types/TypeOps.h"

#include <cassert>
#include <unordered_map>

using namespace grift;
using namespace grift::core;

namespace {

class TypeChecker {
public:
  TypeChecker(TypeContext &Ctx, DiagnosticEngine &Diags)
      : Ctx(Ctx), Diags(Diags) {}

  std::optional<CoreProgram> run(const Program &Prog) {
    declareGlobals(Prog);
    if (Diags.hasErrors())
      return std::nullopt;
    CoreProgram Out;
    for (const Define &D : Prog.Defines) {
      Def CoreDef;
      if (D.Name.empty()) {
        CoreDef.Body = check(*D.Body);
        if (!CoreDef.Body)
          return std::nullopt;
        CoreDef.Ty = CoreDef.Body->Ty;
        Out.Defs.push_back(std::move(CoreDef));
        continue;
      }
      Global &G = Globals.find(D.Name)->second;
      const Type *Declared = G.Ty;
      // A function define without a separate annotation commits to its
      // declared type so recursive calls and the body agree without an
      // extra wrapper cast; an explicitly annotated define keeps the cast
      // (that cast is the interesting one, cf. sort! in paper Figure 3).
      NodePtr Body;
      if (D.Body->Kind == ExprKind::Lambda && !D.Annot && Declared)
        Body = checkLambda(*D.Body, Declared);
      else
        Body = check(*D.Body);
      if (!Body)
        return std::nullopt;
      if (Declared) {
        Body = coerceTo(std::move(Body), Declared, D.Loc);
        if (!Body)
          return std::nullopt;
      } else {
        Declared = Body->Ty;
        G.Ty = Declared;
      }
      CoreDef.Global = G.Index;
      CoreDef.Ty = Declared;
      CoreDef.Body = std::move(Body);
      Out.Defs.push_back(std::move(CoreDef));
    }
    if (Diags.hasErrors())
      return std::nullopt;
    Out.Names = std::move(Names);
    return Out;
  }

private:
  TypeContext &Ctx;
  DiagnosticEngine &Diags;
  /// A top-level define: its declared type (null until a value define
  /// without annotation is reached) and its global index.
  struct Global {
    const Type *Ty = nullptr;
    int32_t Index = 0;
  };
  std::unordered_map<std::string, Global> Globals;
  /// A local binding; the view names an AST string.
  struct Local {
    std::string_view Name;
    const Type *Ty;
    uint32_t Id;
  };
  /// Local bindings, innermost last.
  std::vector<Local> Locals;
  NameTable Names;

  //===--------------------------------------------------------------------===//
  // Environment
  //===--------------------------------------------------------------------===//

  /// Drops the bindings made in its lifetime.
  struct ScopeGuard {
    TypeChecker &Checker;
    size_t Mark;
    explicit ScopeGuard(TypeChecker &Checker)
        : Checker(Checker), Mark(Checker.Locals.size()) {}
    ~ScopeGuard() { Checker.Locals.resize(Mark); }
  };

  /// Binds \p Name to a fresh binder id and returns the id. The binders
  /// of one form get consecutive ids.
  uint32_t bind(const std::string &Name, const Type *T) {
    auto Id = static_cast<uint32_t>(Names.Binders.size());
    Names.Binders.push_back(Name);
    Locals.push_back({Name, T, Id});
    return Id;
  }

  const Local *lookupLocal(std::string_view Name) const {
    for (size_t I = Locals.size(); I-- > 0;)
      if (Locals[I].Name == Name)
        return &Locals[I];
    return nullptr;
  }

  /// Declares every annotated or function-shaped define before checking
  /// bodies, enabling (mutual) recursion at the top level.
  void declareGlobals(const Program &Prog) {
    for (const Define &D : Prog.Defines) {
      if (D.Name.empty())
        continue;
      auto [It, Fresh] = Globals.try_emplace(
          D.Name, Global{nullptr, static_cast<int32_t>(Names.Globals.size())});
      if (!Fresh) {
        Diags.error(D.Loc, "duplicate definition of '" + D.Name + "'");
        continue;
      }
      Names.Globals.push_back(D.Name);
      if (D.Annot)
        It->second.Ty = D.Annot;
      else if (D.Body->Kind == ExprKind::Lambda)
        It->second.Ty = lambdaDeclaredType(*D.Body);
      // A value define without annotation is synthesized at its program
      // point; forward references are "undefined variable" errors.
    }
  }

  /// The committed type of a recursive lambda: annotated parameter types
  /// (Dyn when omitted) and the annotated return type (Dyn when omitted).
  const Type *lambdaDeclaredType(const Expr &Lambda) {
    std::vector<const Type *> Params;
    for (const Param &P : Lambda.Params)
      Params.push_back(P.Annot ? P.Annot : Ctx.dyn());
    const Type *Ret = Lambda.ReturnAnnot ? Lambda.ReturnAnnot : Ctx.dyn();
    return Ctx.function(std::move(Params), Ret);
  }

  //===--------------------------------------------------------------------===//
  // Node construction
  //===--------------------------------------------------------------------===//

  NodePtr make(NodeKind Kind, const Type *Ty, SourceLoc Loc) {
    auto N = std::make_unique<Node>();
    N->Kind = Kind;
    N->Ty = Ty;
    N->Loc = Loc;
    return N;
  }

  /// Inserts a cast from \p N's type to \p Target when needed. Reports a
  /// static error when the types are inconsistent.
  NodePtr coerceTo(NodePtr N, const Type *Target, SourceLoc Loc) {
    if (!N)
      return nullptr;
    if (N->Ty == Target)
      return N;
    if (!consistent(Ctx, N->Ty, Target)) {
      Diags.error(Loc, "cannot cast " + N->Ty->str() + " to " + Target->str());
      return nullptr;
    }
    NodePtr CastNode = make(NodeKind::Cast, Target, Loc);
    CastNode->SrcTy = N->Ty;
    CastNode->Subs.push_back(std::move(N));
    return CastNode;
  }

  NodePtr error(SourceLoc Loc, std::string Message) {
    Diags.error(Loc, std::move(Message));
    return nullptr;
  }

  //===--------------------------------------------------------------------===//
  // Checking
  //===--------------------------------------------------------------------===//

  NodePtr check(const Expr &E) {
    switch (E.Kind) {
    case ExprKind::LitUnit:
      return make(NodeKind::LitUnit, Ctx.unit(), E.Loc);
    case ExprKind::LitBool: {
      NodePtr N = make(NodeKind::LitBool, Ctx.boolean(), E.Loc);
      N->BoolVal = E.BoolVal;
      return N;
    }
    case ExprKind::LitInt: {
      NodePtr N = make(NodeKind::LitInt, Ctx.integer(), E.Loc);
      N->IntVal = E.IntVal;
      return N;
    }
    case ExprKind::LitFloat: {
      NodePtr N = make(NodeKind::LitFloat, Ctx.floating(), E.Loc);
      N->FloatVal = E.FloatVal;
      return N;
    }
    case ExprKind::LitChar: {
      NodePtr N = make(NodeKind::LitChar, Ctx.character(), E.Loc);
      N->CharVal = E.CharVal;
      return N;
    }
    case ExprKind::Var:
      return checkVar(E);
    case ExprKind::If:
      return checkIf(E);
    case ExprKind::Lambda:
      return checkLambda(E, nullptr);
    case ExprKind::App:
      return checkApp(E);
    case ExprKind::PrimApp:
      return checkPrimApp(E);
    case ExprKind::Let:
      return checkLet(E);
    case ExprKind::Letrec:
      return checkLetrec(E);
    case ExprKind::Begin:
      return checkBegin(E);
    case ExprKind::Repeat:
      return checkRepeat(E);
    case ExprKind::Time: {
      NodePtr Body = check(*E.SubExprs[0]);
      if (!Body)
        return nullptr;
      NodePtr N = make(NodeKind::Time, Body->Ty, E.Loc);
      N->Subs.push_back(std::move(Body));
      return N;
    }
    case ExprKind::Tuple:
      return checkTuple(E);
    case ExprKind::TupleProj:
      return checkTupleProj(E);
    case ExprKind::BoxE: {
      NodePtr Init = check(*E.SubExprs[0]);
      if (!Init)
        return nullptr;
      NodePtr N = make(NodeKind::BoxAlloc, Ctx.box(Init->Ty), E.Loc);
      N->Subs.push_back(std::move(Init));
      return N;
    }
    case ExprKind::Unbox:
      return checkUnbox(E);
    case ExprKind::BoxSet:
      return checkBoxSet(E);
    case ExprKind::MakeVect:
      return checkMakeVect(E);
    case ExprKind::VectRef:
      return checkVectRef(E);
    case ExprKind::VectSet:
      return checkVectSet(E);
    case ExprKind::VectLen:
      return checkVectLen(E);
    case ExprKind::Ascribe: {
      NodePtr Body = check(*E.SubExprs[0]);
      if (!Body)
        return nullptr;
      return coerceTo(std::move(Body), E.Annot, E.Loc);
    }
    }
    return nullptr;
  }

  NodePtr checkVar(const Expr &E) {
    if (const Local *L = lookupLocal(E.Name)) {
      NodePtr N = make(NodeKind::LocalRef, L->Ty, E.Loc);
      N->Id = L->Id;
      return N;
    }
    auto It = Globals.find(E.Name);
    if (It != Globals.end() && It->second.Ty) {
      NodePtr N = make(NodeKind::GlobalRef, It->second.Ty, E.Loc);
      N->Id = static_cast<uint32_t>(It->second.Index);
      return N;
    }
    return error(E.Loc, "undefined variable '" + E.Name + "'");
  }

  NodePtr checkIf(const Expr &E) {
    NodePtr Cond = check(*E.SubExprs[0]);
    if (!Cond)
      return nullptr;
    Cond = coerceTo(std::move(Cond), Ctx.boolean(), E.SubExprs[0]->Loc);
    if (!Cond)
      return nullptr;
    NodePtr Then = check(*E.SubExprs[1]);
    NodePtr Else = check(*E.SubExprs[2]);
    if (!Then || !Else)
      return nullptr;
    const Type *Joined = meet(Ctx, Then->Ty, Else->Ty);
    if (!Joined)
      return error(E.Loc, "if branches have inconsistent types " +
                              Then->Ty->str() + " and " + Else->Ty->str());
    Then = coerceTo(std::move(Then), Joined, E.SubExprs[1]->Loc);
    Else = coerceTo(std::move(Else), Joined, E.SubExprs[2]->Loc);
    if (!Then || !Else)
      return nullptr;
    NodePtr N = make(NodeKind::If, Joined, E.Loc);
    N->Subs.push_back(std::move(Cond));
    N->Subs.push_back(std::move(Then));
    N->Subs.push_back(std::move(Else));
    return N;
  }

  /// Checks a lambda. When \p Committed is a function type, the lambda is
  /// being checked against a recursive declaration: parameters take the
  /// committed types and the body is cast to the committed return type.
  NodePtr checkLambda(const Expr &E, const Type *Committed) {
    std::vector<const Type *> ParamTypes;
    for (const Param &P : E.Params)
      ParamTypes.push_back(P.Annot ? P.Annot : Ctx.dyn());

    ScopeGuard Guard(*this);
    auto FirstParam = static_cast<uint32_t>(Names.Binders.size());
    for (size_t I = 0; I != E.Params.size(); ++I)
      bind(E.Params[I].Name, ParamTypes[I]);
    NodePtr Body = check(*E.SubExprs[0]);
    if (!Body)
      return nullptr;
    const Type *Ret;
    if (E.ReturnAnnot)
      Ret = E.ReturnAnnot;
    else if (Committed)
      Ret = Committed->result();
    else
      Ret = Body->Ty;
    Body = coerceTo(std::move(Body), Ret, E.Loc);
    if (!Body)
      return nullptr;
    const Type *FnTy = Ctx.function(std::move(ParamTypes), Ret);
    NodePtr N = make(NodeKind::Lambda, FnTy, E.Loc);
    N->Id = FirstParam;
    N->Subs.push_back(std::move(Body));
    return N;
  }

  NodePtr checkApp(const Expr &E) {
    NodePtr Callee = check(*E.SubExprs[0]);
    if (!Callee)
      return nullptr;
    size_t NumArgs = E.SubExprs.size() - 1;

    if (Callee->Ty->isDyn()) {
      // The Section 3 optimization: apply a Dyn value directly, checking
      // and converting at the call site without allocating a proxy.
      NodePtr N = make(NodeKind::AppDyn, Ctx.dyn(), E.Loc);
      N->Subs.push_back(std::move(Callee));
      for (size_t I = 1; I != E.SubExprs.size(); ++I) {
        NodePtr Arg = check(*E.SubExprs[I]);
        if (!Arg)
          return nullptr;
        Arg = coerceTo(std::move(Arg), Ctx.dyn(), E.SubExprs[I]->Loc);
        if (!Arg)
          return nullptr;
        N->Subs.push_back(std::move(Arg));
      }
      return N;
    }

    if (!Callee->Ty->isFunction())
      return error(E.Loc,
                   "cannot apply a value of type " + Callee->Ty->str());
    if (Callee->Ty->arity() != NumArgs)
      return error(E.Loc, "arity mismatch: function expects " +
                              std::to_string(Callee->Ty->arity()) +
                              " arguments, got " + std::to_string(NumArgs));
    NodePtr N = make(NodeKind::App, Callee->Ty->result(), E.Loc);
    const Type *FnTy = Callee->Ty;
    N->Subs.push_back(std::move(Callee));
    for (size_t I = 0; I != NumArgs; ++I) {
      NodePtr Arg = check(*E.SubExprs[I + 1]);
      if (!Arg)
        return nullptr;
      Arg = coerceTo(std::move(Arg), FnTy->param(I), E.SubExprs[I + 1]->Loc);
      if (!Arg)
        return nullptr;
      N->Subs.push_back(std::move(Arg));
    }
    return N;
  }

  NodePtr checkPrimApp(const Expr &E) {
    std::vector<const Type *> Params = primParams(Ctx, E.Prim);
    assert(Params.size() == E.SubExprs.size() && "parser enforced arity");
    NodePtr N = make(NodeKind::PrimApp, primResult(Ctx, E.Prim), E.Loc);
    N->Prim = E.Prim;
    for (size_t I = 0; I != E.SubExprs.size(); ++I) {
      NodePtr Arg = check(*E.SubExprs[I]);
      if (!Arg)
        return nullptr;
      Arg = coerceTo(std::move(Arg), Params[I], E.SubExprs[I]->Loc);
      if (!Arg)
        return nullptr;
      N->Subs.push_back(std::move(Arg));
    }
    return N;
  }

  NodePtr checkLet(const Expr &E) {
    std::vector<NodePtr> Inits;
    std::vector<const Type *> Types;
    for (const Binding &B : E.Bindings) {
      NodePtr Init = check(*B.Init);
      if (!Init)
        return nullptr;
      const Type *T = B.Annot ? B.Annot : Init->Ty;
      Init = coerceTo(std::move(Init), T, B.Loc);
      if (!Init)
        return nullptr;
      Inits.push_back(std::move(Init));
      Types.push_back(T);
    }
    ScopeGuard Guard(*this);
    NodePtr N = make(NodeKind::Let, nullptr, E.Loc);
    N->Id = static_cast<uint32_t>(Names.Binders.size());
    for (size_t I = 0; I != E.Bindings.size(); ++I) {
      bind(E.Bindings[I].Name, Types[I]);
      N->Subs.push_back(std::move(Inits[I]));
    }
    NodePtr Body = check(*E.SubExprs[0]);
    if (!Body)
      return nullptr;
    N->Ty = Body->Ty;
    N->Subs.push_back(std::move(Body));
    return N;
  }

  NodePtr checkLetrec(const Expr &E) {
    ScopeGuard Guard(*this);
    auto FirstBinder = static_cast<uint32_t>(Names.Binders.size());
    std::vector<const Type *> Types;
    for (const Binding &B : E.Bindings) {
      if (B.Init->Kind != ExprKind::Lambda) {
        return error(B.Loc, "letrec bindings must be lambda expressions");
      }
      // The annotation need not be a function type: a gradual annotation
      // like Dyn is satisfied by casting the lambda (the recursive uses
      // then go through Dyn application).
      const Type *Declared =
          B.Annot ? B.Annot : lambdaDeclaredType(*B.Init);
      if (!consistent(Ctx, Declared, lambdaDeclaredType(*B.Init)))
        return error(B.Loc, "letrec annotation is inconsistent with the "
                            "bound lambda");
      Types.push_back(Declared);
      bind(B.Name, Declared);
    }
    NodePtr N = make(NodeKind::Letrec, nullptr, E.Loc);
    N->Id = FirstBinder;
    for (size_t I = 0; I != E.Bindings.size(); ++I) {
      const Binding &B = E.Bindings[I];
      NodePtr Init =
          checkLambda(*B.Init, B.Annot ? nullptr : Types[I]);
      if (!Init)
        return nullptr;
      Init = coerceTo(std::move(Init), Types[I], B.Loc);
      if (!Init)
        return nullptr;
      N->Subs.push_back(std::move(Init));
    }
    NodePtr Body = check(*E.SubExprs[0]);
    if (!Body)
      return nullptr;
    N->Ty = Body->Ty;
    N->Subs.push_back(std::move(Body));
    return N;
  }

  NodePtr checkBegin(const Expr &E) {
    NodePtr N = make(NodeKind::Begin, nullptr, E.Loc);
    for (const ExprPtr &Sub : E.SubExprs) {
      NodePtr Checked = check(*Sub);
      if (!Checked)
        return nullptr;
      N->Subs.push_back(std::move(Checked));
    }
    N->Ty = N->Subs.back()->Ty;
    return N;
  }

  NodePtr checkRepeat(const Expr &E) {
    NodePtr Lo = check(*E.SubExprs[0]);
    NodePtr Hi = check(*E.SubExprs[1]);
    if (!Lo || !Hi)
      return nullptr;
    Lo = coerceTo(std::move(Lo), Ctx.integer(), E.SubExprs[0]->Loc);
    Hi = coerceTo(std::move(Hi), Ctx.integer(), E.SubExprs[1]->Loc);
    if (!Lo || !Hi)
      return nullptr;

    NodePtr N = make(NodeKind::Repeat, nullptr, E.Loc);
    N->HasAcc = E.HasAcc;
    N->Subs.push_back(std::move(Lo));
    N->Subs.push_back(std::move(Hi));

    const Type *AccTy = Ctx.unit();
    size_t BodyIndex = 2;
    if (E.HasAcc) {
      NodePtr AccInit = check(*E.SubExprs[2]);
      if (!AccInit)
        return nullptr;
      AccTy = E.AccAnnot ? E.AccAnnot : AccInit->Ty;
      AccInit = coerceTo(std::move(AccInit), AccTy, E.SubExprs[2]->Loc);
      if (!AccInit)
        return nullptr;
      N->Subs.push_back(std::move(AccInit));
      BodyIndex = 3;
    }

    ScopeGuard Guard(*this);
    N->Id = bind(E.Name, Ctx.integer());
    if (E.HasAcc)
      bind(E.AccName, AccTy);
    NodePtr Body = check(*E.SubExprs[BodyIndex]);
    if (!Body)
      return nullptr;
    if (E.HasAcc) {
      Body = coerceTo(std::move(Body), AccTy, E.SubExprs[BodyIndex]->Loc);
      if (!Body)
        return nullptr;
    }
    N->Ty = AccTy;
    N->Subs.push_back(std::move(Body));
    return N;
  }

  NodePtr checkTuple(const Expr &E) {
    NodePtr N = make(NodeKind::Tuple, nullptr, E.Loc);
    std::vector<const Type *> Types;
    for (const ExprPtr &Sub : E.SubExprs) {
      NodePtr Checked = check(*Sub);
      if (!Checked)
        return nullptr;
      Types.push_back(Checked->Ty);
      N->Subs.push_back(std::move(Checked));
    }
    N->Ty = Ctx.tuple(std::move(Types));
    return N;
  }

  NodePtr checkTupleProj(const Expr &E) {
    NodePtr Target = check(*E.SubExprs[0]);
    if (!Target)
      return nullptr;
    if (Target->Ty->isDyn()) {
      NodePtr N = make(NodeKind::TupleProjDyn, Ctx.dyn(), E.Loc);
      N->Index = E.Index;
      N->Subs.push_back(std::move(Target));
      return N;
    }
    if (!Target->Ty->isTuple()) {
      // A recursive type may hide a tuple one unfolding away.
      if (Target->Ty->isRec()) {
        const Type *Unfolded = Ctx.unfold(Target->Ty);
        Target = coerceTo(std::move(Target), Unfolded, E.Loc);
        if (!Target)
          return nullptr;
        if (Target->Ty->isTuple())
          return finishTupleProj(std::move(Target), E);
      }
      return error(E.Loc, "tuple-proj of non-tuple type");
    }
    return finishTupleProj(std::move(Target), E);
  }

  NodePtr finishTupleProj(NodePtr Target, const Expr &E) {
    if (E.Index >= Target->Ty->tupleSize())
      return error(E.Loc, "tuple index " + std::to_string(E.Index) +
                              " out of bounds for " + Target->Ty->str());
    NodePtr N =
        make(NodeKind::TupleProj, Target->Ty->element(E.Index), E.Loc);
    N->Index = E.Index;
    N->Subs.push_back(std::move(Target));
    return N;
  }

  /// Coerces a Rec-typed node one unfolding when the unfolded type has the
  /// wanted shape; used by the elimination forms.
  NodePtr maybeUnfold(NodePtr N, SourceLoc Loc) {
    if (N && N->Ty->isRec())
      return coerceTo(std::move(N), Ctx.unfold(N->Ty), Loc);
    return N;
  }

  NodePtr checkUnbox(const Expr &E) {
    NodePtr Target = maybeUnfold(check(*E.SubExprs[0]), E.Loc);
    if (!Target)
      return nullptr;
    if (Target->Ty->isDyn()) {
      NodePtr N = make(NodeKind::UnboxDyn, Ctx.dyn(), E.Loc);
      N->Subs.push_back(std::move(Target));
      return N;
    }
    if (!Target->Ty->isBox())
      return error(E.Loc, "unbox of non-box type " + Target->Ty->str());
    NodePtr N = make(NodeKind::Unbox, Target->Ty->inner(), E.Loc);
    N->Subs.push_back(std::move(Target));
    return N;
  }

  NodePtr checkBoxSet(const Expr &E) {
    NodePtr Target = maybeUnfold(check(*E.SubExprs[0]), E.Loc);
    NodePtr Value = check(*E.SubExprs[1]);
    if (!Target || !Value)
      return nullptr;
    if (Target->Ty->isDyn()) {
      Value = coerceTo(std::move(Value), Ctx.dyn(), E.SubExprs[1]->Loc);
      if (!Value)
        return nullptr;
      NodePtr N = make(NodeKind::BoxSetDyn, Ctx.unit(), E.Loc);
      N->Subs.push_back(std::move(Target));
      N->Subs.push_back(std::move(Value));
      return N;
    }
    if (!Target->Ty->isBox())
      return error(E.Loc, "box-set! of non-box type " + Target->Ty->str());
    Value = coerceTo(std::move(Value), Target->Ty->inner(),
                     E.SubExprs[1]->Loc);
    if (!Value)
      return nullptr;
    NodePtr N = make(NodeKind::BoxSet, Ctx.unit(), E.Loc);
    N->Subs.push_back(std::move(Target));
    N->Subs.push_back(std::move(Value));
    return N;
  }

  NodePtr checkMakeVect(const Expr &E) {
    NodePtr Size = check(*E.SubExprs[0]);
    NodePtr Init = check(*E.SubExprs[1]);
    if (!Size || !Init)
      return nullptr;
    Size = coerceTo(std::move(Size), Ctx.integer(), E.SubExprs[0]->Loc);
    if (!Size)
      return nullptr;
    NodePtr N = make(NodeKind::MakeVect, Ctx.vect(Init->Ty), E.Loc);
    N->Subs.push_back(std::move(Size));
    N->Subs.push_back(std::move(Init));
    return N;
  }

  NodePtr checkVectRef(const Expr &E) {
    NodePtr Target = maybeUnfold(check(*E.SubExprs[0]), E.Loc);
    NodePtr Index = check(*E.SubExprs[1]);
    if (!Target || !Index)
      return nullptr;
    Index = coerceTo(std::move(Index), Ctx.integer(), E.SubExprs[1]->Loc);
    if (!Index)
      return nullptr;
    if (Target->Ty->isDyn()) {
      NodePtr N = make(NodeKind::VectRefDyn, Ctx.dyn(), E.Loc);
      N->Subs.push_back(std::move(Target));
      N->Subs.push_back(std::move(Index));
      return N;
    }
    if (!Target->Ty->isVect())
      return error(E.Loc, "vector-ref of non-vector type " +
                              Target->Ty->str());
    NodePtr N = make(NodeKind::VectRef, Target->Ty->inner(), E.Loc);
    N->Subs.push_back(std::move(Target));
    N->Subs.push_back(std::move(Index));
    return N;
  }

  NodePtr checkVectSet(const Expr &E) {
    NodePtr Target = maybeUnfold(check(*E.SubExprs[0]), E.Loc);
    NodePtr Index = check(*E.SubExprs[1]);
    NodePtr Value = check(*E.SubExprs[2]);
    if (!Target || !Index || !Value)
      return nullptr;
    Index = coerceTo(std::move(Index), Ctx.integer(), E.SubExprs[1]->Loc);
    if (!Index)
      return nullptr;
    if (Target->Ty->isDyn()) {
      Value = coerceTo(std::move(Value), Ctx.dyn(), E.SubExprs[2]->Loc);
      if (!Value)
        return nullptr;
      NodePtr N = make(NodeKind::VectSetDyn, Ctx.unit(), E.Loc);
      N->Subs.push_back(std::move(Target));
      N->Subs.push_back(std::move(Index));
      N->Subs.push_back(std::move(Value));
      return N;
    }
    if (!Target->Ty->isVect())
      return error(E.Loc, "vector-set! of non-vector type " +
                              Target->Ty->str());
    Value = coerceTo(std::move(Value), Target->Ty->inner(),
                     E.SubExprs[2]->Loc);
    if (!Value)
      return nullptr;
    NodePtr N = make(NodeKind::VectSet, Ctx.unit(), E.Loc);
    N->Subs.push_back(std::move(Target));
    N->Subs.push_back(std::move(Index));
    N->Subs.push_back(std::move(Value));
    return N;
  }

  NodePtr checkVectLen(const Expr &E) {
    NodePtr Target = maybeUnfold(check(*E.SubExprs[0]), E.Loc);
    if (!Target)
      return nullptr;
    if (Target->Ty->isDyn()) {
      NodePtr N = make(NodeKind::VectLenDyn, Ctx.integer(), E.Loc);
      N->Subs.push_back(std::move(Target));
      return N;
    }
    if (!Target->Ty->isVect())
      return error(E.Loc, "vector-length of non-vector type " +
                              Target->Ty->str());
    NodePtr N = make(NodeKind::VectLen, Ctx.integer(), E.Loc);
    N->Subs.push_back(std::move(Target));
    return N;
  }
};

} // namespace

std::optional<CoreProgram> grift::typeCheck(TypeContext &Ctx,
                                            const Program &Prog,
                                            DiagnosticEngine &Diags) {
  return TypeChecker(Ctx, Diags).run(Prog);
}
