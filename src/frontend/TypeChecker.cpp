#include "frontend/TypeChecker.h"

#include "types/TypeOps.h"

#include <cassert>
#include <initializer_list>
#include <unordered_map>

using namespace grift;
using namespace grift::core;

namespace {

class TypeChecker {
public:
  TypeChecker(TypeContext &Ctx, DiagnosticEngine &Diags)
      : Ctx(Ctx), Diags(Diags), A(Out.arena()) {}

  std::optional<CoreProgram> run(const Program &Prog) {
    declareGlobals(Prog);
    if (Diags.hasErrors())
      return std::nullopt;
    Out.Defs.reserve(Prog.Defines.size());
    for (const Define &D : Prog.Defines) {
      Def CoreDef;
      if (D.Name.empty()) {
        CoreDef.Body = check(*D.Body);
        if (!CoreDef.Body)
          return std::nullopt;
        CoreDef.Ty = CoreDef.Body->Ty;
        Out.Defs.push_back(CoreDef);
        continue;
      }
      Global &G = Globals.find(D.Name)->second;
      const Type *Declared = G.Ty;
      // A function define without a separate annotation commits to its
      // declared type so recursive calls and the body agree without an
      // extra wrapper cast; an explicitly annotated define keeps the cast
      // (that cast is the interesting one, cf. sort! in paper Figure 3).
      Node *Body;
      if (D.Body->Kind == ExprKind::Lambda && !D.Annot && Declared)
        Body = checkLambda(*D.Body, Declared);
      else
        Body = check(*D.Body);
      if (!Body)
        return std::nullopt;
      if (Declared) {
        Body = coerceTo(Body, Declared, D.Loc);
        if (!Body)
          return std::nullopt;
      } else {
        Declared = Body->Ty;
        G.Ty = Declared;
      }
      CoreDef.Global = G.Index;
      CoreDef.Ty = Declared;
      CoreDef.Body = Body;
      Out.Defs.push_back(CoreDef);
    }
    if (Diags.hasErrors())
      return std::nullopt;
    return std::move(Out);
  }

private:
  TypeContext &Ctx;
  DiagnosticEngine &Diags;
  /// The program being built; every node and child list goes to its
  /// arena A.
  CoreProgram Out;
  Arena &A;
  /// The scratch stacks variable-length child lists (and their types)
  /// gather on; each list is copied into the arena once it is complete
  /// and popped, so nested lists share the stacks.
  std::vector<Node *> SubScratch;
  std::vector<const Type *> TypeScratch;
  /// A top-level define: its declared type (null until a value define
  /// without annotation is reached) and its global index.
  struct Global {
    const Type *Ty = nullptr;
    int32_t Index = 0;
  };
  /// Keyed by views of the AST's names, which outlive the check.
  std::unordered_map<std::string_view, Global> Globals;
  /// A local binding; the view names an AST string.
  struct Local {
    std::string_view Name;
    const Type *Ty;
    uint32_t Id;
  };
  /// Local bindings, innermost last.
  std::vector<Local> Locals;

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
  uint32_t bind(std::string_view Name, const Type *T) {
    auto Id = static_cast<uint32_t>(Out.Names.Binders.size());
    Out.Names.Binders.emplace_back(Name);
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
      auto Index = static_cast<int32_t>(Out.Names.Globals.size());
      auto [It, Fresh] = Globals.try_emplace(D.Name, Global{nullptr, Index});
      if (!Fresh) {
        Diags.error(D.Loc,
                    "duplicate definition of '" + std::string(D.Name) + "'");
        continue;
      }
      Out.Names.Globals.emplace_back(D.Name);
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

  /// A node with the children \p Subs.
  Node *make(NodeKind Kind, const Type *Ty, SourceLoc Loc,
             std::initializer_list<Node *> Subs = {}) {
    Node *N = A.make<Node>();
    N->Kind = Kind;
    N->Ty = Ty;
    N->Loc = Loc;
    N->Subs = A.copy<Node *>(Subs);
    return N;
  }

  /// Copies SubScratch[Mark...] into the arena and pops it.
  std::span<Node *> finish(size_t Mark) {
    std::span<Node *> Subs =
        A.copy<Node *>(std::span(SubScratch).subspan(Mark));
    SubScratch.resize(Mark);
    return Subs;
  }

  /// Inserts a cast from \p N's type to \p Target when needed. Reports a
  /// static error when the types are inconsistent.
  Node *coerceTo(Node *N, const Type *Target, SourceLoc Loc) {
    if (!N)
      return nullptr;
    if (N->Ty == Target)
      return N;
    if (!consistent(Ctx, N->Ty, Target)) {
      Diags.error(Loc, "cannot cast " + N->Ty->str() + " to " + Target->str());
      return nullptr;
    }
    Node *CastNode = make(NodeKind::Cast, Target, Loc, {N});
    CastNode->SrcTy = N->Ty;
    return CastNode;
  }

  Node *error(SourceLoc Loc, std::string Message) {
    Diags.error(Loc, std::move(Message));
    return nullptr;
  }

  //===--------------------------------------------------------------------===//
  // Checking
  //===--------------------------------------------------------------------===//

  Node *check(const Expr &E) {
    switch (E.Kind) {
    case ExprKind::LitUnit:
      return make(NodeKind::LitUnit, Ctx.unit(), E.Loc);
    case ExprKind::LitBool: {
      Node *N = make(NodeKind::LitBool, Ctx.boolean(), E.Loc);
      N->BoolVal = E.BoolVal;
      return N;
    }
    case ExprKind::LitInt: {
      Node *N = make(NodeKind::LitInt, Ctx.integer(), E.Loc);
      N->IntVal = E.IntVal;
      return N;
    }
    case ExprKind::LitFloat: {
      Node *N = make(NodeKind::LitFloat, Ctx.floating(), E.Loc);
      N->FloatVal = E.FloatVal;
      return N;
    }
    case ExprKind::LitChar: {
      Node *N = make(NodeKind::LitChar, Ctx.character(), E.Loc);
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
      Node *Body = check(*E.SubExprs[0]);
      if (!Body)
        return nullptr;
      return make(NodeKind::Time, Body->Ty, E.Loc, {Body});
    }
    case ExprKind::Tuple:
      return checkTuple(E);
    case ExprKind::TupleProj:
      return checkTupleProj(E);
    case ExprKind::BoxE: {
      Node *Init = check(*E.SubExprs[0]);
      if (!Init)
        return nullptr;
      return make(NodeKind::BoxAlloc, Ctx.box(Init->Ty), E.Loc, {Init});
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
    case ExprKind::Ascribe:
      return coerceTo(check(*E.SubExprs[0]), E.Annot, E.Loc);
    }
    return nullptr;
  }

  Node *checkVar(const Expr &E) {
    if (const Local *L = lookupLocal(E.Name)) {
      Node *N = make(NodeKind::LocalRef, L->Ty, E.Loc);
      N->Id = L->Id;
      return N;
    }
    auto It = Globals.find(E.Name);
    if (It != Globals.end() && It->second.Ty) {
      Node *N = make(NodeKind::GlobalRef, It->second.Ty, E.Loc);
      N->Id = static_cast<uint32_t>(It->second.Index);
      return N;
    }
    return error(E.Loc, "undefined variable '" + std::string(E.Name) + "'");
  }

  Node *checkIf(const Expr &E) {
    Node *Cond = coerceTo(check(*E.SubExprs[0]), Ctx.boolean(),
                          E.SubExprs[0]->Loc);
    if (!Cond)
      return nullptr;
    Node *Then = check(*E.SubExprs[1]);
    Node *Else = check(*E.SubExprs[2]);
    if (!Then || !Else)
      return nullptr;
    const Type *Joined = meet(Ctx, Then->Ty, Else->Ty);
    if (!Joined)
      return error(E.Loc, "if branches have inconsistent types " +
                              Then->Ty->str() + " and " + Else->Ty->str());
    Then = coerceTo(Then, Joined, E.SubExprs[1]->Loc);
    Else = coerceTo(Else, Joined, E.SubExprs[2]->Loc);
    if (!Then || !Else)
      return nullptr;
    return make(NodeKind::If, Joined, E.Loc, {Cond, Then, Else});
  }

  /// Checks a lambda. When \p Committed is a function type, the lambda is
  /// being checked against a recursive declaration: parameters take the
  /// committed types and the body is cast to the committed return type.
  Node *checkLambda(const Expr &E, const Type *Committed) {
    std::vector<const Type *> ParamTypes;
    for (const Param &P : E.Params)
      ParamTypes.push_back(P.Annot ? P.Annot : Ctx.dyn());

    ScopeGuard Guard(*this);
    auto FirstParam = static_cast<uint32_t>(Out.Names.Binders.size());
    for (size_t I = 0; I != E.Params.size(); ++I)
      bind(E.Params[I].Name, ParamTypes[I]);
    Node *Body = check(*E.SubExprs[0]);
    if (!Body)
      return nullptr;
    const Type *Ret;
    if (E.ReturnAnnot)
      Ret = E.ReturnAnnot;
    else if (Committed)
      Ret = Committed->result();
    else
      Ret = Body->Ty;
    Body = coerceTo(Body, Ret, E.Loc);
    if (!Body)
      return nullptr;
    const Type *FnTy = Ctx.function(std::move(ParamTypes), Ret);
    Node *N = make(NodeKind::Lambda, FnTy, E.Loc, {Body});
    N->Id = FirstParam;
    return N;
  }

  Node *checkApp(const Expr &E) {
    Node *Callee = check(*E.SubExprs[0]);
    if (!Callee)
      return nullptr;
    size_t NumArgs = E.SubExprs.size() - 1;
    size_t Mark = SubScratch.size();

    if (Callee->Ty->isDyn()) {
      // The Section 3 optimization: apply a Dyn value directly, checking
      // and converting at the call site without allocating a proxy.
      SubScratch.push_back(Callee);
      for (size_t I = 1; I != E.SubExprs.size(); ++I) {
        Node *Arg = coerceTo(check(*E.SubExprs[I]), Ctx.dyn(),
                             E.SubExprs[I]->Loc);
        if (!Arg)
          return nullptr;
        SubScratch.push_back(Arg);
      }
      Node *N = make(NodeKind::AppDyn, Ctx.dyn(), E.Loc);
      N->Subs = finish(Mark);
      return N;
    }

    if (!Callee->Ty->isFunction())
      return error(E.Loc,
                   "cannot apply a value of type " + Callee->Ty->str());
    if (Callee->Ty->arity() != NumArgs)
      return error(E.Loc, "arity mismatch: function expects " +
                              std::to_string(Callee->Ty->arity()) +
                              " arguments, got " + std::to_string(NumArgs));
    const Type *FnTy = Callee->Ty;
    SubScratch.push_back(Callee);
    for (size_t I = 0; I != NumArgs; ++I) {
      Node *Arg = coerceTo(check(*E.SubExprs[I + 1]), FnTy->param(I),
                           E.SubExprs[I + 1]->Loc);
      if (!Arg)
        return nullptr;
      SubScratch.push_back(Arg);
    }
    Node *N = make(NodeKind::App, FnTy->result(), E.Loc);
    N->Subs = finish(Mark);
    return N;
  }

  Node *checkPrimApp(const Expr &E) {
    assert(primArity(E.Prim) == E.SubExprs.size() && "parser enforced arity");
    size_t Mark = SubScratch.size();
    for (size_t I = 0; I != E.SubExprs.size(); ++I) {
      Node *Arg = coerceTo(check(*E.SubExprs[I]), primParam(Ctx, E.Prim, I),
                           E.SubExprs[I]->Loc);
      if (!Arg)
        return nullptr;
      SubScratch.push_back(Arg);
    }
    Node *N = make(NodeKind::PrimApp, primResult(Ctx, E.Prim), E.Loc);
    N->Prim = E.Prim;
    N->Subs = finish(Mark);
    return N;
  }

  Node *checkLet(const Expr &E) {
    size_t Mark = SubScratch.size();
    size_t TypesMark = TypeScratch.size();
    for (const Binding &B : E.Bindings) {
      Node *Init = check(*B.Init);
      if (!Init)
        return nullptr;
      const Type *T = B.Annot ? B.Annot : Init->Ty;
      Init = coerceTo(Init, T, B.Loc);
      if (!Init)
        return nullptr;
      SubScratch.push_back(Init);
      TypeScratch.push_back(T);
    }
    ScopeGuard Guard(*this);
    auto FirstBinder = static_cast<uint32_t>(Out.Names.Binders.size());
    for (size_t I = 0; I != E.Bindings.size(); ++I)
      bind(E.Bindings[I].Name, TypeScratch[TypesMark + I]);
    TypeScratch.resize(TypesMark);
    Node *Body = check(*E.SubExprs[0]);
    if (!Body)
      return nullptr;
    SubScratch.push_back(Body);
    Node *N = make(NodeKind::Let, Body->Ty, E.Loc);
    N->Id = FirstBinder;
    N->Subs = finish(Mark);
    return N;
  }

  Node *checkLetrec(const Expr &E) {
    ScopeGuard Guard(*this);
    auto FirstBinder = static_cast<uint32_t>(Out.Names.Binders.size());
    size_t TypesMark = TypeScratch.size();
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
      TypeScratch.push_back(Declared);
      bind(B.Name, Declared);
    }
    size_t Mark = SubScratch.size();
    for (size_t I = 0; I != E.Bindings.size(); ++I) {
      const Binding &B = E.Bindings[I];
      const Type *Declared = TypeScratch[TypesMark + I];
      Node *Init = coerceTo(
          checkLambda(*B.Init, B.Annot ? nullptr : Declared), Declared, B.Loc);
      if (!Init)
        return nullptr;
      SubScratch.push_back(Init);
    }
    TypeScratch.resize(TypesMark);
    Node *Body = check(*E.SubExprs[0]);
    if (!Body)
      return nullptr;
    SubScratch.push_back(Body);
    Node *N = make(NodeKind::Letrec, Body->Ty, E.Loc);
    N->Id = FirstBinder;
    N->Subs = finish(Mark);
    return N;
  }

  Node *checkBegin(const Expr &E) {
    size_t Mark = SubScratch.size();
    for (const Expr *Sub : E.SubExprs) {
      Node *Checked = check(*Sub);
      if (!Checked)
        return nullptr;
      SubScratch.push_back(Checked);
    }
    Node *N = make(NodeKind::Begin, SubScratch.back()->Ty, E.Loc);
    N->Subs = finish(Mark);
    return N;
  }

  Node *checkRepeat(const Expr &E) {
    // Sub = [lo, hi, (accInit)?, body]
    Node *Subs[4];
    Subs[0] = check(*E.SubExprs[0]);
    Subs[1] = check(*E.SubExprs[1]);
    if (!Subs[0] || !Subs[1])
      return nullptr;
    Subs[0] = coerceTo(Subs[0], Ctx.integer(), E.SubExprs[0]->Loc);
    Subs[1] = coerceTo(Subs[1], Ctx.integer(), E.SubExprs[1]->Loc);
    if (!Subs[0] || !Subs[1])
      return nullptr;

    const Type *AccTy = Ctx.unit();
    size_t BodyIndex = 2;
    if (E.HasAcc) {
      Node *AccInit = check(*E.SubExprs[2]);
      if (!AccInit)
        return nullptr;
      AccTy = E.AccAnnot ? E.AccAnnot : AccInit->Ty;
      Subs[2] = coerceTo(AccInit, AccTy, E.SubExprs[2]->Loc);
      if (!Subs[2])
        return nullptr;
      BodyIndex = 3;
    }

    ScopeGuard Guard(*this);
    uint32_t IndexBinder = bind(E.Name, Ctx.integer());
    if (E.HasAcc)
      bind(E.AccName, AccTy);
    Node *Body = check(*E.SubExprs[BodyIndex]);
    if (!Body)
      return nullptr;
    if (E.HasAcc) {
      Body = coerceTo(Body, AccTy, E.SubExprs[BodyIndex]->Loc);
      if (!Body)
        return nullptr;
    }
    Subs[BodyIndex] = Body;
    Node *N = make(NodeKind::Repeat, AccTy, E.Loc);
    N->HasAcc = E.HasAcc;
    N->Id = IndexBinder;
    N->Subs = A.copy<Node *>(std::span(Subs, BodyIndex + 1));
    return N;
  }

  Node *checkTuple(const Expr &E) {
    size_t Mark = SubScratch.size();
    std::vector<const Type *> Types;
    Types.reserve(E.SubExprs.size());
    for (const Expr *Sub : E.SubExprs) {
      Node *Checked = check(*Sub);
      if (!Checked)
        return nullptr;
      Types.push_back(Checked->Ty);
      SubScratch.push_back(Checked);
    }
    Node *N = make(NodeKind::Tuple, Ctx.tuple(std::move(Types)), E.Loc);
    N->Subs = finish(Mark);
    return N;
  }

  Node *checkTupleProj(const Expr &E) {
    Node *Target = check(*E.SubExprs[0]);
    if (!Target)
      return nullptr;
    if (Target->Ty->isDyn()) {
      Node *N = make(NodeKind::TupleProjDyn, Ctx.dyn(), E.Loc, {Target});
      N->Index = E.Index;
      return N;
    }
    if (!Target->Ty->isTuple()) {
      // A recursive type may hide a tuple one unfolding away.
      if (Target->Ty->isRec()) {
        Target = coerceTo(Target, Ctx.unfold(Target->Ty), E.Loc);
        if (!Target)
          return nullptr;
        if (Target->Ty->isTuple())
          return finishTupleProj(Target, E);
      }
      return error(E.Loc, "tuple-proj of non-tuple type");
    }
    return finishTupleProj(Target, E);
  }

  Node *finishTupleProj(Node *Target, const Expr &E) {
    if (E.Index >= Target->Ty->tupleSize())
      return error(E.Loc, "tuple index " + std::to_string(E.Index) +
                              " out of bounds for " + Target->Ty->str());
    Node *N = make(NodeKind::TupleProj, Target->Ty->element(E.Index), E.Loc,
                   {Target});
    N->Index = E.Index;
    return N;
  }

  /// Coerces a Rec-typed node one unfolding when the unfolded type has the
  /// wanted shape; used by the elimination forms.
  Node *maybeUnfold(Node *N, SourceLoc Loc) {
    if (N && N->Ty->isRec())
      return coerceTo(N, Ctx.unfold(N->Ty), Loc);
    return N;
  }

  Node *checkUnbox(const Expr &E) {
    Node *Target = maybeUnfold(check(*E.SubExprs[0]), E.Loc);
    if (!Target)
      return nullptr;
    if (Target->Ty->isDyn())
      return make(NodeKind::UnboxDyn, Ctx.dyn(), E.Loc, {Target});
    if (!Target->Ty->isBox())
      return error(E.Loc, "unbox of non-box type " + Target->Ty->str());
    return make(NodeKind::Unbox, Target->Ty->inner(), E.Loc, {Target});
  }

  Node *checkBoxSet(const Expr &E) {
    Node *Target = maybeUnfold(check(*E.SubExprs[0]), E.Loc);
    Node *Value = check(*E.SubExprs[1]);
    if (!Target || !Value)
      return nullptr;
    if (Target->Ty->isDyn()) {
      Value = coerceTo(Value, Ctx.dyn(), E.SubExprs[1]->Loc);
      if (!Value)
        return nullptr;
      return make(NodeKind::BoxSetDyn, Ctx.unit(), E.Loc, {Target, Value});
    }
    if (!Target->Ty->isBox())
      return error(E.Loc, "box-set! of non-box type " + Target->Ty->str());
    Value = coerceTo(Value, Target->Ty->inner(), E.SubExprs[1]->Loc);
    if (!Value)
      return nullptr;
    return make(NodeKind::BoxSet, Ctx.unit(), E.Loc, {Target, Value});
  }

  Node *checkMakeVect(const Expr &E) {
    Node *Size = check(*E.SubExprs[0]);
    Node *Init = check(*E.SubExprs[1]);
    if (!Size || !Init)
      return nullptr;
    Size = coerceTo(Size, Ctx.integer(), E.SubExprs[0]->Loc);
    if (!Size)
      return nullptr;
    return make(NodeKind::MakeVect, Ctx.vect(Init->Ty), E.Loc, {Size, Init});
  }

  Node *checkVectRef(const Expr &E) {
    Node *Target = maybeUnfold(check(*E.SubExprs[0]), E.Loc);
    Node *Index = check(*E.SubExprs[1]);
    if (!Target || !Index)
      return nullptr;
    Index = coerceTo(Index, Ctx.integer(), E.SubExprs[1]->Loc);
    if (!Index)
      return nullptr;
    if (Target->Ty->isDyn())
      return make(NodeKind::VectRefDyn, Ctx.dyn(), E.Loc, {Target, Index});
    if (!Target->Ty->isVect())
      return error(E.Loc, "vector-ref of non-vector type " +
                              Target->Ty->str());
    return make(NodeKind::VectRef, Target->Ty->inner(), E.Loc,
                {Target, Index});
  }

  Node *checkVectSet(const Expr &E) {
    Node *Target = maybeUnfold(check(*E.SubExprs[0]), E.Loc);
    Node *Index = check(*E.SubExprs[1]);
    Node *Value = check(*E.SubExprs[2]);
    if (!Target || !Index || !Value)
      return nullptr;
    Index = coerceTo(Index, Ctx.integer(), E.SubExprs[1]->Loc);
    if (!Index)
      return nullptr;
    if (Target->Ty->isDyn()) {
      Value = coerceTo(Value, Ctx.dyn(), E.SubExprs[2]->Loc);
      if (!Value)
        return nullptr;
      return make(NodeKind::VectSetDyn, Ctx.unit(), E.Loc,
                  {Target, Index, Value});
    }
    if (!Target->Ty->isVect())
      return error(E.Loc, "vector-set! of non-vector type " +
                              Target->Ty->str());
    Value = coerceTo(Value, Target->Ty->inner(), E.SubExprs[2]->Loc);
    if (!Value)
      return nullptr;
    return make(NodeKind::VectSet, Ctx.unit(), E.Loc, {Target, Index, Value});
  }

  Node *checkVectLen(const Expr &E) {
    Node *Target = maybeUnfold(check(*E.SubExprs[0]), E.Loc);
    if (!Target)
      return nullptr;
    if (Target->Ty->isDyn())
      return make(NodeKind::VectLenDyn, Ctx.integer(), E.Loc, {Target});
    if (!Target->Ty->isVect())
      return error(E.Loc, "vector-length of non-vector type " +
                              Target->Ty->str());
    return make(NodeKind::VectLen, Ctx.integer(), E.Loc, {Target});
  }
};

} // namespace

std::optional<CoreProgram> grift::typeCheck(TypeContext &Ctx,
                                            const Program &Prog,
                                            DiagnosticEngine &Diags) {
  return TypeChecker(Ctx, Diags).run(Prog);
}
