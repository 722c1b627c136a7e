#include "vm/Compiler.h"

#include <cassert>
#include <unordered_map>

using namespace grift;
using namespace grift::core;

namespace {

/// True when the primitive leaves a boolean on the stack — the only
/// primitives PrimJumpIfFalse may fuse over (its handler pops the
/// result as a condition).
bool isBoolValuedPrim(PrimOp P) {
  switch (P) {
  case PrimOp::LtI:
  case PrimOp::LeI:
  case PrimOp::EqI:
  case PrimOp::GeI:
  case PrimOp::GtI:
  case PrimOp::LtF:
  case PrimOp::LeF:
  case PrimOp::EqF:
  case PrimOp::GeF:
  case PrimOp::GtF:
  case PrimOp::Not:
    return true;
  default:
    return false;
  }
}

/// The fused compare-and-jump of a fixnum comparison, or
/// Op::PrimJumpIfFalse for the other bool-valued primitives.
Op compareJumpOp(PrimOp P) {
  switch (P) {
  case PrimOp::LtI:
    return Op::LtIntJumpIfFalse;
  case PrimOp::LeI:
    return Op::LeIntJumpIfFalse;
  case PrimOp::EqI:
    return Op::EqIntJumpIfFalse;
  case PrimOp::GeI:
    return Op::GeIntJumpIfFalse;
  case PrimOp::GtI:
    return Op::GtIntJumpIfFalse;
  default:
    return Op::PrimJumpIfFalse;
  }
}

/// Peephole superinstruction fusion over one compiled function.
///
/// A recognized adjacent pair is fused by overwriting its FIRST
/// instruction with the superinstruction; the second instruction stays
/// in its slot as a dead placeholder (the fused handler skips it with
/// ++IP). Jump targets are absolute instruction indices, so leaving the
/// placeholder in place means no target ever needs remapping — a pair is
/// simply not fused when some jump lands on its second slot, because the
/// jump must still be able to execute that instruction unfused.
///
/// Fuel equivalence: each fused handler charges two dispatch steps (one
/// at fetch, one mid-handler via VM_FUSED_STEP), so the 1024-step budget
/// and cancel-poll boundaries land exactly where the unfused expansion
/// would put them.
void fuseFunction(VMFunction &Fn) {
  std::vector<Instr> &Code = Fn.Code;
  std::vector<bool> IsTarget(Code.size() + 1, false);
  for (const Instr &I : Code)
    if (I.Code == Op::Jump || I.Code == Op::JumpIfFalse)
      IsTarget[static_cast<uint32_t>(I.A)] = true;
  // True when Code[At] and Code[At + 1] can fuse into a compare-and-jump.
  auto IsCompareJump = [&](size_t At) {
    return At + 1 < Code.size() && !IsTarget[At + 1] &&
           Code[At].Code == Op::Prim && Code[At + 1].Code == Op::JumpIfFalse &&
           isBoolValuedPrim(static_cast<PrimOp>(Code[At].A));
  };
  for (size_t I = 0; I + 1 < Code.size(); ++I) {
    if (IsTarget[I + 1])
      continue;
    Instr &A = Code[I];
    const Instr &B = Code[I + 1];
    if (IsCompareJump(I)) {
      Op Fused = compareJumpOp(static_cast<PrimOp>(A.A));
      A = Fused == Op::PrimJumpIfFalse ? Instr{Fused, A.A, B.A}
                                       : Instr{Fused, B.A, 0};
    } else if (A.Code == Op::PushInt && B.Code == Op::Prim) {
      // (push-int k; prim <; jump-if-false) fuses the compare with the
      // jump instead, whose handler needs no doPrim dispatch.
      auto P = static_cast<PrimOp>(B.A);
      if (IsCompareJump(I + 1) && compareJumpOp(P) != Op::PrimJumpIfFalse)
        continue;
      A = P == PrimOp::AddI   ? Instr{Op::PushIntAdd, A.A, 0}
          : P == PrimOp::SubI ? Instr{Op::PushIntSub, A.A, 0}
                              : Instr{Op::PushIntPrim, A.A, B.A};
    } else if (A.Code == Op::PushFloat && B.Code == Op::Prim) {
      A = {Op::PushFloatPrim, A.A, B.A};
    } else if (A.Code == Op::LocalGet && B.Code == Op::Call) {
      A = {Op::LocalGetCall, A.A, B.A};
    } else if (A.Code == Op::LocalGet && B.Code == Op::TailCall) {
      A = {Op::LocalGetTailCall, A.A, B.A};
    } else if (A.Code == Op::LocalGet && B.Code == Op::LocalGet) {
      A = {Op::LocalGetGet, A.A, B.A};
    } else {
      continue;
    }
    ++I; // the placeholder slot can head no further pair
  }
}

/// Per-function compilation state. Tracks lexical scopes, local slot
/// allocation (watermark), and the free variables this function captures
/// from its parent.
struct FnCtx {
  FnCtx *Parent = nullptr;
  VMFunction *Fn = nullptr;
  std::vector<std::unordered_map<std::string, int>> Scopes;
  std::vector<std::string> FreeNames;
  int NextLocal = 0;
  int MaxLocal = 0;

  int allocLocal() {
    int Slot = NextLocal++;
    MaxLocal = std::max(MaxLocal, NextLocal);
    return Slot;
  }

  void pushScope() { Scopes.emplace_back(); }
  void popScope(int SavedNext) {
    Scopes.pop_back();
    NextLocal = SavedNext;
  }

  void bind(const std::string &Name, int Slot) {
    Scopes.back()[Name] = Slot;
  }

  /// Finds \p Name in this function's scopes; -1 when not local.
  int findLocal(const std::string &Name) const {
    for (size_t I = Scopes.size(); I-- > 0;) {
      auto It = Scopes[I].find(Name);
      if (It != Scopes[I].end())
        return It->second;
    }
    return -1;
  }

  /// Index of \p Name in the capture list, adding it if needed.
  int freeIndex(const std::string &Name) {
    for (size_t I = 0; I != FreeNames.size(); ++I)
      if (FreeNames[I] == Name)
        return static_cast<int>(I);
    FreeNames.push_back(Name);
    return static_cast<int>(FreeNames.size() - 1);
  }
};

class Compiler {
public:
  Compiler(const CoreProgram &Core, TypeContext &Types,
           CoercionFactory &Coercions, CastMode Mode, bool Fuse)
      : Core(Core), Types(Types), Coercions(Coercions), Mode(Mode),
        Fuse(Fuse) {
    Prog.Mode = Mode;
  }

  std::optional<VMProgram> run(std::string &Error) {
    // Static Grift admits only fully static programs: no Dyn anywhere in
    // any expression's type (and hence no casts or Dyn operations).
    if (Mode == CastMode::Static) {
      for (const Def &D : Core.Defs)
        checkStatic(*D.Body);
      if (!CompileError.empty()) {
        Error = CompileError;
        return std::nullopt;
      }
    }
    // Globals first so references resolve in any order.
    for (const Def &D : Core.Defs) {
      if (D.Name.empty())
        continue;
      int Index = static_cast<int>(Prog.GlobalNames.size());
      GlobalIndex.emplace(D.Name, Index);
      Prog.GlobalNames.push_back(D.Name);
    }

    Prog.Functions.emplace_back(); // main = function 0
    FnCtx Main;
    Main.Fn = &Prog.Functions[0];
    Main.Fn->Name = "<main>";
    Main.pushScope();
    CurrentFn = &Main;

    bool PushedResult = false;
    for (size_t I = 0; I != Core.Defs.size(); ++I) {
      const Def &D = Core.Defs[I];
      bool Last = I + 1 == Core.Defs.size();
      compile(*D.Body, /*Tail=*/false);
      if (!D.Name.empty()) {
        emit(Op::GlobalSet, GlobalIndex.at(D.Name));
        if (Last) {
          emit(Op::PushUnit);
          PushedResult = true;
        }
      } else if (!Last) {
        emit(Op::Pop);
      } else {
        PushedResult = true;
      }
    }
    if (!PushedResult)
      emit(Op::PushUnit);
    emit(Op::Halt);
    Prog.Functions[0].NumParams = 0;
    Prog.Functions[0].NumLocals = static_cast<uint32_t>(Main.MaxLocal);

    if (!CompileError.empty()) {
      Error = CompileError;
      return std::nullopt;
    }
    if (Fuse)
      for (VMFunction &Fn : Prog.Functions)
        fuseFunction(Fn);
    return std::move(Prog);
  }

private:
  const CoreProgram &Core;
  TypeContext &Types;
  CoercionFactory &Coercions;
  CastMode Mode;
  bool Fuse;
  VMProgram Prog;
  std::unordered_map<std::string, int> GlobalIndex;
  FnCtx *CurrentFn = nullptr;
  std::string CompileError;

  //===--------------------------------------------------------------------===//
  // Emission helpers
  //===--------------------------------------------------------------------===//

  std::vector<Instr> &code() { return CurrentFn->Fn->Code; }

  void emit(Op Code, int32_t A = 0, int32_t B = 0) {
    CurrentFn->Fn->Code.push_back({Code, A, B});
  }

  /// Emits a jump with a dummy target; returns its index for patching.
  size_t emitJump(Op Code) {
    emit(Code, -1);
    return CurrentFn->Fn->Code.size() - 1;
  }

  void patchJump(size_t At) {
    code()[At].A = static_cast<int32_t>(code().size());
  }

  void fail(const std::string &Message) {
    if (CompileError.empty())
      CompileError = Message;
  }

  int castIndex(const Type *Src, const Type *Tgt,
                const std::string &Label) {
    CastDescriptor Desc;
    Desc.Src = Src;
    Desc.Tgt = Tgt;
    // Labels live in the coercion factory's interner so descriptors can
    // share pointers with coercions.
    Desc.Label = internLabel(Label);
    if (castModePrebuildsCoercions(Mode))
      Desc.C = Coercions.make(Src, Tgt, Label);
    // Dedupe.
    for (size_t I = 0; I != Prog.Casts.size(); ++I) {
      const CastDescriptor &Existing = Prog.Casts[I];
      if (Existing.Src == Desc.Src && Existing.Tgt == Desc.Tgt &&
          Existing.Label == Desc.Label)
        return static_cast<int>(I);
    }
    Prog.Casts.push_back(Desc);
    return static_cast<int>(Prog.Casts.size() - 1);
  }

  const std::string *internLabel(const std::string &Label) {
    return Coercions.internLabel(Label);
  }

  int siteIndex(const std::string &Label) {
    const std::string *Interned = internLabel(Label);
    for (size_t I = 0; I != Prog.Sites.size(); ++I)
      if (Prog.Sites[I].Label == Interned)
        return static_cast<int>(I);
    Prog.Sites.push_back({Interned});
    return static_cast<int>(Prog.Sites.size() - 1);
  }

  int typeIndex(const Type *T) {
    for (size_t I = 0; I != Prog.TypePool.size(); ++I)
      if (Prog.TypePool[I] == T)
        return static_cast<int>(I);
    Prog.TypePool.push_back(T);
    return static_cast<int>(Prog.TypePool.size() - 1);
  }

  int floatIndex(double D) {
    for (size_t I = 0; I != Prog.FloatPool.size(); ++I) {
      // Bit-compare so that -0.0 and NaN payloads are preserved.
      if (__builtin_bit_cast(uint64_t, Prog.FloatPool[I]) ==
          __builtin_bit_cast(uint64_t, D))
        return static_cast<int>(I);
    }
    Prog.FloatPool.push_back(D);
    return static_cast<int>(Prog.FloatPool.size() - 1);
  }

  //===--------------------------------------------------------------------===//
  // Variable access
  //===--------------------------------------------------------------------===//

  /// Emits a load of \p Name in \p Ctx, adding capture entries as needed.
  void emitVarLoad(FnCtx &Ctx, const std::string &Name) {
    int Slot = Ctx.findLocal(Name);
    if (Slot >= 0) {
      Ctx.Fn->Code.push_back({Op::LocalGet, Slot, 0});
      return;
    }
    // Captured from an enclosing function.
    if (!Ctx.Parent) {
      fail("unbound variable '" + Name + "' during compilation");
      Ctx.Fn->Code.push_back({Op::PushUnit, 0, 0});
      return;
    }
    int Index = Ctx.freeIndex(Name);
    Ctx.Fn->Code.push_back({Op::FreeGet, Index, 0});
  }

  //===--------------------------------------------------------------------===//
  // Lambdas
  //===--------------------------------------------------------------------===//

  /// Compiles \p Lambda into a fresh VM function and returns the function
  /// index; \p FreeOut receives the capture list (names resolved in the
  /// enclosing context).
  int compileLambda(const Node &Lambda, std::vector<std::string> &FreeOut) {
    int FnIndex = static_cast<int>(Prog.Functions.size());
    Prog.Functions.emplace_back();

    FnCtx Ctx;
    Ctx.Parent = CurrentFn;
    Ctx.Fn = &Prog.Functions[FnIndex];
    Ctx.Fn->Name = "<lambda@" + Lambda.Loc.str() + ">";
    Ctx.Fn->NumParams = static_cast<uint32_t>(Lambda.ParamNames.size());
    Ctx.pushScope();
    for (const std::string &Param : Lambda.ParamNames)
      Ctx.bind(Param, Ctx.allocLocal());

    FnCtx *Saved = CurrentFn;
    CurrentFn = &Ctx;
    compile(*Lambda.Subs[0], /*Tail=*/true);
    emit(Op::Return);
    CurrentFn = Saved;

    Ctx.Fn->NumLocals = static_cast<uint32_t>(
        std::max<int>(Ctx.MaxLocal, Ctx.Fn->NumParams));
    FreeOut = Ctx.FreeNames;
    return FnIndex;
  }

  /// Emits capture loads + MakeClosure for \p Lambda in the current
  /// context. Returns the capture list for letrec backpatching.
  std::vector<std::string> emitClosure(const Node &Lambda) {
    std::vector<std::string> Free;
    int FnIndex = compileLambda(Lambda, Free);
    for (const std::string &Name : Free)
      emitVarLoad(*CurrentFn, Name);
    emit(Op::MakeClosure, FnIndex, static_cast<int32_t>(Free.size()));
    return Free;
  }

  //===--------------------------------------------------------------------===//
  // Expression compilation
  //===--------------------------------------------------------------------===//

  void compile(const Node &N, bool Tail) {
    switch (N.Kind) {
    case NodeKind::LitUnit:
      emit(Op::PushUnit);
      return;
    case NodeKind::LitBool:
      emit(N.BoolVal ? Op::PushTrue : Op::PushFalse);
      return;
    case NodeKind::LitInt: {
      if (N.IntVal >= INT32_MIN && N.IntVal <= INT32_MAX) {
        emit(Op::PushInt, static_cast<int32_t>(N.IntVal));
      } else {
        Prog.IntPool.push_back(N.IntVal);
        emit(Op::PushIntBig, static_cast<int32_t>(Prog.IntPool.size() - 1));
      }
      return;
    }
    case NodeKind::LitFloat:
      emit(Op::PushFloat, floatIndex(N.FloatVal));
      return;
    case NodeKind::LitChar:
      emit(Op::PushChar, static_cast<unsigned char>(N.CharVal));
      return;
    case NodeKind::LocalRef:
      emitVarLoad(*CurrentFn, N.Name);
      return;
    case NodeKind::GlobalRef: {
      auto It = GlobalIndex.find(N.Name);
      if (It == GlobalIndex.end()) {
        fail("unknown global '" + N.Name + "'");
        emit(Op::PushUnit);
        return;
      }
      emit(Op::GlobalGet, It->second);
      return;
    }
    case NodeKind::If: {
      compile(*N.Subs[0], false);
      size_t ElseJump = emitJump(Op::JumpIfFalse);
      compile(*N.Subs[1], Tail);
      size_t EndJump = emitJump(Op::Jump);
      patchJump(ElseJump);
      compile(*N.Subs[2], Tail);
      patchJump(EndJump);
      return;
    }
    case NodeKind::Lambda:
      emitClosure(N);
      return;
    case NodeKind::App: {
      for (const NodePtr &Sub : N.Subs)
        compile(*Sub, false);
      emit(Tail ? Op::TailCall : Op::Call,
           static_cast<int32_t>(N.Subs.size() - 1));
      return;
    }
    case NodeKind::AppDyn: {
      if (Mode == CastMode::Static)
        fail("Dyn application in a static program");
      for (const NodePtr &Sub : N.Subs)
        compile(*Sub, false);
      emit(Op::AppDyn, static_cast<int32_t>(N.Subs.size() - 1),
           siteIndex(N.BlameLabel));
      return;
    }
    case NodeKind::PrimApp: {
      for (const NodePtr &Sub : N.Subs)
        compile(*Sub, false);
      emit(Op::Prim, static_cast<int32_t>(N.Prim));
      return;
    }
    case NodeKind::Let: {
      size_t NumBindings = N.BindingNames.size();
      int SavedNext = CurrentFn->NextLocal;
      std::vector<int> Slots;
      Slots.reserve(NumBindings);
      for (size_t I = 0; I != NumBindings; ++I)
        Slots.push_back(CurrentFn->allocLocal());
      // Parallel let: initializers see the outer scope only.
      for (size_t I = 0; I != NumBindings; ++I) {
        compile(*N.Subs[I], false);
        emit(Op::LocalSet, Slots[I]);
      }
      CurrentFn->pushScope();
      for (size_t I = 0; I != NumBindings; ++I)
        CurrentFn->bind(N.BindingNames[I], Slots[I]);
      compile(*N.Subs.back(), Tail);
      CurrentFn->popScope(SavedNext);
      return;
    }
    case NodeKind::Letrec:
      compileLetrec(N, Tail);
      return;
    case NodeKind::Begin: {
      for (size_t I = 0; I + 1 < N.Subs.size(); ++I) {
        compile(*N.Subs[I], false);
        emit(Op::Pop);
      }
      compile(*N.Subs.back(), Tail);
      return;
    }
    case NodeKind::Repeat:
      compileRepeat(N);
      return;
    case NodeKind::Time:
      emit(Op::TimeStart);
      compile(*N.Subs[0], false);
      emit(Op::TimeEnd);
      return;
    case NodeKind::Tuple: {
      for (const NodePtr &Sub : N.Subs)
        compile(*Sub, false);
      emit(Op::MakeTuple, static_cast<int32_t>(N.Subs.size()));
      return;
    }
    case NodeKind::TupleProj:
      compile(*N.Subs[0], false);
      emit(Op::TupleProj, static_cast<int32_t>(N.Index));
      return;
    case NodeKind::TupleProjDyn:
      requireGradual("tuple projection on Dyn");
      compile(*N.Subs[0], false);
      emit(Op::TupleProjDyn, static_cast<int32_t>(N.Index),
           siteIndex(N.BlameLabel));
      return;
    case NodeKind::BoxAlloc:
      compile(*N.Subs[0], false);
      if (Mode == CastMode::Monotonic)
        emit(Op::BoxNewMono, typeIndex(N.Ty->inner()));
      else
        emit(Op::BoxNew);
      return;
    case NodeKind::Unbox:
      compile(*N.Subs[0], false);
      // Monotonic payoff: a fully static view needs no check at all.
      if (Mode == CastMode::Static ||
          (Mode == CastMode::Monotonic && N.Ty->isStatic()))
        emit(Op::BoxGetFast);
      else if (Mode == CastMode::Monotonic)
        emit(Op::BoxGetMono, typeIndex(N.Ty), siteIndex(N.Loc.str()));
      else
        emit(Op::BoxGet);
      return;
    case NodeKind::UnboxDyn:
      requireGradual("unbox on Dyn");
      compile(*N.Subs[0], false);
      emit(Op::UnboxDyn, siteIndex(N.BlameLabel));
      return;
    case NodeKind::BoxSet:
      compile(*N.Subs[0], false);
      compile(*N.Subs[1], false);
      if (Mode == CastMode::Static ||
          (Mode == CastMode::Monotonic && N.Subs[1]->Ty->isStatic()))
        emit(Op::BoxSetFast);
      else if (Mode == CastMode::Monotonic)
        emit(Op::BoxSetMono, typeIndex(N.Subs[1]->Ty),
             siteIndex(N.Loc.str()));
      else
        emit(Op::BoxSet);
      return;
    case NodeKind::BoxSetDyn:
      requireGradual("box-set! on Dyn");
      compile(*N.Subs[0], false);
      compile(*N.Subs[1], false);
      emit(Op::BoxSetDyn, siteIndex(N.BlameLabel));
      return;
    case NodeKind::MakeVect:
      compile(*N.Subs[0], false);
      compile(*N.Subs[1], false);
      if (Mode == CastMode::Monotonic)
        emit(Op::MakeVectorMono, typeIndex(N.Ty->inner()));
      else
        emit(Op::MakeVector);
      return;
    case NodeKind::VectRef:
      compile(*N.Subs[0], false);
      compile(*N.Subs[1], false);
      if (Mode == CastMode::Static ||
          (Mode == CastMode::Monotonic && N.Ty->isStatic()))
        emit(Op::VecRefFast);
      else if (Mode == CastMode::Monotonic)
        emit(Op::VecRefMono, typeIndex(N.Ty), siteIndex(N.Loc.str()));
      else
        emit(Op::VecRef);
      return;
    case NodeKind::VectRefDyn:
      requireGradual("vector-ref on Dyn");
      compile(*N.Subs[0], false);
      compile(*N.Subs[1], false);
      emit(Op::VecRefDyn, siteIndex(N.BlameLabel));
      return;
    case NodeKind::VectSet:
      compile(*N.Subs[0], false);
      compile(*N.Subs[1], false);
      compile(*N.Subs[2], false);
      if (Mode == CastMode::Static ||
          (Mode == CastMode::Monotonic && N.Subs[2]->Ty->isStatic()))
        emit(Op::VecSetFast);
      else if (Mode == CastMode::Monotonic)
        emit(Op::VecSetMono, typeIndex(N.Subs[2]->Ty),
             siteIndex(N.Loc.str()));
      else
        emit(Op::VecSet);
      return;
    case NodeKind::VectSetDyn:
      requireGradual("vector-set! on Dyn");
      compile(*N.Subs[0], false);
      compile(*N.Subs[1], false);
      compile(*N.Subs[2], false);
      emit(Op::VecSetDyn, siteIndex(N.BlameLabel));
      return;
    case NodeKind::VectLen:
      compile(*N.Subs[0], false);
      // Monotonic mode never proxies references, so length is unchecked.
      emit(Mode == CastMode::Static || Mode == CastMode::Monotonic
               ? Op::VecLenFast
               : Op::VecLen);
      return;
    case NodeKind::VectLenDyn:
      requireGradual("vector-length on Dyn");
      compile(*N.Subs[0], false);
      emit(Op::VecLenDyn, siteIndex(N.BlameLabel));
      return;
    case NodeKind::Cast: {
      compile(*N.Subs[0], false);
      emitCast(N);
      return;
    }
    }
  }

  /// Emits a cast unless it is the identity (e.g. equirecursive
  /// fold/unfold between a μ type and its unfolding). Identity casts are
  /// elided in every mode — this is part of the compiler's compile-time
  /// cast specialization, and it is what lets Static Grift accept fully
  /// static programs that use recursive types.
  void emitCast(const Node &N) {
    const Coercion *C = Coercions.make(N.SrcTy, N.Ty, N.BlameLabel);
    if (C->isId())
      return;
    requireGradual("cast from " + N.SrcTy->str() + " to " + N.Ty->str());
    emit(Op::Cast, castIndex(N.SrcTy, N.Ty, N.BlameLabel));
  }

  void checkStatic(const Node &N) {
    if (N.Ty && N.Ty->hasDyn())
      fail("Static Grift requires a fully static program; expression at " +
           N.Loc.str() + " has type " + N.Ty->str());
    for (const NodePtr &Sub : N.Subs)
      checkStatic(*Sub);
  }

  void requireGradual(const std::string &What) {
    if (Mode == CastMode::Static)
      fail("Static Grift requires a fully static program, found " + What);
  }

  void compileLetrec(const Node &N, bool Tail) {
    size_t NumBindings = N.BindingNames.size();
    int SavedNext = CurrentFn->NextLocal;
    CurrentFn->pushScope();
    std::vector<int> Slots;
    for (size_t I = 0; I != NumBindings; ++I) {
      int Slot = CurrentFn->allocLocal();
      Slots.push_back(Slot);
      CurrentFn->bind(N.BindingNames[I], Slot);
    }
    // First pass: create every closure. Sibling captures read the not-
    // yet-initialized local (unit) and are patched below.
    std::vector<std::vector<std::string>> Captures(NumBindings);
    for (size_t I = 0; I != NumBindings; ++I) {
      const Node &Init = *N.Subs[I];
      if (Init.Kind == NodeKind::Lambda) {
        Captures[I] = emitClosure(Init);
      } else if (Init.Kind == NodeKind::Cast &&
                 Init.Subs[0]->Kind == NodeKind::Lambda) {
        Captures[I] = emitClosure(*Init.Subs[0]);
        emitCast(Init);
      } else {
        fail("letrec initializer must be a lambda");
        emit(Op::PushUnit);
      }
      emit(Op::LocalSet, Slots[I]);
    }
    // Second pass: patch sibling captures with the now-created closures.
    for (size_t I = 0; I != NumBindings; ++I) {
      for (size_t FreeIdx = 0; FreeIdx != Captures[I].size(); ++FreeIdx) {
        const std::string &Name = Captures[I][FreeIdx];
        bool IsSibling = false;
        for (const std::string &B : N.BindingNames)
          if (B == Name)
            IsSibling = true;
        if (!IsSibling)
          continue;
        // ClosureInitFree reaches the underlying closure through any
        // cast wrappers (DynBox, proxy closure) the initializer's
        // annotation cast may have added.
        emit(Op::LocalGet, Slots[I]); // the closure to patch
        emitVarLoad(*CurrentFn, Name);
        emit(Op::ClosureInitFree, static_cast<int32_t>(FreeIdx));
      }
    }
    compile(*N.Subs.back(), Tail);
    CurrentFn->popScope(SavedNext);
  }

  void compileRepeat(const Node &N) {
    int SavedNext = CurrentFn->NextLocal;
    CurrentFn->pushScope();
    int IndexSlot = CurrentFn->allocLocal();
    int LimitSlot = CurrentFn->allocLocal();
    int AccSlot = N.HasAcc ? CurrentFn->allocLocal() : -1;

    compile(*N.Subs[0], false); // lo
    emit(Op::LocalSet, IndexSlot);
    compile(*N.Subs[1], false); // hi
    emit(Op::LocalSet, LimitSlot);
    size_t BodyIndex = 2;
    if (N.HasAcc) {
      compile(*N.Subs[2], false);
      emit(Op::LocalSet, AccSlot);
      BodyIndex = 3;
    }

    CurrentFn->bind(N.Name, IndexSlot);
    if (N.HasAcc)
      CurrentFn->bind(N.AccName, AccSlot);

    size_t LoopTop = code().size();
    emit(Op::LocalGet, IndexSlot);
    emit(Op::LocalGet, LimitSlot);
    emit(Op::Prim, static_cast<int32_t>(PrimOp::LtI));
    size_t ExitJump = emitJump(Op::JumpIfFalse);

    compile(*N.Subs[BodyIndex], false);
    if (N.HasAcc)
      emit(Op::LocalSet, AccSlot);
    else
      emit(Op::Pop);

    emit(Op::LocalGet, IndexSlot);
    emit(Op::PushInt, 1);
    emit(Op::Prim, static_cast<int32_t>(PrimOp::AddI));
    emit(Op::LocalSet, IndexSlot);
    emit(Op::Jump, static_cast<int32_t>(LoopTop));
    patchJump(ExitJump);

    if (N.HasAcc)
      emit(Op::LocalGet, AccSlot);
    else
      emit(Op::PushUnit);
    CurrentFn->popScope(SavedNext);
  }
};

} // namespace

std::optional<VMProgram> grift::compileProgram(const CoreProgram &Prog,
                                               TypeContext &Types,
                                               CoercionFactory &Coercions,
                                               CastMode Mode,
                                               std::string &Error,
                                               bool Fuse) {
  return Compiler(Prog, Types, Coercions, Mode, Fuse).run(Error);
}
