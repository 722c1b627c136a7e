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

/// Per-function compilation state: local slot allocation (watermark) and
/// the binders this function captures from its parents, in first-use
/// order.
struct FnCtx {
  FnCtx *Parent = nullptr;
  VMFunction *Fn = nullptr;
  int32_t Index = 0; ///< function index
  std::vector<uint32_t> Captured;
  int NextLocal = 0;
  int MaxLocal = 0;

  int allocLocal() {
    int Slot = NextLocal++;
    MaxLocal = std::max(MaxLocal, NextLocal);
    return Slot;
  }

  /// Index of \p Binder in the capture list, adding it if needed.
  int captureIndex(uint32_t Binder) {
    for (size_t I = 0; I != Captured.size(); ++I)
      if (Captured[I] == Binder)
        return static_cast<int>(I);
    Captured.push_back(Binder);
    return static_cast<int>(Captured.size() - 1);
  }
};

class Compiler {
public:
  Compiler(const CoreProgram &Core, CoercionFactory &Coercions,
           CastMode Mode, bool Fuse)
      : Core(Core), Coercions(Coercions), Mode(Mode), Fuse(Fuse),
        Homes(Core.Names.Binders.size()) {
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
    Prog.GlobalNames = Core.Names.Globals;

    Prog.Functions.emplace_back(); // main = function 0
    FnCtx Main;
    Main.Fn = &Prog.Functions[0];
    Main.Fn->Name = "<main>";
    CurrentFn = &Main;

    bool PushedResult = false;
    for (size_t I = 0; I != Core.Defs.size(); ++I) {
      const Def &D = Core.Defs[I];
      bool Last = I + 1 == Core.Defs.size();
      compile(*D.Body, /*Tail=*/false);
      if (D.Global >= 0) {
        emit(Op::GlobalSet, D.Global);
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
  /// Where a binder lives: the function that binds it and its slot there.
  struct Home {
    int32_t Fn = -1;
    int32_t Slot = 0;
  };
  /// The interned blame label of a source location, its Dyn-site index
  /// (-1 until a Dyn operation there needs one), and the last cast-table
  /// entry blamed there (-1 for none; earlier ones chain via NextCast).
  struct Site {
    const std::string *Label = nullptr;
    int32_t Index = -1;
    int32_t LastCast = -1;
  };

  const CoreProgram &Core;
  CoercionFactory &Coercions;
  CastMode Mode;
  bool Fuse;
  VMProgram Prog;
  std::vector<Home> Homes; ///< by binder id
  std::unordered_map<uint64_t, Site> Sites; ///< by packed source location
  std::vector<int32_t> NextCast; ///< by cast index: the previous at its site
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

  /// The blame label of the node at \p Loc ("L:C"), interned once per
  /// location and compile.
  Site &site(SourceLoc Loc) {
    uint64_t Key =
        Loc.isValid() ? uint64_t(Loc.Line) << 32 | Loc.Column : 0;
    auto [It, Fresh] = Sites.try_emplace(Key);
    if (Fresh)
      It->second.Label = Coercions.internLabel(Loc.str());
    return It->second;
  }

  int siteIndex(SourceLoc Loc) {
    Site &S = site(Loc);
    if (S.Index < 0) {
      S.Index = static_cast<int32_t>(Prog.Sites.size());
      Prog.Sites.push_back({S.Label});
    }
    return S.Index;
  }

  /// The cast-table entry for \p Src => \p Tgt blamed at \p At, added
  /// on first use.
  int castIndex(Site &At, const Type *Src, const Type *Tgt,
                const Coercion *C) {
    for (int32_t I = At.LastCast; I >= 0; I = NextCast[I])
      if (Prog.Casts[I].Src == Src && Prog.Casts[I].Tgt == Tgt)
        return I;
    // Labels live in the coercion factory's interner so descriptors can
    // share pointers with coercions.
    Prog.Casts.push_back(
        {Src, Tgt, At.Label, castModePrebuildsCoercions(Mode) ? C : nullptr});
    NextCast.push_back(At.LastCast);
    At.LastCast = static_cast<int32_t>(Prog.Casts.size() - 1);
    return At.LastCast;
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

  /// Gives \p Binder a fresh slot in the current function.
  int bindLocal(uint32_t Binder) {
    int Slot = CurrentFn->allocLocal();
    Homes[Binder] = {CurrentFn->Index, Slot};
    return Slot;
  }

  /// Emits a load of \p Binder in \p Ctx, adding capture entries as needed.
  void emitVarLoad(FnCtx &Ctx, uint32_t Binder) {
    const Home &H = Homes[Binder];
    assert(H.Fn >= 0 && "variable used outside its binder's scope");
    if (H.Fn == Ctx.Index) {
      Ctx.Fn->Code.push_back({Op::LocalGet, H.Slot, 0});
      return;
    }
    // Captured from an enclosing function.
    assert(Ctx.Parent && "captured variable with no enclosing function");
    Ctx.Fn->Code.push_back({Op::FreeGet, Ctx.captureIndex(Binder), 0});
  }

  //===--------------------------------------------------------------------===//
  // Lambdas
  //===--------------------------------------------------------------------===//

  /// Compiles \p Lambda into a fresh VM function and returns the function
  /// index; \p FreeOut receives the captured binders.
  int compileLambda(const Node &Lambda, std::vector<uint32_t> &FreeOut) {
    int FnIndex = static_cast<int>(Prog.Functions.size());
    Prog.Functions.emplace_back();

    FnCtx Ctx;
    Ctx.Parent = CurrentFn;
    Ctx.Fn = &Prog.Functions[FnIndex];
    Ctx.Index = FnIndex;
    Ctx.Fn->Name = "<lambda@" + Lambda.Loc.str() + ">";
    Ctx.Fn->NumParams = static_cast<uint32_t>(Lambda.Ty->arity());

    FnCtx *Saved = CurrentFn;
    CurrentFn = &Ctx;
    for (uint32_t I = 0; I != Ctx.Fn->NumParams; ++I)
      bindLocal(Lambda.Id + I);
    compile(*Lambda.Subs[0], /*Tail=*/true);
    emit(Op::Return);
    CurrentFn = Saved;

    Ctx.Fn->NumLocals = static_cast<uint32_t>(
        std::max<int>(Ctx.MaxLocal, Ctx.Fn->NumParams));
    FreeOut = std::move(Ctx.Captured);
    return FnIndex;
  }

  /// Emits capture loads + MakeClosure for \p Lambda in the current
  /// context. Returns the captured binders for letrec backpatching.
  std::vector<uint32_t> emitClosure(const Node &Lambda) {
    std::vector<uint32_t> Free;
    int FnIndex = compileLambda(Lambda, Free);
    for (uint32_t Binder : Free)
      emitVarLoad(*CurrentFn, Binder);
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
      emitVarLoad(*CurrentFn, N.Id);
      return;
    case NodeKind::GlobalRef:
      assert(N.Id < Prog.GlobalNames.size() && "global index out of range");
      emit(Op::GlobalGet, static_cast<int32_t>(N.Id));
      return;
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
           siteIndex(N.Loc));
      return;
    }
    case NodeKind::PrimApp: {
      for (const NodePtr &Sub : N.Subs)
        compile(*Sub, false);
      emit(Op::Prim, static_cast<int32_t>(N.Prim));
      return;
    }
    case NodeKind::Let: {
      auto NumBindings = static_cast<uint32_t>(N.Subs.size() - 1);
      int SavedNext = CurrentFn->NextLocal;
      for (uint32_t I = 0; I != NumBindings; ++I)
        bindLocal(N.Id + I);
      // Parallel let: the checker resolved the initializers in the outer
      // scope, so they never name these binders.
      for (uint32_t I = 0; I != NumBindings; ++I) {
        compile(*N.Subs[I], false);
        emit(Op::LocalSet, Homes[N.Id + I].Slot);
      }
      compile(*N.Subs.back(), Tail);
      CurrentFn->NextLocal = SavedNext;
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
           siteIndex(N.Loc));
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
        emit(Op::BoxGetMono, typeIndex(N.Ty), siteIndex(N.Loc));
      else
        emit(Op::BoxGet);
      return;
    case NodeKind::UnboxDyn:
      requireGradual("unbox on Dyn");
      compile(*N.Subs[0], false);
      emit(Op::UnboxDyn, siteIndex(N.Loc));
      return;
    case NodeKind::BoxSet:
      compile(*N.Subs[0], false);
      compile(*N.Subs[1], false);
      if (Mode == CastMode::Static ||
          (Mode == CastMode::Monotonic && N.Subs[1]->Ty->isStatic()))
        emit(Op::BoxSetFast);
      else if (Mode == CastMode::Monotonic)
        emit(Op::BoxSetMono, typeIndex(N.Subs[1]->Ty),
             siteIndex(N.Loc));
      else
        emit(Op::BoxSet);
      return;
    case NodeKind::BoxSetDyn:
      requireGradual("box-set! on Dyn");
      compile(*N.Subs[0], false);
      compile(*N.Subs[1], false);
      emit(Op::BoxSetDyn, siteIndex(N.Loc));
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
        emit(Op::VecRefMono, typeIndex(N.Ty), siteIndex(N.Loc));
      else
        emit(Op::VecRef);
      return;
    case NodeKind::VectRefDyn:
      requireGradual("vector-ref on Dyn");
      compile(*N.Subs[0], false);
      compile(*N.Subs[1], false);
      emit(Op::VecRefDyn, siteIndex(N.Loc));
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
             siteIndex(N.Loc));
      else
        emit(Op::VecSet);
      return;
    case NodeKind::VectSetDyn:
      requireGradual("vector-set! on Dyn");
      compile(*N.Subs[0], false);
      compile(*N.Subs[1], false);
      compile(*N.Subs[2], false);
      emit(Op::VecSetDyn, siteIndex(N.Loc));
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
      emit(Op::VecLenDyn, siteIndex(N.Loc));
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
    Site &At = site(N.Loc);
    const Coercion *C = Coercions.makeInterned(N.SrcTy, N.Ty, At.Label);
    if (C->isId())
      return;
    if (Mode == CastMode::Static)
      requireGradual("cast from " + N.SrcTy->str() + " to " + N.Ty->str());
    emit(Op::Cast, castIndex(At, N.SrcTy, N.Ty, C));
  }

  void checkStatic(const Node &N) {
    if (N.Ty && N.Ty->hasDyn())
      fail("Static Grift requires a fully static program; expression at " +
           N.Loc.str() + " has type " + N.Ty->str());
    for (const NodePtr &Sub : N.Subs)
      checkStatic(*Sub);
  }

  void requireGradual(std::string_view What) {
    if (Mode == CastMode::Static)
      fail("Static Grift requires a fully static program, found " +
           std::string(What));
  }

  void compileLetrec(const Node &N, bool Tail) {
    auto NumBindings = static_cast<uint32_t>(N.Subs.size() - 1);
    int SavedNext = CurrentFn->NextLocal;
    for (uint32_t I = 0; I != NumBindings; ++I)
      bindLocal(N.Id + I);
    // First pass: create every closure. Sibling captures read the not-
    // yet-initialized local (unit) and are patched below.
    std::vector<std::vector<uint32_t>> Captures(NumBindings);
    for (uint32_t I = 0; I != NumBindings; ++I) {
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
      emit(Op::LocalSet, Homes[N.Id + I].Slot);
    }
    // Second pass: patch sibling captures with the now-created closures.
    for (uint32_t I = 0; I != NumBindings; ++I) {
      for (size_t FreeIdx = 0; FreeIdx != Captures[I].size(); ++FreeIdx) {
        uint32_t Binder = Captures[I][FreeIdx];
        if (Binder - N.Id >= NumBindings)
          continue; // not a sibling
        // ClosureInitFree reaches the underlying closure through any
        // cast wrappers (DynBox, proxy closure) the initializer's
        // annotation cast may have added.
        emit(Op::LocalGet, Homes[N.Id + I].Slot); // the closure to patch
        emitVarLoad(*CurrentFn, Binder);
        emit(Op::ClosureInitFree, static_cast<int32_t>(FreeIdx));
      }
    }
    compile(*N.Subs.back(), Tail);
    CurrentFn->NextLocal = SavedNext;
  }

  void compileRepeat(const Node &N) {
    int SavedNext = CurrentFn->NextLocal;
    int IndexSlot = bindLocal(N.Id);
    int LimitSlot = CurrentFn->allocLocal();
    int AccSlot = N.HasAcc ? bindLocal(N.Id + 1) : -1;

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
    CurrentFn->NextLocal = SavedNext;
  }
};

} // namespace

std::optional<VMProgram> grift::compileProgram(const CoreProgram &Prog,
                                               TypeContext &,
                                               CoercionFactory &Coercions,
                                               CastMode Mode,
                                               std::string &Error,
                                               bool Fuse) {
  return Compiler(Prog, Coercions, Mode, Fuse).run(Error);
}
