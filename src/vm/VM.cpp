#include "vm/VM.h"

#include "runtime/CastBackend.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>
#include <new>

using namespace grift;

namespace {
/// Small, so a short run (every griftd request builds a fresh VM) does
/// not pay for filling a large stack; growStack doubles it on demand.
constexpr size_t InitialStack = 1u << 10;
constexpr size_t MaxStackEntries = 1u << 26; // 64M values ≈ 512 MB
constexpr size_t DefaultMaxFrames = 4u << 20;
/// Fuel/wall budgets are checked once per this many dispatched
/// instructions: cheap enough for the hot loop, tight enough that a
/// divergent program overshoots its budget by at most one batch.
constexpr uint32_t StepBatch = 1024;
} // namespace

VM::VM(Runtime &RT, const VMProgram &Prog)
    : RT(RT), Prog(Prog),
      CoercionCallProtocol(RT.backend().coercionCallProtocol()),
      ComposeReturns(RT.backend().composesPendingReturns()),
      CoercionCasts(RT.backend().castsAreCoercions()) {
  RT.heap().addRootProvider(this);
}

VM::~VM() { RT.heap().removeRootProvider(this); }

void VM::visitRoots(void (*Visit)(Value &, void *), void *Ctx) {
  for (Value *P = Stack.data(); P != Sp; ++P)
    Visit(*P, Ctx);
  for (Value &G : Globals)
    Visit(G, Ctx);
  for (Frame &F : Frames)
    Visit(F.Clos, Ctx);
}

void VM::growStack() {
  if (Stack.size() >= MaxStackEntries)
    throw RuntimeError{ErrorKind::StackOverflow, "",
                       "value stack exceeded " +
                           std::to_string(MaxStackEntries) + " slots"};
  size_t Top = top();
  Stack.resize(Stack.size() * 2);
  Sp = Stack.data() + Top;
}

void VM::ensureStack(size_t Extra) {
  while (top() + Extra > Stack.size())
    growStack();
}

RunResult VM::run(std::string In, const RunLimits &L) {
  RunResult Result;
  Stack.assign(InitialStack, Value::unit());
  Sp = Stack.data();
  Frames.clear();
  RetStack.clear();
  Globals.assign(Prog.GlobalNames.size(), Value::unit());
  Output.clear();
  Input = std::move(In);
  InputPos = 0;
  TimeStack.clear();
  RT.stats().reset();
  Limits = L;
  FrameCap = Limits.MaxFrames ? Limits.MaxFrames : DefaultMaxFrames;
  StepsUsed = 0;
  CastIC.assign(Prog.Casts.size(), CoercionCache());
  SiteIC.assign(Prog.Sites.size(), CoercionCache());
  RT.heap().setHeapLimit(Limits.MaxHeapBytes);
  RT.heap().setNurserySize(Limits.GCNurseryBytes);
  size_t RootDepthAtEntry = RT.heap().tempRootDepth();

  StartTime = std::chrono::steady_clock::now();
  auto Finish = [&] {
    Result.WallNanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - StartTime)
                           .count();
    Result.Stats = RT.stats();
    const Heap &H = RT.heap();
    Result.Stats.AllocBytes = H.bytesAllocated();
    for (unsigned C = 0; C != Heap::NumSizeClasses; ++C)
      Result.Stats.AllocObjectsByClass[C] = H.objectsAllocatedInClass(C);
    Result.Stats.AllocObjectsByClass[RuntimeStats::NumAllocClasses - 1] =
        H.largeObjectsAllocated();
    Result.Stats.Collections = H.collections();
    Result.Stats.GCPauseTotalNs = H.gcPauseTotalNs();
    Result.Stats.GCPauseMaxNs = H.gcPauseMaxNs();
    Result.Stats.MinorCollections = H.minorCollections();
    Result.Stats.GCMinorPauseTotalNs = H.gcMinorPauseTotalNs();
    Result.Stats.GCMinorPauseMaxNs = H.gcMinorPauseMaxNs();
    Result.Stats.PromotedBytes = H.promotedBytes();
    Result.Stats.PromotedObjects = H.promotedObjects();
    Result.Stats.RememberedSetPeak = H.rememberedSetPeak();
    static_assert(RuntimeStats::NumPauseBuckets == Heap::PauseHistBuckets,
                  "pause histogram layouts out of sync");
    for (unsigned B = 0; B != Heap::PauseHistBuckets; ++B) {
      Result.Stats.MinorPauseHist[B] = H.minorPauseHistogram()[B];
      Result.Stats.MajorPauseHist[B] = H.majorPauseHistogram()[B];
    }
    Result.Stats.DoubleCollectionsAvoided = H.doubleCollectionsAvoided();
    Result.PeakHeapBytes = RT.heap().peakHeapBytes();
    // Exact on normal completion (Halt charges its partial batch);
    // error paths keep batch granularity — the same rounding the
    // budget check itself uses.
    Result.Steps = StepsUsed;
  };
  try {
    Value Final = execute();
    Finish();
    // valueToString can allocate (proxy reads); keep the result value
    // rooted — and updated, should rendering trigger a moving minor GC.
    Rooted FinalRoot(RT.heap(), Final);
    Result.ResultText = RT.valueToString(FinalRoot.get());
    Result.OK = true;
  } catch (RuntimeError &Error) {
    Finish();
    Result.OK = false;
    Result.Error = std::move(Error);
  } catch (std::bad_alloc &) {
    // Allocation failure outside Heap::allocateObject (frame vector or
    // value-stack growth, string building, ...): degrade to a reportable
    // OutOfMemory rather than letting the exception escape run().
    Finish();
    Result.OK = false;
    Result.Error = {ErrorKind::OutOfMemory, "",
                    "allocator failed growing interpreter state"};
  }
  Result.Output = Output;
  // Every Rooted opened during execution unwound with it; a mismatch
  // here means a manual pushTempRoot leaked past the run boundary.
  assert(RT.heap().tempRootDepth() == RootDepthAtEntry &&
         "temp-root push/pop mismatch across run()");
  (void)RootDepthAtEntry;
  return Result;
}

void VM::checkBudgets(uint32_t BatchSteps) {
  StepsUsed += BatchSteps;
  if (Limits.MaxSteps && StepsUsed >= Limits.MaxSteps)
    throw RuntimeError{ErrorKind::FuelExhausted, "",
                       "step budget of " + std::to_string(Limits.MaxSteps) +
                           " instructions exhausted"};
  if (Limits.MaxWallNanos) {
    int64_t Elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - StartTime)
                          .count();
    if (Elapsed > Limits.MaxWallNanos)
      throw RuntimeError{ErrorKind::Timeout, "",
                         "wall-clock budget of " +
                             std::to_string(Limits.MaxWallNanos) +
                             " ns exhausted"};
  }
}

//===----------------------------------------------------------------------===//
// Calls
//===----------------------------------------------------------------------===//

Value VM::resolveCallee(Value Callee, uint32_t Argc, size_t ArgsBase) {
  // The callee lives in the stack slot below the arguments; the walk
  // keeps it there so the proxy stays rooted — and is re-derived after
  // each conversion pass, which can allocate and therefore move a young
  // proxy. The metadata read up front is immortal (types, coercions,
  // labels) and safe to hold across the conversions.
  size_t CalleeIdx = ArgsBase - 1;
  Stack[CalleeIdx] = Callee;
  unsigned Depth = 0;
  while (Stack[CalleeIdx].isProxy()) {
    HeapObject *P = Stack[CalleeIdx].object();
    if (P->kind() != ObjectKind::ProxyClosure)
      trap("call of a non-function value");
    ++Depth;
    if (CoercionCallProtocol) {
      // Coercion-flavored proxy (every mode but type-based).
      const Coercion *C = static_cast<const Coercion *>(P->meta(0));
      assert(C->kind() == CoercionKind::Fun && C->arity() == Argc &&
             "proxy coercion arity mismatch");
      for (uint32_t I = 0; I != Argc; ++I)
        Stack[ArgsBase + I] = RT.applyCoercion(Stack[ArgsBase + I], C->arg(I));
      RetStack.push_back({.C = C->result()});
    } else {
      const Type *S = static_cast<const Type *>(P->meta(0));
      const Type *T = static_cast<const Type *>(P->meta(1));
      const auto *L = static_cast<const std::string *>(P->meta(2));
      assert(S->isFunction() && T->isFunction() && T->arity() == Argc);
      for (uint32_t I = 0; I != Argc; ++I)
        Stack[ArgsBase + I] =
            RT.applyTypeBased(Stack[ArgsBase + I], T->param(I), S->param(I), L);
      RetStack.push_back({.S = S->result(), .T = T->result(), .L = L});
    }
    P = Stack[CalleeIdx].object(); // re-derive: conversions may have moved it
    Stack[CalleeIdx] = P->slot(0);
  }
  if (Depth)
    RT.stats().noteChain(Depth);
  return Stack[CalleeIdx];
}

void VM::composePending(uint32_t FrameBase, size_t First) {
  assert(First - FrameBase <= 1 && "coercion-passing frame held two casts");
  const Coercion *Acc = First != FrameBase ? RetStack[FrameBase].C : nullptr;
  for (size_t I = First; I != RetStack.size(); ++I) {
    const RetCast &RC = RetStack[I];
    const Coercion *New =
        RC.C ? RC.C : RT.internedCoercion(RC.S, RC.T, RC.L, RC.IC);
    // Return applies entries LIFO, so the frame's entry runs after
    // anything added: fold to "apply New, then the frame's entry".
    if (Acc)
      New = RT.composeForReturn(New, Acc);
    Acc = New->isId() ? nullptr : New;
  }
  RetStack.resize(FrameBase);
  if (Acc)
    RetStack.push_back({.C = Acc});
}

inline bool VM::enterPlainClosure(uint32_t Argc, size_t First) {
  size_t ArgsBase = top() - Argc;
  Value Callee = Stack[ArgsBase - 1];
  if (!Callee.isHeap())
    return false;
  const HeapObject *Object = Callee.object();
  if (Object->kind() != ObjectKind::Closure)
    return false;
  const VMFunction &Target = Prog.Functions[Object->raw()];
  if (Target.NumParams != Argc || Frames.size() >= FrameCap)
    return false;
  Frames.push_back({Target.Code.data(), Target.Code.data(),
                    static_cast<uint32_t>(ArgsBase),
                    static_cast<uint32_t>(ArgsBase - 1),
                    static_cast<uint32_t>(First), Callee});
  if (First != RetStack.size()) // an AppDyn result cast
    pushPending(static_cast<uint32_t>(First), First);
  ensureStack(Target.NumLocals - Argc + 16);
  Sp = std::fill_n(Sp, Target.NumLocals - Argc, Value::unit());
  return true;
}

void VM::doCallSlow(uint32_t Argc, bool Tail, size_t First) {
  size_t ArgsBase = top() - Argc;
  size_t CalleeIdx = ArgsBase - 1;
  Value Callee = resolveCallee(Stack[CalleeIdx], Argc, ArgsBase);
  if (!Callee.isHeap() || Callee.object()->kind() != ObjectKind::Closure)
    trap("call of a non-function value");
  const VMFunction &Target = Prog.Functions[Callee.object()->raw()];
  if (Target.NumParams != Argc)
    trap("arity mismatch calling " + Target.Name + ": expected " +
         std::to_string(Target.NumParams) + " arguments, got " +
         std::to_string(Argc));
  Stack[CalleeIdx] = Callee;

  uint32_t FrameBase;
  if (Tail) {
    Frame &Cur = Frames.back();
    // Slide callee + args down over the current frame's window.
    size_t Dst = Cur.CalleeSlot;
    for (uint32_t I = 0; I != Argc + 1; ++I)
      Stack[Dst + I] = Stack[CalleeIdx + I];
    Sp = Stack.data() + Dst + 1 + Argc;
    Cur.Code = Target.Code.data();
    Cur.IP = Cur.Code;
    Cur.Base = static_cast<uint32_t>(Dst + 1);
    Cur.Clos = Callee;
    // The reused frame keeps its entries; this call's sit on top of them.
    FrameBase = Cur.RetBase;
  } else {
    if (Frames.size() >= FrameCap)
      throw RuntimeError{ErrorKind::StackOverflow, "",
                         "call depth exceeded " + std::to_string(FrameCap) +
                             " frames"};
    FrameBase = static_cast<uint32_t>(First);
    Frames.push_back({Target.Code.data(), Target.Code.data(),
                      static_cast<uint32_t>(ArgsBase),
                      static_cast<uint32_t>(CalleeIdx), FrameBase, Callee});
  }
  pushPending(FrameBase, First);
  ensureStack(Target.NumLocals - Argc + 16);
  for (uint32_t I = Argc; I != Target.NumLocals; ++I)
    push(Value::unit());
}

//===----------------------------------------------------------------------===//
// Main loop
//===----------------------------------------------------------------------===//

// Dispatch plumbing. The running frame's pointer (FP) and instruction
// pointer (IP) live in locals of execute(). VM_FETCH charges one step
// against the batch budget and loads the next instruction through IP.
// Only a call, an AppDyn or a return changes the running frame: the
// handler stores IP into the frame it leaves (VM_SAVE_IP), and afterwards
// re-derives FP from Frames (a push can reallocate the vector) and loads
// IP from the frame now running (VM_LOAD_FRAME). VM_FUSED_STEP is the
// mid-superinstruction charge: a fused pair decrements the batch counter
// twice, so fuel accounting and the 1024-step cancel-poll boundary land
// exactly where the unfused expansion would put them.
//
// With GRIFT_COMPUTED_GOTO (CMake feature check) each handler ends by
// jumping through a per-opcode label table — token-threaded dispatch,
// one indirect branch per handler so the predictor can learn opcode
// successor patterns. Otherwise the same handler bodies compile into a
// portable for(;;)/switch loop.
#define VM_FETCH()                                                             \
  do {                                                                         \
    if (--BatchLeft == 0) [[unlikely]] {                                       \
      checkBudgets(StepBatch);                                                 \
      BatchLeft = StepBatch;                                                   \
    }                                                                          \
    I = *IP++;                                                                 \
  } while (0)

#define VM_SAVE_IP() FP->IP = IP

#define VM_LOAD_FRAME()                                                        \
  do {                                                                         \
    FP = &Frames.back();                                                       \
    IP = FP->IP;                                                               \
  } while (0)

#define VM_FUSED_STEP()                                                        \
  do {                                                                         \
    if (--BatchLeft == 0) [[unlikely]] {                                       \
      checkBudgets(StepBatch);                                                 \
      BatchLeft = StepBatch;                                                   \
    }                                                                          \
  } while (0)

#ifdef GRIFT_COMPUTED_GOTO
#define VM_DISPATCH_BEGIN() VM_NEXT();
#define VM_CASE(Name) Lbl_##Name:
#define VM_NEXT()                                                              \
  do {                                                                         \
    VM_FETCH();                                                                \
    goto *JumpTable[static_cast<uint8_t>(I.Code)];                             \
  } while (0)
#define VM_DISPATCH_END()
#else
#define VM_DISPATCH_BEGIN()                                                    \
  for (;;) {                                                                   \
    VM_FETCH();                                                                \
    switch (I.Code) {
#define VM_CASE(Name) case Op::Name:
#define VM_NEXT() break
#define VM_DISPATCH_END()                                                      \
    }                                                                          \
  }
#endif

Value VM::execute() {
  const VMFunction &Main = Prog.Functions[Prog.MainFunction];
  Frames.push_back({Main.Code.data(), Main.Code.data(), 0, 0, 0, Value()});
  ensureStack(Main.NumLocals + 16);
  for (uint32_t I = 0; I != Main.NumLocals; ++I)
    push(Value::unit());

  uint32_t BatchLeft = StepBatch;
  Frame *FP = &Frames.back();
  const Instr *IP = FP->IP;
  Instr I;

#ifdef GRIFT_COMPUTED_GOTO
  // One entry per opcode, in exact enum order (checked by the
  // static_assert below — extend both together).
  static const void *const JumpTable[] = {
      &&Lbl_PushUnit,
      &&Lbl_PushTrue,
      &&Lbl_PushFalse,
      &&Lbl_PushInt,
      &&Lbl_PushIntBig,
      &&Lbl_PushChar,
      &&Lbl_PushFloat,
      &&Lbl_LocalGet,
      &&Lbl_LocalSet,
      &&Lbl_GlobalGet,
      &&Lbl_GlobalSet,
      &&Lbl_FreeGet,
      &&Lbl_Pop,
      &&Lbl_Jump,
      &&Lbl_JumpIfFalse,
      &&Lbl_Call,
      &&Lbl_TailCall,
      &&Lbl_Return,
      &&Lbl_Halt,
      &&Lbl_MakeClosure,
      &&Lbl_ClosureInitFree,
      &&Lbl_Cast,
      &&Lbl_Prim,
      &&Lbl_MakeTuple,
      &&Lbl_TupleProj,
      &&Lbl_TupleProjDyn,
      &&Lbl_BoxNew,
      &&Lbl_BoxNewMono,
      &&Lbl_BoxGet,
      &&Lbl_BoxGetFast,
      &&Lbl_BoxGetMono,
      &&Lbl_BoxSet,
      &&Lbl_BoxSetFast,
      &&Lbl_BoxSetMono,
      &&Lbl_UnboxDyn,
      &&Lbl_BoxSetDyn,
      &&Lbl_MakeVector,
      &&Lbl_MakeVectorMono,
      &&Lbl_VecRef,
      &&Lbl_VecRefFast,
      &&Lbl_VecRefMono,
      &&Lbl_VecRefDyn,
      &&Lbl_VecSet,
      &&Lbl_VecSetFast,
      &&Lbl_VecSetMono,
      &&Lbl_VecSetDyn,
      &&Lbl_VecLen,
      &&Lbl_VecLenFast,
      &&Lbl_VecLenDyn,
      &&Lbl_AppDyn,
      &&Lbl_TimeStart,
      &&Lbl_TimeEnd,
      &&Lbl_LocalGetGet,
      &&Lbl_LocalGetCall,
      &&Lbl_LocalGetTailCall,
      &&Lbl_PushIntPrim,
      &&Lbl_PrimJumpIfFalse,
      &&Lbl_PushFloatPrim,
      &&Lbl_PushIntAdd,
      &&Lbl_PushIntSub,
      &&Lbl_LtIntJumpIfFalse,
      &&Lbl_LeIntJumpIfFalse,
      &&Lbl_EqIntJumpIfFalse,
      &&Lbl_GeIntJumpIfFalse,
      &&Lbl_GtIntJumpIfFalse,
  };
  static_assert(sizeof(JumpTable) / sizeof(JumpTable[0]) == NumOpcodes,
                "jump table out of sync with enum Op");
#endif

  VM_DISPATCH_BEGIN()
  VM_CASE(PushUnit) {
    push(Value::unit());
    VM_NEXT();
  }
  VM_CASE(PushTrue) {
    push(Value::fromBool(true));
    VM_NEXT();
  }
  VM_CASE(PushFalse) {
    push(Value::fromBool(false));
    VM_NEXT();
  }
  VM_CASE(PushInt) {
    push(Value::fromFixnum(I.A));
    VM_NEXT();
  }
  VM_CASE(PushIntBig) {
    push(Value::fromFixnum(Prog.IntPool[I.A]));
    VM_NEXT();
  }
  VM_CASE(PushChar) {
    push(Value::fromChar(static_cast<char>(I.A)));
    VM_NEXT();
  }
  VM_CASE(PushFloat) {
    // NaN-boxed: a float literal is one stack store, no allocation.
    push(Value::fromFloat(Prog.FloatPool[I.A]));
    VM_NEXT();
  }
  VM_CASE(LocalGet) {
    push(Stack[FP->Base + I.A]);
    VM_NEXT();
  }
  VM_CASE(LocalSet) {
    Stack[FP->Base + I.A] = pop();
    VM_NEXT();
  }
  VM_CASE(GlobalGet) {
    push(Globals[I.A]);
    VM_NEXT();
  }
  VM_CASE(GlobalSet) {
    Globals[I.A] = pop();
    VM_NEXT();
  }
  VM_CASE(FreeGet) {
    push(FP->Clos.object()->slot(I.A));
    VM_NEXT();
  }
  VM_CASE(Pop) {
    --Sp;
    VM_NEXT();
  }
  VM_CASE(Jump) {
    IP = FP->Code + I.A;
    VM_NEXT();
  }
  VM_CASE(JumpIfFalse) {
    Value Cond = pop();
    assert(Cond.isBool() && "condition must be a boolean");
    if (!Cond.asBool())
      IP = FP->Code + I.A;
    VM_NEXT();
  }
  VM_CASE(Call) {
    VM_SAVE_IP();
    doCall(static_cast<uint32_t>(I.A), /*Tail=*/false);
    VM_LOAD_FRAME();
    VM_NEXT();
  }
  VM_CASE(TailCall) {
    doCall(static_cast<uint32_t>(I.A), /*Tail=*/true);
    VM_LOAD_FRAME();
    VM_NEXT();
  }
  VM_CASE(Return) {
    Value Result = *--Sp;
    // The frame's pending return casts, newest first.
    if (size_t Pending = RetStack.size(); Pending != FP->RetBase) {
      do {
        const RetCast &RC = RetStack[--Pending];
        Result = RC.C ? RT.applyCoercion(Result, RC.C)
                      : castRuntime(Result, RC.S, RC.T, RC.L, RC.IC);
      } while (Pending != FP->RetBase);
      RetStack.resize(Pending);
    }
    Sp = Stack.data() + FP->CalleeSlot;
    Frames.pop_back();
    *Sp++ = Result;
    VM_LOAD_FRAME();
    VM_NEXT();
  }
  VM_CASE(Halt) {
    // Charge the partial batch so RunResult::Steps is exact on normal
    // completion (error paths keep the batch-granular rounding).
    StepsUsed += StepBatch - BatchLeft;
    return pop();
  }
  VM_CASE(MakeClosure) {
    uint32_t NumFree = static_cast<uint32_t>(I.B);
    Value Clos = RT.heap().allocClosure(static_cast<uint32_t>(I.A), NumFree);
    HeapObject *Object = Clos.object();
    for (uint32_t J = 0; J != NumFree; ++J)
      Object->slot(J) = (Sp - NumFree)[J];
    Sp -= NumFree;
    push(Clos);
    VM_NEXT();
  }
  VM_CASE(ClosureInitFree) {
    Value V = Sp[-1];
    Value Clos = Sp[-2];
    // Letrec backpatch: reach the underlying closure through any cast
    // wrappers (DynBox from an injection, proxy from a function cast).
    HeapObject *Object = Clos.object();
    while (Object->kind() == ObjectKind::DynBox ||
           Object->kind() == ObjectKind::ProxyClosure)
      Object = Object->slot(0).object();
    assert(Object->kind() == ObjectKind::Closure &&
           "letrec initializer did not produce a closure");
    Object->slot(static_cast<uint32_t>(I.A)) = V;
    RT.heap().recordWrite(Object, V); // backpatch can cross generations
    Sp -= 2;
    VM_NEXT();
  }
  VM_CASE(Cast) {
    Value V = Sp[-1];
    Sp[-1] =
        CoercionCasts ? RT.applyCoercionCast(V, Prog.Casts[I.A], &CastIC[I.A])
                      : RT.applyCast(V, Prog.Casts[I.A], &CastIC[I.A]);
    VM_NEXT();
  }
  VM_CASE(Prim) {
    doPrim(static_cast<PrimOp>(I.A));
    VM_NEXT();
  }
  VM_CASE(MakeTuple) {
    uint32_t Size = static_cast<uint32_t>(I.A);
    Value Tup = RT.heap().allocTuple(Size);
    HeapObject *Object = Tup.object();
    for (uint32_t J = 0; J != Size; ++J)
      Object->slot(J) = (Sp - Size)[J];
    Sp -= Size;
    push(Tup);
    VM_NEXT();
  }
  VM_CASE(TupleProj) {
    Value V = Sp[-1];
    assert(V.isHeap() && V.object()->kind() == ObjectKind::Tuple);
    Sp[-1] = V.object()->slot(static_cast<uint32_t>(I.A));
    VM_NEXT();
  }
  VM_CASE(TupleProjDyn) {
    const DynSite &Site = Prog.Sites[I.B];
    Value V = Sp[-1];
    const Type *T = dynType(V);
    uint32_t Index = static_cast<uint32_t>(I.A);
    if (!T->isTuple() || Index >= T->tupleSize()) [[unlikely]]
      RT.blame(Site.Label, "tuple projection from a value of type " +
                               T->str());
    Value Tup = RT.dynUnwrap(V);
    Value Element = Tup.object()->slot(Index);
    Sp[-1] = castRuntime(Element, T->element(Index),
                                 RT.typeContext().dyn(), Site.Label,
                                 &SiteIC[I.B]);
    VM_NEXT();
  }
  VM_CASE(BoxNew) {
    Value V = Sp[-1];
    Sp[-1] = RT.heap().allocBox(V);
    VM_NEXT();
  }
  VM_CASE(BoxNewMono) {
    Value V = Sp[-1];
    Value Box = RT.heap().allocBox(V);
    Box.object()->setMeta(0, Prog.TypePool[I.A]);
    Sp[-1] = Box;
    VM_NEXT();
  }
  VM_CASE(BoxGetMono) {
    Sp[-1] = RT.monoBoxRead(Sp[-1], Prog.TypePool[I.A],
                                    Prog.Sites[I.B].Label);
    VM_NEXT();
  }
  VM_CASE(BoxSetMono) {
    RT.monoBoxWrite(Sp[-2], Sp[-1], Prog.TypePool[I.A],
                    Prog.Sites[I.B].Label);
    Sp -= 2;
    push(Value::unit());
    VM_NEXT();
  }
  VM_CASE(BoxGetFast) {
    Value V = Sp[-1];
    assert(V.isHeap() && V.object()->kind() == ObjectKind::Box);
    Sp[-1] = V.object()->slot(0);
    VM_NEXT();
  }
  VM_CASE(BoxGet) {
    Sp[-1] = RT.boxRead(Sp[-1]);
    VM_NEXT();
  }
  VM_CASE(BoxSetFast) {
    Value V = Sp[-1];
    Value Box = Sp[-2];
    assert(Box.isHeap() && Box.object()->kind() == ObjectKind::Box);
    Box.object()->slot(0) = V;
    RT.heap().recordWrite(Box, V); // write barrier: old box, young value
    Sp -= 2;
    push(Value::unit());
    VM_NEXT();
  }
  VM_CASE(BoxSet) {
    RT.boxWrite(Sp[-2], Sp[-1]);
    Sp -= 2;
    push(Value::unit());
    VM_NEXT();
  }
  VM_CASE(UnboxDyn) {
    const DynSite &Site = Prog.Sites[I.A];
    Value V = Sp[-1];
    const Type *T = dynType(V);
    if (!T->isBox()) [[unlikely]]
      RT.blame(Site.Label, "unbox of a value of type " + T->str());
    Value Inner = RT.dynUnwrap(V);
    Sp[-1] = Inner; // keep rooted during the read + cast
    if (CoercionCasts)
      Sp[-1] = RT.coerceRuntime(RT.boxRead(Inner), T->inner(),
                                        RT.typeContext().dyn(), Site.Label,
                                        &SiteIC[I.A]);
    else
      Sp[-1] = RT.backend().dynBoxRead(Inner, T->inner(), Site.Label,
                                               &SiteIC[I.A]);
    VM_NEXT();
  }
  VM_CASE(BoxSetDyn) {
    const DynSite &Site = Prog.Sites[I.A];
    Value V = Sp[-2];
    Value Content = Sp[-1];
    const Type *T = dynType(V);
    if (!T->isBox()) [[unlikely]]
      RT.blame(Site.Label, "box-set! of a value of type " + T->str());
    Value Inner = RT.dynUnwrap(V);
    Sp[-2] = Inner;
    if (CoercionCasts) {
      Value Converted = RT.coerceRuntime(Content, RT.typeContext().dyn(),
                                         T->inner(), Site.Label, &SiteIC[I.A]);
      RT.boxWrite(Sp[-2], Converted); // re-read: the cast can move it
    } else {
      RT.backend().dynBoxWrite(Inner, Content, T->inner(), Site.Label,
                               &SiteIC[I.A]);
    }
    Sp -= 2;
    push(Value::unit());
    VM_NEXT();
  }
  VM_CASE(MakeVector) {
    Value Init = Sp[-1];
    Value Size = Sp[-2];
    assert(Size.isFixnum() && "vector size must be an integer");
    int64_t N = Size.asFixnum();
    if (N < 0 || N > (INT64_C(1) << 32))
      trap("invalid vector size " + std::to_string(N));
    Value Vect = RT.heap().allocVector(static_cast<uint32_t>(N), Init);
    Sp -= 2;
    push(Vect);
    VM_NEXT();
  }
  VM_CASE(MakeVectorMono) {
    Value Init = Sp[-1];
    Value Size = Sp[-2];
    int64_t N = Size.asFixnum();
    if (N < 0 || N > (INT64_C(1) << 32))
      trap("invalid vector size " + std::to_string(N));
    Value Vect = RT.heap().allocVector(static_cast<uint32_t>(N), Init);
    Vect.object()->setMeta(0, Prog.TypePool[I.A]);
    Sp -= 2;
    push(Vect);
    VM_NEXT();
  }
  VM_CASE(VecRefMono) {
    Value Result =
        RT.monoVectorRef(Sp[-2], Sp[-1].asFixnum(),
                         Prog.TypePool[I.A], Prog.Sites[I.B].Label);
    Sp -= 2;
    push(Result);
    VM_NEXT();
  }
  VM_CASE(VecSetMono) {
    RT.monoVectorSet(Sp[-3], Sp[-2].asFixnum(),
                     Sp[-1], Prog.TypePool[I.A],
                     Prog.Sites[I.B].Label);
    Sp -= 3;
    push(Value::unit());
    VM_NEXT();
  }
  VM_CASE(VecRefFast) {
    Value Index = Sp[-1];
    Value Vect = Sp[-2];
    HeapObject *Object = Vect.object();
    int64_t Idx = Index.asFixnum();
    if (Idx < 0 || Idx >= Object->slotCount()) [[unlikely]]
      trap("vector index " + std::to_string(Idx) + " out of bounds");
    Sp -= 2;
    push(Object->slot(static_cast<uint32_t>(Idx)));
    VM_NEXT();
  }
  VM_CASE(VecRef) {
    Value Result = RT.vectorRef(Sp[-2], Sp[-1].asFixnum());
    Sp -= 2;
    push(Result);
    VM_NEXT();
  }
  VM_CASE(VecRefDyn) {
    const DynSite &Site = Prog.Sites[I.A];
    Value V = Sp[-2];
    const Type *T = dynType(V);
    if (!T->isVect()) [[unlikely]]
      RT.blame(Site.Label, "vector-ref of a value of type " + T->str());
    Value Inner = RT.dynUnwrap(V);
    Sp[-2] = Inner;
    int64_t Index = Sp[-1].asFixnum();
    Value Result =
        CoercionCasts
            ? RT.coerceRuntime(RT.vectorRef(Inner, Index), T->inner(),
                               RT.typeContext().dyn(), Site.Label,
                               &SiteIC[I.A])
            : RT.backend().dynVectorRef(Inner, Index, T->inner(), Site.Label,
                                        &SiteIC[I.A]);
    Sp -= 2;
    push(Result);
    VM_NEXT();
  }
  VM_CASE(VecSetFast) {
    Value Content = Sp[-1];
    Value Index = Sp[-2];
    Value Vect = Sp[-3];
    HeapObject *Object = Vect.object();
    int64_t Idx = Index.asFixnum();
    if (Idx < 0 || Idx >= Object->slotCount()) [[unlikely]]
      trap("vector index " + std::to_string(Idx) + " out of bounds");
    Object->slot(static_cast<uint32_t>(Idx)) = Content;
    RT.heap().recordWrite(Object, Content); // old vector, young element
    Sp -= 3;
    push(Value::unit());
    VM_NEXT();
  }
  VM_CASE(VecSet) {
    RT.vectorSet(Sp[-3], Sp[-2].asFixnum(),
                 Sp[-1]);
    Sp -= 3;
    push(Value::unit());
    VM_NEXT();
  }
  VM_CASE(VecSetDyn) {
    const DynSite &Site = Prog.Sites[I.A];
    Value V = Sp[-3];
    const Type *T = dynType(V);
    if (!T->isVect()) [[unlikely]]
      RT.blame(Site.Label, "vector-set! of a value of type " + T->str());
    Value Inner = RT.dynUnwrap(V);
    Sp[-3] = Inner;
    int64_t Index = Sp[-2].asFixnum();
    if (CoercionCasts) {
      Value Converted =
          RT.coerceRuntime(Sp[-1], RT.typeContext().dyn(), T->inner(),
                           Site.Label, &SiteIC[I.A]);
      // Re-read: the cast can move the vector.
      RT.vectorSet(Sp[-3], Index, Converted);
    } else {
      RT.backend().dynVectorSet(Inner, Index, Sp[-1], T->inner(),
                                Site.Label, &SiteIC[I.A]);
    }
    Sp -= 3;
    push(Value::unit());
    VM_NEXT();
  }
  VM_CASE(VecLenFast) {
    Value Vect = Sp[-1];
    Sp[-1] = Value::fromFixnum(Vect.object()->slotCount());
    VM_NEXT();
  }
  VM_CASE(VecLen) {
    Sp[-1] = Value::fromFixnum(RT.vectorLength(Sp[-1]));
    VM_NEXT();
  }
  VM_CASE(VecLenDyn) {
    const DynSite &Site = Prog.Sites[I.A];
    Value V = Sp[-1];
    const Type *T = dynType(V);
    if (!T->isVect()) [[unlikely]]
      RT.blame(Site.Label, "vector-length of a value of type " + T->str());
    Sp[-1] = Value::fromFixnum(RT.vectorLength(RT.dynUnwrap(V)));
    VM_NEXT();
  }
  VM_CASE(AppDyn) {
    uint32_t Argc = static_cast<uint32_t>(I.A);
    const DynSite &Site = Prog.Sites[I.B];
    size_t CalleeIdx = top() - Argc - 1;
    Value Dv = Stack[CalleeIdx];
    const Type *FT = dynType(Dv);
    if (!FT->isFunction()) [[unlikely]]
      RT.blame(Site.Label, "application of a value of type " + FT->str());
    if (FT->arity() != Argc) [[unlikely]]
      RT.blame(Site.Label,
               "arity mismatch: function expects " +
                   std::to_string(FT->arity()) + " arguments, got " +
                   std::to_string(Argc));
    Stack[CalleeIdx] = RT.dynUnwrap(Dv);
    const Type *Dyn = RT.typeContext().dyn();
    for (uint32_t J = 0; J != Argc; ++J)
      Stack[CalleeIdx + 1 + J] =
          castRuntime(Stack[CalleeIdx + 1 + J], Dyn, FT->param(J),
                      Site.Label, &SiteIC[I.B]);
    // The result comes back as FT's result type; the site expects Dyn.
    size_t First = RetStack.size();
    RetStack.push_back(
        {.S = FT->result(), .T = Dyn, .L = Site.Label, .IC = &SiteIC[I.B]});
    VM_SAVE_IP();
    if (!enterPlainClosure(Argc, First))
      doCallSlow(Argc, /*Tail=*/false, First);
    VM_LOAD_FRAME();
    VM_NEXT();
  }
  VM_CASE(TimeStart) {
    TimeStack.push_back(std::chrono::steady_clock::now());
    VM_NEXT();
  }
  VM_CASE(TimeEnd) {
    auto End = std::chrono::steady_clock::now();
    RT.stats().TimedNanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            End - TimeStack.back())
            .count();
    TimeStack.pop_back();
    VM_NEXT();
  }

  // Superinstructions. Each fuses an adjacent pair; the pair's second
  // instruction is still in the slot after this one (a placeholder the
  // compiler left in place so jump targets stay valid) and is skipped
  // with ++IP, before a call saves IP into the frame.
  VM_CASE(LocalGetGet) {
    push(Stack[FP->Base + I.A]);
    VM_FUSED_STEP();
    ++IP;
    push(Stack[FP->Base + I.B]);
    VM_NEXT();
  }
  VM_CASE(LocalGetCall) {
    push(Stack[FP->Base + I.A]);
    VM_FUSED_STEP();
    ++IP;
    VM_SAVE_IP();
    doCall(static_cast<uint32_t>(I.B), /*Tail=*/false);
    VM_LOAD_FRAME();
    VM_NEXT();
  }
  VM_CASE(LocalGetTailCall) {
    push(Stack[FP->Base + I.A]);
    VM_FUSED_STEP();
    doCall(static_cast<uint32_t>(I.B), /*Tail=*/true);
    VM_LOAD_FRAME();
    VM_NEXT();
  }
  VM_CASE(PushIntPrim) {
    push(Value::fromFixnum(I.A));
    VM_FUSED_STEP();
    ++IP;
    doPrim(static_cast<PrimOp>(I.B));
    VM_NEXT();
  }
  VM_CASE(PrimJumpIfFalse) {
    doPrim(static_cast<PrimOp>(I.A));
    VM_FUSED_STEP();
    Value Cond = pop();
    assert(Cond.isBool() && "condition must be a boolean");
    if (!Cond.asBool())
      IP = FP->Code + I.B;
    else
      ++IP; // over the placeholder JumpIfFalse
    VM_NEXT();
  }
  VM_CASE(PushFloatPrim) {
    push(Value::fromFloat(Prog.FloatPool[I.A]));
    VM_FUSED_STEP();
    ++IP;
    doPrim(static_cast<PrimOp>(I.B));
    VM_NEXT();
  }
  VM_CASE(PushIntAdd) {
    VM_FUSED_STEP();
    ++IP;
    Sp[-1] = Value::fromFixnum(Sp[-1].asFixnum() + I.A);
    VM_NEXT();
  }
  VM_CASE(PushIntSub) {
    VM_FUSED_STEP();
    ++IP;
    Sp[-1] = Value::fromFixnum(Sp[-1].asFixnum() - I.A);
    VM_NEXT();
  }
#define VM_COMPARE_JUMP(Name, Operator)                                        \
  VM_CASE(Name) {                                                              \
    VM_FUSED_STEP();                                                           \
    int64_t Rhs = Sp[-1].asFixnum();                                           \
    int64_t Lhs = Sp[-2].asFixnum();                                           \
    Sp -= 2;                                                                   \
    IP = Lhs Operator Rhs ? IP + 1 : FP->Code + I.A;                           \
    VM_NEXT();                                                                 \
  }
  VM_COMPARE_JUMP(LtIntJumpIfFalse, <)
  VM_COMPARE_JUMP(LeIntJumpIfFalse, <=)
  VM_COMPARE_JUMP(EqIntJumpIfFalse, ==)
  VM_COMPARE_JUMP(GeIntJumpIfFalse, >=)
  VM_COMPARE_JUMP(GtIntJumpIfFalse, >)
  VM_DISPATCH_END()
}

#undef VM_FETCH
#undef VM_SAVE_IP
#undef VM_LOAD_FRAME
#undef VM_COMPARE_JUMP
#undef VM_FUSED_STEP
#undef VM_DISPATCH_BEGIN
#undef VM_CASE
#undef VM_NEXT
#undef VM_DISPATCH_END

//===----------------------------------------------------------------------===//
// Primitives
//===----------------------------------------------------------------------===//

void VM::doPrim(PrimOp Op) {
  auto popInt = [&]() {
    Value V = pop();
    assert(V.isFixnum() && "integer primitive on non-integer");
    return V.asFixnum();
  };
  auto popFloat = [&]() {
    Value V = pop();
    assert(V.isFloat() && "float primitive on non-float");
    return V.asFloat();
  };
  auto pushInt = [&](int64_t I) { push(Value::fromFixnum(I)); };
  auto pushF = [&](double D) { push(Value::fromFloat(D)); };
  auto pushBool = [&](bool B) { push(Value::fromBool(B)); };

  switch (Op) {
  case PrimOp::AddI: {
    int64_t B = popInt(), A = popInt();
    pushInt(A + B);
    return;
  }
  case PrimOp::SubI: {
    int64_t B = popInt(), A = popInt();
    pushInt(A - B);
    return;
  }
  case PrimOp::MulI: {
    int64_t B = popInt(), A = popInt();
    pushInt(A * B);
    return;
  }
  case PrimOp::DivI: {
    int64_t B = popInt(), A = popInt();
    if (B == 0)
      trap("integer division by zero");
    pushInt(A / B);
    return;
  }
  case PrimOp::ModI: {
    int64_t B = popInt(), A = popInt();
    if (B == 0)
      trap("integer modulo by zero");
    pushInt(A % B);
    return;
  }
  case PrimOp::LtI: {
    int64_t B = popInt(), A = popInt();
    pushBool(A < B);
    return;
  }
  case PrimOp::LeI: {
    int64_t B = popInt(), A = popInt();
    pushBool(A <= B);
    return;
  }
  case PrimOp::EqI: {
    int64_t B = popInt(), A = popInt();
    pushBool(A == B);
    return;
  }
  case PrimOp::GeI: {
    int64_t B = popInt(), A = popInt();
    pushBool(A >= B);
    return;
  }
  case PrimOp::GtI: {
    int64_t B = popInt(), A = popInt();
    pushBool(A > B);
    return;
  }
  case PrimOp::AddF: {
    double B = popFloat(), A = popFloat();
    pushF(A + B);
    return;
  }
  case PrimOp::SubF: {
    double B = popFloat(), A = popFloat();
    pushF(A - B);
    return;
  }
  case PrimOp::MulF: {
    double B = popFloat(), A = popFloat();
    pushF(A * B);
    return;
  }
  case PrimOp::DivF: {
    double B = popFloat(), A = popFloat();
    pushF(A / B);
    return;
  }
  case PrimOp::ModF: {
    double B = popFloat(), A = popFloat();
    pushF(std::fmod(A, B));
    return;
  }
  case PrimOp::ExptF: {
    double B = popFloat(), A = popFloat();
    pushF(std::pow(A, B));
    return;
  }
  case PrimOp::Atan2F: {
    double B = popFloat(), A = popFloat();
    pushF(std::atan2(A, B));
    return;
  }
  case PrimOp::MinF: {
    double B = popFloat(), A = popFloat();
    pushF(std::fmin(A, B));
    return;
  }
  case PrimOp::MaxF: {
    double B = popFloat(), A = popFloat();
    pushF(std::fmax(A, B));
    return;
  }
  case PrimOp::LtF: {
    double B = popFloat(), A = popFloat();
    pushBool(A < B);
    return;
  }
  case PrimOp::LeF: {
    double B = popFloat(), A = popFloat();
    pushBool(A <= B);
    return;
  }
  case PrimOp::EqF: {
    double B = popFloat(), A = popFloat();
    pushBool(A == B);
    return;
  }
  case PrimOp::GeF: {
    double B = popFloat(), A = popFloat();
    pushBool(A >= B);
    return;
  }
  case PrimOp::GtF: {
    double B = popFloat(), A = popFloat();
    pushBool(A > B);
    return;
  }
  case PrimOp::NegF:
    pushF(-popFloat());
    return;
  case PrimOp::AbsF:
    pushF(std::fabs(popFloat()));
    return;
  case PrimOp::SqrtF:
    pushF(std::sqrt(popFloat()));
    return;
  case PrimOp::SinF:
    pushF(std::sin(popFloat()));
    return;
  case PrimOp::CosF:
    pushF(std::cos(popFloat()));
    return;
  case PrimOp::TanF:
    pushF(std::tan(popFloat()));
    return;
  case PrimOp::AsinF:
    pushF(std::asin(popFloat()));
    return;
  case PrimOp::AcosF:
    pushF(std::acos(popFloat()));
    return;
  case PrimOp::AtanF:
    pushF(std::atan(popFloat()));
    return;
  case PrimOp::ExpF:
    pushF(std::exp(popFloat()));
    return;
  case PrimOp::LogF:
    pushF(std::log(popFloat()));
    return;
  case PrimOp::FloorF:
    pushF(std::floor(popFloat()));
    return;
  case PrimOp::CeilingF:
    pushF(std::ceil(popFloat()));
    return;
  case PrimOp::RoundF:
    pushF(std::nearbyint(popFloat()));
    return;
  case PrimOp::IntToFloat:
    pushF(static_cast<double>(popInt()));
    return;
  case PrimOp::FloatToInt:
    pushInt(static_cast<int64_t>(popFloat()));
    return;
  case PrimOp::IntToChar:
    push(Value::fromChar(static_cast<char>(popInt())));
    return;
  case PrimOp::CharToInt: {
    Value V = pop();
    pushInt(static_cast<unsigned char>(V.asChar()));
    return;
  }
  case PrimOp::Not: {
    Value V = pop();
    pushBool(!V.asBool());
    return;
  }
  case PrimOp::PrintInt:
    Output += std::to_string(popInt());
    push(Value::unit());
    return;
  case PrimOp::PrintFloat:
    Output += formatDouble(popFloat());
    push(Value::unit());
    return;
  case PrimOp::PrintChar:
    Output += pop().asChar();
    push(Value::unit());
    return;
  case PrimOp::PrintBool:
    Output += pop().asBool() ? "#t" : "#f";
    push(Value::unit());
    return;
  case PrimOp::ReadInt:
    pushInt(readIntFromInput());
    return;
  case PrimOp::ReadChar:
    push(Value::fromChar(readCharFromInput()));
    return;
  }
  trap("unknown primitive");
}

int64_t VM::readIntFromInput() {
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

char VM::readCharFromInput() {
  if (InputPos >= Input.size())
    trap("read-char: end of input");
  return Input[InputPos++];
}
