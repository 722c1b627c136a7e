//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode interpreter. A stack machine whose calling convention is
/// proxy-aware: calling through a proxy closure converts the arguments,
/// records a pending result conversion on the return-cast side stack,
/// and proceeds with the underlying closure (paper Section 3.2, "Applying Functions" —
/// proxy closures share the plain-closure convention; only the pointer
/// tag must be cleared).
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_VM_VM_H
#define GRIFT_VM_VM_H

#include "runtime/Limits.h"
#include "runtime/Runtime.h"
#include "vm/Bytecode.h"

#include <chrono>
#include <string>
#include <vector>

namespace grift {

/// The outcome of running a program.
struct RunResult {
  bool OK = false;
  std::string ResultText; ///< rendered final value (when OK)
  RuntimeError Error;     ///< when !OK
  std::string Output;     ///< everything the program printed
  RuntimeStats Stats;     ///< runtime statistics snapshot
  int64_t WallNanos = 0;  ///< total execution wall time
  size_t PeakHeapBytes = 0; ///< heap high-water mark (space efficiency)
  uint64_t Steps = 0;     ///< instructions dispatched (fuel consumed)
};

class VM final : public RootProvider {
public:
  VM(Runtime &RT, const VMProgram &Prog);
  ~VM() override;
  VM(const VM &) = delete;
  VM &operator=(const VM &) = delete;

  /// Runs the program to completion or until a budget in \p Limits is
  /// exhausted. \p Input feeds read-int/read-char. Never throws: every
  /// RuntimeError and allocation failure is surfaced through the result.
  RunResult run(std::string Input = "", const RunLimits &Limits = {});

  void visitRoots(void (*Visit)(Value &, void *), void *Ctx) override;

private:
  /// A pending result conversion recorded when calling through a proxy
  /// or a Dyn application site. C is used in coercion mode; S/T/L in
  /// type-based mode (and for runtime-typed Dyn results, which resolve
  /// their coercion through IC: an AppDyn site's own cache, or the
  /// runtime's shared one when null). Every pointer is immortal (interned
  /// coercions and types, blame labels) or lives as long as the run (the
  /// site caches), so the side stack holding these needs no GC rooting.
  struct RetCast {
    const Coercion *C = nullptr;
    const Type *S = nullptr;
    const Type *T = nullptr;
    const std::string *L = nullptr;
    CoercionCache *IC = nullptr;
  };

  /// A call frame: plain words. Its pending return casts are the
  /// RetStack entries from RetBase up to the next frame's RetBase (for
  /// the top frame, up to the end of RetStack). While a frame runs,
  /// execute() keeps its instruction pointer in a local; IP is written
  /// back only when a call, AppDyn or return leaves the frame.
  struct Frame {
    const Instr *Code = nullptr; // the running function's instructions
    const Instr *IP = nullptr;   // next instruction, saved across calls
    uint32_t Base = 0;       // stack index of local 0
    uint32_t CalleeSlot = 0; // stack index holding the callee value
    uint32_t RetBase = 0;    // first RetStack entry of this frame
    Value Clos;              // closure providing FreeGet slots
  };

  Runtime &RT;
  const VMProgram &Prog;
  /// Backend call-protocol predicates, sampled once at construction so
  /// the call paths branch on a bool instead of a virtual call:
  /// proxy closures carry coercions (all modes but type-based)...
  const bool CoercionCallProtocol;
  /// ...pending return coercions are composed into one explicit
  /// per-frame coercion argument (coercion-passing style)...
  const bool ComposeReturns;
  /// ...and casts take the default coercion path, so the cast sites use
  /// Runtime's inline coercion entry points (coercions, coercion-passing).
  const bool CoercionCasts;
  std::vector<Value> Stack;
  /// One past the top of Stack. A pointer, not an index: the handlers'
  /// stores to stack slots cannot alias it, so it stays in a register
  /// between calls.
  Value *Sp = nullptr;
  std::vector<Frame> Frames;
  /// Every frame's pending return casts, oldest frame first; each
  /// frame's own entries are applied LIFO at its Return.
  std::vector<RetCast> RetStack;
  std::vector<Value> Globals;
  std::string Output;
  std::string Input;
  size_t InputPos = 0;
  std::vector<std::chrono::steady_clock::time_point> TimeStack;
  RunLimits Limits;
  size_t FrameCap = 0; ///< resolved from Limits (or the built-in cap)
  uint64_t StepsUsed = 0;
  std::chrono::steady_clock::time_point StartTime;
  /// Per-site inline caches: one per Cast instruction and one per Dyn
  /// elimination site, indexed by the instruction's cast/site table
  /// index. Reset at the start of every run.
  std::vector<CoercionCache> CastIC;
  std::vector<CoercionCache> SiteIC;

  Value execute();

  /// Called once per dispatch batch: charges the batch against the fuel
  /// budget and samples the wall clock. Throws FuelExhausted / Timeout.
  void checkBudgets(uint32_t BatchSteps);

  void push(Value V) {
    if (Sp == Stack.data() + Stack.size()) [[unlikely]]
      growStack();
    *Sp++ = V;
  }
  Value pop() { return *--Sp; }
  /// The stack index one past the top.
  size_t top() const { return static_cast<size_t>(Sp - Stack.data()); }
  void growStack();
  void ensureStack(size_t Extra);

  /// TYPE(v) of a Dyn value at an elimination site, a μ type unfolded.
  const Type *dynType(Value V) {
    const Type *T = RT.runtimeTypeOf(V);
    if (T->isRec()) [[unlikely]]
      T = RT.typeContext().unfold(T);
    return T;
  }

  /// Runtime::castRuntime, through the inline coercion path when the
  /// backend's casts are coercions.
  Value castRuntime(Value V, const Type *S, const Type *T,
                    const std::string *Label, CoercionCache *IC) {
    return CoercionCasts ? RT.castRuntimeCoercion(V, S, T, Label, IC)
                         : RT.castRuntime(V, S, T, Label, IC);
  }

  /// Unwraps function proxies at a call site: converts arguments in
  /// place, pushes each proxy's pending result conversion onto RetStack,
  /// and returns the plain closure. \p ArgsBase indexes the first
  /// argument on the stack.
  Value resolveCallee(Value Callee, uint32_t Argc, size_t ArgsBase);

  /// The return-cast policy. A call pushes its pending return casts onto
  /// RetStack as it resolves them, from index \p First on; this adds
  /// them to the frame whose entries start at \p FrameBase. Stacked,
  /// they stay where they are, so n proxied tail calls grow the reused
  /// frame's entries Θ(n). Composed (coercion-passing style), they fold
  /// into the frame's single entry: runtime-typed entries become their
  /// interned coercion, each is composed with the entry below, and an
  /// identity result leaves the frame with none.
  void pushPending(uint32_t FrameBase, size_t First) {
    if (ComposeReturns && First != RetStack.size())
      composePending(FrameBase, First);
    if (size_t Count = RetStack.size() - FrameBase)
      RT.stats().noteRetCasts(Count);
  }
  void composePending(uint32_t FrameBase, size_t First);

  /// The call fast path: when the callee below the \p Argc arguments is
  /// a plain closure of the right arity and the frame cap is not
  /// reached, pushes its frame (owning the pending return casts from
  /// RetStack index \p First) and returns true. Otherwise changes
  /// nothing and returns false.
  bool enterPlainClosure(uint32_t Argc, size_t First);

  /// Everything else: proxied callees, tail calls, arity and non-function
  /// traps, and StackOverflow.
  void doCallSlow(uint32_t Argc, bool Tail, size_t First);

  /// A Call or TailCall instruction.
  void doCall(uint32_t Argc, bool Tail) {
    size_t First = RetStack.size();
    if (Tail || !enterPlainClosure(Argc, First))
      doCallSlow(Argc, Tail, First);
  }

  void doPrim(PrimOp Op);

  int64_t readIntFromInput();
  char readCharFromInput();

  [[noreturn]] void trap(std::string Message) { RT.trap(std::move(Message)); }
};

} // namespace grift

#endif // GRIFT_VM_VM_H
