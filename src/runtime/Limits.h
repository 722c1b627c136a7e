//===----------------------------------------------------------------------===//
///
/// \file
/// Resource budgets for one program execution. A zero field means
/// "unlimited" (beyond the engine's own safety caps). Both execution
/// engines honour the same struct:
///
///   * the VM counts dispatched instructions against MaxSteps (checked
///     once per dispatch batch, so overshoot is bounded by the batch
///     size), enforces MaxHeapBytes in Heap::allocateObject, MaxFrames at
///     every non-tail call, and MaxWallNanos at batch boundaries;
///   * the reference interpreter counts eval() steps against MaxSteps,
///     interpreted-call depth against MaxFrames, and samples the wall
///     clock against MaxWallNanos every 4096 steps.
///
/// Exhausting a budget raises a RuntimeError with the matching resource
/// ErrorKind (FuelExhausted / OutOfMemory / StackOverflow / Timeout); the
/// engine unwinds cleanly and the owning Grift instance remains usable.
/// Nothing stops a run from outside: a caller's deadline is folded into
/// MaxWallNanos before the run starts (service::DeadlineBudget in
/// service/Job.h).
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_RUNTIME_LIMITS_H
#define GRIFT_RUNTIME_LIMITS_H

#include <cstddef>
#include <cstdint>
#include <limits>

namespace grift {

/// Hard budgets for Executable::run / refinterp::interpret. Defaults are
/// all "unlimited" so existing callers see no behaviour change.
struct RunLimits {
  /// Fuel: interpreter steps (VM instructions / refinterp eval calls).
  /// 0 = unlimited. Enforcement is batched; a divergent program is
  /// stopped within one batch of the budget.
  uint64_t MaxSteps = 0;

  /// Heap budget in bytes of live data (measured as live-at-last-GC plus
  /// bytes allocated since). The heap collects once before declaring
  /// defeat, so floating garbage does not count against the budget.
  /// 0 = unlimited.
  size_t MaxHeapBytes = 0;

  /// Call-depth budget in frames. 0 = the engine's built-in safety cap.
  uint32_t MaxFrames = 0;

  /// Wall-clock budget in nanoseconds, checked at batch boundaries.
  /// 0 = unlimited.
  int64_t MaxWallNanos = 0;

  /// Nursery (young-generation) size in bytes for this run. The
  /// SIZE_MAX sentinel keeps the heap's built-in default; 0 disables the
  /// nursery entirely (the `--gc-nursery=0` escape hatch: all allocation
  /// goes straight to the old generation's pools, restoring the
  /// pre-generational collector); anything else is an explicit size.
  size_t GCNurseryBytes = std::numeric_limits<size_t>::max();
};

} // namespace grift

#endif // GRIFT_RUNTIME_LIMITS_H
