//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime error signalling. A failed cast raises blame carrying the label
/// of the responsible cast site (lazy-D blame tracking); other runtime
/// traps (index out of bounds, arity mismatch on a Dyn call, ...) use the
/// same channel without a blame label. Resource exhaustion — fuel, heap,
/// call depth, wall clock — uses dedicated kinds so callers can tell a
/// program error (the program is wrong) from resource exhaustion (the
/// program was stopped; with a larger budget it might have finished).
///
/// This is the one place the library uses C++ exceptions: errors must
/// unwind the recursive coerce/cast/interpreter machinery. Exceptions are
/// caught at the VM / reference-interpreter boundary and surfaced as a
/// RunResult / RefResult; none escape the public API (see DESIGN.md §4).
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_RUNTIME_BLAME_H
#define GRIFT_RUNTIME_BLAME_H

#include <cstdint>
#include <string>

namespace grift {

/// What went wrong. The first two are program errors (deterministic for a
/// given program and input); the rest are resource errors imposed by
/// RunLimits or the allocator and depend on the configured budgets.
enum class ErrorKind : uint8_t {
  Blame,         ///< a cast failed; Label names the responsible cast site
  Trap,          ///< runtime trap (bounds, division by zero, bad input...)
  OutOfMemory,   ///< heap budget exhausted or the allocator failed
  StackOverflow, ///< call-frame or value-stack budget exhausted
  FuelExhausted, ///< step budget (RunLimits::MaxSteps) exhausted
  Timeout,       ///< wall-clock budget (RunLimits::MaxWallNanos) exhausted
  Cancelled,     ///< outlived a deadline set outside its RunLimits
  Overloaded,    ///< shed by the service before running (admission/quota)
};

/// Stable machine-readable name ("blame", "trap", "out-of-memory", ...).
inline const char *errorKindName(ErrorKind Kind) {
  switch (Kind) {
  case ErrorKind::Blame:
    return "blame";
  case ErrorKind::Trap:
    return "trap";
  case ErrorKind::OutOfMemory:
    return "out-of-memory";
  case ErrorKind::StackOverflow:
    return "stack-overflow";
  case ErrorKind::FuelExhausted:
    return "fuel-exhausted";
  case ErrorKind::Timeout:
    return "timeout";
  case ErrorKind::Cancelled:
    return "cancelled";
  case ErrorKind::Overloaded:
    return "overloaded";
  }
  return "?";
}

/// Raised when a cast fails, the runtime traps, or a resource budget is
/// exhausted. Caught at the run() boundary; never escapes the public API.
struct RuntimeError {
  ErrorKind Kind = ErrorKind::Trap;
  std::string Label;   ///< cast-site blame label ("line:col"), if Blame
  std::string Message; ///< human-readable description

  bool isBlame() const { return Kind == ErrorKind::Blame; }

  /// Resource errors say nothing about the program itself: a bigger
  /// budget might have let it finish (or fail differently).
  bool isResourceExhaustion() const {
    return Kind != ErrorKind::Blame && Kind != ErrorKind::Trap;
  }

  /// Renders "blame 3:14: message" or "<kind>: message".
  std::string str() const {
    if (Kind == ErrorKind::Blame)
      return "blame " + Label + ": " + Message;
    return std::string(errorKindName(Kind)) + ": " + Message;
  }
};

} // namespace grift

#endif // GRIFT_RUNTIME_BLAME_H
