//===----------------------------------------------------------------------===//
///
/// \file
/// Job descriptions and results for the execution service. A JobSpec is
/// everything needed to compile and run one program: source, cast mode,
/// input, resource budgets (RunLimits) and a deadline set outside those
/// budgets (see DeadlineBudget). A JobResult is the structured outcome
/// griftd serializes one line of: status, ErrorKind, and the
/// wall/fuel/heap consumption snapshot from the run.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_SERVICE_JOB_H
#define GRIFT_SERVICE_JOB_H

#include "runtime/Blame.h"
#include "runtime/Limits.h"
#include "runtime/Mode.h"
#include "runtime/Stats.h"

#include <chrono>
#include <cstdint>
#include <string>

namespace grift::service {

/// One program execution request.
struct JobSpec {
  std::string Id;     ///< caller-chosen identifier, echoed in the result
  std::string Tenant; ///< quota/accounting principal; empty = anonymous
  std::string Source; ///< GTLC+ source text
  CastMode Mode = CastMode::Coercions;
  bool Optimize = false;
  std::string Input;  ///< words for read-int / read-char
  /// Budgets enforced by the engine itself.
  RunLimits Limits;
  /// The caller's deadline for the run, in nanoseconds of wall time;
  /// 0 = none. Where it is strictly tighter than Limits.MaxWallNanos
  /// (after the QueueDeadline clamp) it becomes the wall budget, and a
  /// run that outlives it ends ErrorKind::Cancelled (DeadlineBudget).
  int64_t DeadlineNanos = 0;
  /// Absolute end-to-end deadline (steady clock), including time spent
  /// queued behind other jobs. Default-constructed = none. When set, the
  /// service (a) fails the job with ErrorKind::Timeout *without running
  /// it* if it is already expired at dequeue, and (b) clamps the run's
  /// in-band MaxWallNanos to the time remaining — a request never
  /// outlives its client's patience, no matter how deep the queue was.
  std::chrono::steady_clock::time_point QueueDeadline{};
};

/// A caller's deadline folded into one run's wall budget. The engines
/// know only RunLimits::MaxWallNanos; this is the one place that decides
/// whether a Timeout was the program's own budget or the caller's
/// deadline. A deadline strictly tighter than the wall budget (or with
/// no wall budget at all) replaces it, and a Timeout of that run is
/// reported as ErrorKind::Cancelled. A deadline at or past the wall
/// budget changes nothing: the run's Timeout stays a Timeout.
class DeadlineBudget {
public:
  DeadlineBudget(RunLimits &Limits, int64_t DeadlineNanos) {
    if (DeadlineNanos > 0 &&
        (Limits.MaxWallNanos == 0 || DeadlineNanos < Limits.MaxWallNanos))
      Limits.MaxWallNanos = Folded = DeadlineNanos;
  }

  /// Relabels a Timeout of a run whose wall budget is the deadline as
  /// Cancelled. Returns true when it did: one deadline kill.
  bool cancel(ErrorKind &Kind, std::string &Message) const {
    if (!Folded || Kind != ErrorKind::Timeout)
      return false;
    Kind = ErrorKind::Cancelled;
    Message = "deadline of " + std::to_string(Folded) + " ns passed";
    return true;
  }

private:
  int64_t Folded = 0; ///< the deadline, when it became the wall budget
};

/// How a job ended.
enum class JobStatus : uint8_t {
  Done,         ///< ran to completion; ResultText holds the value
  CompileError, ///< parse/check/compile failed; ErrorMessage holds why
  Failed,       ///< ran and failed; Kind/ErrorMessage describe the error
  Rejected,     ///< not run at all: shed under overload (see Kind)
};

inline const char *jobStatusName(JobStatus S) {
  switch (S) {
  case JobStatus::Done:
    return "ok";
  case JobStatus::CompileError:
    return "compile-error";
  case JobStatus::Failed:
    return "failed";
  case JobStatus::Rejected:
    return "rejected";
  }
  return "?";
}

/// Structured outcome of one job.
struct JobResult {
  std::string Id;
  JobStatus Status = JobStatus::Failed;
  std::string ResultText;       ///< final value (Status == Done)
  std::string Output;           ///< program output
  ErrorKind Kind = ErrorKind::Trap; ///< valid when Failed or Rejected
  std::string ErrorMessage;     ///< human-readable failure description
  bool CompileCacheHit = false; ///< compiled program came from the cache
  int64_t WallNanos = 0;        ///< execution wall time (0 when not run)
  uint64_t FuelUsed = 0;        ///< interpreter steps (0 when not run)
  size_t PeakHeapBytes = 0;     ///< heap high-water mark
  RuntimeStats Stats;           ///< runtime counters

  bool ok() const { return Status == JobStatus::Done; }
};

} // namespace grift::service

#endif // GRIFT_SERVICE_JOB_H
