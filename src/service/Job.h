//===----------------------------------------------------------------------===//
///
/// \file
/// Job descriptions and results for the execution service. A JobSpec is
/// everything needed to compile and run one program: source, cast mode,
/// input, in-band resource budgets (RunLimits) and an out-of-band
/// watchdog deadline. A JobResult is the structured outcome griftd
/// serializes one line of: status, ErrorKind, and the wall/fuel/heap
/// consumption snapshot from the run.
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
  /// In-band budgets enforced by the engine itself. The Cancel field is
  /// owned by the service (each run gets the pool slot's token); any
  /// caller-provided pointer is ignored.
  RunLimits Limits;
  /// Out-of-band watchdog deadline for the run, in nanoseconds of wall
  /// time; 0 = no watchdog. The watchdog thread stores the cancel token
  /// and the run dies at the next dispatch-batch boundary with
  /// ErrorKind::Cancelled. It is armed only when it would fire strictly
  /// before Limits.MaxWallNanos (after the QueueDeadline clamp), which
  /// is polled at the same boundary and reports ErrorKind::Timeout.
  int64_t DeadlineNanos = 0;
  /// Absolute end-to-end deadline (steady clock), including time spent
  /// queued behind other jobs. Default-constructed = none. When set, the
  /// service (a) fails the job with ErrorKind::Timeout *without running
  /// it* if it is already expired at dequeue, and (b) clamps the run's
  /// in-band MaxWallNanos to the time remaining — a request never
  /// outlives its client's patience, no matter how deep the queue was.
  std::chrono::steady_clock::time_point QueueDeadline{};
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
