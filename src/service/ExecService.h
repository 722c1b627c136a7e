//===----------------------------------------------------------------------===//
///
/// \file
/// The hardened concurrent execution service. Turns the single-shot
/// engine into a multi-job executor:
///
///   submit(JobSpec) -> std::future<JobResult>
///
/// with, per job:
///
///   1. engine pool — one Grift per worker thread, per-slot compile
///      cache, debug thread-affinity asserts;
///   2. deadlines — a job's DeadlineNanos, where it is shorter than
///      its wall budget, becomes that budget; a run that outlives it
///      ends ErrorKind::Cancelled and counts one WatchdogKills
///      (DeadlineBudget). No thread watches the clock: the engine's
///      own wall check ends the run.
///
/// A program's outcome is a function of (source, mode, input, limits),
/// so every job runs exactly once and reports that run's verdict. Every
/// failure mode ends in a JobResult; submit() never throws job errors
/// and workers never die. The worker threads are the only threads it
/// starts; the destructor drains queued jobs (running them, not
/// dropping them) and joins them.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_SERVICE_EXECSERVICE_H
#define GRIFT_SERVICE_EXECSERVICE_H

#include "service/EnginePool.h"
#include "service/Job.h"
#include "store/Store.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace grift::service {

struct ServiceConfig {
  /// Worker threads (= engine slots). 0 = hardware concurrency.
  unsigned Threads = 0;
  /// Per-slot compile cache on/off (benchmarking cold-compile paths).
  bool CompileCache = true;
  /// Epoch cap on each slot's coercion arena: after a job, a slot whose
  /// engine has allocated more coercion nodes than this drops its
  /// compile cache and coercion factory together (see
  /// EnginePool::Slot::maybeResetEpoch). 0 disables epoch resets.
  size_t MaxCoercionNodes = 1u << 16;
  /// Admission bound on the internal queue: submissions arriving while
  /// MaxQueueDepth jobs are already waiting are *shed* — their future is
  /// fulfilled immediately with JobStatus::Rejected / ErrorKind::
  /// Overloaded instead of queueing unboundedly. 0 = unbounded (the
  /// batch tool's mode: it enqueues a whole manifest up front by
  /// design). Server front ends layer byte-budget admission and tenant
  /// quotas on top (see service::Admission / service::TenantQuota).
  size_t MaxQueueDepth = 0;
  /// Deterministic fault injection, for soak testing the service under
  /// allocator hostility: force a GC every Nth allocation and/or fail
  /// every Nth allocation with ErrorKind::OutOfMemory (both 0 = off).
  /// Each worker owns one FaultInjector whose allocation counter spans
  /// jobs, so the faults land at ever-shifting points of each program —
  /// exactly what the GC-torture nightly wants.
  uint64_t GCTorturePeriod = 0;
  /// Minor-GC torture: a nursery collection every Nth allocation and
  /// every Nth cast application, with the same job-spanning counter.
  uint64_t MinorGCTorturePeriod = 0;
  uint64_t FailAllocPeriod = 0;
  /// Persistent compiled-program store (src/store): directory for the
  /// content-addressed image cache. Empty disables it. On a slot-cache
  /// miss the lookup order becomes slot cache → store → compile, and
  /// successful compiles are published back for the next cold start.
  std::string CacheDir;
  /// Eviction cap for the store (0 = uncapped).
  uint64_t CacheMaxBytes = 256ull << 20;
  /// Deterministic file-I/O faults against the store (crash/corruption
  /// soak): truncate the Nth entry write, fail the Nth fsync, flip one
  /// bit of the Nth entry read (all 1-based one-shots, 0 = off).
  uint64_t FileShortWriteAt = 0;
  uint64_t FileFailFsyncAt = 0;
  uint64_t FileFlipReadBitAt = 0;
  uint64_t FileFlipReadBitIndex = 0;
};

/// Monotonic counters, snapshot via ExecService::stats().
struct ServiceStats {
  uint64_t JobsSubmitted = 0;
  uint64_t JobsCompleted = 0; ///< finished by a worker, failures included
  uint64_t JobsShed = 0;      ///< overload sheds (queue depth bound)
  uint64_t DeadlineExpired = 0; ///< jobs expired in queue, never run
  uint64_t WatchdogKills = 0; ///< runs that outlived their DeadlineNanos
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t EpochResets = 0; ///< coercion-arena epoch resets across slots
  uint64_t PeakQueueDepth = 0; ///< high-water mark of waiting jobs
  uint64_t StoreHits = 0;    ///< compiles served from the persistent store
  uint64_t StoreMisses = 0;  ///< store lookups that fell back to compile
  uint64_t StoreCorrupt = 0; ///< store misses caused by failed validation
  uint64_t StoreEvicted = 0; ///< store entries evicted by the size cap
};

class ExecService {
public:
  explicit ExecService(ServiceConfig Config = {});
  ~ExecService();
  ExecService(const ExecService &) = delete;
  ExecService &operator=(const ExecService &) = delete;

  /// Enqueues a job; the future is fulfilled exactly once, with a
  /// JobResult for every outcome (including rejection).
  std::future<JobResult> submit(JobSpec Spec);

  /// submit() + wait: runs \p Spec and blocks for its result.
  JobResult run(JobSpec Spec) { return submit(std::move(Spec)).get(); }

  unsigned threads() const { return Pool.size(); }

  /// The persistent program store, or nullptr when CacheDir is unset
  /// (diagnostics, tests).
  store::Store *programStore() { return ProgStore.get(); }

  /// Jobs currently waiting (not yet picked up by a worker).
  size_t queueDepth() const;

  ServiceStats stats() const;

private:
  struct Pending {
    JobSpec Spec;
    std::promise<JobResult> Promise;
  };

  void workerLoop(unsigned SlotIdx);
  JobResult executeJob(EnginePool::Slot &Slot, JobSpec &Spec,
                       FaultInjector &Injector);

  ServiceConfig Config;
  /// File-I/O fault schedule shared by every worker's store access; the
  /// store serializes consults internally. Distinct from the per-worker
  /// heap injectors in workerLoop.
  FaultInjector FileFaults;
  std::unique_ptr<store::Store> ProgStore;
  EnginePool Pool;

  mutable std::mutex QueueM;
  std::condition_variable QueueCV;
  std::deque<Pending> Queue;
  bool Stopping = false;

  std::atomic<uint64_t> Submitted{0};
  std::atomic<uint64_t> Completed{0};
  std::atomic<uint64_t> Sheds{0};
  std::atomic<uint64_t> Expired{0};
  std::atomic<uint64_t> Kills{0};
  std::atomic<uint64_t> PeakQueue{0};

  std::vector<std::thread> Workers; ///< last member: started in ctor body
};

} // namespace grift::service

#endif // GRIFT_SERVICE_EXECSERVICE_H
