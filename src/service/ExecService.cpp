#include "service/ExecService.h"

#include <algorithm>
#include <chrono>

using namespace grift;
using namespace grift::service;

ExecService::ExecService(ServiceConfig C)
    : Config(C),
      Pool(C.Threads ? C.Threads
                     : std::max(1u, std::thread::hardware_concurrency())) {
  if (!Config.CacheDir.empty()) {
    FileFaults.ShortWriteAt = Config.FileShortWriteAt;
    FileFaults.FailFsyncAt = Config.FileFailFsyncAt;
    FileFaults.FlipReadBitAt = Config.FileFlipReadBitAt;
    FileFaults.FlipReadBitIndex = Config.FileFlipReadBitIndex;
    store::StoreConfig SC;
    SC.Dir = Config.CacheDir;
    SC.MaxBytes = Config.CacheMaxBytes;
    SC.Faults = Config.FileShortWriteAt || Config.FileFailFsyncAt ||
                        Config.FileFlipReadBitAt
                    ? &FileFaults
                    : nullptr;
    ProgStore = std::make_unique<store::Store>(std::move(SC));
  }
  Workers.reserve(Pool.size());
  for (unsigned I = 0; I != Pool.size(); ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ExecService::~ExecService() {
  {
    std::lock_guard<std::mutex> Lock(QueueM);
    Stopping = true;
  }
  QueueCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

std::future<JobResult> ExecService::submit(JobSpec Spec) {
  Submitted.fetch_add(1, std::memory_order_relaxed);
  Pending P;
  P.Spec = std::move(Spec);
  std::future<JobResult> F = P.Promise.get_future();
  {
    // Workers drain the queue before exiting, so a job enqueued any time
    // before the destructor runs is guaranteed a result.
    std::lock_guard<std::mutex> Lock(QueueM);
    if (Config.MaxQueueDepth && Queue.size() >= Config.MaxQueueDepth) {
      // Admission bound: shed now, under the same lock that admitted the
      // jobs ahead of us, so the depth check and the verdict are atomic.
      Sheds.fetch_add(1, std::memory_order_relaxed);
      JobResult R;
      R.Id = std::move(P.Spec.Id);
      R.Status = JobStatus::Rejected;
      R.Kind = ErrorKind::Overloaded;
      R.ErrorMessage = "overloaded: queue depth at limit (" +
                       std::to_string(Config.MaxQueueDepth) +
                       " waiting); retry later";
      P.Promise.set_value(std::move(R));
      return F;
    }
    Queue.push_back(std::move(P));
    uint64_t Depth = Queue.size();
    if (Depth > PeakQueue.load(std::memory_order_relaxed))
      PeakQueue.store(Depth, std::memory_order_relaxed);
  }
  QueueCV.notify_one();
  return F;
}

size_t ExecService::queueDepth() const {
  std::lock_guard<std::mutex> Lock(QueueM);
  return Queue.size();
}

void ExecService::workerLoop(unsigned SlotIdx) {
  EnginePool::Slot &Slot = Pool.slot(SlotIdx);
  // This thread owns the slot's engine for its whole lifetime; debug
  // builds now assert every compile/run of this engine happens here.
  Slot.Engine.bindToCurrentThread();
  // Per-slot fault injector: its allocation counter spans jobs.
  FaultInjector Injector;
  Injector.GCTorturePeriod = Config.GCTorturePeriod;
  Injector.MinorGCTorturePeriod = Config.MinorGCTorturePeriod;
  for (;;) {
    Pending P;
    {
      std::unique_lock<std::mutex> Lock(QueueM);
      QueueCV.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty()) {
        if (Stopping)
          return; // drained: stop only once no work is left
        continue;
      }
      P = std::move(Queue.front());
      Queue.pop_front();
    }
    JobResult R = executeJob(Slot, P.Spec, Injector);
    // Between jobs nothing on this slot holds coercion pointers, so this
    // is the one safe point to bound the arena.
    Slot.maybeResetEpoch(Config.MaxCoercionNodes);
    Completed.fetch_add(1, std::memory_order_relaxed);
    P.Promise.set_value(std::move(R));
  }
}

JobResult ExecService::executeJob(EnginePool::Slot &Slot, JobSpec &Spec,
                                  FaultInjector &Injector) {
  using Clock = std::chrono::steady_clock;
  JobResult R;
  R.Id = Spec.Id;

  // End-to-end deadline: a job that expired while queued is failed
  // without burning an engine on it — the client has already given up.
  const bool HasQueueDeadline = Spec.QueueDeadline != Clock::time_point{};
  if (HasQueueDeadline && Clock::now() >= Spec.QueueDeadline) {
    Expired.fetch_add(1, std::memory_order_relaxed);
    R.Status = JobStatus::Failed;
    R.Kind = ErrorKind::Timeout;
    R.ErrorMessage = "timeout: deadline expired while queued";
    return R;
  }

  bool CacheHit = false;
  const EnginePool::CacheEntry &Entry =
      Slot.compileCached(Spec, CacheHit, Config.CompileCache, ProgStore.get());
  R.CompileCacheHit = CacheHit;
  if (!Entry.Exe) {
    R.Status = JobStatus::CompileError;
    R.ErrorMessage = Entry.Errors;
    return R;
  }

  RunLimits Limits = Spec.Limits;
  // Clamp the in-band wall budget to the time left before the absolute
  // deadline: the run follows the client's remaining patience. A deadline
  // that passed during compile still gets a nonzero budget (0 means
  // unlimited), so the run stops at its first batch boundary.
  if (HasQueueDeadline) {
    int64_t RemainingNanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Spec.QueueDeadline - Clock::now())
            .count();
    if (Limits.MaxWallNanos == 0 || Limits.MaxWallNanos > RemainingNanos)
      Limits.MaxWallNanos = std::max<int64_t>(RemainingNanos, 1);
  }
  const DeadlineBudget Deadline(Limits, Spec.DeadlineNanos);
  FaultInjector *Faults = nullptr;
  if (Config.GCTorturePeriod || Config.MinorGCTorturePeriod ||
      Config.FailAllocPeriod) {
    // Periodic re-arm: FailAllocAt is one-shot, so schedule the next
    // failure relative to the counter the previous runs advanced.
    if (Config.FailAllocPeriod)
      Injector.FailAllocAt = Injector.AllocCount + Config.FailAllocPeriod;
    Faults = &Injector;
  }
  RunResult Run = Entry.Exe->run(Spec.Input, Limits, Faults);

  R.WallNanos = Run.WallNanos;
  R.Output = std::move(Run.Output);
  R.FuelUsed = Run.Steps;
  R.PeakHeapBytes = Run.PeakHeapBytes;
  R.Stats = Run.Stats;
  if (Run.OK) {
    R.Status = JobStatus::Done;
    R.ResultText = std::move(Run.ResultText);
  } else {
    R.Status = JobStatus::Failed;
    if (Deadline.cancel(Run.Error.Kind, Run.Error.Message))
      Kills.fetch_add(1, std::memory_order_relaxed);
    R.Kind = Run.Error.Kind;
    R.ErrorMessage = Run.Error.str();
  }
  return R;
}

ServiceStats ExecService::stats() const {
  ServiceStats S;
  S.JobsSubmitted = Submitted.load(std::memory_order_relaxed);
  S.JobsCompleted = Completed.load(std::memory_order_relaxed);
  S.JobsShed = Sheds.load(std::memory_order_relaxed);
  S.DeadlineExpired = Expired.load(std::memory_order_relaxed);
  S.WatchdogKills = Kills.load(std::memory_order_relaxed);
  S.CacheHits = Pool.totalCacheHits();
  S.CacheMisses = Pool.totalCacheMisses();
  S.EpochResets = Pool.totalEpochResets();
  S.PeakQueueDepth = PeakQueue.load(std::memory_order_relaxed);
  if (ProgStore) {
    store::StoreStats SS = ProgStore->stats();
    S.StoreHits = SS.Hits;
    S.StoreMisses = SS.Misses;
    S.StoreCorrupt = SS.Corrupt;
    S.StoreEvicted = SS.Evicted;
  }
  return S;
}
