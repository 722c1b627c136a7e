//===----------------------------------------------------------------------===//
///
/// \file
/// The hardened execution service: engine pool with per-slot compile
/// caches, deadline cancellation, one run per job — and the concurrency
/// guarantees they compose into: a wedged job always dies at its
/// deadline, its pool thread is immediately reusable, and error outcomes
/// are deterministic per (program, limits) even under an 8-thread
/// mixed-soup load.
///
//===----------------------------------------------------------------------===//
#include "service/ExecService.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace grift;
using namespace grift::service;

namespace {

/// A divergent tail loop: runs forever in constant space on the VM, so
/// only a budget or a deadline can stop it.
const char *DivergentLoop = "(letrec ([loop (lambda () (loop))]) (loop))";

/// A tail loop that retains an ever-growing chain of boxes (OOM bait).
const char *HeapGrower =
    "(letrec ([f : (Int Dyn -> Int)"
    "           (lambda ([n : Int] [l : Dyn]) : Int"
    "             (f (+ n 1) (ann (box l) Dyn)))])"
    "  (f 0 (ann 0 Dyn)))";

JobSpec simpleJob(std::string Source, std::string Id = "") {
  JobSpec Spec;
  Spec.Id = std::move(Id);
  Spec.Source = std::move(Source);
  return Spec;
}

} // namespace

//===----------------------------------------------------------------------===//
// Pool basics
//===----------------------------------------------------------------------===//

TEST(ServicePool, RunsManyJobsAcrossThreads) {
  ServiceConfig Config;
  Config.Threads = 8;
  ExecService Service(Config);
  std::vector<std::future<JobResult>> Futures;
  for (int I = 0; I != 64; ++I)
    Futures.push_back(
        Service.submit(simpleJob("(+ " + std::to_string(I) + " 1)")));
  for (int I = 0; I != 64; ++I) {
    JobResult R = Futures[I].get();
    ASSERT_EQ(R.Status, JobStatus::Done) << R.ErrorMessage;
    EXPECT_EQ(R.ResultText, std::to_string(I + 1));
  }
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.JobsSubmitted, 64u);
  EXPECT_EQ(S.JobsCompleted, 64u);
  EXPECT_EQ(S.JobsShed, 0u);
}

TEST(ServicePool, CompileErrorsAreReportedNotCrashes) {
  ServiceConfig Config;
  Config.Threads = 2;
  ExecService Service(Config);
  JobResult R = Service.run(simpleJob("(+ 1"));
  EXPECT_EQ(R.Status, JobStatus::CompileError);
  EXPECT_FALSE(R.ErrorMessage.empty());
  // The worker survives and runs the next job.
  JobResult R2 = Service.run(simpleJob("(+ 1 2)"));
  EXPECT_EQ(R2.Status, JobStatus::Done);
  EXPECT_EQ(R2.ResultText, "3");
}

TEST(ServicePool, CompileCacheHitsOnResubmission) {
  ServiceConfig Config;
  Config.Threads = 1;
  ExecService Service(Config);
  JobResult First = Service.run(simpleJob("(* 6 7)"));
  ASSERT_EQ(First.Status, JobStatus::Done);
  EXPECT_FALSE(First.CompileCacheHit);
  JobResult Second = Service.run(simpleJob("(* 6 7)"));
  ASSERT_EQ(Second.Status, JobStatus::Done);
  EXPECT_TRUE(Second.CompileCacheHit);
  EXPECT_EQ(Second.ResultText, "42");
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.CacheHits, 1u);
  EXPECT_EQ(S.CacheMisses, 1u);
  // Different mode = different cache entry.
  JobSpec TB = simpleJob("(* 6 7)");
  TB.Mode = CastMode::TypeBased;
  EXPECT_FALSE(Service.run(TB).CompileCacheHit);
}

TEST(ServicePool, NegativeCacheCoversCompileFailures) {
  ServiceConfig Config;
  Config.Threads = 1;
  ExecService Service(Config);
  EXPECT_EQ(Service.run(simpleJob("(+ 1")).Status, JobStatus::CompileError);
  JobResult Again = Service.run(simpleJob("(+ 1"));
  EXPECT_EQ(Again.Status, JobStatus::CompileError);
  EXPECT_TRUE(Again.CompileCacheHit);
}

//===----------------------------------------------------------------------===//
// Deadline cancellation
//===----------------------------------------------------------------------===//

/// The acceptance scenario: 20 deliberately divergent jobs with *no*
/// in-band limits are killed at their deadline, then the same 8 pool
/// threads run 20 normal jobs — all 40 complete with the right kinds
/// and every kill lands within 2x the configured deadline.
TEST(ServiceWatchdog, KillsWedgedJobsAndPoolThreadsStayUsable) {
  constexpr int64_t DeadlineNanos = 250 * 1000000ll; // 250 ms
  ServiceConfig Config;
  Config.Threads = 8;
  ExecService Service(Config);

  std::vector<std::future<JobResult>> Futures;
  for (int I = 0; I != 20; ++I) {
    JobSpec Spec = simpleJob(DivergentLoop, "wedged-" + std::to_string(I));
    Spec.DeadlineNanos = DeadlineNanos;
    Futures.push_back(Service.submit(std::move(Spec)));
  }
  for (int I = 0; I != 20; ++I)
    Futures.push_back(Service.submit(
        simpleJob("(+ " + std::to_string(I) + " 100)",
                  "normal-" + std::to_string(I))));

  for (int I = 0; I != 20; ++I) {
    JobResult R = Futures[I].get();
    ASSERT_EQ(R.Status, JobStatus::Failed) << R.Id;
    EXPECT_EQ(R.Kind, ErrorKind::Cancelled) << R.Id << ": " << R.ErrorMessage;
    // Killed within 2x the deadline (the wall check lands one dispatch
    // batch after the deadline — microseconds, not a margin).
    EXPECT_LT(R.WallNanos, 2 * DeadlineNanos) << R.Id;
  }
  for (int I = 20; I != 40; ++I) {
    JobResult R = Futures[I].get();
    ASSERT_EQ(R.Status, JobStatus::Done) << R.Id << ": " << R.ErrorMessage;
    EXPECT_EQ(R.ResultText, std::to_string(I - 20 + 100));
  }
  EXPECT_EQ(Service.stats().WatchdogKills, 20u);
}

/// The "strictly first" boundary: a deadline below the wall budget is
/// the caller's kill (Cancelled, one kill counted); a deadline equal to
/// it leaves the verdict to the program's own budget (Timeout, no kill).
TEST(ServiceWatchdog, DeadlineBelowWallBudgetCancels) {
  ServiceConfig Config;
  Config.Threads = 1;
  ExecService Service(Config);
  JobSpec Spec = simpleJob(DivergentLoop);
  Spec.Limits.MaxWallNanos = 400 * 1000000ll;
  Spec.DeadlineNanos = 100 * 1000000ll;
  JobResult R = Service.run(std::move(Spec));
  ASSERT_EQ(R.Status, JobStatus::Failed);
  EXPECT_EQ(R.Kind, ErrorKind::Cancelled) << R.ErrorMessage;
  EXPECT_EQ(Service.stats().WatchdogKills, 1u);
}

TEST(ServiceWatchdog, DeadlineAtWallBudgetTimesOut) {
  ServiceConfig Config;
  Config.Threads = 1;
  ExecService Service(Config);
  JobSpec Spec = simpleJob(DivergentLoop);
  Spec.Limits.MaxWallNanos = 100 * 1000000ll;
  Spec.DeadlineNanos = Spec.Limits.MaxWallNanos;
  JobResult R = Service.run(std::move(Spec));
  ASSERT_EQ(R.Status, JobStatus::Failed);
  EXPECT_EQ(R.Kind, ErrorKind::Timeout) << R.ErrorMessage;
  EXPECT_EQ(Service.stats().WatchdogKills, 0u);
}

//===----------------------------------------------------------------------===//
// One run, one verdict: a failed job is reported as it failed, never
// re-run with a raised budget.
//===----------------------------------------------------------------------===//

TEST(ServiceOOM, HeapBudgetHoldsAndTheJobRunsOnce) {
  // A 50k-entry vector needs ~400 KB live, so a 256 KiB budget OOMs at
  // once; the heap grower fills the budget first. Heap accounting is
  // exact, so the one run the service makes must match a direct engine
  // run at the same budget, step for step and byte for byte.
  constexpr size_t Budget = 256 * 1024;
  ServiceConfig Config;
  Config.Threads = 1;
  ExecService Service(Config);
  for (const char *Source :
       {"(vector-ref (make-vector 50000 7) 49999)", HeapGrower}) {
    RunLimits Limits;
    Limits.MaxHeapBytes = Budget;
    Limits.MaxSteps = 100000000; // backstop
    JobSpec Spec = simpleJob(Source);
    Spec.Limits = Limits;
    JobResult R = Service.run(std::move(Spec));
    ASSERT_EQ(R.Status, JobStatus::Failed) << Source << ": " << R.ResultText;
    EXPECT_EQ(R.Kind, ErrorKind::OutOfMemory) << R.ErrorMessage;
    EXPECT_LE(R.PeakHeapBytes, Budget) << Source;

    Grift G;
    std::string Errors;
    auto Exe = G.compile(Source, CastMode::Coercions, Errors);
    ASSERT_TRUE(Exe.has_value()) << Errors;
    RunResult Direct = Exe->run("", Limits);
    ASSERT_FALSE(Direct.OK);
    EXPECT_EQ(R.FuelUsed, Direct.Steps) << Source;
    EXPECT_EQ(R.PeakHeapBytes, Direct.PeakHeapBytes) << Source;
  }
  EXPECT_EQ(Service.stats().JobsCompleted, 2u);
}

TEST(ServiceFaults, InjectedAllocFailureIsOneOOMAndTheSlotRecovers) {
  // FailAllocPeriod fails the Nth allocation counted from the start of
  // each run. The heap grower allocates without bound, so its run hits
  // the injected failure; the next job on the same slot allocates
  // nothing and completes.
  ServiceConfig Config;
  Config.Threads = 1;
  Config.FailAllocPeriod = 64;
  ExecService Service(Config);
  JobSpec Grower = simpleJob(HeapGrower, "grower");
  Grower.Limits.MaxSteps = 100000000; // backstop
  JobResult R = Service.run(std::move(Grower));
  ASSERT_EQ(R.Status, JobStatus::Failed);
  EXPECT_EQ(R.Kind, ErrorKind::OutOfMemory) << R.ErrorMessage;
  EXPECT_NE(R.ErrorMessage.find("injected"), std::string::npos)
      << R.ErrorMessage;
  EXPECT_GT(R.WallNanos, 0);

  JobResult Next = Service.run(simpleJob("(+ 1 2)", "next"));
  ASSERT_EQ(Next.Status, JobStatus::Done) << Next.ErrorMessage;
  EXPECT_EQ(Next.ResultText, "3");
  EXPECT_EQ(Service.stats().JobsCompleted, 2u);
}

//===----------------------------------------------------------------------===//
// Overload shedding and queue deadlines
//===----------------------------------------------------------------------===//

TEST(ServiceShed, QueueBoundShedsWithStructuredOverloaded) {
  ServiceConfig Config;
  Config.Threads = 1;
  Config.MaxQueueDepth = 2;
  ExecService Service(Config);

  // Occupy the lone worker long enough to observe the full queue.
  JobSpec Busy = simpleJob(DivergentLoop, "busy");
  Busy.DeadlineNanos = 700 * 1000000ll;
  auto BusyF = Service.submit(std::move(Busy));
  // Let the worker dequeue it so the queue is empty again.
  auto Start = std::chrono::steady_clock::now();
  while (Service.queueDepth() != 0 &&
         std::chrono::steady_clock::now() - Start < std::chrono::seconds(5))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Fill the queue to its bound...
  std::vector<std::future<JobResult>> Queued;
  for (int I = 0; I != 2; ++I)
    Queued.push_back(Service.submit(simpleJob("(+ 1 1)", "q")));
  // ...and everything beyond it sheds immediately, without running.
  for (int I = 0; I != 8; ++I) {
    JobResult R = Service.run(simpleJob("(+ 2 2)", "shed"));
    ASSERT_EQ(R.Status, JobStatus::Rejected) << I;
    EXPECT_EQ(R.Kind, ErrorKind::Overloaded);
    EXPECT_EQ(R.FuelUsed, 0u);
    EXPECT_EQ(R.WallNanos, 0);
    EXPECT_NE(R.ErrorMessage.find("overloaded"), std::string::npos);
  }
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.JobsShed, 8u);
  EXPECT_GE(S.PeakQueueDepth, 2u);
  // The queued jobs still complete once the worker frees up.
  EXPECT_EQ(BusyF.get().Kind, ErrorKind::Cancelled);
  for (auto &F : Queued)
    EXPECT_EQ(F.get().Status, JobStatus::Done);
}

TEST(ServiceShed, ExpiredQueueDeadlineFailsWithoutRunning) {
  ServiceConfig Config;
  Config.Threads = 1;
  ExecService Service(Config);

  JobSpec Busy = simpleJob(DivergentLoop, "busy");
  Busy.DeadlineNanos = 500 * 1000000ll;
  auto BusyF = Service.submit(std::move(Busy));

  // This job's end-to-end deadline expires while it waits behind the
  // wedged job: it must come back Timeout without having run.
  JobSpec Doomed = simpleJob("(+ 1 2)", "doomed");
  Doomed.QueueDeadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  JobResult R = Service.run(std::move(Doomed));
  ASSERT_EQ(R.Status, JobStatus::Failed);
  EXPECT_EQ(R.Kind, ErrorKind::Timeout);
  EXPECT_EQ(R.FuelUsed, 0u);
  EXPECT_EQ(R.WallNanos, 0);
  EXPECT_NE(R.ErrorMessage.find("queue"), std::string::npos);
  EXPECT_EQ(Service.stats().DeadlineExpired, 1u);
  BusyF.get();
}

TEST(ServiceShed, QueueDeadlineClampsWatchdogForRunningJobs) {
  // A divergent job with a tight QueueDeadline but *no* DeadlineNanos
  // must still die: the clamp feeds the remaining time to the in-band
  // wall budget, and no watchdog races it for the verdict.
  ServiceConfig Config;
  Config.Threads = 1;
  ExecService Service(Config);
  JobSpec Spec = simpleJob(DivergentLoop);
  Spec.QueueDeadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  auto Start = std::chrono::steady_clock::now();
  JobResult R = Service.run(std::move(Spec));
  auto Elapsed = std::chrono::steady_clock::now() - Start;
  ASSERT_EQ(R.Status, JobStatus::Failed);
  EXPECT_EQ(R.Kind, ErrorKind::Timeout) << R.ErrorMessage;
  EXPECT_EQ(Service.stats().WatchdogKills, 0u);
  EXPECT_LT(Elapsed, std::chrono::seconds(5));
}

//===----------------------------------------------------------------------===//
// Error-path determinism (satellite): same program, same limits, same
// ErrorKind — across reruns on a reused engine and across pool threads.
//===----------------------------------------------------------------------===//

TEST(ServiceDeterminism, SameErrorKindAcross100RerunsOnReusedEngine) {
  ServiceConfig Config;
  Config.Threads = 1; // one engine, reused for every rerun
  ExecService Service(Config);

  struct Case {
    const char *Source;
    ErrorKind Expected;
    RunLimits Limits;
  };
  RunLimits Fuel;
  Fuel.MaxSteps = 100000;
  RunLimits Heap;
  Heap.MaxHeapBytes = 1 << 20;
  Heap.MaxSteps = 100000000;
  RunLimits Depth;
  Depth.MaxFrames = 1000;
  const Case Cases[] = {
      {"(ann (ann #t Dyn) Int)", ErrorKind::Blame, {}},
      {"(/ 1 0)", ErrorKind::Trap, {}},
      {DivergentLoop, ErrorKind::FuelExhausted, Fuel},
      {HeapGrower, ErrorKind::OutOfMemory, Heap},
      {"(letrec ([f : (Int -> Int) (lambda ([n : Int]) : Int (+ 1 (f n)))])"
       "  (f 0))",
       ErrorKind::StackOverflow, Depth},
  };
  for (const Case &C : Cases) {
    for (int Rerun = 0; Rerun != 100; ++Rerun) {
      JobSpec Spec = simpleJob(C.Source);
      Spec.Limits = C.Limits;
      JobResult R = Service.run(std::move(Spec));
      ASSERT_EQ(R.Status, JobStatus::Failed) << C.Source;
      ASSERT_EQ(R.Kind, C.Expected)
          << C.Source << " rerun " << Rerun << ": " << R.ErrorMessage;
    }
  }
  // Every rerun after the first hit the compile cache.
  EXPECT_EQ(Service.stats().CacheMisses, 5u);
}

TEST(ServiceDeterminism, MixedJobSoupOn8ThreadsHasNoCrossJobInterference) {
  ServiceConfig Config;
  Config.Threads = 8;
  ExecService Service(Config);

  struct Expect {
    JobStatus Status;
    ErrorKind Kind;
    std::string Result;
  };
  std::vector<std::future<JobResult>> Futures;
  std::vector<Expect> Expected;
  for (int Round = 0; Round != 25; ++Round) {
    { // good
      JobSpec S = simpleJob("(* " + std::to_string(Round) + " 2)");
      Futures.push_back(Service.submit(std::move(S)));
      Expected.push_back(
          {JobStatus::Done, ErrorKind::Trap, std::to_string(Round * 2)});
    }
    { // divergent, fuel-limited
      JobSpec S = simpleJob(DivergentLoop);
      S.Limits.MaxSteps = 50000;
      Futures.push_back(Service.submit(std::move(S)));
      Expected.push_back({JobStatus::Failed, ErrorKind::FuelExhausted, ""});
    }
    { // OOM
      JobSpec S = simpleJob(HeapGrower);
      S.Limits.MaxHeapBytes = 1 << 20;
      S.Limits.MaxSteps = 100000000;
      Futures.push_back(Service.submit(std::move(S)));
      Expected.push_back({JobStatus::Failed, ErrorKind::OutOfMemory, ""});
    }
    { // blame
      JobSpec S = simpleJob("(ann (ann #t Dyn) Int)");
      Futures.push_back(Service.submit(std::move(S)));
      Expected.push_back({JobStatus::Failed, ErrorKind::Blame, ""});
    }
  }
  for (size_t I = 0; I != Futures.size(); ++I) {
    JobResult R = Futures[I].get();
    ASSERT_EQ(R.Status, Expected[I].Status) << "job " << I;
    if (R.Status == JobStatus::Done)
      EXPECT_EQ(R.ResultText, Expected[I].Result) << "job " << I;
    else
      EXPECT_EQ(R.Kind, Expected[I].Kind)
          << "job " << I << ": " << R.ErrorMessage;
  }
}

//===----------------------------------------------------------------------===//
// Thread affinity
//===----------------------------------------------------------------------===//

TEST(ServiceAffinity, BindingTracksOwnership) {
  Grift G;
  EXPECT_TRUE(G.ownsCurrentThread()); // unbound: any thread may use it
  G.bindToCurrentThread();
  EXPECT_TRUE(G.ownsCurrentThread());
  bool OwnedElsewhere = true;
  std::thread([&] { OwnedElsewhere = G.ownsCurrentThread(); }).join();
  EXPECT_FALSE(OwnedElsewhere);
  G.unbindThread();
  std::thread([&] { OwnedElsewhere = G.ownsCurrentThread(); }).join();
  EXPECT_TRUE(OwnedElsewhere);
}

TEST(ServiceAffinity, FuelAndHeapObservablesAreReported) {
  // The service surfaces per-job consumption for griftd's result lines.
  ServiceConfig Config;
  Config.Threads = 1;
  ExecService Service(Config);
  JobSpec Spec = simpleJob(DivergentLoop);
  Spec.Limits.MaxSteps = 100000;
  JobResult R = Service.run(std::move(Spec));
  ASSERT_EQ(R.Status, JobStatus::Failed);
  EXPECT_GE(R.FuelUsed, 100000u - 1024u); // batched accounting
  EXPECT_GT(R.WallNanos, 0);
}

//===----------------------------------------------------------------------===//
// Coercion-arena epochs: long job streams with many distinct casts must
// not grow a slot's CoercionFactory (or its compile cache) without
// bound. The epoch reset drops both together once the arena passes the
// configured cap.
//===----------------------------------------------------------------------===//

namespace {

/// A job whose cast allocates coercions for a (Tuple ...) type whose
/// element kinds are the low 10 bits of \p J — 1024 distinct types, so
/// a stream of these keeps minting fresh coercion nodes.
JobSpec variedCastJob(int J) {
  std::string Lit = "(tuple", Ty = "(Tuple";
  for (int B = 0; B != 10; ++B) {
    bool Bit = (J >> B) & 1;
    Lit += Bit ? " #t" : " 1";
    Ty += Bit ? " Bool" : " Int";
  }
  Lit += ")";
  Ty += ")";
  return simpleJob("(tuple-proj (ann (ann " + Lit + " Dyn) " + Ty + ") 0)",
                   "j" + std::to_string(J));
}

} // namespace

TEST(ServiceEpoch, CoercionArenaStaysBoundedAcrossManyVariedJobs) {
  constexpr size_t Cap = 512;
  EnginePool Pool(1);
  EnginePool::Slot &S = Pool.slot(0);
  uint64_t Resets = 0;
  for (int J = 0; J != 1200; ++J) {
    JobSpec Spec = variedCastJob(J);
    bool Hit = false;
    const EnginePool::CacheEntry &Entry = S.compileCached(Spec, Hit);
    ASSERT_TRUE(Entry.Exe.has_value()) << Entry.Errors;
    RunResult R = Entry.Exe->run();
    ASSERT_TRUE(R.OK) << R.Error.str() << "\njob " << J;
    EXPECT_EQ(R.ResultText, (J & 1) ? "#t" : "1");
    if (S.maybeResetEpoch(Cap))
      ++Resets;
    // The between-jobs invariant: a reset brings the arena back to just
    // ι, so right after maybeResetEpoch it can never exceed the cap.
    ASSERT_LE(S.Engine.coercions().allocatedNodes(), Cap) << "job " << J;
  }
  EXPECT_GT(Resets, 0u);
  EXPECT_EQ(S.EpochResets.load(), Resets);
}

TEST(ServiceEpoch, ResetsSurfaceInStatsAndResubmittedJobsStillRun) {
  ServiceConfig Config;
  Config.Threads = 2;
  Config.MaxCoercionNodes = 256;
  ExecService Service(Config);
  // Two passes over the same job set: epoch resets in between drop the
  // compile caches, so the second pass recompiles — and must still be
  // correct.
  for (int Pass = 0; Pass != 2; ++Pass)
    for (int J = 0; J != 300; ++J) {
      JobResult R = Service.run(variedCastJob(J));
      ASSERT_EQ(R.Status, JobStatus::Done) << R.ErrorMessage;
      EXPECT_EQ(R.ResultText, (J & 1) ? "#t" : "1");
    }
  EXPECT_GT(Service.stats().EpochResets, 0u);
}

TEST(ServiceEpoch, ZeroCapDisablesResets) {
  ServiceConfig Config;
  Config.Threads = 1;
  Config.MaxCoercionNodes = 0;
  ExecService Service(Config);
  for (int J = 0; J != 50; ++J) {
    JobResult R = Service.run(variedCastJob(J));
    ASSERT_EQ(R.Status, JobStatus::Done) << R.ErrorMessage;
  }
  EXPECT_EQ(Service.stats().EpochResets, 0u);
}
