//===----------------------------------------------------------------------===//
///
/// \file
/// The one bench driver. Every measurement of the paper's evaluation is
/// a row of one suite, named by its figure prefix:
///
///   fig4/      even/odd (Figure 2) and the one-Dyn quicksort (Figure 3)
///              over a sweep of n
///   fig7/      partially typed sweeps of sieve, n-body, blackscholes and
///              fft: Static and Dynamic Grift reference rows plus binned
///              fine-grained samples (Figure 7)
///   fig19/     the same sweep for tak, ray, quicksort and matmult
///              (Figures 19-20)
///   fig8/      each benchmark fully typed, fully dynamic, and over its
///              coarse- and fine-grained configuration lattice (Figure 8)
///   fig9a/     fully typed programs under Static Grift and both cast
///              implementations (Figure 9a)
///   fig9b/     fully erased programs (Figure 9b)
///   ablation/monotonic/  typed array-heavy programs under monotonic
///              references (Section 5)
///   ablation/optimizer/  erased programs with the core-IR optimizer off
///              and on (Section 5)
///   micro/     cast loop, proxied reads at chain depth d, a proxied
///              call, an allocation loop
///   gc/        each program under the generational collector and its
///              nursery-off stop-the-world twin
///   store/     cold compile against a warm Store::load + adopt
///
/// Each row runs under each of its cast modes and emits one JSON record
/// of median-of-N timings plus the deterministic runtime counters (casts,
/// chain, compositions, inline-cache hits, allocation bytes/objects,
/// minor/major collections, promotion volume, remembered-set peak) and
/// the machine-dependent GC pause times. Sampled configurations carry
/// their type precision.
///
///   benchjson [--out FILE] [--filter SUBSTR]
///
/// Repeats come from GRIFT_BENCH_REPEATS (default 5). Timing is the
/// program's internal (time ...) region when present, wall time
/// otherwise, following paper Section 4.1. Counters are taken from the
/// last run; they are deterministic across runs.
///
/// tools/bench_compare.py diffs two of these documents (tolerance-based,
/// counters exact, pauses reported but never failing), enforces the
/// paper's shape invariants, and given one document prints the derived
/// figure numbers (speedup ranges, slowdown CDFs, vs-static ratios). CI
/// compares a full run against the checked-in BENCH_PR10.json.
///
//===----------------------------------------------------------------------===//
#include "bench_programs/Benchmarks.h"
#include "grift/Grift.h"
#include "lattice/Lattice.h"
#include "store/Store.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

using namespace grift;

namespace {

struct Spec {
  std::string Name;   ///< stable row id, e.g. "fig8/sieve/typed"
  std::string Source; ///< program text (already configured/erased)
  std::string Input;
  std::vector<CastMode> Modes;
  RunLimits Limits = {};  ///< the gc/ rows override GCNurseryBytes
  bool Optimize = false;  ///< core-IR optimizer (ablation/optimizer/)
  std::optional<double> Precision = {}; ///< of a sampled configuration
  bool ColdWarm = false; ///< store/: time compile vs Store::load + adopt
};

// Mode names come from the shared registry (castModeName in
// runtime/Mode.h), so benchjson rows, griftc, and the griftd protocol
// always agree on spelling.

/// Every gradual backend in the registry: a backend added to
/// GradualCastModes is automatically benchmarked.
const std::vector<CastMode> AllGradual(std::begin(GradualCastModes),
                                       std::end(GradualCastModes));
const std::vector<CastMode> CoerceVsType = {CastMode::Coercions,
                                            CastMode::TypeBased};

/// Cast-heavy microloop: one Cast instruction site executed 200k times —
/// the inline-cache best case (and the type-based MakeCache worst case).
const char *CastLoop =
    "(time (repeat (i 0 200000) (acc : Int 0)"
    "  (+ acc (ann (ann i Dyn) Int))))";

/// A box cast \p Depth times between (Ref Int) and (Ref Dyn), then read
/// 100k times. Type-based casts build a proxy chain of length Depth that
/// every read walks; coercions compose the casts into at most one proxy
/// (an even number of inverse casts composes to the identity).
std::string proxiedReadSource(unsigned Depth) {
  std::string Box = "(box 7)";
  for (unsigned I = 0; I != Depth; ++I)
    Box = "(ann " + Box + (I % 2 == 0 ? " (Ref Dyn))" : " (Ref Int))");
  return "(define p : (Ref Int) " + Box + ")\n"
         "(time (repeat (i 0 100000) (acc : Int 0) (+ acc (unbox p))))";
}

/// A hot loop calling a function that was cast, and so is proxied.
const char *ProxiedCall =
    "(define f : (Dyn -> Dyn) (lambda ([x : Int]) : Int (+ x 1)))"
    "(define g : (Int -> Int) f)"
    "(time (repeat (i 0 100000) (acc : Int 0) (g acc)))";

/// Allocation throughput: one short-lived tuple per iteration.
const char *AllocLoop = "(time (repeat (i 0 200000) (acc : Int 0)"
                        "  (+ acc (tuple-proj (tuple i i i) 0))))";

/// A chain of \p N distinct one-argument functions. Tiny benchmark
/// programs compile in tens of microseconds, where the store's fixed
/// per-load cost (open, map, checksum) dominates the ratio; this row is
/// sized like a real module so the warm/cold SLO measures the scaling
/// regime the store exists for.
std::string syntheticSource(unsigned N) {
  std::string S = "(define f0 : (Int -> Int) (lambda ([x : Int]) (+ x 1)))\n";
  for (unsigned I = 1; I != N; ++I) {
    std::string Prev = std::to_string(I - 1), Cur = std::to_string(I);
    S += "(define f" + Cur + " : (Int -> Int) (lambda ([x : Int]) (+ (f" +
         Prev + " x) " + Cur + ")))\n";
  }
  S += "(f" + std::to_string(N - 1) + " 0)\n";
  return S;
}

Program parseOrDie(Grift &G, const std::string &Source) {
  std::string Errors;
  auto Ast = G.parse(Source, Errors);
  if (!Ast) {
    std::fprintf(stderr, "benchjson: parse failed: %s\n", Errors.c_str());
    std::exit(1);
  }
  return std::move(*Ast);
}

/// Adds one row per configuration, named \p Prefix followed by its index
/// in order of increasing precision.
void addConfigs(std::vector<Spec> &Suite, std::vector<Configuration> Configs,
                const std::string &Prefix, const std::string &Input) {
  std::stable_sort(Configs.begin(), Configs.end(),
                   [](const Configuration &A, const Configuration &B) {
                     return A.Precision < B.Precision;
                   });
  for (size_t I = 0; I != Configs.size(); ++I)
    Suite.push_back({.Name = Prefix + std::to_string(I),
                     .Source = Configs[I].Prog.str(),
                     .Input = Input,
                     .Modes = CoerceVsType,
                     .Precision = Configs[I].Precision});
}

/// The partially typed sweep of Figures 7 and 19-20: the Static and
/// Dynamic Grift reference rows and 5 bins x 3 fine-grained samples.
void addSweep(std::vector<Spec> &Suite, Grift &G, const std::string &Fig,
              const char *Name, const char *Input) {
  const BenchProgram &B = getBenchmark(Name);
  Program Ast = parseOrDie(G, B.Source);
  std::string Prefix = Fig + "/" + Name + "/";
  Suite.push_back({Prefix + "static", B.Source, Input, {CastMode::Static}});
  Suite.push_back(
      {Prefix + "dynamic", eraseTypes(Ast, G.types()).str(), Input,
       CoerceVsType});
  addConfigs(Suite,
             sampleFineGrained(Ast, G.types(), /*Bins=*/5, /*PerBin=*/3,
                               /*Seed=*/20190622),
             Prefix + "sample", Input);
}

std::vector<Spec> buildSuite(Grift &G) {
  std::vector<Spec> Suite;

  // Figure 4: the partially-typed even/odd (Figure 2) and quicksort
  // (Figure 3) over the figure's sizes.
  for (const char *N : {"1000", "5000", "20000", "50000", "100000", "200000"})
    Suite.push_back({std::string("fig4/evenodd/") + N, evenOddSource(), N,
                     AllGradual});
  for (const char *N : {"32", "64", "128", "192", "256", "384"})
    Suite.push_back({std::string("fig4/quicksort-fig3/") + N,
                     quicksortFig3Source(), N, AllGradual});

  // Figure 7: one deterministic mid-precision fine-grained configuration
  // of quicksort (casts scattered through the hot loop), then the
  // figure's four sweeps; Figures 19-20 sweep the other four.
  {
    Program Ast = parseOrDie(G, getBenchmark("quicksort").Source);
    auto Configs = sampleFineGrained(Ast, G.types(), /*Bins=*/4,
                                     /*PerBin=*/1, 0x51C7);
    const Configuration *Mid = nullptr;
    for (const Configuration &C : Configs)
      if (!Mid || std::abs(C.Precision - 0.5) <
                      std::abs(Mid->Precision - 0.5))
        Mid = &C;
    if (Mid)
      Suite.push_back({.Name = "fig7/quicksort-mid/128",
                       .Source = Mid->Prog.str(),
                       .Input = "128",
                       .Modes = CoerceVsType,
                       .Precision = Mid->Precision});
  }
  addSweep(Suite, G, "fig7", "sieve", "120");
  addSweep(Suite, G, "fig7", "n-body", "1000");
  addSweep(Suite, G, "fig7", "blackscholes", "10000");
  addSweep(Suite, G, "fig7", "fft", "4096");
  addSweep(Suite, G, "fig19", "tak", "18 12 6");
  addSweep(Suite, G, "fig19", "ray", "30");
  addSweep(Suite, G, "fig19", "quicksort", "256");
  addSweep(Suite, G, "fig19", "matmult", "28");

  // Figure 8: every suite benchmark fully typed, fully dynamic (the
  // slowdown baseline, standing in for Racket), and over its
  // coarse-grained (per-define) and fine-grained lattices.
  struct Row {
    const char *Name;
    const char *Input;
  };
  constexpr Row Rows[] = {
      {"sieve", "100"},      {"n-body", "500"},    {"tak", "16 12 6"},
      {"ray", "20"},         {"quicksort", "128"}, {"blackscholes", "4000"},
      {"matmult", "20"},     {"matmult-float", "20"}, {"fft", "1024"},
  };
  for (const Row &R : Rows) {
    const BenchProgram &B = getBenchmark(R.Name);
    Program Ast = parseOrDie(G, B.Source);
    std::string Prefix = std::string("fig8/") + R.Name + "/";
    Suite.push_back({Prefix + "typed", B.Source, R.Input, CoerceVsType});
    Suite.push_back({Prefix + "dynamic", eraseTypes(Ast, G.types()).str(),
                     R.Input, CoerceVsType});
    addConfigs(Suite, coarseConfigs(Ast, G.types(), /*MaxConfigs=*/16, 7),
               Prefix + "coarse", R.Input);
    addConfigs(Suite,
               sampleFineGrained(Ast, G.types(), /*Bins=*/4, /*PerBin=*/3,
                                 20190622),
               Prefix + "fine", R.Input);
  }

  // Figure 9 and the Section 5 ablations run each benchmark at its
  // benchmark-scale input.
  for (const BenchProgram &B : allBenchmarks())
    Suite.push_back({"fig9a/" + B.Name, B.Source, B.BenchInput,
                     {CastMode::Static, CastMode::Coercions,
                      CastMode::TypeBased}});
  for (const BenchProgram &B : allBenchmarks())
    Suite.push_back({"fig9b/" + B.Name,
                     eraseTypes(parseOrDie(G, B.Source), G.types()).str(),
                     B.BenchInput, CoerceVsType});
  // Monotonic references compile typed reference operations to Static
  // Grift's unchecked instructions; the Figure 3 quicksort half of this
  // ablation is fig4/quicksort-fig3/256.
  for (const char *Name : {"matmult", "quicksort", "fft", "n-body"}) {
    const BenchProgram &B = getBenchmark(Name);
    Suite.push_back({std::string("ablation/monotonic/") + Name, B.Source,
                     B.BenchInput,
                     {CastMode::Static, CastMode::Coercions,
                      CastMode::Monotonic}});
  }
  for (const BenchProgram &B : allBenchmarks()) {
    std::string Erased =
        eraseTypes(parseOrDie(G, B.Source), G.types()).str();
    for (bool Optimize : {false, true})
      Suite.push_back({.Name = "ablation/optimizer/" + B.Name +
                               (Optimize ? "/optimized" : "/plain"),
                       .Source = Erased,
                       .Input = B.BenchInput,
                       .Modes = {CastMode::Coercions},
                       .Optimize = Optimize});
  }

  Suite.push_back({"micro/castloop/200000", CastLoop, "", AllGradual});
  for (unsigned Depth : {2, 4, 16, 64})
    Suite.push_back({"micro/proxied-read/" + std::to_string(Depth),
                     proxiedReadSource(Depth), "", CoerceVsType});
  Suite.push_back(
      {"micro/proxied-call/100000", ProxiedCall, "", CoerceVsType});
  Suite.push_back({"micro/alloc/200000", AllocLoop, "", {CastMode::Static}});

  // GC pause suite: the same program and input, generational (64 KiB
  // nursery) vs the nursery-off stop-the-world baseline, under a
  // uniform pressure harness — a pre-tenured 350k-slot vector gives
  // major collections real mark work, and a 150k-box churn loop
  // guarantees the nursery-off twin crosses the major threshold. The
  // /gen rows emit gc_pause_ratio_pct — their median max pause as a
  // percentage of the /stw twin's — which CI gates with
  // bench_compare --slo. (Sieve is capped at 200: its lazy streams
  // survive minors, and a bigger input would promote the /gen row past
  // the major threshold, making the pair measure two majors instead of
  // minors vs majors.)
  const std::string GCLive =
      "(define gc-live : (Vect Int) (make-vector 350000 0))\n"
      "(define gc-churn : Int (repeat (i 0 150000) (acc : Int 0)"
      " (+ acc (unbox (box i)))))\n";
  constexpr Row GCRows[] = {
      {"quicksort", "2000"}, {"sieve", "200"}, {"ray", "150"}};
  for (const Row &R : GCRows) {
    const BenchProgram &B = getBenchmark(R.Name);
    RunLimits Stw;
    Stw.GCNurseryBytes = 0;
    RunLimits Gen;
    Gen.GCNurseryBytes = 64u << 10;
    Suite.push_back({std::string("gc/") + R.Name + "/stw",
                     GCLive + B.Source, R.Input,
                     {CastMode::Coercions}, Stw});
    Suite.push_back({std::string("gc/") + R.Name + "/gen",
                     GCLive + B.Source, R.Input,
                     {CastMode::Coercions}, Gen});
  }

  // Store: cold compilation varies from sub-millisecond (tak) to a few
  // milliseconds (ray); the spread exercises both the fixed per-load
  // cost and the per-node scaling. Sieve runs under every registered
  // cast mode so the serializer's mode byte and the coercion section
  // (present under the coercion-compiling modes) are all measured.
  Suite.push_back({.Name = "store/sieve",
                   .Source = getBenchmark("sieve").Source,
                   .Input = "100",
                   .Modes = {std::begin(AllCastModes), std::end(AllCastModes)},
                   .ColdWarm = true});
  constexpr Row StoreRows[] = {
      {"quicksort", "128"}, {"tak", "16 12 6"}, {"ray", "10"}};
  for (const Row &R : StoreRows)
    Suite.push_back({.Name = std::string("store/") + R.Name,
                     .Source = getBenchmark(R.Name).Source,
                     .Input = R.Input,
                     .Modes = {CastMode::Coercions},
                     .ColdWarm = true});
  Suite.push_back({.Name = "store/synthetic/400",
                   .Source = syntheticSource(400),
                   .Input = "",
                   .Modes = {CastMode::Coercions},
                   .ColdWarm = true});
  return Suite;
}

unsigned repeatsFromEnv() {
  if (const char *Env = std::getenv("GRIFT_BENCH_REPEATS")) {
    int N = std::atoi(Env);
    if (N > 0)
      return static_cast<unsigned>(N);
  }
  return 5;
}

int64_t median(std::vector<int64_t> Xs) {
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return (Xs[(N - 1) / 2] + Xs[N / 2]) / 2;
}

int64_t nowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void field(std::string &Json, const char *Key, const std::string &Value) {
  Json += std::string(", \"") + Key + "\": " + Value;
}

void field(std::string &Json, const char *Key, uint64_t Value) {
  field(Json, Key, std::to_string(Value));
}

/// The store/ rows' cache directory: made fresh under TMPDIR, removed
/// with its images when the driver exits.
struct ScratchDir {
  std::string Path;
  ScratchDir() {
    const char *Tmp = std::getenv("TMPDIR");
    std::string Templ =
        std::string(Tmp && *Tmp ? Tmp : "/tmp") + "/benchjson.XXXXXX";
    if (::mkdtemp(Templ.data()))
      Path = Templ;
  }
  ~ScratchDir() {
    std::error_code EC;
    if (!Path.empty())
      std::filesystem::remove_all(Path, EC);
  }
};

/// Runs \p S under \p Mode and appends its fields to \p Json. Returns
/// false (after a diagnostic) when the program fails to compile or run.
bool measureRun(const Spec &S, CastMode Mode, unsigned Repeats,
                std::map<std::string, int64_t> &StwMaxPause,
                std::string &Json) {
  Grift G;
  std::string Errors;
  auto Exe = G.compile(S.Source, Mode, Errors, S.Optimize);
  if (!Exe) {
    std::fprintf(stderr, "benchjson: compile failed for %s [%s]: %s\n",
                 S.Name.c_str(), castModeName(Mode), Errors.c_str());
    return false;
  }
  std::vector<int64_t> Nanos;
  std::vector<int64_t> MaxPauses;
  std::vector<int64_t> MinorMaxPauses;
  RunResult Last;
  for (unsigned R = 0; R != Repeats; ++R) {
    Last = Exe->run(S.Input, S.Limits);
    if (!Last.OK) {
      std::fprintf(stderr, "benchjson: run failed for %s [%s]: %s\n",
                   S.Name.c_str(), castModeName(Mode),
                   Last.Error.str().c_str());
      return false;
    }
    Nanos.push_back(Last.Stats.TimedNanos >= 0 ? Last.Stats.TimedNanos
                                               : Last.WallNanos);
    MaxPauses.push_back(static_cast<int64_t>(Last.Stats.GCPauseMaxNs));
    MinorMaxPauses.push_back(
        static_cast<int64_t>(Last.Stats.GCMinorPauseMaxNs));
  }
  // Pause maxima are machine-dependent; median-of-repeats keeps the
  // gc/ ratio SLO stable against one noisy run.
  int64_t MaxPause = median(MaxPauses);
  const RuntimeStats &St = Last.Stats;
  field(Json, "median_ns", std::to_string(median(Nanos)));
  field(Json, "casts", St.CastsApplied);
  field(Json, "longest_chain", St.LongestProxyChain);
  field(Json, "max_ret_casts", St.MaxRetCastsPerFrame);
  field(Json, "compositions", St.Compositions);
  field(Json, "cache_hits", St.CacheHits);
  field(Json, "cache_misses", St.CacheMisses);
  field(Json, "peak_heap", Last.PeakHeapBytes);
  // Allocator observability: byte/object counters are deterministic
  // (bench_compare checks them exactly); pause times are wall-clock
  // and only ever reported.
  field(Json, "alloc_bytes", St.AllocBytes);
  field(Json, "alloc_objects", St.allocObjects());
  std::string ByClass = "[";
  for (unsigned C = 0; C != RuntimeStats::NumAllocClasses; ++C)
    ByClass += (C ? ", " : "") + std::to_string(St.AllocObjectsByClass[C]);
  field(Json, "alloc_by_class", ByClass + "]");
  field(Json, "collections", St.Collections);
  field(Json, "gc_pause_total_ns", St.GCPauseTotalNs);
  field(Json, "gc_pause_max_ns", std::to_string(MaxPause));
  // Generational observability: minor-collection count and pause
  // share, promotion volume, remembered-set peak. Counters are
  // deterministic; the minor pause max is median-of-repeats.
  field(Json, "gc_minor_pauses", St.MinorCollections);
  field(Json, "gc_minor_pause_max_ns",
        std::to_string(median(MinorMaxPauses)));
  field(Json, "gc_promoted_bytes", St.PromotedBytes);
  field(Json, "remembered_set_peak", St.RememberedSetPeak);
  // The /gen half of a gc/ pair reports its max pause as a percentage
  // of its /stw twin (suite order runs the twin first); the <=10 SLO on
  // this field is the paper-level "10x lower pauses" claim, gated in
  // CI. Without a twin that recorded a pause there is no ratio, and
  // null fails the gate instead of passing it as 0.
  size_t Slash = S.Name.rfind('/');
  std::string Pair = S.Name.substr(0, Slash);
  if (S.Name.rfind("gc/", 0) == 0 && S.Name.substr(Slash) == "/stw") {
    StwMaxPause[Pair] = MaxPause;
  } else if (S.Name.rfind("gc/", 0) == 0 && S.Name.substr(Slash) == "/gen") {
    auto It = StwMaxPause.find(Pair);
    std::string Ratio = "null";
    if (It != StwMaxPause.end() && It->second > 0) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.2f",
                    100.0 * static_cast<double>(MaxPause) /
                        static_cast<double>(It->second));
      Ratio = Buf;
    }
    field(Json, "gc_pause_ratio_pct", Ratio);
  }
  std::fprintf(stderr, "%-28s %-16s %9.3f ms  casts=%llu chain=%llu "
                       "ic=%llu/%llu\n",
               S.Name.c_str(), castModeName(Mode), median(Nanos) / 1e6,
               static_cast<unsigned long long>(St.CastsApplied),
               static_cast<unsigned long long>(St.LongestProxyChain),
               static_cast<unsigned long long>(St.CacheHits),
               static_cast<unsigned long long>(St.CacheMisses));
  return true;
}

/// Times a cold parse+check+compile+fuse of \p S against Store::load +
/// Grift::adopt on a fresh engine (the path griftd takes after a restart
/// with a warm --cache-dir), and appends the timings and the store's
/// cumulative counters to \p Json. Every warm executable is run once and
/// its result text compared against the cold one: a store that is fast
/// but wrong fails here, not in CI triage.
bool measureColdWarm(const Spec &S, CastMode Mode, unsigned Repeats,
                     store::Store &Store, std::string &Json) {
  uint64_t Key = store::Store::key(S.Source, Mode, S.Optimize);
  std::vector<int64_t> ColdNs;
  std::string ColdResult;
  for (unsigned I = 0; I != Repeats; ++I) {
    Grift G;
    std::string Errors;
    int64_t T0 = nowNanos();
    auto Exe = G.compile(S.Source, Mode, Errors, S.Optimize);
    int64_t T1 = nowNanos();
    if (!Exe) {
      std::fprintf(stderr, "benchjson: compile failed for %s [%s]: %s\n",
                   S.Name.c_str(), castModeName(Mode), Errors.c_str());
      return false;
    }
    ColdNs.push_back(T1 - T0);
    if (I == 0) {
      Store.put(Key, Exe->program(), S.Source);
      RunResult Run = Exe->run(S.Input);
      if (!Run.OK) {
        std::fprintf(stderr, "benchjson: cold run failed for %s [%s]\n",
                     S.Name.c_str(), castModeName(Mode));
        return false;
      }
      ColdResult = Run.ResultText;
    }
  }

  std::vector<int64_t> WarmNs;
  for (unsigned I = 0; I != Repeats; ++I) {
    Grift G;
    VMProgram Prog;
    int64_t T0 = nowNanos();
    if (!Store.load(Key, G.types(), G.coercions(), Prog, S.Source, Mode,
                    S.Optimize)) {
      std::fprintf(stderr, "benchjson: warm load missed for %s [%s]: %s\n",
                   S.Name.c_str(), castModeName(Mode),
                   Store.lastReason().c_str());
      return false;
    }
    Executable Exe = G.adopt(std::move(Prog));
    int64_t T1 = nowNanos();
    WarmNs.push_back(T1 - T0);
    if (I == 0) {
      RunResult Run = Exe.run(S.Input);
      if (!Run.OK || Run.ResultText != ColdResult) {
        std::fprintf(stderr,
                     "benchjson: warm result diverges for %s [%s]: "
                     "cold '%s' warm '%s'\n",
                     S.Name.c_str(), castModeName(Mode), ColdResult.c_str(),
                     Run.OK ? Run.ResultText.c_str() : "<error>");
        return false;
      }
    }
  }

  int64_t Cold = median(ColdNs);
  int64_t Warm = median(WarmNs);
  uint64_t Pct =
      Cold > 0 ? static_cast<uint64_t>((Warm * 100 + Cold - 1) / Cold) : 0;
  store::StoreStats SS = Store.stats();
  field(Json, "median_ns", std::to_string(Warm));
  field(Json, "cold_compile_ns", std::to_string(Cold));
  field(Json, "warm_load_ns", std::to_string(Warm));
  field(Json, "warm_over_cold_pct", Pct);
  field(Json, "store_hits", SS.Hits);
  field(Json, "store_misses", SS.Misses);
  field(Json, "store_corrupt", SS.Corrupt);
  field(Json, "store_evicted", SS.Evicted);
  std::fprintf(stderr, "%-28s %-16s cold %8.3f ms  warm %8.3f ms  (%llu%%)\n",
               S.Name.c_str(), castModeName(Mode), Cold / 1e6, Warm / 1e6,
               static_cast<unsigned long long>(Pct));
  return true;
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath;
  std::string Filter;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--out") == 0 && I + 1 < argc) {
      OutPath = argv[++I];
    } else if (std::strcmp(argv[I], "--filter") == 0 && I + 1 < argc) {
      Filter = argv[++I];
    } else {
      std::fprintf(stderr, "usage: benchjson [--out FILE] [--filter SUBSTR]\n");
      return 2;
    }
  }

  unsigned Repeats = repeatsFromEnv();
  Grift Setup; // for lattice sampling / erasure during suite construction
  std::vector<Spec> Suite = buildSuite(Setup);

  std::optional<ScratchDir> StoreDir; // made by the first store/ row
  std::optional<store::Store> Store;
  std::map<std::string, int64_t> StwMaxPause;
  std::string Json;
  Json += "{\n  \"schema\": \"grift-bench-v1\",\n";
  Json += "  \"repeats\": " + std::to_string(Repeats) + ",\n";
  Json += "  \"results\": [\n";
  bool First = true;

  for (const Spec &S : Suite) {
    if (!Filter.empty() && S.Name.find(Filter) == std::string::npos)
      continue;
    if (S.ColdWarm && !Store) {
      StoreDir.emplace();
      store::StoreConfig SC;
      SC.Dir = StoreDir->Path;
      Store.emplace(std::move(SC));
      if (!Store->enabled()) {
        std::fprintf(stderr, "benchjson: cannot create a store directory\n");
        return 1;
      }
    }
    for (CastMode Mode : S.Modes) {
      if (!First)
        Json += ",\n";
      First = false;
      Json += "    {\"name\": \"" + S.Name + "\", \"mode\": \"" +
              castModeName(Mode) + "\"";
      if (S.Precision) {
        char Buf[32];
        std::snprintf(Buf, sizeof(Buf), "%.4f", *S.Precision);
        field(Json, "precision", Buf);
      }
      bool OK = S.ColdWarm
                    ? measureColdWarm(S, Mode, Repeats, *Store, Json)
                    : measureRun(S, Mode, Repeats, StwMaxPause, Json);
      if (!OK)
        return 1;
      Json += "}";
    }
  }
  Json += "\n  ]\n}\n";

  if (OutPath.empty()) {
    std::fputs(Json.c_str(), stdout);
  } else {
    std::ofstream Out(OutPath);
    if (!Out) {
      std::fprintf(stderr, "benchjson: cannot open %s\n", OutPath.c_str());
      return 1;
    }
    Out << Json;
  }
  return 0;
}
