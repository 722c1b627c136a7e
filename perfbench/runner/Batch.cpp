//===----------------------------------------------------------------------===//
///
/// \file
/// The in-process workloads `lattice`, `typed` and `heap`: a fixed list
/// of cells (program, configuration, cast mode, input), each compiled
/// through Grift::parse -> Grift::check -> compileProgram -> Grift::adopt
/// and run through Executable::run, repeated in seeded interleaved passes
/// until the time budget is spent. Every run's output is compared with a
/// reference from the Appendix-B interpreter (refinterp) on the fully
/// typed program at the same input; every repeat's counters are compared
/// with the cell's first repeat.
///
//===----------------------------------------------------------------------===//
#include "Common.h"

#include "bench_programs/Benchmarks.h"
#include "grift/Grift.h"
#include "lattice/Lattice.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

using namespace grift;
using namespace perfbench;

namespace {

/// One (program, configuration, mode, input) cell and its measurements.
struct Cell {
  std::string Program;  ///< suite or benchmark-local program name
  std::string Config;   ///< "typed", "dynamic", "fig4" or "sample<i>"
  double Precision = 1; ///< type precision of the configuration
  CastMode Mode = CastMode::Coercions;
  std::string Source;
  std::string Input;
  std::string ExpectOutput; ///< reference printed output
  std::string ExpectResult; ///< reference final value
  /// Index of the same program's fully typed static cell (slowdown base),
  /// or -1.
  int Baseline = -1;
  /// A configuration drawn from the run seed (lattice samples).
  bool Sampled = false;

  /// Compile and run times of the untraced repeats (the end-to-end
  /// numbers), and of the traced ones (for the tracing overhead).
  std::vector<double> CompileMs, RunMs, TracedCompileMs, TracedRunMs;
  CellLayers Layers;
  uint64_t Failures = 0;
};

using Workload = std::vector<Cell>;

//===----------------------------------------------------------------------===//
// Workload definitions. Inputs are chosen so that refinterp (no tail
// calls, 6000 native levels) finishes on the fully typed program.
//===----------------------------------------------------------------------===//

struct ProgramInput {
  const char *Name;
  const char *Input;
};

/// lattice: the nine suite programs at sizes where one typed run takes
/// a few ms, so the catastrophic type-based configurations stay bounded.
constexpr ProgramInput LatticePrograms[] = {
    {"sieve", "100"},       {"n-body", "300"},    {"tak", "16 12 6"},
    {"ray", "16"},          {"quicksort", "128"}, {"blackscholes", "2000"},
    {"matmult", "16"},      {"matmult-float", "16"}, {"fft", "512"},
};
constexpr unsigned LatticeBins = 6;   ///< precision bins per program
constexpr unsigned LatticePerBin = 1; ///< draws per bin

/// typed: the compute kernels at their benchmark scale.
constexpr ProgramInput TypedPrograms[] = {
    {"tak", "18 12 6"},     {"fft", "2048"},       {"n-body", "800"},
    {"matmult", "24"},      {"matmult-float", "24"}, {"blackscholes", "6000"},
    {"ray", "24"},          {"quicksort", "256"},
};

/// heap: allocation-bound programs (sieve's lazy streams and the two
/// benchmark-local loops in perfbench/programs).
struct HeapProgram {
  const char *Name;
  const char *File; ///< nullptr: suite program
  const char *Input; ///< "%SEED%" is replaced by a seed-derived word
};
constexpr HeapProgram HeapPrograms[] = {
    {"sieve", nullptr, "400"},
    {"old-to-young", "old_to_young.grift", "16384 120000 %SEED%"},
    {"die-young", "die_young.grift", "150000 %SEED%"},
};

std::string replaceAll(std::string S, const std::string &From,
                       const std::string &To) {
  for (size_t At = S.find(From); At != std::string::npos;
       At = S.find(From, At + To.size()))
    S.replace(At, From.size(), To);
  return S;
}

Program parseOrDie(Grift &G, const std::string &Name,
                   const std::string &Source) {
  std::string Errors;
  std::optional<Program> Ast = G.parse(Source, Errors);
  if (!Ast)
    fatal("cannot parse " + Name + ": " + Errors);
  return std::move(*Ast);
}

void addConfig(Workload &W, const std::string &Name, const std::string &Config,
               double Precision, const std::string &Source,
               const std::string &Input, const std::vector<CastMode> &Modes,
               int Base, bool Sampled = false) {
  for (CastMode M : Modes) {
    Cell C;
    C.Program = Name;
    C.Config = Config;
    C.Precision = Precision;
    C.Mode = M;
    C.Source = Source;
    C.Input = Input;
    C.Baseline = Base;
    C.Sampled = Sampled;
    W.push_back(std::move(C));
  }
}

const std::vector<CastMode> GradualModes(std::begin(GradualCastModes),
                                         std::end(GradualCastModes));

/// Adds \p Name's fully typed program in `static` (the slowdown baseline)
/// and in every gradual mode; returns the baseline's index.
int addTyped(Workload &W, const std::string &Name, const std::string &Source,
             const std::string &Input) {
  int Base = static_cast<int>(W.size());
  addConfig(W, Name, "typed", 1, Source, Input, {CastMode::Static}, -1);
  addConfig(W, Name, "typed", 1, Source, Input, GradualModes, Base);
  return Base;
}

/// Builds the cells of \p Name's workload. This is the timed set-up:
/// engine construction, parsing, sampling and configuration rendering.
Workload buildWorkload(const Options &Opts) {
  Workload W;
  Grift G;
  if (Opts.Workload == "lattice") {
    int QuicksortBase = -1;
    for (const ProgramInput &P : LatticePrograms) {
      const BenchProgram &B = getBenchmark(P.Name);
      Program Ast = parseOrDie(G, P.Name, B.Source);
      int Base = addTyped(W, P.Name, B.Source, P.Input);
      if (std::string(P.Name) == "quicksort")
        QuicksortBase = Base;
      addConfig(W, P.Name, "dynamic", 0, eraseTypes(Ast, G.types()).str(),
                P.Input, GradualModes, Base);
      std::vector<Configuration> Samples = sampleFineGrained(
          Ast, G.types(), LatticeBins, LatticePerBin,
          Opts.Seed * 1000003 + fnv1a(P.Name));
      for (size_t I = 0; I != Samples.size(); ++I)
        addConfig(W, P.Name, "sample" + std::to_string(I),
                  Samples[I].Precision, Samples[I].Prog.str(), P.Input,
                  GradualModes, Base, /*Sampled=*/true);
    }
    // The Figure 4 programs, as fixed partially typed cells. quicksort-fig3
    // is the suite quicksort partially typed, at the same n, so the typed
    // quicksort's static run is its slowdown baseline; even/odd has no
    // fully typed version and so no baseline.
    const std::string EvenOddN = "20000", QsortN = "128";
    addConfig(W, "evenodd-fig2", "fig4",
              programPrecision(parseOrDie(G, "evenodd", evenOddSource())),
              evenOddSource(), EvenOddN, GradualModes, -1);
    addConfig(W, "quicksort-fig3", "fig4",
              programPrecision(
                  parseOrDie(G, "quicksort-fig3", quicksortFig3Source())),
              quicksortFig3Source(), QsortN, GradualModes, QuicksortBase);
  } else if (Opts.Workload == "typed") {
    for (const ProgramInput &P : TypedPrograms) {
      const BenchProgram &B = getBenchmark(P.Name);
      parseOrDie(G, P.Name, B.Source);
      addTyped(W, P.Name, B.Source, P.Input);
    }
  } else if (Opts.Workload == "heap") {
    Rng R(Opts.Seed);
    for (const HeapProgram &P : HeapPrograms) {
      std::string Source;
      if (P.File) {
        std::string Path = Opts.ProgramsDir + "/" + P.File;
        if (!readFile(Path, Source))
          fatal("cannot read " + Path);
      } else {
        Source = getBenchmark(P.Name).Source;
      }
      std::string Input =
          replaceAll(P.Input, "%SEED%", std::to_string(1 + R.below(60000)));
      Program Ast = parseOrDie(G, P.Name, Source);
      int Base = addTyped(W, P.Name, Source, Input);
      addConfig(W, P.Name, "dynamic", 0, eraseTypes(Ast, G.types()).str(),
                Input, GradualModes, Base);
    }
  } else {
    fatal("unknown workload '" + Opts.Workload + "'");
  }
  return W;
}

/// Reference outputs (not part of set-up time): refinterp on the fully
/// typed program at the cell's input, once per (program, input). The
/// even/odd program has no fully typed version; its output is the parity
/// of n, which is what (even? n) prints.
void computeReferences(Workload &W) {
  std::map<std::string, Reference> Memo;
  std::map<std::string, std::string> TypedSource;
  for (const Cell &C : W)
    if (C.Config == "typed")
      TypedSource[C.Program] = C.Source;
  TypedSource["quicksort-fig3"] = getBenchmark("quicksort").Source;

  for (Cell &C : W) {
    if (C.Program == "evenodd-fig2") {
      long N = std::stol(C.Input);
      C.ExpectOutput = N % 2 == 0 ? "#t" : "#f";
      C.ExpectResult = "()";
      continue;
    }
    std::string Key = C.Program + "\n" + C.Input;
    auto It = Memo.find(Key);
    if (It == Memo.end())
      It = Memo.emplace(Key, reference(C.Program, TypedSource.at(C.Program),
                                       C.Input))
               .first;
    C.ExpectOutput = It->second.Output;
    C.ExpectResult = It->second.Result;
  }
}

/// Compiles \p C into \p G (Grift::parse -> Grift::check ->
/// compileProgram -> Grift::adopt); \p Ms receives the time.
std::optional<Executable> compileCell(Grift &G, Cell &C, uint32_t Id,
                                      Tracer &T, double &Ms) {
  std::string Errors;
  std::optional<Executable> Exe =
      compileTimed(G, C.Source, C.Mode, T, Id, C.Layers, Errors, Ms);
  if (!Exe)
    std::fprintf(stderr, "perfbench: %s/%s/%s: compile error: %s\n",
                 C.Program.c_str(), C.Config.c_str(), castModeName(C.Mode),
                 Errors.c_str());
  return Exe;
}

/// One timed compile of \p C on a fresh engine; false on a compile error.
/// Each pass compiles every cell back to back before it runs any: timed
/// between runs, a 0.3 ms compile read up to 60 % slower in some runs,
/// depending on what the previous run left in the allocator and caches.
bool timeCompile(Cell &C, uint32_t Id, Tracer &T) {
  Grift G;
  double Ms = 0;
  bool OK = compileCell(G, C, Id, T, Ms).has_value();
  (T.enabled() ? C.TracedCompileMs : C.CompileMs).push_back(Ms);
  return OK;
}

/// One run of \p C, compiled (untimed) on a fresh engine so coercion-node
/// counts are per cell. Returns false on any failure: compile error, run
/// error, or an output that differs from the reference.
bool runCell(Cell &C, uint32_t Id, Tracer &T, bool Quiet = false) {
  Grift G;
  Tracer Off(false);
  double CompileMs = 0;
  std::optional<Executable> Exe = compileCell(G, C, Id, Off, CompileMs);
  if (!Exe)
    return false;
  const size_t NodesCompiled = G.coercions().allocatedNodes();
  RunResult R;
  double RunMs = 0;
  {
    Timed S(T, "run", Id);
    R = Exe->run(C.Input);
    RunMs = S.stop();
  }
  bool OK =
      R.OK && R.Output == C.ExpectOutput && R.ResultText == C.ExpectResult;
  if (!OK && !Quiet)
    std::fprintf(stderr,
                 "perfbench: %s/%s/%s input '%s': %s (output '%s', result "
                 "'%s'; reference '%s', '%s')\n",
                 C.Program.c_str(), C.Config.c_str(), castModeName(C.Mode),
                 C.Input.c_str(),
                 R.OK ? "wrong output" : R.Error.Message.c_str(),
                 R.Output.c_str(), R.ResultText.c_str(),
                 C.ExpectOutput.c_str(), C.ExpectResult.c_str());
  recordRun(C.Layers, Exe->program(), R, RunMs, NodesCompiled,
            G.coercions().allocatedNodes(), T.enabled());
  (T.enabled() ? C.TracedRunMs : C.RunMs).push_back(RunMs);
  return OK;
}

/// Proves that a mismatch is counted: runs a copy of \p C against a
/// deliberately wrong reference and requires runCell to reject it.
bool plantedMismatchIsCounted(const Cell &C) {
  Cell Planted = C;
  Planted.ExpectOutput += "planted";
  Tracer Off(false);
  return !runCell(Planted, 0, Off, /*Quiet=*/true);
}

void printRow(const Options &Opts, const Cell &C) {
  const Counters K = C.Layers.First.value_or(Counters());
  const RuntimeStats &St = C.Layers.Stats;
  std::printf(
      "{\"row\": {\"workload\": %s, \"program\": %s, \"config\": %s, "
      "\"precision\": %.4f, \"mode\": %s, \"input\": %s, \"repeats\": %zu, "
      "\"compile_ms\": %s, \"run_ms\": %s, \"steps\": %llu, \"casts\": %llu, "
      "\"compositions\": %llu, \"longest_chain\": %llu, \"proxies\": %llu, "
      "\"ic_hits\": %llu, \"ic_misses\": %llu, \"alloc_bytes\": %llu, "
      "\"minor_gcs\": %llu, \"major_gcs\": %llu, \"promoted_bytes\": %llu, "
      "\"remembered_set_peak\": %llu, \"coercion_nodes\": %llu, "
      "\"counters_stable\": %s, \"failures\": %llu}}\n",
      jsonString(Opts.Workload).c_str(), jsonString(C.Program).c_str(),
      jsonString(C.Config).c_str(), C.Precision,
      jsonString(castModeName(C.Mode)).c_str(), jsonString(C.Input).c_str(),
      C.RunMs.size(), jsonNumber(median(C.CompileMs)).c_str(),
      jsonNumber(median(C.RunMs)).c_str(), (unsigned long long)K.Steps,
      (unsigned long long)K.Casts, (unsigned long long)K.Compositions,
      (unsigned long long)K.LongestChain, (unsigned long long)K.Proxies,
      (unsigned long long)K.IcHits, (unsigned long long)K.IcMisses,
      (unsigned long long)K.AllocBytes, (unsigned long long)K.MinorGCs,
      (unsigned long long)K.MajorGCs, (unsigned long long)St.PromotedBytes,
      (unsigned long long)St.RememberedSetPeak, (unsigned long long)K.NodesRun,
      C.Layers.Unstable ? "false" : "true", (unsigned long long)C.Failures);
}

} // namespace

Outcome perfbench::runBatchWorkload(const Options &Opts) {
  // Set-up, several times; the median is reported and the last is used.
  constexpr int SetupRepeats = 41;
  std::vector<double> SetupS, SetupRefMs;
  Workload W;
  for (int I = 0; I != SetupRepeats; ++I) {
    SetupRefMs.push_back(referenceLoopMs());
    int64_t T0 = nowNs();
    W = buildWorkload(Opts);
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }
  computeReferences(W);

  Outcome Out;
  if (!plantedMismatchIsCounted(W.front())) {
    std::fprintf(stderr, "perfbench: a planted wrong reference was not "
                         "reported as a mismatch\n");
    ++Out.Attempted;
    ++Out.Failed;
  }

  // Peak RSS is read after one run of every seed-independent cell and
  // before any sampled cell runs. Like slowdown_max below, it would
  // otherwise depend on whether the seed drew a rare configuration: one
  // type-based sieve sample (proxy chains 1089 deep) took it from 18 to
  // 61 MiB. These runs are checked but not timed.
  Tracer Off(false);
  for (const Cell &C : W) {
    if (C.Sampled)
      continue;
    Cell Unmeasured = C;
    ++Out.Attempted;
    Out.Failed += !runCell(Unmeasured, 0, Off);
  }
  const double PeakRssMb = selfPeakRssMb();

  // Measurement: seeded interleaved passes over every cell, with the
  // reference loop timed every RefEvery cells. In the traced run every
  // other pass records spans, and the untraced passes between them give
  // the tracing overhead.
  constexpr size_t RefEvery = 16;
  std::vector<double> RefMs;
  Tracer T(Opts.Trace);
  Rng Order(Opts.Seed ^ 0xB5AD4ECEDA1CE2A9ull);
  std::vector<size_t> Perm(W.size());
  for (size_t I = 0; I != Perm.size(); ++I)
    Perm[I] = I;
  const int64_t Budget = static_cast<int64_t>(Opts.Seconds * 1e9);
  const int64_t Start = nowNs();
  int Passes = 0;
  while (Passes < 2 || (nowNs() - Start < Budget && Passes < 1000)) {
    bool Traced = Opts.Trace && Passes % 2 == 0;
    Order.shuffle(Perm);
    for (size_t K = 0; K != Perm.size(); ++K) {
      if (K % RefEvery == 0)
        RefMs.push_back(referenceLoopMs());
      size_t I = Perm[K];
      ++Out.Attempted;
      Out.Failed += !timeCompile(W[I], static_cast<uint32_t>(I), Traced ? T : Off);
    }
    for (size_t K = 0; K != Perm.size(); ++K) {
      if (K % RefEvery == 0)
        RefMs.push_back(referenceLoopMs());
      size_t I = Perm[K];
      Cell &C = W[I];
      ++Out.Attempted;
      if (!runCell(C, static_cast<uint32_t>(I), Traced ? T : Off)) {
        ++Out.Failed;
        ++C.Failures;
      }
    }
    ++Passes;
  }

  for (const Cell &C : W)
    printRow(Opts, C);

  // End-to-end metrics; times at the reference host speed (Common.h).
  const double Scale = hostScale(RefMs);
  Report &M = Out.Metrics;
  M.add("setup_s", median(SetupS) * hostScale(SetupRefMs), "s");
  for (CastMode Mode : AllCastModes) {
    std::vector<double> Runs;
    for (const Cell &C : W)
      if (C.Mode == Mode)
        Runs.push_back(median(C.RunMs));
    M.add(std::string("run_ms_geomean.") + castModeName(Mode),
          geomean(Runs) * Scale, "ms");
  }
  // Tail statistics are taken over the cells that every seed runs (on
  // lattice: the typed, dynamic and Figure 4 cells; even/odd has no
  // baseline, so slowdown_max leaves it out), so they compare across
  // seeds; a rare sampled configuration would otherwise decide them. The
  // worst sampled configuration is a per-layer metric.
  auto Slowdown = [&](const Cell &C) {
    return median(C.RunMs) /
           median(W[static_cast<size_t>(C.Baseline)].RunMs);
  };
  double SlowdownMax = 0, SlowdownMaxSampled = 0;
  for (const Cell &C : W)
    if (C.Mode == CastMode::Coercions && C.Baseline >= 0) {
      double &Max = C.Sampled ? SlowdownMaxSampled : SlowdownMax;
      Max = std::max(Max, Slowdown(C));
    }
  M.add("slowdown_max.coercions", SlowdownMax, "x");
  M.add("lattice.slowdown_max_sampled.coercions", SlowdownMaxSampled, "x");
  std::vector<double> Compiles, Latencies, FixedLatencies;
  for (const Cell &C : W) {
    double Ms = median(C.CompileMs) + median(C.RunMs);
    Compiles.push_back(median(C.CompileMs));
    Latencies.push_back(Ms);
    if (!C.Sampled)
      FixedLatencies.push_back(Ms);
  }
  double FixedSumMs = 0;
  for (double Ms : FixedLatencies)
    FixedSumMs += Ms;
  M.add("compile_ms_geomean", geomean(Compiles) * Scale, "ms");
  M.add("latency_p50_ms", median(Latencies), "ms");
  M.add("latency_p99_ms", quantile(FixedLatencies, 0.99), "ms");
  M.add("throughput_rps",
        FixedSumMs > 0
            ? static_cast<double>(FixedLatencies.size()) / (FixedSumMs / 1e3)
            : 0,
        "1/s");
  M.add("peak_rss_mb", PeakRssMb, "MiB");

  // Per-layer metrics (printed by the traced run).
  M.add("host.ref_ms", median(RefMs), "ms");
  std::vector<const CellLayers *> Layers;
  uint64_t Unstable = 0;
  for (const Cell &C : W) {
    Layers.push_back(&C.Layers);
    Unstable += C.Layers.Unstable;
  }
  addLayerMetrics(Layers, M);
  M.add("counters.unstable_cells", static_cast<double>(Unstable), "count");
  for (const Cell &C : W)
    Out.CounterDigest = fnv1a(std::to_string(Out.CounterDigest) +
                              C.Layers.First.value_or(Counters()).str());

  // The old-to-young loop must exercise the write barrier and promote, in
  // every mode and configuration, from its own counters.
  for (const Cell &C : W) {
    if (C.Program != "old-to-young")
      continue;
    const RuntimeStats &St = C.Layers.Stats;
    ++Out.Attempted;
    if (St.RememberedSetPeak == 0 || St.PromotedBytes == 0) {
      std::fprintf(stderr, "perfbench: old-to-young/%s/%s left the write "
                           "barrier unexercised (remembered_set_peak=%llu, "
                           "promoted=%llu bytes)\n",
                   C.Config.c_str(), castModeName(C.Mode),
                   (unsigned long long)St.RememberedSetPeak,
                   (unsigned long long)St.PromotedBytes);
      ++Out.Failed;
    }
  }
  if (Unstable)
    std::fprintf(stderr, "perfbench: %llu cell(s) with counters that differ "
                         "across repeats (rows with counters_stable=false)\n",
                 (unsigned long long)Unstable);

  if (Opts.Trace) {
    for (const auto &[Name, Ms] : T.selfMs())
      M.add("self_ms." + Name, Ms, "ms");
    // Traced vs untraced: the same cells, summed per-cell medians.
    double TracedSum = 0, UntracedSum = 0;
    for (const Cell &C : W) {
      if (C.TracedRunMs.empty() || C.RunMs.empty())
        continue;
      TracedSum += median(C.TracedCompileMs) + median(C.TracedRunMs);
      UntracedSum += median(C.CompileMs) + median(C.RunMs);
    }
    M.add("trace.overhead_pct",
          UntracedSum > 0 ? (TracedSum / UntracedSum - 1) * 100 : 0, "%");
    std::string Path = Opts.WorkDir + "/trace-" + Opts.Workload + "-" +
                       std::to_string(Opts.Seed) + ".jsonl";
    if (!T.write(Path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
  }
  return Out;
}
