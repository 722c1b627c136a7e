//===----------------------------------------------------------------------===//
///
/// \file
/// griftc — command-line compiler and runner for GTLC+.
///
///   griftc [options] file.grift [-- input words...]
///
/// Options:
///   --mode=coercions|type-based|static|monotonic|coercion-passing
///                    cast implementation (default coercions)
///   --dynamic        erase every type annotation before compiling
///   --optimize       enable the optional core-IR optimizer
///   --ref-interp     run on the Appendix-B definitional interpreter
///   --stats          print runtime statistics after the run
///   --dump-core      print the explicit-cast core IR and exit
///   --dump-bytecode  print the compiled bytecode and exit
///   --expr 'SRC'     compile SRC instead of reading a file
///   --benchmark NAME load a built-in benchmark program
///   --input 'WORDS'  input words for read-int / read-char
///
/// Resource governance (untrusted / hostile input):
///   --max-steps=N    fuel budget in interpreter steps (0 = unlimited)
///   --max-heap=N     live-heap budget in bytes; k/m/g suffixes accepted
///   --max-depth=N    call-depth budget in frames
///   --max-wall-ms=N  wall-clock budget in milliseconds
///   --deadline-ms=N  deadline: a run still going this long after it
///                    starts is cancelled (it becomes the wall budget
///                    when tighter than --max-wall-ms)
///   --gc-torture=N   force a full GC every Nth allocation (bug hunting)
///   --gc-minor-torture=N  force a minor (nursery) GC every Nth
///                    allocation and every Nth cast application
///   --gc-nursery=N   nursery size in bytes (k/m/g suffixes accepted);
///                    0 disables the generational layer entirely
///   --gc-stats       print the GC profile after the run: collection
///                    counts, pause totals/max, promotion volume,
///                    remembered-set peak, per-phase pause histograms
///   --fail-alloc=N   inject an allocation failure at allocation #N
///
/// Persistent store (src/store):
///   --cache-dir=DIR  warm-start compiles from the content-addressed
///                    image store (and publish fresh compiles into it)
///   --cache-max-bytes=N  store eviction cap (default 256 MiB)
///   --store-verify   offline integrity sweep: deep-validate every entry
///                    under --cache-dir, delete corrupt entries and stray
///                    temp files, print a summary, exit 0
///
/// A program stopped by a budget exits with status 3 and prints the
/// machine-readable error kind (fuel-exhausted, out-of-memory, ...);
/// a run that outlives its --deadline-ms exits with status 4 (cancelled);
/// program errors (blame, trap) still exit with status 1.
///
//===----------------------------------------------------------------------===//
#include "bench_programs/Benchmarks.h"
#include "grift/Grift.h"
#include "lattice/Lattice.h"
#include "refinterp/RefInterp.h"
#include "service/Job.h"
#include "store/Store.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

using namespace grift;

namespace {

void printUsage() {
  std::fprintf(
      stderr,
      "usage: griftc [--mode=coercions|type-based|static|monotonic|\n"
      "                      coercion-passing]\n"
      "              [--dynamic] [--optimize] [--ref-interp]\n"
      "              [--stats] [--dump-core] [--dump-bytecode]\n"
      "              [--max-steps=N] [--max-heap=N[k|m|g]]\n"
      "              [--max-depth=N] [--max-wall-ms=N] [--deadline-ms=N]\n"
      "              [--gc-torture=N] [--gc-minor-torture=N]\n"
      "              [--gc-nursery=N[k|m|g]] [--gc-stats] [--fail-alloc=N]\n"
      "              [--cache-dir=DIR [--cache-max-bytes=N]]\n"
      "              (file.grift | --expr 'SRC' | --benchmark NAME)\n"
      "              [--input 'WORDS']\n"
      "       griftc --store-verify --cache-dir=DIR\n");
}

/// Exit status for a failed run: program errors 1, resource exhaustion
/// 3, deadline cancellation 4 (see docs/INTERNALS.md exit-code table).
int exitForError(grift::ErrorKind Kind) {
  if (Kind == grift::ErrorKind::Blame || Kind == grift::ErrorKind::Trap)
    return 1;
  return Kind == grift::ErrorKind::Cancelled ? 4 : 3;
}

/// Parses "--opt=123" style values with an optional k/m/g size suffix.
bool parseSize(const std::string &Arg, const char *Prefix, uint64_t &Out) {
  size_t Len = std::strlen(Prefix);
  if (Arg.compare(0, Len, Prefix) != 0)
    return false;
  const char *S = Arg.c_str() + Len;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (End == S)
    return false;
  uint64_t Scale = 1;
  if (*End == 'k' || *End == 'K')
    Scale = 1ull << 10, ++End;
  else if (*End == 'm' || *End == 'M')
    Scale = 1ull << 20, ++End;
  else if (*End == 'g' || *End == 'G')
    Scale = 1ull << 30, ++End;
  if (*End != '\0')
    return false;
  Out = V * Scale;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  CastMode Mode = CastMode::Coercions;
  bool Dynamic = false;
  bool Optimize = false;
  bool RefInterp = false;
  bool Stats = false;
  bool GCStats = false;
  bool DumpCore = false;
  bool DumpBytecode = false;
  std::string Source;
  std::string Input;
  std::string File;
  std::string CacheDir;
  uint64_t CacheMaxBytes = 256ull << 20;
  bool StoreVerify = false;
  RunLimits Limits;
  FaultInjector Injector;
  int64_t DeadlineNanos = 0;
  uint64_t Tmp = 0;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (parseSize(Arg, "--max-steps=", Tmp)) {
      Limits.MaxSteps = Tmp;
    } else if (parseSize(Arg, "--deadline-ms=", Tmp)) {
      DeadlineNanos = static_cast<int64_t>(Tmp) * 1000000;
    } else if (parseSize(Arg, "--max-heap=", Tmp)) {
      Limits.MaxHeapBytes = static_cast<size_t>(Tmp);
    } else if (parseSize(Arg, "--max-depth=", Tmp)) {
      Limits.MaxFrames = static_cast<uint32_t>(Tmp);
    } else if (parseSize(Arg, "--max-wall-ms=", Tmp)) {
      Limits.MaxWallNanos = static_cast<int64_t>(Tmp) * 1000000;
    } else if (parseSize(Arg, "--gc-torture=", Tmp)) {
      Injector.GCTorturePeriod = Tmp;
    } else if (parseSize(Arg, "--gc-minor-torture=", Tmp)) {
      Injector.MinorGCTorturePeriod = Tmp;
    } else if (parseSize(Arg, "--gc-nursery=", Tmp)) {
      Limits.GCNurseryBytes = static_cast<size_t>(Tmp);
    } else if (Arg == "--gc-stats") {
      GCStats = true;
    } else if (parseSize(Arg, "--fail-alloc=", Tmp)) {
      Injector.FailAllocAt = Tmp;
    } else if (Arg.rfind("--cache-dir=", 0) == 0) {
      CacheDir = Arg.substr(12);
    } else if (parseSize(Arg, "--cache-max-bytes=", Tmp)) {
      CacheMaxBytes = Tmp;
    } else if (Arg == "--store-verify") {
      StoreVerify = true;
    } else if (Arg.rfind("--mode=", 0) == 0) {
      // Shared parser (runtime/Mode.h): accepts exactly the registered
      // backend names, so griftc and the griftd protocol agree.
      if (!castModeFromName(Arg.substr(7), Mode)) {
        std::fprintf(stderr, "griftc: unknown mode '%s'\n",
                     Arg.substr(7).c_str());
        printUsage();
        return 2;
      }
    } else if (Arg == "--dynamic") {
      Dynamic = true;
    } else if (Arg == "--optimize") {
      Optimize = true;
    } else if (Arg == "--ref-interp") {
      RefInterp = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--dump-core") {
      DumpCore = true;
    } else if (Arg == "--dump-bytecode") {
      DumpBytecode = true;
    } else if (Arg == "--expr" && I + 1 < Argc) {
      Source = Argv[++I];
    } else if (Arg == "--benchmark" && I + 1 < Argc) {
      const BenchProgram &B = getBenchmark(Argv[++I]);
      Source = B.Source;
      if (Input.empty())
        Input = B.BenchInput;
    } else if (Arg == "--input" && I + 1 < Argc) {
      Input = Argv[++I];
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "griftc: unknown option '%s'\n", Arg.c_str());
      printUsage();
      return 2;
    } else {
      File = Arg;
    }
  }

  if (StoreVerify) {
    // Offline integrity sweep: deep-validate every cache entry, delete
    // the ones that fail, and report what happened. MaxBytes is irrelevant
    // here (no writes), so leave the default.
    if (CacheDir.empty()) {
      std::fprintf(stderr, "griftc: --store-verify requires --cache-dir\n");
      return 2;
    }
    store::StoreConfig SC;
    SC.Dir = CacheDir;
    store::Store S(std::move(SC));
    store::Store::VerifyResult V = S.verifyAll();
    std::printf("{\"status\":\"store-verify\",\"valid\":%llu,"
                "\"removed\":%llu,\"tmp_removed\":%llu}\n",
                static_cast<unsigned long long>(V.Valid),
                static_cast<unsigned long long>(V.Removed),
                static_cast<unsigned long long>(V.TmpRemoved));
    return 0;
  }

  if (Source.empty()) {
    if (File.empty()) {
      printUsage();
      return 2;
    }
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "griftc: cannot open '%s'\n", File.c_str());
      return 2;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Source = Buf.str();
  }

  Grift G;
  std::string Errors;
  auto Ast = G.parse(Source, Errors);
  if (!Ast) {
    std::fprintf(stderr, "%s", Errors.c_str());
    return 1;
  }
  if (Dynamic)
    *Ast = eraseTypes(*Ast, G.types());

  if (DumpCore) {
    auto Core = G.check(*Ast, Errors);
    if (!Core) {
      std::fprintf(stderr, "%s", Errors.c_str());
      return 1;
    }
    std::printf("%s", Core->str().c_str());
    return 0;
  }

  // The deadline becomes the wall budget of either run path, which is
  // timed from the run's start, so compile time does not count.
  const service::DeadlineBudget Deadline(Limits, DeadlineNanos);

  if (RefInterp) {
    // Run on the Appendix-B definitional interpreter instead of the VM.
    auto Core = G.check(*Ast, Errors);
    if (!Core) {
      std::fprintf(stderr, "%s", Errors.c_str());
      return 1;
    }
    refinterp::RefResult R =
        refinterp::interpret(G.types(), G.coercions(), *Core, Input, Limits);
    Deadline.cancel(R.Kind, R.Message);
    std::fputs(R.Output.c_str(), stdout);
    if (!R.Output.empty() && R.Output.back() != '\n')
      std::fputc('\n', stdout);
    if (!R.OK) {
      if (R.isBlame())
        std::fprintf(stderr, "blame %s: %s\n", R.Label.c_str(),
                     R.Message.c_str());
      else
        std::fprintf(stderr, "%s: %s\n", errorKindName(R.Kind),
                     R.Message.c_str());
      return exitForError(R.Kind);
    }
    std::printf("=> %s\n", R.ResultText.c_str());
    return 0;
  }

  // Persistent store: warm-start from a prior compile of the same
  // (source, mode, optimize) triple when --cache-dir is set. --dynamic
  // is keyed on the original source but compiles the erased AST, so it
  // must bypass the store entirely.
  std::optional<store::Store> PStore;
  uint64_t StoreKey = 0;
  if (!CacheDir.empty() && !Dynamic) {
    store::StoreConfig SC;
    SC.Dir = CacheDir;
    SC.MaxBytes = CacheMaxBytes;
    PStore.emplace(std::move(SC));
    StoreKey = store::Store::key(Source, Mode, Optimize);
  }

  std::optional<Executable> Exe;
  if (PStore && PStore->enabled()) {
    VMProgram Prog;
    if (PStore->load(StoreKey, G.types(), G.coercions(), Prog, Source, Mode,
                     Optimize))
      Exe = G.adopt(std::move(Prog));
  }
  if (!Exe) {
    Exe = G.compileAst(*Ast, Mode, Errors, Optimize);
    if (Exe && PStore && PStore->enabled())
      PStore->put(StoreKey, Exe->program(), Source);
  }
  if (!Exe) {
    std::fprintf(stderr, "%s", Errors.c_str());
    return 1;
  }
  if (DumpBytecode) {
    std::printf("%s", Exe->program().str().c_str());
    return 0;
  }

  RunResult R = Exe->run(Input, Limits, &Injector);
  Deadline.cancel(R.Error.Kind, R.Error.Message);
  std::fputs(R.Output.c_str(), stdout);
  if (!R.Output.empty() && R.Output.back() != '\n')
    std::fputc('\n', stdout);
  if (!R.OK) {
    std::fprintf(stderr, "%s\n", R.Error.str().c_str());
    return exitForError(R.Error.Kind);
  }
  std::printf("=> %s\n", R.ResultText.c_str());
  if (Stats) {
    std::printf("; mode: %s\n", castModeName(Mode));
    std::printf("; wall: %.3f ms\n", R.WallNanos / 1e6);
    std::printf("; steps: %llu\n", static_cast<unsigned long long>(R.Steps));
    if (R.Stats.TimedNanos >= 0)
      std::printf("; timed region: %.3f ms\n", R.Stats.TimedNanos / 1e6);
    std::printf("; casts applied: %llu\n",
                static_cast<unsigned long long>(R.Stats.CastsApplied));
    std::printf("; compositions: %llu\n",
                static_cast<unsigned long long>(R.Stats.Compositions));
    std::printf("; longest proxy chain: %llu\n",
                static_cast<unsigned long long>(R.Stats.LongestProxyChain));
    std::printf("; proxies allocated: %llu\n",
                static_cast<unsigned long long>(R.Stats.ProxiesAllocated));
  }
  if (GCStats) {
    auto U = [](uint64_t V) { return static_cast<unsigned long long>(V); };
    const RuntimeStats &S = R.Stats;
    std::printf("; gc: alloc %llu bytes in %llu objects\n", U(S.AllocBytes),
                U(S.allocObjects()));
    std::printf("; gc: %llu minor / %llu major collections\n",
                U(S.MinorCollections), U(S.Collections));
    std::printf("; gc: minor pauses %llu ns total, %llu ns max\n",
                U(S.GCMinorPauseTotalNs), U(S.GCMinorPauseMaxNs));
    std::printf("; gc: all pauses %llu ns total, %llu ns max\n",
                U(S.GCPauseTotalNs), U(S.GCPauseMaxNs));
    std::printf("; gc: promoted %llu bytes in %llu objects\n",
                U(S.PromotedBytes), U(S.PromotedObjects));
    std::printf("; gc: remembered-set peak %llu\n", U(S.RememberedSetPeak));
    // Log2 pause histograms: bucket 0 is < 1 µs, each bucket doubles.
    auto printHist = [&](const char *Phase, const uint64_t *Hist) {
      std::printf("; gc: %s pause histogram:", Phase);
      for (unsigned B = 0; B != RuntimeStats::NumPauseBuckets; ++B)
        std::printf(" %llu", U(Hist[B]));
      std::printf("\n");
    };
    printHist("minor", S.MinorPauseHist);
    printHist("major", S.MajorPauseHist);
  }
  return 0;
}
