//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the benchmark runner: options, clocks, order
/// statistics, the in-memory span recorder of the traced run, and the
/// metric report printed as the last line of a run.
///
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "grift/Grift.h"
#include "vm/VM.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string ProgramsDir; ///< perfbench/programs (GTLC+ sources)
  std::string Griftd;      ///< griftd binary (serve)
  std::string WorkDir;     ///< scratch space inside the checkout
};

/// Reports \p Msg on stderr and exits with status 2 (no result line).
[[noreturn]] void fatal(const std::string &Msg);

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of \p V (0 when empty).
double median(std::vector<double> V);
/// Linear-interpolation quantile, \p Q in [0, 1] (0 when empty).
double quantile(std::vector<double> V, double Q);
/// Geometric mean of positive values (0 when empty).
double geomean(const std::vector<double> &V);

/// Spans of the traced run, kept in memory and written out when the run
/// ends. Each span names the layer call it wraps, its parent span, and
/// the cell or request it belongs to. Disabled tracers record nothing.
class Tracer {
public:
  struct Span {
    std::string Name;
    int64_t Start = 0;
    int64_t End = 0;
    int32_t Parent = -1;
    uint32_t Id = 0;
  };

  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  /// Opens a span at \p Start under the innermost open span; returns its
  /// index (-1 when disabled).
  int32_t open(const char *Name, uint32_t Id, int64_t Start);
  /// Closes span \p Index at \p End.
  void close(int32_t Index, int64_t End);

  /// Self time per span name in ms: a span's duration minus the part its
  /// children cover.
  std::map<std::string, double> selfMs() const;

  /// Writes the spans as JSON lines to \p Path; false on I/O failure.
  bool write(const std::string &Path) const;

  size_t size() const { return Spans.size(); }

private:
  bool Enabled;
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
};

/// RAII span over one call into a layer; times the call even when the
/// tracer is disabled, so untraced runs use the same clock reads.
class Timed {
public:
  Timed(Tracer &T, const char *Name, uint32_t Id)
      : T(T), Start(nowNs()), Index(T.open(Name, Id, Start)) {}
  Timed(const Timed &) = delete;
  Timed &operator=(const Timed &) = delete;
  ~Timed() {
    if (!Closed)
      stop();
  }
  /// Ends the span; returns its duration in ms.
  double stop() {
    int64_t End = nowNs();
    T.close(Index, End);
    Closed = true;
    return static_cast<double>(End - Start) / 1e6;
  }

private:
  Tracer &T;
  int64_t Start;
  int32_t Index;
  bool Closed = false;
};

/// The metric object of the result line, in insertion order.
class Report {
public:
  void add(const std::string &Name, double Value, const std::string &Unit);
  /// `{"name": {"value": v, "unit": u}, ...}`
  std::string json() const;
  /// The value of \p Name, 0 when absent.
  double get(const std::string &Name) const;

private:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Entry> Entries;
};

/// The counters of one run that must repeat exactly across repeats and
/// across runs with the same seed.
struct Counters {
  uint64_t Steps = 0;
  uint64_t Casts = 0, Compositions = 0, LongestChain = 0, MaxRetCasts = 0,
           Proxies = 0, IcHits = 0, IcMisses = 0;
  uint64_t AllocBytes = 0, AllocObjects = 0, MinorGCs = 0, MajorGCs = 0;
  uint64_t NodesCompiled = 0, NodesRun = 0;

  bool operator==(const Counters &) const = default;

  /// The counters as one space-separated line (for the counter digest).
  std::string str() const;
};

/// What one cell (a program in one mode) shows of each layer: the
/// first run's counters, whether a later run's differed, and the phase
/// times of every traced repeat.
struct CellLayers {
  size_t SourceBytes = 0;
  std::vector<double> ParseMs, CheckMs, CodegenMs, RunMs;
  std::vector<double> PauseMs; ///< GC pause total per repeat
  double PauseMaxMs = 0;
  grift::RuntimeStats Stats; ///< first run
  uint64_t Steps = 0;
  size_t PeakHeapBytes = 0;
  uint64_t CodeSize = 0;  ///< instructions emitted
  uint64_t CastSites = 0; ///< Casts + Sites entries
  uint64_t Nodes = 0;     ///< coercion nodes after compile and run
  std::vector<double> StorePutMs, StoreLoadMs; ///< serve replay only
  std::optional<Counters> First; ///< set by the first recorded run
  bool Unstable = false;         ///< a later run's counters differed
};

/// Adds the frontend, vm, coercions, casts and heap per-layer metrics
/// over \p Cells to \p M: times as geomeans of per-cell medians, counts
/// as sums (maxima for peaks).
void addLayerMetrics(const std::vector<const CellLayers *> &Cells, Report &M);

/// Compiles \p Source for \p Mode through Grift::parse, Grift::check and
/// compileProgram, each under its own span ("parse", "check", "codegen");
/// a traced call appends the phase times to \p L. Returns nullopt with
/// \p Errors set on failure.
std::optional<grift::VMProgram> compilePhases(grift::Grift &G,
                                              const std::string &Source,
                                              grift::CastMode Mode, Tracer &T,
                                              uint32_t Id, CellLayers &L,
                                              std::string &Errors);

/// compilePhases followed by Grift::adopt, all under one "compile" span
/// (adopt under its own); \p Ms receives the time of the whole compile.
std::optional<grift::Executable>
compileTimed(grift::Grift &G, const std::string &Source, grift::CastMode Mode,
             Tracer &T, uint32_t Id, CellLayers &L, std::string &Errors,
             double &Ms);

/// Records one run of a cell compiled into \p Prog: the counters and code
/// size of the first run, the GC pauses of every run, and with \p Traced
/// the run time. A run whose counters differ from the first run's marks
/// the cell unstable. \p NodesCompiled and \p NodesRun are the engine's
/// coercion nodes after compile and after the run.
void recordRun(CellLayers &L, const grift::VMProgram &Prog,
               const grift::RunResult &R, double RunMs, size_t NodesCompiled,
               size_t NodesRun, bool Traced);

/// What the reference prints and returns for one program and input.
struct Reference {
  std::string Output;
  std::string Result;
};

/// Runs the Appendix-B interpreter (refinterp) on \p Source at \p Input,
/// on an engine shared with nothing under measurement; exits through
/// fatal() when \p Name does not compile or run there.
Reference reference(const std::string &Name, const std::string &Source,
                    const std::string &Input);

/// The outcome every workload hands back to main.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Hash of every deterministic counter, in cell order: two runs with
  /// the same seed must print the same digest.
  uint64_t CounterDigest = 0;
  Report Metrics;
};

/// FNV-1a, for seeds derived from names and for the counter digest.
inline uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ull;
  return H;
}

/// JSON string literal for \p S (quotes included).
std::string jsonString(const std::string &S);
/// Shortest round-tripping decimal rendering of \p V.
std::string jsonNumber(double V);

/// Peak resident set of this process, MiB.
double selfPeakRssMb();

/// Host-speed normalisation of the end-to-end times. The benchmark runs
/// on a share of a machine whose other tenants slow every core together,
/// by up to ~1.7x for seconds to minutes, so raw times of the same code
/// spread by more than any bound across runs. A fixed reference loop,
/// which uses nothing of the system under test, is timed alongside the
/// measured calls and slows with them, though less: across sets of runs
/// of the same code the VM's run time moved as about the square of the
/// loop's time (perfbench/README.md gives the figures). Each end-to-end
/// time is reported multiplied by hostScale() of the samples taken with
/// it (set-up repeats have their own). The scale depends only on the
/// host, so a change to the system moves the reported time in full; a
/// raw run or compile time is the reported one divided by
/// (ReferenceNominalMs / host.ref_ms)^HostElasticity.
constexpr double ReferenceNominalMs = 2.0;
constexpr double HostElasticity = 2.0;

/// Runs the reference loop once (a byte-code dispatch loop over a 32 KiB
/// table, like the VM's inner loop); returns its wall time in ms.
double referenceLoopMs();

/// (ReferenceNominalMs / the median of \p SamplesMs)^HostElasticity (1 when
/// empty).
double hostScale(const std::vector<double> &SamplesMs);

/// Reads a whole file; false when it cannot be opened.
bool readFile(const std::string &Path, std::string &Out);

/// Seeded xorshift64* generator: the same seed gives the same inputs.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t next() {
    S ^= S >> 12;
    S ^= S << 25;
    S ^= S >> 27;
    return S * 0x2545F4914F6CDD1Dull;
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t S;
};

/// Workload entry points (Batch.cpp, Serve.cpp). Each prints its per-cell
/// or per-class rows to stdout and returns the result line's contents.
Outcome runBatchWorkload(const Options &Opts);
Outcome runServeWorkload(const Options &Opts);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
