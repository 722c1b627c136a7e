#include "Common.h"

#include "refinterp/RefInterp.h"
#include "vm/Compiler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

using namespace perfbench;

void perfbench::fatal(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

double perfbench::median(std::vector<double> V) { return quantile(V, 0.5); }

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  if (std::isinf(V[Hi]) && Frac == 0)
    return V[Lo];
  if (std::isinf(V[Hi]))
    return V[Hi];
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1e-9));
  return std::exp(LogSum / static_cast<double>(V.size()));
}

int32_t Tracer::open(const char *Name, uint32_t Id, int64_t Start) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Start = Start;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Id = Id;
  Spans.push_back(std::move(S));
  int32_t Index = static_cast<int32_t>(Spans.size() - 1);
  Stack.push_back(Index);
  return Index;
}

void Tracer::close(int32_t Index, int64_t End) {
  if (Index < 0)
    return;
  Spans[static_cast<size_t>(Index)].End = End;
  // Spans nest strictly (RAII), so the closing span is the innermost.
  if (!Stack.empty() && Stack.back() == Index)
    Stack.pop_back();
}

std::map<std::string, double> Tracer::selfMs() const {
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[static_cast<size_t>(S.Parent)] += S.End - S.Start;
  std::map<std::string, double> Out;
  for (size_t I = 0; I != Spans.size(); ++I)
    Out[Spans[I].Name] +=
        static_cast<double>(Spans[I].End - Spans[I].Start - ChildNs[I]) /
        1e6;
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  int64_t Origin = Spans.empty() ? 0 : Spans.front().Start;
  for (const Span &S : Spans)
    Out << "{\"name\":" << jsonString(S.Name) << ",\"start_ns\":"
        << S.Start - Origin << ",\"end_ns\":" << S.End - Origin
        << ",\"parent\":" << S.Parent << ",\"id\":" << S.Id << "}\n";
  return static_cast<bool>(Out);
}

void Report::add(const std::string &Name, double Value,
                 const std::string &Unit) {
  for (Entry &E : Entries)
    if (E.Name == Name) {
      E.Value = Value;
      E.Unit = Unit;
      return;
    }
  Entries.push_back({Name, Value, Unit});
}

double Report::get(const std::string &Name) const {
  for (const Entry &E : Entries)
    if (E.Name == Name)
      return E.Value;
  return 0;
}

std::string Report::json() const {
  std::string Out = "{";
  for (size_t I = 0; I != Entries.size(); ++I) {
    if (I)
      Out += ", ";
    Out += jsonString(Entries[I].Name) + ": {\"value\": " +
           jsonNumber(Entries[I].Value) +
           ", \"unit\": " + jsonString(Entries[I].Unit) + "}";
  }
  return Out + "}";
}

std::string perfbench::jsonString(const std::string &S) {
  std::string Out = "\"";
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (C < 0x20 || C == 0x7f) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out + "\"";
}

std::string perfbench::jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

double perfbench::selfPeakRssMb() {
  struct rusage U{};
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

namespace {
/// Keeps the reference loop's result live.
volatile int64_t ReferenceSink;
} // namespace

double perfbench::referenceLoopMs() {
  static std::vector<int64_t> Table(4096);
  static const uint8_t Code[] = {0, 1, 2, 3, 1, 0, 2, 4, 3, 1, 0, 2, 5};
  int64_t Acc = 1;
  const int64_t Start = nowNs();
  for (int64_t It = 0; It != 50000; ++It)
    for (uint8_t Op : Code)
      switch (Op) {
      case 0: Acc = Acc * 3 + 1; break;
      case 1: Table[Acc & 4095] += Acc; break;
      case 2: Acc ^= Table[(Acc >> 3) & 4095]; break;
      case 3: Acc = Acc & 1 ? Acc >> 1 : Acc + 7; break;
      case 4: Acc += It; break;
      default: Acc -= Table[It & 4095]; break;
      }
  ReferenceSink = Acc;
  return static_cast<double>(nowNs() - Start) / 1e6;
}

double perfbench::hostScale(const std::vector<double> &SamplesMs) {
  double Ms = median(SamplesMs);
  return Ms > 0 ? std::pow(ReferenceNominalMs / Ms, HostElasticity) : 1;
}

std::optional<grift::VMProgram>
perfbench::compilePhases(grift::Grift &G, const std::string &Source,
                         grift::CastMode Mode, Tracer &T, uint32_t Id,
                         CellLayers &L, std::string &Errors) {
  double ParseMs = 0, CheckMs = 0, CodegenMs = 0;
  std::optional<grift::Program> Ast;
  {
    Timed S(T, "parse", Id);
    Ast = G.parse(Source, Errors);
    ParseMs = S.stop();
  }
  std::optional<grift::core::CoreProgram> Core;
  if (Ast) {
    Timed S(T, "check", Id);
    Core = G.check(*Ast, Errors);
    CheckMs = S.stop();
  }
  std::optional<grift::VMProgram> Prog;
  if (Core) {
    Timed S(T, "codegen", Id);
    Prog = grift::compileProgram(*Core, G.types(), G.coercions(), Mode,
                                 Errors);
    CodegenMs = S.stop();
  }
  if (Prog && T.enabled()) {
    L.SourceBytes = Source.size();
    L.ParseMs.push_back(ParseMs);
    L.CheckMs.push_back(CheckMs);
    L.CodegenMs.push_back(CodegenMs);
  }
  return Prog;
}

std::optional<grift::Executable>
perfbench::compileTimed(grift::Grift &G, const std::string &Source,
                        grift::CastMode Mode, Tracer &T, uint32_t Id,
                        CellLayers &L, std::string &Errors, double &Ms) {
  std::optional<grift::Executable> Exe;
  Timed Compile(T, "compile", Id);
  std::optional<grift::VMProgram> Prog =
      compilePhases(G, Source, Mode, T, Id, L, Errors);
  if (Prog) {
    Timed S(T, "adopt", Id);
    Exe.emplace(G.adopt(std::move(*Prog)));
  }
  Ms = Compile.stop();
  return Exe;
}

std::string Counters::str() const {
  std::string S;
  for (uint64_t N : {Steps, Casts, Compositions, LongestChain, MaxRetCasts,
                     Proxies, IcHits, IcMisses, AllocBytes, AllocObjects,
                     MinorGCs, MajorGCs, NodesCompiled, NodesRun})
    S += std::to_string(N) + " ";
  return S;
}

void perfbench::recordRun(CellLayers &L, const grift::VMProgram &Prog,
                          const grift::RunResult &R, double RunMs,
                          size_t NodesCompiled, size_t NodesRun, bool Traced) {
  const grift::RuntimeStats &St = R.Stats;
  Counters K;
  K.Steps = R.Steps;
  K.Casts = St.CastsApplied;
  K.Compositions = St.Compositions;
  K.LongestChain = St.LongestProxyChain;
  K.MaxRetCasts = St.MaxRetCastsPerFrame;
  K.Proxies = St.ProxiesAllocated;
  K.IcHits = St.CacheHits;
  K.IcMisses = St.CacheMisses;
  K.AllocBytes = St.AllocBytes;
  K.AllocObjects = St.allocObjects();
  K.MinorGCs = St.MinorCollections;
  K.MajorGCs = St.Collections;
  K.NodesCompiled = NodesCompiled;
  K.NodesRun = NodesRun;
  if (L.First) {
    L.Unstable |= !(*L.First == K);
  } else {
    L.First = K;
    L.Stats = R.Stats;
    L.Steps = R.Steps;
    L.PeakHeapBytes = R.PeakHeapBytes;
    for (const grift::VMFunction &F : Prog.Functions)
      L.CodeSize += F.Code.size();
    L.CastSites = Prog.Casts.size() + Prog.Sites.size();
    L.Nodes = NodesRun;
  }
  L.PauseMs.push_back(static_cast<double>(R.Stats.GCPauseTotalNs) / 1e6);
  L.PauseMaxMs = std::max(L.PauseMaxMs,
                          static_cast<double>(R.Stats.GCPauseMaxNs) / 1e6);
  if (Traced)
    L.RunMs.push_back(RunMs);
}

void perfbench::addLayerMetrics(const std::vector<const CellLayers *> &Cells,
                                Report &M) {
  std::vector<double> Parse, Check, Codegen, Run;
  double SourceKb = 0, FrontendS = 0, RunNs = 0, PauseMs = 0, RunMs = 0,
         PauseMax = 0;
  uint64_t Steps = 0, CodeSize = 0, CastSites = 0, Nodes = 0;
  uint64_t Casts = 0, Compositions = 0, LongestChain = 0, MaxRet = 0,
           Proxies = 0, IcHits = 0, IcMisses = 0;
  uint64_t AllocBytes = 0, AllocObjects = 0, Minor = 0, Major = 0,
           Promoted = 0, RemSet = 0, PeakHeap = 0;
  for (const CellLayers *L : Cells) {
    if (!L->First)
      continue;
    if (!L->ParseMs.empty()) {
      Parse.push_back(median(L->ParseMs));
      Check.push_back(median(L->CheckMs));
      Codegen.push_back(median(L->CodegenMs));
      SourceKb += static_cast<double>(L->SourceBytes) / 1024.0;
      FrontendS += (median(L->ParseMs) + median(L->CheckMs)) / 1e3;
    }
    if (!L->RunMs.empty()) {
      Run.push_back(median(L->RunMs));
      RunNs += median(L->RunMs) * 1e6;
      RunMs += median(L->RunMs);
      PauseMs += median(L->PauseMs);
    }
    const grift::RuntimeStats &S = L->Stats;
    Steps += L->Steps;
    CodeSize += L->CodeSize;
    CastSites += L->CastSites;
    Nodes += L->Nodes;
    Casts += S.CastsApplied;
    Compositions += S.Compositions;
    LongestChain = std::max(LongestChain, S.LongestProxyChain);
    MaxRet = std::max(MaxRet, S.MaxRetCastsPerFrame);
    Proxies += S.ProxiesAllocated;
    IcHits += S.CacheHits;
    IcMisses += S.CacheMisses;
    AllocBytes += S.AllocBytes;
    AllocObjects += S.allocObjects();
    Minor += S.MinorCollections;
    Major += S.Collections;
    Promoted += S.PromotedBytes;
    RemSet = std::max(RemSet, S.RememberedSetPeak);
    PeakHeap = std::max<uint64_t>(PeakHeap, L->PeakHeapBytes);
    PauseMax = std::max(PauseMax, L->PauseMaxMs);
  }
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0; };
  auto Count = [](uint64_t N) { return static_cast<double>(N); };
  const double MiB = 1024.0 * 1024.0;
  M.add("frontend.parse_ms", geomean(Parse), "ms");
  M.add("frontend.check_ms", geomean(Check), "ms");
  M.add("frontend.kb_per_s", Ratio(SourceKb, FrontendS), "KiB/s");
  M.add("vm.codegen_ms", geomean(Codegen), "ms");
  M.add("vm.code_size", Count(CodeSize), "count");
  M.add("vm.cast_sites", Count(CastSites), "count");
  M.add("coercions.nodes", Count(Nodes), "count");
  M.add("vm.run_ms", geomean(Run), "ms");
  M.add("vm.steps", Count(Steps), "count");
  M.add("vm.ns_per_step", Ratio(RunNs, Count(Steps)), "ns");
  M.add("casts.applied", Count(Casts), "count");
  M.add("casts.compositions", Count(Compositions), "count");
  M.add("casts.longest_chain", Count(LongestChain), "count");
  M.add("casts.max_ret_casts", Count(MaxRet), "count");
  M.add("casts.proxies", Count(Proxies), "count");
  M.add("casts.ic_hits", Count(IcHits), "count");
  M.add("casts.ic_misses", Count(IcMisses), "count");
  M.add("casts.ic_hit_rate", Ratio(Count(IcHits), Count(IcHits + IcMisses)),
        "fraction");
  M.add("heap.alloc_mb", Count(AllocBytes) / MiB, "MiB");
  M.add("heap.alloc_objects", Count(AllocObjects), "count");
  M.add("heap.minor_gcs", Count(Minor), "count");
  M.add("heap.major_gcs", Count(Major), "count");
  M.add("heap.gc_pause_ms", PauseMs, "ms");
  M.add("heap.gc_pause_max_ms", PauseMax, "ms");
  M.add("heap.gc_share", Ratio(PauseMs, RunMs), "fraction");
  M.add("heap.promoted_mb", Count(Promoted) / MiB, "MiB");
  M.add("heap.survival_rate", Ratio(Count(Promoted), Count(AllocBytes)),
        "fraction");
  M.add("heap.remembered_set_peak", Count(RemSet), "count");
  M.add("heap.peak_mb", Count(PeakHeap) / MiB, "MiB");
}

Reference perfbench::reference(const std::string &Name,
                               const std::string &Source,
                               const std::string &Input) {
  grift::Grift G;
  std::string Errors;
  std::optional<grift::Program> Ast = G.parse(Source, Errors);
  std::optional<grift::core::CoreProgram> Core;
  if (Ast)
    Core = G.check(*Ast, Errors);
  if (!Core)
    fatal("reference compile failed for " + Name + ": " + Errors);
  grift::refinterp::RefResult R =
      grift::refinterp::interpret(G.types(), G.coercions(), *Core, Input);
  if (!R.OK)
    fatal("reference run failed for " + Name + " (" + Input +
          "): " + R.Message);
  return {R.Output, R.ResultText};
}

bool perfbench::readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}
