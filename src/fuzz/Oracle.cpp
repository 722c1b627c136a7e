#include "fuzz/Oracle.h"

#include "fuzz/FuzzGen.h"
#include "grift/Grift.h"
#include "lattice/Lattice.h"
#include "refinterp/RefInterp.h"

#include <vector>

using namespace grift;
using namespace grift::fuzz;

OracleOptions::OracleOptions() {
  Limits.MaxSteps = 20000000;
  Limits.MaxFrames = 4000; // inside the refinterp's native-stack cap
  Limits.MaxWallNanos = 20ll * 1000000000;
}

namespace {

/// An execution engine in the differential set: the reference
/// interpreter (the oracle), or the VM under one registered cast
/// backend. Engines are derived from the shared mode registry
/// (AllCastModes / GradualCastModes in runtime/Mode.h), so registering
/// a new backend automatically enrolls it in every oracle — the suites
/// are N-way, not hard-coded 4-way.
struct Engine {
  bool IsRef = false;
  bool NoNursery = false; ///< run the VM with the nursery disabled
  CastMode Mode = CastMode::Coercions; // meaningful when !IsRef
};

constexpr Engine RefEngine{true, false, CastMode::Coercions};
constexpr Engine vmEngine(CastMode Mode) { return {false, false, Mode}; }
constexpr Engine vmEngineNoNursery(CastMode Mode) {
  return {false, true, Mode};
}

std::string engineName(Engine E) {
  if (E.IsRef)
    return "refinterp";
  std::string Name = std::string("vm/") + castModeName(E.Mode);
  if (E.NoNursery)
    Name += "/nonursery";
  return Name;
}

/// Every gradual VM backend — twice when the GC differential is on: the
/// generational and the pre-generational collector must be
/// observationally identical, so the nursery-off twin joins the N-way
/// agreement set as one more engine.
std::vector<Engine> vmEngines(const OracleOptions &Opts) {
  std::vector<Engine> Engines;
  Engines.reserve(2 * NumGradualCastModes);
  for (CastMode Mode : GradualCastModes) {
    Engines.push_back(vmEngine(Mode));
    if (Opts.GCDifferential)
      Engines.push_back(vmEngineNoNursery(Mode));
  }
  return Engines;
}

/// The engines every gradually typed configuration must agree across:
/// the reference interpreter plus every gradual VM backend (and its
/// nursery-off twin under --gc-differential).
std::vector<Engine> dynamicEngines(const OracleOptions &Opts) {
  std::vector<Engine> Engines = vmEngines(Opts);
  Engines.insert(Engines.begin(), RefEngine);
  return Engines;
}

struct Outcome {
  bool Compiled = false;
  bool OK = false;
  std::string Text; ///< "result|output" when OK
  ErrorKind Kind = ErrorKind::Trap;
  std::string Label;
  std::string Message;

  /// Comparison key. Error *messages* legitimately differ between the
  /// coercion and type-based runtimes; the observable contract is the
  /// success text or the (kind, blame label) pair.
  std::string canonical() const {
    if (!Compiled)
      return "compile-error";
    if (OK)
      return "ok: " + Text;
    if (Kind == ErrorKind::Blame)
      return "blame@" + Label;
    return std::string("error: ") + errorKindName(Kind);
  }
};

Outcome runEngine(Grift &G, const Program &Ast, Engine E,
                  const OracleOptions &Opts) {
  std::string Errors;
  Outcome O;
  if (E.IsRef) {
    auto Core = G.check(Ast, Errors);
    if (!Core) {
      O.Message = Errors;
      return O;
    }
    refinterp::RefResult R = refinterp::interpret(G.types(), G.coercions(),
                                                  *Core, "", Opts.Limits);
    O.Compiled = true;
    O.OK = R.OK;
    if (R.OK)
      O.Text = R.ResultText + "|" + R.Output;
    O.Kind = R.Kind;
    O.Label = R.Label;
    O.Message = R.Message;
    return O;
  }
  auto Exe = G.compileAst(Ast, E.Mode, Errors);
  if (!Exe) {
    O.Message = Errors;
    return O;
  }
  RunLimits Limits = Opts.Limits;
  if (E.NoNursery)
    Limits.GCNurseryBytes = 0;
  // A fresh injector per run keeps torture schedules deterministic and
  // independent across the N engines.
  FaultInjector Injector;
  Injector.GCTorturePeriod = Opts.GCTorturePeriod;
  Injector.MinorGCTorturePeriod = Opts.MinorGCTorturePeriod;
  bool Tortured = Opts.GCTorturePeriod || Opts.MinorGCTorturePeriod;
  RunResult R = Exe->run("", Limits, Tortured ? &Injector : nullptr);
  O.Compiled = true;
  O.OK = R.OK;
  if (R.OK)
    O.Text = R.ResultText + "|" + R.Output;
  O.Kind = R.Error.Kind;
  O.Label = R.Error.Label;
  O.Message = R.Error.Message;
  return O;
}

std::string describe(Engine E, const Outcome &O) {
  std::string Out = std::string(engineName(E)) + ": " + O.canonical();
  if (!O.Message.empty() && !O.OK)
    Out += " (" + O.Message + ")";
  return Out;
}

/// All sampled configurations of \p Ast: fine-grained precision bins
/// plus the module-level (coarse) lattice.
std::vector<Configuration> sampleConfigs(const Program &Ast, Grift &G,
                                         const OracleOptions &Opts,
                                         uint64_t SampleSeed) {
  std::vector<Configuration> Configs =
      sampleFineGrained(Ast, G.types(), Opts.Bins, Opts.PerBin, SampleSeed);
  std::vector<Configuration> Coarse = coarseConfigs(
      Ast, G.types(), Opts.CoarseMax, SampleSeed ^ 0x51ED270C0A5E5EEDull);
  for (Configuration &C : Coarse)
    Configs.push_back(std::move(C));
  return Configs;
}

/// Finds the Ascribe node whose source location is \p Site.
Expr *findAscribeAt(Expr &E, const std::string &Site) {
  if (E.Kind == ExprKind::Ascribe && E.Loc.str() == Site)
    return &E;
  for (Binding &B : E.Bindings)
    if (Expr *Found = findAscribeAt(*B.Init, Site))
      return Found;
  for (Expr *Sub : E.SubExprs)
    if (Expr *Found = findAscribeAt(*Sub, Site))
      return Found;
  return nullptr;
}

Expr *findAscribeAt(Program &Prog, const std::string &Site) {
  for (Define &D : Prog.Defines)
    if (Expr *Found = findAscribeAt(*D.Body, Site))
      return Found;
  return nullptr;
}

OracleFailure makeFailure(OracleKind Oracle, RecheckKind Recheck,
                          uint64_t Seed, uint64_t SampleSeed,
                          std::string Source, std::string Baseline,
                          std::string What, std::string Expected,
                          std::string Actual) {
  OracleFailure F;
  F.Oracle = Oracle;
  F.Recheck = Recheck;
  F.Seed = Seed;
  F.SampleSeed = SampleSeed;
  F.Source = std::move(Source);
  F.Baseline = std::move(Baseline);
  F.What = std::move(What);
  F.Expected = std::move(Expected);
  F.Actual = std::move(Actual);
  return F;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lattice gradual-guarantee oracle
//===----------------------------------------------------------------------===//

std::optional<OracleFailure> grift::fuzz::checkLattice(
    uint64_t Seed, const OracleOptions &Opts) {
  Grift G;
  RNG Gen(Seed);
  GenOptions GO;
  GO.Structural = true;
  GO.AllowDyn = false; // fully typed: a valid lattice top, Static-compatible
  GO.FloatBias = Gen.flip(0.25);
  ProgramGen PG(G.types(), Gen, GO);
  std::string Source = PG.program();
  uint64_t SampleSeed = Gen.next();

  std::string Errors;
  auto Ast = G.parse(Source, Errors);
  if (!Ast)
    return makeFailure(OracleKind::Lattice, RecheckKind::EnginesDisagree,
                       Seed, SampleSeed, Source, Source,
                       "generator emitted an unparseable program",
                       "parse success", Errors);

  // The fully typed top element: reference interpreter, every gradual
  // VM mode, and — uniquely here — static mode must all agree.
  Outcome Base = runEngine(G, *Ast, RefEngine, Opts);
  if (!Base.Compiled || !Base.OK)
    return makeFailure(OracleKind::Lattice, RecheckKind::EnginesDisagree,
                       Seed, SampleSeed, Source, Source,
                       "fully typed program failed on the reference "
                       "interpreter (generator contract: it never fails)",
                       "ok", describe(RefEngine, Base));
  std::vector<Engine> TopEngines;
  for (CastMode Mode : AllCastModes) {
    TopEngines.push_back(vmEngine(Mode));
    if (Opts.GCDifferential)
      TopEngines.push_back(vmEngineNoNursery(Mode));
  }
  for (Engine E : TopEngines) {
    Outcome O = runEngine(G, *Ast, E, Opts);
    if (O.canonical() != Base.canonical())
      return makeFailure(OracleKind::Lattice, RecheckKind::EnginesDisagree,
                         Seed, SampleSeed, Source, Source,
                         std::string("fully typed program: ") +
                             engineName(E) + " disagrees with refinterp",
                         describe(RefEngine, Base), describe(E, O));
  }

  // Every sampled configuration must produce the identical answer in
  // every engine — the dynamic gradual guarantee for programs that
  // cannot fail.
  for (const Configuration &C : sampleConfigs(*Ast, G, Opts, SampleSeed)) {
    Outcome Ref = runEngine(G, C.Prog, RefEngine, Opts);
    for (Engine E : vmEngines(Opts)) {
      Outcome O = runEngine(G, C.Prog, E, Opts);
      if (O.canonical() != Ref.canonical())
        return makeFailure(
            OracleKind::Lattice, RecheckKind::EnginesDisagree, Seed,
            SampleSeed, C.Prog.str(), Source,
            std::string("configuration (precision ") +
                std::to_string(C.Precision) + "): " + engineName(E) +
                " disagrees with refinterp",
            describe(RefEngine, Ref), describe(E, O));
    }
    if (Ref.canonical() != Base.canonical())
      return makeFailure(
          OracleKind::Lattice, RecheckKind::LatticeGuarantee, Seed,
          SampleSeed, Source, Source,
          std::string("gradual guarantee violated: configuration "
                      "(precision ") +
              std::to_string(C.Precision) +
              ") changes the program's answer\nconfiguration:\n" +
              C.Prog.str(),
          Base.canonical(), Ref.canonical());
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Blame-differential oracle
//===----------------------------------------------------------------------===//

std::optional<OracleFailure> grift::fuzz::checkBlame(
    uint64_t Seed, const OracleOptions &Opts) {
  Grift G;
  RNG Gen(Seed);
  GenOptions GO;
  GO.Structural = true;
  GO.PlantFailure = true;
  GO.FloatBias = Gen.flip(0.25);
  ProgramGen PG(G.types(), Gen, GO);
  std::string Source = PG.program();
  uint64_t SampleSeed = Gen.next();

  SourceLoc Site = PG.plantedSite();
  if (!Site.isValid())
    return makeFailure(OracleKind::Blame, RecheckKind::BlameContract, Seed,
                       SampleSeed, Source, Source,
                       "generator failed to plant a locatable cast",
                       "one unique planted ascription", "none/ambiguous");
  std::string Predicted = Site.str();

  std::string Errors;
  auto Ast = G.parse(Source, Errors);
  if (!Ast)
    return makeFailure(OracleKind::Blame, RecheckKind::BlameContract, Seed,
                       SampleSeed, Source, Source,
                       "generator emitted an unparseable program",
                       "parse success", Errors);

  // The planted cast sits at a guaranteed-evaluated site: every engine
  // must blame with exactly the predicted line:col label.
  for (Engine E : dynamicEngines(Opts)) {
    Outcome O = runEngine(G, *Ast, E, Opts);
    if (!O.Compiled || O.OK || O.Kind != ErrorKind::Blame ||
        O.Label != Predicted)
      return makeFailure(OracleKind::Blame, RecheckKind::BlameContract, Seed,
                         SampleSeed, Source, Source,
                         std::string(engineName(E)) +
                             " did not report the planted blame",
                         "blame@" + Predicted, describe(E, O));
  }

  // Less-precise configurations either succeed or blame the same site —
  // never a different label, never a different ErrorKind — and every
  // engine agrees on which. That contract only holds if the planted
  // ascription itself keeps its annotation: erasing it would let the
  // ill-typed value escape and get blamed at whatever downstream
  // consumer first re-checks it (legal gradual-typing behaviour, not an
  // engine bug). So the planted slot is pinned: the samplers vary the
  // precision of everything else, and we restore the planted annotation
  // in every configuration before running it.
  const Expr *PlantedNode = findAscribeAt(*Ast, Predicted);
  if (!PlantedNode)
    return makeFailure(OracleKind::Blame, RecheckKind::BlameContract, Seed,
                       SampleSeed, Source, Source,
                       "predicted site does not parse to an ascription",
                       "ascribe node at " + Predicted, "none");
  const Type *PlantedAnnot = PlantedNode->Annot;
  std::vector<Configuration> Configs =
      sampleConfigs(*Ast, G, Opts, SampleSeed);
  for (Configuration &C : Configs)
    if (Expr *Node = findAscribeAt(C.Prog, Predicted))
      Node->Annot = PlantedAnnot;
  for (const Configuration &C : Configs) {
    Outcome Ref = runEngine(G, C.Prog, RefEngine, Opts);
    for (Engine E : vmEngines(Opts)) {
      Outcome O = runEngine(G, C.Prog, E, Opts);
      if (O.canonical() != Ref.canonical())
        return makeFailure(
            OracleKind::Blame, RecheckKind::EnginesDisagree, Seed,
            SampleSeed, C.Prog.str(), Source,
            std::string("configuration (precision ") +
                std::to_string(C.Precision) + "): " + engineName(E) +
                " disagrees with refinterp",
            describe(RefEngine, Ref), describe(E, O));
    }
    bool OKOutcome = Ref.Compiled && Ref.OK;
    bool SameBlame = Ref.Compiled && !Ref.OK &&
                     Ref.Kind == ErrorKind::Blame && Ref.Label == Predicted;
    if (!OKOutcome && !SameBlame)
      return makeFailure(
          OracleKind::Blame, RecheckKind::BlameContract, Seed, SampleSeed,
          C.Prog.str(), Source,
          std::string("configuration (precision ") +
              std::to_string(C.Precision) +
              ") neither succeeds nor blames the planted site",
          "ok, or blame@" + Predicted, describe(RefEngine, Ref));
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Shrinking and artifacts
//===----------------------------------------------------------------------===//

bool grift::fuzz::recheckFails(const OracleFailure &Failure,
                               const std::string &Source,
                               const OracleOptions &Opts) {
  Grift G;
  std::string Errors;
  auto Ast = G.parse(Source, Errors);
  if (!Ast)
    return false;

  std::vector<Outcome> Outcomes;
  for (Engine E : dynamicEngines(Opts))
    Outcomes.push_back(runEngine(G, *Ast, E, Opts));
  size_t N = Outcomes.size();
  // Shrink mutations never introduce Dyn, so a candidate derived from a
  // pure-typed baseline stays Static-compatible; include static mode in
  // the disagreement check whenever it compiles.
  Outcome Static =
      runEngine(G, *Ast, vmEngine(CastMode::Static), Opts);

  auto anyDisagreement = [&] {
    for (size_t I = 1; I != N; ++I)
      if (Outcomes[I].canonical() != Outcomes[0].canonical())
        return true;
    if (Static.Compiled && Static.canonical() != Outcomes[0].canonical())
      return true;
    return false;
  };

  switch (Failure.Recheck) {
  case RecheckKind::EnginesDisagree:
    return anyDisagreement();

  case RecheckKind::LatticeGuarantee: {
    if (anyDisagreement())
      return true; // a sharper failure than the original; keep it
    if (!Outcomes[0].Compiled || !Outcomes[0].OK)
      return false;
    for (const Configuration &C :
         sampleConfigs(*Ast, G, Opts, Failure.SampleSeed)) {
      Outcome Ref = runEngine(G, C.Prog, RefEngine, Opts);
      Outcome Co =
          runEngine(G, C.Prog, vmEngine(CastMode::Coercions), Opts);
      if (Ref.canonical() != Outcomes[0].canonical() ||
          Co.canonical() != Outcomes[0].canonical())
        return true;
    }
    return false;
  }

  case RecheckKind::BlameContract: {
    SourceLoc Site = findPlantedCast(Source);
    if (!Site.isValid())
      return false; // the planted cast was shrunk away: uninteresting
    std::string Predicted = Site.str();
    if (anyDisagreement())
      return true;
    for (size_t I = 0; I != N; ++I) {
      const Outcome &O = Outcomes[I];
      if (!O.Compiled)
        return false;
      if (!O.OK && O.Kind != ErrorKind::Blame)
        return true; // wrong ErrorKind
      if (!O.OK && O.Label != Predicted)
        return true; // wrong blame label
    }
    return false;
  }
  }
  return false;
}

std::string grift::fuzz::shrinkFailure(const OracleFailure &Failure,
                                       const OracleOptions &Opts,
                                       ShrinkStats *Stats) {
  return shrinkSource(
      Failure.Source,
      [&](const std::string &Candidate) {
        return recheckFails(Failure, Candidate, Opts);
      },
      Opts.ShrinkAttempts, Stats);
}

std::string grift::fuzz::reproText(const OracleFailure &Failure,
                                   const std::string &Shrunk) {
  std::string Out;
  Out += "griftfuzz repro\n";
  Out += std::string("oracle: ") + oracleKindName(Failure.Oracle) + "\n";
  Out += "seed: " + std::to_string(Failure.Seed) + "\n";
  Out += "sample-seed: " + std::to_string(Failure.SampleSeed) + "\n";
  Out += "what: " + Failure.What + "\n";
  Out += "expected: " + Failure.Expected + "\n";
  Out += "actual: " + Failure.Actual + "\n";
  Out += std::string("rerun: griftfuzz --oracle=") +
         oracleKindName(Failure.Oracle) +
         " --seed=" + std::to_string(Failure.Seed) + " --iters=1\n";
  Out += "--- fully typed baseline ---\n" + Failure.Baseline;
  if (Failure.Source != Failure.Baseline)
    Out += "--- failing source ---\n" + Failure.Source;
  Out += "--- shrunk repro ---\n" + Shrunk;
  if (!Shrunk.empty() && Shrunk.back() != '\n')
    Out += "\n";
  return Out;
}
