//===----------------------------------------------------------------------===//
///
/// \file
/// Differential fuzzing: a type-directed generator produces random
/// well-typed gradual programs (casts only along precision ladders, so
/// every run succeeds), which must then agree — result text and output —
/// across the reference interpreter and the VM in every cast mode.
/// Programs are generated as *source text* so the reader, parser, and
/// checker are fuzzed along with the back ends.
///
/// Iteration counts honour GRIFT_FUZZ_ITERS; every failure message
/// carries the generator seed and the full program so it can be replayed
/// standalone.
///
//===----------------------------------------------------------------------===//
#include "frontend/Parser.h"
#include "fuzz/FuzzGen.h"
#include "grift/Grift.h"
#include "refinterp/RefInterp.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <iterator>

using namespace grift;
using grift::fuzz::ProgramGen;

namespace {

struct EngineResult {
  bool OK = false;
  std::string Text; // result + output, or the error
};

/// Replay context appended to every assertion: seed first, so a failing
/// run can be reproduced without scraping the program text.
std::string replay(uint64_t Seed, const std::string &Source) {
  return "\nseed: " + std::to_string(Seed) + "\nprogram:\n" + Source;
}

} // namespace

class FuzzDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FuzzDifferential, AllEnginesAgree) {
  const unsigned Iters = fuzz::iterationCount(60);
  for (unsigned Iter = 0; Iter != Iters; ++Iter) {
    Grift G;
    const uint64_t Seed = 0xF0220 + GetParam() * 10007 + Iter;
    RNG Gen(Seed);
    ProgramGen PG(G.types(), Gen);
    std::string Source = PG.program();
    const std::string Ctx = replay(Seed, Source);

    std::string Errors;
    auto Ast = G.parse(Source, Errors);
    ASSERT_TRUE(Ast.has_value()) << Errors << Ctx;
    auto Core = G.check(*Ast, Errors);
    ASSERT_TRUE(Core.has_value()) << Errors << Ctx;

    auto runVM = [&](CastMode Mode, bool Optimize = false) -> EngineResult {
      auto Exe = G.compileAst(*Ast, Mode, Errors, Optimize);
      EXPECT_TRUE(Exe.has_value()) << Errors << Ctx;
      if (!Exe)
        return {};
      RunResult R = Exe->run();
      if (!R.OK)
        return {false, R.Error.str()};
      return {true, R.ResultText + "|" + R.Output};
    };

    refinterp::RefResult Ref =
        refinterp::interpret(G.types(), G.coercions(), *Core);
    EngineResult RefR{Ref.OK, Ref.OK ? Ref.ResultText + "|" + Ref.Output
                                     : Ref.Message};
    // Generated programs only cast along precision ladders: the
    // reference interpreter and every gradual backend in the registry
    // must succeed and agree exactly.
    EXPECT_TRUE(RefR.OK) << RefR.Text << Ctx;
    for (CastMode Mode : GradualCastModes) {
      EngineResult R = runVM(Mode);
      EXPECT_TRUE(R.OK) << castModeName(Mode) << ": " << R.Text << Ctx;
      EXPECT_EQ(R.Text, RefR.Text) << castModeName(Mode) << Ctx;
    }
    EngineResult Optimized = runVM(CastMode::Coercions, /*Optimize=*/true);
    EXPECT_TRUE(Optimized.OK) << Optimized.Text << Ctx;
    EXPECT_EQ(Optimized.Text, RefR.Text) << Ctx;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, FuzzDifferential,
                         ::testing::Range(0, 8));

//===----------------------------------------------------------------------===//
// Float-biased differential fuzzing: the same N-way agreement check,
// but with the generator skewed toward Float expressions seeded with
// IEEE edge values (signed zeros, exponent extremes, fl/-produced NaN
// and infinities). Every double bit pattern must survive the NaN-boxed
// representation — arithmetic, comparisons, Dyn round trips, printing —
// identically in the reference interpreter and the VM.
//===----------------------------------------------------------------------===//

class FuzzFloatDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FuzzFloatDifferential, AllEnginesAgreeOnFloatPrograms) {
  const unsigned Iters = fuzz::iterationCount(60);
  for (unsigned Iter = 0; Iter != Iters; ++Iter) {
    Grift G;
    const uint64_t Seed = 0xF10A7 + GetParam() * 10007 + Iter;
    RNG Gen(Seed);
    ProgramGen PG(G.types(), Gen, /*FloatBias=*/true);
    std::string Source = PG.program();
    const std::string Ctx = replay(Seed, Source);

    std::string Errors;
    auto Ast = G.parse(Source, Errors);
    ASSERT_TRUE(Ast.has_value()) << Errors << Ctx;
    auto Core = G.check(*Ast, Errors);
    ASSERT_TRUE(Core.has_value()) << Errors << Ctx;

    auto runVM = [&](CastMode Mode, bool Optimize = false) -> EngineResult {
      auto Exe = G.compileAst(*Ast, Mode, Errors, Optimize);
      EXPECT_TRUE(Exe.has_value()) << Errors << Ctx;
      if (!Exe)
        return {};
      RunResult R = Exe->run();
      if (!R.OK)
        return {false, R.Error.str()};
      return {true, R.ResultText + "|" + R.Output};
    };

    refinterp::RefResult Ref =
        refinterp::interpret(G.types(), G.coercions(), *Core);
    EngineResult RefR{Ref.OK, Ref.OK ? Ref.ResultText + "|" + Ref.Output
                                     : Ref.Message};
    EXPECT_TRUE(RefR.OK) << RefR.Text << Ctx;
    for (CastMode Mode : GradualCastModes) {
      EngineResult R = runVM(Mode);
      EXPECT_TRUE(R.OK) << castModeName(Mode) << ": " << R.Text << Ctx;
      EXPECT_EQ(R.Text, RefR.Text) << castModeName(Mode) << Ctx;
    }
    EngineResult Optimized = runVM(CastMode::Coercions, /*Optimize=*/true);
    EXPECT_TRUE(Optimized.OK) << Optimized.Text << Ctx;
    EXPECT_EQ(Optimized.Text, RefR.Text) << Ctx;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, FuzzFloatDifferential,
                         ::testing::Range(0, 8));

//===----------------------------------------------------------------------===//
// Differential execution under resource budgets: 8 seeds x 70 iterations
// = 560 generated programs, each run on the coercions VM, the type-based
// VM, and the reference interpreter with finite limits. Either every
// engine completes and agrees exactly, or every engine fails with the
// same ErrorKind — a budget must never change a program's meaning, and
// exhaustion must never crash.
//===----------------------------------------------------------------------===//

namespace {

struct Outcome {
  bool OK = false;
  std::string Text;
  ErrorKind Kind = ErrorKind::Trap;
};

} // namespace

class FuzzLimited : public ::testing::TestWithParam<int> {};

TEST_P(FuzzLimited, EnginesAgreeUnderResourceBudgets) {
  RunLimits Limits;
  Limits.MaxSteps = 2000000; // generous: generated programs are small
  Limits.MaxFrames = 5000;   // inside the refinterp's native-stack cap
  Limits.MaxHeapBytes = 256u << 20;

  const unsigned Iters = fuzz::iterationCount(70);
  for (unsigned Iter = 0; Iter != Iters; ++Iter) {
    Grift G;
    const uint64_t Seed = 0xB0D9E7 + GetParam() * 7919 + Iter;
    RNG Gen(Seed);
    ProgramGen PG(G.types(), Gen);
    std::string Source = PG.program();
    const std::string Ctx = replay(Seed, Source);

    std::string Errors;
    auto Ast = G.parse(Source, Errors);
    ASSERT_TRUE(Ast.has_value()) << Errors << Ctx;
    auto Core = G.check(*Ast, Errors);
    ASSERT_TRUE(Core.has_value()) << Errors << Ctx;

    auto runVM = [&](CastMode Mode) -> Outcome {
      auto Exe = G.compileAst(*Ast, Mode, Errors);
      EXPECT_TRUE(Exe.has_value()) << Errors << Ctx;
      if (!Exe)
        return {};
      RunResult R = Exe->run("", Limits);
      if (!R.OK)
        return {false, R.Error.str(), R.Error.Kind};
      return {true, R.ResultText + "|" + R.Output, ErrorKind::Trap};
    };

    refinterp::RefResult Ref =
        refinterp::interpret(G.types(), G.coercions(), *Core, "", Limits);
    Outcome RefR{Ref.OK, Ref.OK ? Ref.ResultText + "|" + Ref.Output
                                : Ref.Message,
                 Ref.Kind};
    Outcome Coerce = runVM(CastMode::Coercions);
    Outcome TB = runVM(CastMode::TypeBased);

    if (RefR.OK && Coerce.OK && TB.OK) {
      EXPECT_EQ(Coerce.Text, RefR.Text) << Ctx;
      EXPECT_EQ(Coerce.Text, TB.Text) << Ctx;
    } else {
      // Budgets are far above what any generated program needs, so a
      // failure must be unanimous and of one kind to be believable.
      EXPECT_FALSE(RefR.OK) << RefR.Text << Ctx;
      EXPECT_FALSE(Coerce.OK) << Coerce.Text << Ctx;
      EXPECT_FALSE(TB.OK) << TB.Text << Ctx;
      EXPECT_EQ(Coerce.Kind, RefR.Kind)
          << Coerce.Text << " vs " << RefR.Text << Ctx;
      EXPECT_EQ(Coerce.Kind, TB.Kind)
          << Coerce.Text << " vs " << TB.Text << Ctx;
    }
  }
}

TEST_P(FuzzLimited, TinyFuelFailsGracefullyAndEngineStaysUsable) {
  // Starve every engine: each run either completes inside the budget or
  // reports resource exhaustion — never a trap, blame, or crash. The
  // same executable must then complete untouched with the budget lifted.
  RunLimits Tiny;
  Tiny.MaxSteps = 100;
  Tiny.MaxFrames = 16;

  const unsigned Iters = fuzz::iterationCount(20);
  for (unsigned Iter = 0; Iter != Iters; ++Iter) {
    Grift G;
    const uint64_t Seed = 0x7E4B1 + GetParam() * 104729 + Iter;
    RNG Gen(Seed);
    ProgramGen PG(G.types(), Gen);
    std::string Source = PG.program();
    const std::string Ctx = replay(Seed, Source);

    std::string Errors;
    auto Exe = G.compile(Source, CastMode::Coercions, Errors);
    ASSERT_TRUE(Exe.has_value()) << Errors << Ctx;

    RunResult Starved = Exe->run("", Tiny);
    if (!Starved.OK)
      EXPECT_TRUE(Starved.Error.isResourceExhaustion())
          << Starved.Error.str() << Ctx;

    RunResult Full = Exe->run();
    EXPECT_TRUE(Full.OK) << Full.Error.str() << Ctx;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, FuzzLimited, ::testing::Range(0, 8));

//===----------------------------------------------------------------------===//
// Reader robustness: trivia and bracket style never change the program
//===----------------------------------------------------------------------===//

namespace {

/// Rewrites \p Source with random trivia at its whitespace: line
/// comments, nested block comments and extra newlines, and with `[]` in
/// place of some `()` pairs. Character literals are copied untouched.
std::string addTrivia(const std::string &Source, RNG &Gen) {
  static const char *Trivia[] = {" ; note ( ] |#\n", " #| a #| (b] |# c |# ",
                                 "\n\n", "\t;\n  ", " #||# "};
  std::string Out;
  std::vector<size_t> Open; // positions in Out of unmatched '('
  for (size_t I = 0; I != Source.size(); ++I) {
    char C = Source[I];
    if (C == '#' && I + 1 < Source.size() && Source[I + 1] == '\\') {
      Out += Source.substr(I, 3); // `#\x`; longer names hold no parens
      I += 2;
      continue;
    }
    if (C == ' ' && Gen.flip(0.3)) {
      Out += Trivia[Gen.below(std::size(Trivia))];
      continue;
    }
    if (C == '(') {
      Open.push_back(Out.size());
    } else if (C == ')' && !Open.empty()) {
      size_t At = Open.back();
      Open.pop_back();
      if (Gen.flip(0.5)) {
        Out[At] = '[';
        C = ']';
      }
    }
    Out += C;
  }
  return Out;
}

} // namespace

TEST(FuzzReader, TriviaAndBracketsLeaveTheProgramUnchanged) {
  const unsigned Iters = fuzz::iterationCount(200);
  fuzz::GenOptions Opts;
  Opts.Structural = true;
  for (unsigned Iter = 0; Iter != Iters; ++Iter) {
    const uint64_t Seed = 0x7E1A + Iter;
    TypeContext Types;
    RNG Gen(Seed);
    std::string Source = ProgramGen(Types, Gen, Opts).program();
    std::string Noisy = addTrivia(Source, Gen);
    DiagnosticEngine Diags;
    std::optional<Program> Plain = parseProgram(Types, Source, Diags);
    ASSERT_TRUE(Plain.has_value()) << Diags.str() << replay(Seed, Source);
    std::optional<Program> Read = parseProgram(Types, Noisy, Diags);
    ASSERT_TRUE(Read.has_value()) << Diags.str() << replay(Seed, Noisy);
    EXPECT_EQ(Read->str(), Plain->str()) << replay(Seed, Noisy);
  }
}
