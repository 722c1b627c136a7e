//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the configuration machinery: type erasure (Dynamic Grift),
/// the binned fine-grained sampler, and the coarse per-define lattice.
///
//===----------------------------------------------------------------------===//
#include "grift/Grift.h"
#include "lattice/Lattice.h"

#include <gtest/gtest.h>

using namespace grift;

namespace {

const char *TypedProgram =
    "(define (add [x : Int] [y : Int]) : Int (+ x y))"
    "(define (twice [f : (Int -> Int)] [x : Int]) : Int (f (f x)))"
    "(define v : (Vect Int) (make-vector 4 1))"
    "(print-int (twice (lambda ([k : Int]) : Int (add k 2)) "
    "                  (vector-ref v 0)))";

class LatticeTest : public ::testing::Test {
protected:
  Grift G;

  Program parse(const char *Source) {
    std::string Errors;
    auto Ast = G.parse(Source, Errors);
    EXPECT_TRUE(Ast.has_value()) << Errors;
    return std::move(*Ast);
  }

  std::string runAst(const Program &Ast, CastMode Mode) {
    std::string Errors;
    auto Exe = G.compileAst(Ast, Mode, Errors);
    EXPECT_TRUE(Exe.has_value()) << Errors << "\nprogram:\n" << Ast.str();
    if (!Exe)
      return "<compile error>";
    RunResult R = Exe->run();
    EXPECT_TRUE(R.OK) << R.Error.str() << "\nprogram:\n" << Ast.str();
    return R.OK ? R.Output : "<run error>";
  }
};

} // namespace

TEST_F(LatticeTest, TypedProgramHasFullPrecision) {
  Program Ast = parse(TypedProgram);
  EXPECT_DOUBLE_EQ(programPrecision(Ast), 1.0);
}

TEST_F(LatticeTest, ErasedProgramHasZeroPrecision) {
  Program Ast = parse(TypedProgram);
  Program Erased = eraseTypes(Ast, G.types());
  EXPECT_DOUBLE_EQ(programPrecision(Erased), 0.0);
}

TEST_F(LatticeTest, ErasedProgramRunsIdentically) {
  Program Ast = parse(TypedProgram);
  Program Erased = eraseTypes(Ast, G.types());
  EXPECT_EQ(runAst(Ast, CastMode::Coercions), "5");
  EXPECT_EQ(runAst(Erased, CastMode::Coercions), "5");
  EXPECT_EQ(runAst(Erased, CastMode::TypeBased), "5");
}

TEST_F(LatticeTest, ErasureIsIdempotentOnPrecision) {
  Program Ast = parse(TypedProgram);
  Program Once = eraseTypes(Ast, G.types());
  Program Twice = eraseTypes(Once, G.types());
  EXPECT_DOUBLE_EQ(programPrecision(Twice), 0.0);
  EXPECT_EQ(runAst(Twice, CastMode::Coercions), "5");
}

TEST_F(LatticeTest, SamplerIsDeterministic) {
  Program Ast = parse(TypedProgram);
  auto A = sampleFineGrained(Ast, G.types(), 4, 2, 42);
  auto B = sampleFineGrained(Ast, G.types(), 4, 2, 42);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Prog.str(), B[I].Prog.str());
    EXPECT_DOUBLE_EQ(A[I].Precision, B[I].Precision);
  }
}

TEST_F(LatticeTest, SamplerCoversBins) {
  Program Ast = parse(TypedProgram);
  auto Configs = sampleFineGrained(Ast, G.types(), 4, 3, 7);
  EXPECT_EQ(Configs.size(), 12u);
  // Precisions must spread: at least one below 0.4 and one above 0.6.
  bool Low = false, High = false;
  for (const Configuration &C : Configs) {
    EXPECT_GE(C.Precision, 0.0);
    EXPECT_LE(C.Precision, 1.0);
    Low |= C.Precision < 0.4;
    High |= C.Precision > 0.6;
  }
  EXPECT_TRUE(Low);
  EXPECT_TRUE(High);
}

TEST_F(LatticeTest, SampledConfigsTypeCheckAndAgree) {
  // The gradual guarantee, observed end-to-end: every sampled
  // configuration computes the same output.
  Program Ast = parse(TypedProgram);
  auto Configs = sampleFineGrained(Ast, G.types(), 3, 2, 99);
  for (const Configuration &C : Configs) {
    EXPECT_EQ(runAst(C.Prog, CastMode::Coercions), "5");
    EXPECT_EQ(runAst(C.Prog, CastMode::TypeBased), "5");
  }
}

TEST_F(LatticeTest, ConfigurationsOutliveTheirSource) {
  std::string Expected = runAst(parse(TypedProgram), CastMode::Coercions);
  Program Erased;
  std::vector<Configuration> Fine, Coarse;
  {
    Program Ast = parse(TypedProgram);
    Erased = eraseTypes(Ast, G.types());
    Fine = sampleFineGrained(Ast, G.types(), 4, 2, 7);
    Coarse = coarseConfigs(Ast, G.types(), 8, 7);
  }
  // The source Program is gone: every configuration, including the Dyn
  // ascriptions erasure and the coarse lattice added, lives in its own
  // arena and still prints, parses back and runs.
  EXPECT_EQ(parse(Erased.str().c_str()).str(), Erased.str());
  EXPECT_EQ(runAst(Erased, CastMode::Coercions), Expected);
  ASSERT_FALSE(Fine.empty());
  ASSERT_FALSE(Coarse.empty());
  for (const std::vector<Configuration> *Set : {&Fine, &Coarse})
    for (const Configuration &C : *Set) {
      EXPECT_EQ(parse(C.Prog.str().c_str()).str(), C.Prog.str());
      EXPECT_EQ(runAst(C.Prog, CastMode::TypeBased), Expected);
    }
}

TEST_F(LatticeTest, CoarseConfigsEnumerate) {
  Program Ast = parse(TypedProgram);
  // Three named defines -> 8 configurations.
  auto Configs = coarseConfigs(Ast, G.types(), 64, 1);
  EXPECT_EQ(Configs.size(), 8u);
  // First is fully typed, some are partial, one is fully erased.
  EXPECT_DOUBLE_EQ(Configs[0].Precision, 1.0);
  double Min = 1.0;
  for (const Configuration &C : Configs) {
    Min = std::min(Min, C.Precision);
    EXPECT_EQ(runAst(C.Prog, CastMode::Coercions), "5");
  }
  EXPECT_LT(Min, 0.5);
}

//===----------------------------------------------------------------------===//
// Degenerate inputs: the samplers are library API for harnesses like
// griftfuzz, so zero budgets and annotation-free programs must yield
// well-defined (empty or trivial) results instead of asserting.
//===----------------------------------------------------------------------===//

TEST_F(LatticeTest, ZeroBinsOrZeroPerBinYieldNoConfigs) {
  Program Ast = parse(TypedProgram);
  EXPECT_TRUE(sampleFineGrained(Ast, G.types(), 0, 2, 11).empty());
  EXPECT_TRUE(sampleFineGrained(Ast, G.types(), 4, 0, 11).empty());
  EXPECT_TRUE(sampleFineGrained(Ast, G.types(), 0, 0, 11).empty());
}

TEST_F(LatticeTest, ZeroMaxConfigsYieldsNoCoarseConfigs) {
  Program Ast = parse(TypedProgram);
  EXPECT_TRUE(coarseConfigs(Ast, G.types(), 0, 11).empty());
}

TEST_F(LatticeTest, MaxConfigsOfOneYieldsOnlyTheTypedTop) {
  // 3 named defines -> 8 possible configs; a budget of 1 must not
  // overshoot, and the one config kept is the fully typed original.
  Program Ast = parse(TypedProgram);
  auto Configs = coarseConfigs(Ast, G.types(), 1, 11);
  ASSERT_EQ(Configs.size(), 1u);
  EXPECT_DOUBLE_EQ(Configs[0].Precision, 1.0);
}

TEST_F(LatticeTest, SamplingAFullyDynamicProgramIsClosed) {
  // The bottom element has nothing left to erase: every sampled
  // configuration is (semantically) the program itself, precision 0.
  Program Ast = parse(TypedProgram);
  Program Erased = eraseTypes(Ast, G.types());
  auto Configs = sampleFineGrained(Erased, G.types(), 3, 2, 5);
  ASSERT_EQ(Configs.size(), 6u);
  for (const Configuration &C : Configs) {
    EXPECT_DOUBLE_EQ(C.Precision, 0.0);
    EXPECT_EQ(runAst(C.Prog, CastMode::Coercions), "5");
  }
}

TEST_F(LatticeTest, AnnotationFreeProgramSamplesTrivially) {
  // No annotation slots at all: precision is defined as 0 and sampling
  // must neither crash nor mutate the program.
  Program Ast = parse("(print-int (+ 1 2))");
  EXPECT_DOUBLE_EQ(programPrecision(Ast), 0.0);
  auto Fine = sampleFineGrained(Ast, G.types(), 2, 2, 3);
  ASSERT_EQ(Fine.size(), 4u);
  for (const Configuration &C : Fine)
    EXPECT_EQ(C.Prog.str(), Ast.str());
  auto Coarse = coarseConfigs(Ast, G.types(), 8, 3);
  ASSERT_EQ(Coarse.size(), 1u); // no named defines -> only the top
  EXPECT_EQ(Coarse[0].Prog.str(), Ast.str());
}

TEST_F(LatticeTest, CoarseConfigsAreDeterministicAcrossRuns) {
  std::string Source;
  for (int I = 0; I != 8; ++I)
    Source += "(define (f" + std::to_string(I) + " [x : Int]) : Int (+ x " +
              std::to_string(I) + "))";
  Source += "(print-int (f0 (f1 (f2 (f3 (f4 (f5 (f6 (f7 0)))))))))";
  Program Ast = parse(Source.c_str());
  auto A = coarseConfigs(Ast, G.types(), 10, 77);
  auto B = coarseConfigs(Ast, G.types(), 10, 77);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Prog.str(), B[I].Prog.str());
    EXPECT_DOUBLE_EQ(A[I].Precision, B[I].Precision);
  }
}

TEST_F(LatticeTest, CoarseConfigsSampleWhenLarge) {
  // Build a program with 8 defines but cap configs at 10.
  std::string Source;
  for (int I = 0; I != 8; ++I)
    Source += "(define (f" + std::to_string(I) + " [x : Int]) : Int (+ x " +
              std::to_string(I) + "))";
  Source += "(print-int (f0 (f1 (f2 (f3 (f4 (f5 (f6 (f7 0)))))))))";
  Program Ast = parse(Source.c_str());
  auto Configs = coarseConfigs(Ast, G.types(), 10, 3);
  EXPECT_EQ(Configs.size(), 10u);
  for (const Configuration &C : Configs)
    EXPECT_EQ(runAst(C.Prog, CastMode::Coercions), "28");
}
