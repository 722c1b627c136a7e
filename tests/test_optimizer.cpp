//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the optional core-IR optimizer: individual folds, fixpoint
/// behaviour, semantic preservation on the benchmark suite, and the cast
/// reduction it buys on dynamic code.
///
//===----------------------------------------------------------------------===//
#include "bench_programs/Benchmarks.h"
#include "frontend/Optimizer.h"
#include "grift/Grift.h"
#include "lattice/Lattice.h"

#include <gtest/gtest.h>

using namespace grift;

namespace {

class OptimizerTest : public ::testing::Test {
protected:
  Grift G;

  core::CoreProgram checked(std::string_view Source) {
    std::string Errors;
    auto Ast = G.parse(Source, Errors);
    EXPECT_TRUE(Ast.has_value()) << Errors;
    auto Core = G.check(*Ast, Errors);
    EXPECT_TRUE(Core.has_value()) << Errors;
    return std::move(*Core);
  }

  std::string optimizedStr(std::string_view Source) {
    core::CoreProgram Core = checked(Source);
    while (optimizeCore(G.types(), Core) != 0) {
    }
    return Core.str();
  }
};

} // namespace

TEST_F(OptimizerTest, FoldsIntegerArithmetic) {
  EXPECT_EQ(optimizedStr("(+ 1 (* 2 3))"), "7\n");
  EXPECT_EQ(optimizedStr("(- 1 2)"), "-1\n");
  EXPECT_EQ(optimizedStr("(< 1 2)"), "#t\n");
  EXPECT_EQ(optimizedStr("(/ 10 2)"), "5\n");
}

TEST_F(OptimizerTest, NeverFoldsDivisionByZero) {
  // The runtime trap must be preserved.
  std::string Out = optimizedStr("(/ 10 0)");
  EXPECT_NE(Out.find("/"), std::string::npos);
  std::string Errors;
  auto Exe = G.compile("(/ 10 0)", CastMode::Coercions, Errors, true);
  ASSERT_TRUE(Exe.has_value());
  EXPECT_FALSE(Exe->run().OK);
}

TEST_F(OptimizerTest, FoldsBranches) {
  EXPECT_EQ(optimizedStr("(if (< 1 2) 10 20)"), "10\n");
  EXPECT_EQ(optimizedStr("(if (not #t) 10 20)"), "20\n");
}

TEST_F(OptimizerTest, FlattensBegins) {
  // Inner literals in statement position disappear.
  EXPECT_EQ(optimizedStr("(begin 1 (begin 2 3) 4)"), "4\n");
}

TEST_F(OptimizerTest, DropsAtomicLiteralInjections) {
  // (ann 5 Dyn) — the injection is a representation identity.
  core::CoreProgram Core = checked("(ann 5 Dyn)");
  EXPECT_EQ(core::countCasts(Core), 1u);
  while (optimizeCore(G.types(), Core) != 0) {
  }
  EXPECT_EQ(core::countCasts(Core), 0u);
}

TEST_F(OptimizerTest, KeepsStructuredInjections) {
  core::CoreProgram Core = checked("(ann (tuple 1 2) Dyn)");
  while (optimizeCore(G.types(), Core) != 0) {
  }
  EXPECT_EQ(core::countCasts(Core), 1u); // tuples need the DynBox
}

TEST_F(OptimizerTest, ReachesFixpoint) {
  core::CoreProgram Core = checked("(if (< 1 2) (+ 1 (+ 2 3)) 0)");
  unsigned Total = 0;
  for (int I = 0; I != 10; ++I) {
    unsigned N = optimizeCore(G.types(), Core);
    Total += N;
    if (N == 0)
      break;
  }
  EXPECT_GT(Total, 0u);
  EXPECT_EQ(optimizeCore(G.types(), Core), 0u); // idempotent at fixpoint
}

TEST_F(OptimizerTest, RewritesAMovedProgramInItsOwnArena) {
  // Folds make new literals and the outer begin's flattened list is
  // longer than its own, so both come from the program's arena.
  const char *Source = "(begin (begin (print-int (+ 1 2)) (print-int 3))"
                       "       (print-int (if (< 1 2) 4 5)))";
  std::string Expected = optimizedStr(Source);
  EXPECT_EQ(Expected, "(begin (print-int 3) (print-int 3) (print-int 4))\n");
  std::vector<core::CoreProgram> Moved;
  Moved.push_back(checked(Source));
  for (int I = 0; I != 8; ++I) // reallocations move the program again
    Moved.push_back(checked("1"));
  while (optimizeCore(G.types(), Moved[0]) != 0) {
  }
  core::CoreProgram Last = std::move(Moved[0]);
  Moved.clear();
  EXPECT_EQ(Last.str(), Expected);
}

TEST_F(OptimizerTest, PreservesBenchmarkSemantics) {
  // Every benchmark, typed and erased, optimized vs. not: same output.
  for (const BenchProgram &B : allBenchmarks()) {
    Grift Fresh;
    std::string Errors;
    auto Ast = Fresh.parse(B.Source, Errors);
    ASSERT_TRUE(Ast.has_value()) << Errors;
    for (bool Erase : {false, true}) {
      Program Prog = Erase ? eraseTypes(*Ast, Fresh.types()) : Ast->clone();
      auto Plain =
          Fresh.compileAst(Prog, CastMode::Coercions, Errors, false);
      auto Opt = Fresh.compileAst(Prog, CastMode::Coercions, Errors, true);
      ASSERT_TRUE(Plain && Opt) << Errors;
      RunResult RPlain = Plain->run(B.TestInput);
      RunResult ROpt = Opt->run(B.TestInput);
      ASSERT_TRUE(RPlain.OK && ROpt.OK) << B.Name;
      EXPECT_EQ(RPlain.Output, ROpt.Output) << B.Name;
      // Optimization never increases the runtime cast count.
      EXPECT_LE(ROpt.Stats.CastsApplied, RPlain.Stats.CastsApplied)
          << B.Name;
    }
  }
}

TEST_F(OptimizerTest, ReducesCastsInDynamicCode) {
  // The paper's Section 5 conjecture, in miniature: on erased code the
  // literal-injection fold removes first-order checks.
  std::string Errors;
  auto Ast = G.parse(getBenchmark("tak").Source, Errors);
  ASSERT_TRUE(Ast.has_value()) << Errors;
  Program Erased = eraseTypes(*Ast, G.types());
  auto Plain = G.compileAst(Erased, CastMode::Coercions, Errors, false);
  auto Opt = G.compileAst(Erased, CastMode::Coercions, Errors, true);
  ASSERT_TRUE(Plain && Opt) << Errors;
  RunResult RPlain = Plain->run("14 10 4");
  RunResult ROpt = Opt->run("14 10 4");
  ASSERT_TRUE(RPlain.OK && ROpt.OK);
  EXPECT_EQ(RPlain.Output, ROpt.Output);
  EXPECT_LT(ROpt.Stats.CastsApplied, RPlain.Stats.CastsApplied);
}
