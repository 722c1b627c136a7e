//===----------------------------------------------------------------------===//
///
/// \file
/// Contract tests for the public API (grift::Grift, grift::Executable):
/// executables are reusable and deterministic across runs, many programs
/// share one compiler instance, and error reporting goes through the
/// documented channels (never exceptions).
///
//===----------------------------------------------------------------------===//
#include "frontend/Parser.h"
#include "grift/Grift.h"

#include <gtest/gtest.h>

using namespace grift;

TEST(Api, ExecutableIsReusableAndDeterministic) {
  Grift G;
  std::string Errors;
  auto Exe = G.compile("(define c : (Ref Int) (box 0))"
                       "(begin (box-set! c (+ (unbox c) 1)) (unbox c))",
                       CastMode::Coercions, Errors);
  ASSERT_TRUE(Exe.has_value()) << Errors;
  // Each run gets a fresh heap and fresh globals: no state leaks.
  for (int I = 0; I != 3; ++I) {
    RunResult R = Exe->run();
    ASSERT_TRUE(R.OK);
    EXPECT_EQ(R.ResultText, "1");
  }
}

TEST(Api, ManyExecutablesShareOneCompiler) {
  Grift G;
  std::string Errors;
  auto A = G.compile("(* 6 7)", CastMode::Coercions, Errors);
  auto B = G.compile("(ann (ann 5 Dyn) Int)", CastMode::TypeBased, Errors);
  auto C = G.compile("(+ 1 1)", CastMode::Static, Errors);
  ASSERT_TRUE(A && B && C) << Errors;
  // Interleaved runs; shared type/coercion contexts must not interfere.
  EXPECT_EQ(A->run().ResultText, "42");
  EXPECT_EQ(B->run().ResultText, "5");
  EXPECT_EQ(C->run().ResultText, "2");
  EXPECT_EQ(A->run().ResultText, "42");
}

TEST(Api, ErrorsAccumulateInTheOutParameter) {
  Grift G;
  std::string Errors;
  auto Bad = G.compile("(+ 1 #t)", CastMode::Coercions, Errors);
  EXPECT_FALSE(Bad.has_value());
  EXPECT_NE(Errors.find("error"), std::string::npos);
  // A later successful compile is unaffected by the sticky error string.
  auto Good = G.compile("(+ 1 2)", CastMode::Coercions, Errors);
  ASSERT_TRUE(Good.has_value());
  EXPECT_EQ(Good->run().ResultText, "3");
}

TEST(Api, RunNeverThrows) {
  Grift G;
  std::string Errors;
  auto Exe = G.compile("(/ 1 0)", CastMode::Coercions, Errors);
  ASSERT_TRUE(Exe.has_value()) << Errors;
  EXPECT_NO_THROW({
    RunResult R = Exe->run();
    EXPECT_FALSE(R.OK);
  });
}

TEST(Api, InputIsPerRun) {
  Grift G;
  std::string Errors;
  auto Exe = G.compile("(+ (read-int) 1)", CastMode::Coercions, Errors);
  ASSERT_TRUE(Exe.has_value()) << Errors;
  EXPECT_EQ(Exe->run("41").ResultText, "42");
  EXPECT_EQ(Exe->run("1").ResultText, "2");
}

TEST(Api, ParseProgramHelper) {
  TypeContext Types;
  DiagnosticEngine Diags;
  std::optional<Program> P = parseProgram(Types, "(+ 1 2)", Diags);
  ASSERT_TRUE(P.has_value()) << Diags.str();
  ASSERT_EQ(P->Defines.size(), 1u);
  EXPECT_EQ(P->Defines[0].Body->Kind, ExprKind::PrimApp);
  EXPECT_FALSE(parseProgram(Types, "(+ 1", Diags).has_value());
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Api, ModeIsRecordedOnTheExecutable) {
  Grift G;
  std::string Errors;
  auto Exe = G.compile("1", CastMode::TypeBased, Errors);
  ASSERT_TRUE(Exe.has_value());
  EXPECT_EQ(Exe->mode(), CastMode::TypeBased);
}

TEST(Api, StatsSnapshotPerRun) {
  Grift G;
  std::string Errors;
  auto Exe = G.compile("(repeat (i 0 10) (acc : Int 0)"
                       "  (+ acc (ann (ann i Dyn) Int)))",
                       CastMode::Coercions, Errors);
  ASSERT_TRUE(Exe.has_value()) << Errors;
  RunResult First = Exe->run();
  RunResult Second = Exe->run();
  ASSERT_TRUE(First.OK && Second.OK);
  // Counters reset between runs (not cumulative).
  EXPECT_EQ(First.Stats.CastsApplied, Second.Stats.CastsApplied);
  EXPECT_GT(First.Stats.CastsApplied, 0u);
}
