//===----------------------------------------------------------------------===//
///
/// \file
/// Printer fidelity: parsing a program, printing it, and reparsing must
/// preserve semantics — checked end to end on every benchmark and on the
/// sampled configurations the lattice harness serializes. Also covers
/// type printing of tricky shapes (nested μ binders) and core-IR
/// rendering.
///
//===----------------------------------------------------------------------===//
#include "bench_programs/Benchmarks.h"
#include "grift/Grift.h"
#include "lattice/Lattice.h"
#include "sexp/Reader.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

using namespace grift;

namespace {
class PrinterBenchmarks : public ::testing::TestWithParam<int> {};
} // namespace

TEST_P(PrinterBenchmarks, ParsePrintReparseRunsIdentically) {
  const BenchProgram &B = allBenchmarks()[GetParam()];
  Grift G;
  std::string Errors;
  auto Ast = G.parse(B.Source, Errors);
  ASSERT_TRUE(Ast.has_value()) << Errors;

  std::string Printed = Ast->str();
  auto Reparsed = G.parse(Printed, Errors);
  ASSERT_TRUE(Reparsed.has_value())
      << Errors << "\nprinted program:\n" << Printed;
  // Printing is a fixpoint after one round.
  EXPECT_EQ(Reparsed->str(), Printed);

  auto Exe = G.compileAst(*Reparsed, CastMode::Coercions, Errors);
  ASSERT_TRUE(Exe.has_value()) << Errors;
  RunResult R = Exe->run(B.TestInput);
  ASSERT_TRUE(R.OK) << R.Error.str();
  EXPECT_EQ(R.Output, B.TestOutput);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, PrinterBenchmarks,
                         ::testing::Range(0, 8), [](const auto &Info) {
                           std::string Name =
                               allBenchmarks()[Info.param].Name;
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });

TEST(PrinterConfigs, SampledConfigurationsSurviveRoundTrip) {
  // The lattice tooling serializes configurations; the printed form must
  // mean the same program.
  const BenchProgram &B = getBenchmark("quicksort");
  Grift G;
  std::string Errors;
  auto Ast = G.parse(B.Source, Errors);
  ASSERT_TRUE(Ast.has_value()) << Errors;
  auto Configs = sampleFineGrained(*Ast, G.types(), 3, 1, 0x9A9A);
  for (const Configuration &C : Configs) {
    auto Reparsed = G.parse(C.Prog.str(), Errors);
    ASSERT_TRUE(Reparsed.has_value()) << Errors;
    EXPECT_NEAR(programPrecision(*Reparsed), C.Precision, 1e-9);
    auto Exe = G.compileAst(*Reparsed, CastMode::Coercions, Errors);
    ASSERT_TRUE(Exe.has_value()) << Errors;
    RunResult R = Exe->run(B.TestInput);
    ASSERT_TRUE(R.OK) << R.Error.str();
    EXPECT_EQ(R.Output, B.TestOutput);
  }
}

namespace {

const Type *parseTy(TypeContext &Ctx, std::string_view Text) {
  DiagnosticEngine Diags;
  auto Data = readSexps(Text, Diags);
  EXPECT_EQ(Data.size(), 1u);
  const Type *T = parseType(Ctx, Data[0], Diags);
  EXPECT_NE(T, nullptr) << Diags.str();
  return T;
}

} // namespace

TEST(PrinterTypes, NestedRecBindersRoundTrip) {
  TypeContext Ctx;
  // Two nested binders with back references at both depths.
  const char *Tricky =
      "(Rec a (Tuple Int (Rec b (Tuple (-> a) (-> b) Int))))";
  const Type *T = parseTy(Ctx, Tricky);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(parseTy(Ctx, T->str()), T);
}

TEST(PrinterTypes, ShadowedRecNamesStillParse) {
  TypeContext Ctx;
  // The same surface name at both binders: innermost wins, and the
  // printer renames apart.
  const Type *T = parseTy(Ctx, "(Rec s (Tuple Int (Rec s (-> s))))");
  ASSERT_NE(T, nullptr);
  const Type *Round = parseTy(Ctx, T->str());
  EXPECT_EQ(Round, T);
}

TEST(PrinterCore, CoreIRShowsCasts) {
  Grift G;
  std::string Errors;
  auto Ast = G.parse("(ann 1 Dyn)", Errors);
  ASSERT_TRUE(Ast.has_value()) << Errors;
  auto Core = G.check(*Ast, Errors);
  ASSERT_TRUE(Core.has_value()) << Errors;
  std::string Text = Core->str();
  EXPECT_NE(Text.find("(cast 1 Int Dyn"), std::string::npos) << Text;
}

TEST(PrinterBytecode, DisassemblyIsStable) {
  Grift G;
  std::string Errors;
  auto Exe = G.compile("(+ 1 2)", CastMode::Coercions, Errors);
  ASSERT_TRUE(Exe.has_value()) << Errors;
  std::string Text = Exe->program().str();
  // The peephole pass fuses the (push-int 2, prim add) pair into the
  // fixnum push-int-add; the prim stays in its slot as the fused
  // instruction's placeholder.
  EXPECT_NE(Text.find("push-int 1"), std::string::npos) << Text;
  EXPECT_NE(Text.find("push-int-add 2"), std::string::npos) << Text;
  EXPECT_NE(Text.find("prim"), std::string::npos) << Text;
  EXPECT_NE(Text.find("halt"), std::string::npos) << Text;
}

TEST(PrinterBytecode, UnfusedDisassemblyKeepsOneOpPerInstruction) {
  Grift G;
  std::string Errors;
  auto Exe = G.compile("(+ 1 2)", CastMode::Coercions, Errors,
                       /*Optimize=*/false, /*Fuse=*/false);
  ASSERT_TRUE(Exe.has_value()) << Errors;
  std::string Text = Exe->program().str();
  EXPECT_NE(Text.find("push-int 1"), std::string::npos) << Text;
  EXPECT_NE(Text.find("push-int 2"), std::string::npos) << Text;
  EXPECT_EQ(Text.find("push-int-prim"), std::string::npos) << Text;
  EXPECT_EQ(Text.find("push-int-add"), std::string::npos) << Text;
}

TEST(PrinterCoercions, RendersNormalForms) {
  TypeContext Types;
  CoercionFactory F(Types);
  EXPECT_EQ(F.id()->str(), "id");
  EXPECT_EQ(F.make(Types.integer(), Types.dyn(), "p")->str(),
            "(id ; Int!)");
  EXPECT_EQ(F.make(Types.dyn(), Types.integer(), "p")->str(),
            "(Int?p ; id)");
  EXPECT_EQ(F.fail("boom")->str(), "Fail^boom");
  // A μ coercion prints with a bound name and a back reference.
  const Type *S = Types.rec(
      Types.tuple({Types.integer(), Types.function({}, Types.var(0))}));
  const Type *SD = Types.rec(
      Types.tuple({Types.dyn(), Types.function({}, Types.var(0))}));
  std::string Mu = F.make(S, SD, "p")->str();
  EXPECT_NE(Mu.find("(mu X0."), std::string::npos) << Mu;
  EXPECT_NE(Mu.find("X0)"), std::string::npos) << Mu;
}
