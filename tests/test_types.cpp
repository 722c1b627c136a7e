//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and property tests for the type system: interning, parsing,
/// printing, consistency, meet, precision, and equirecursive types.
///
//===----------------------------------------------------------------------===//
#include "sexp/Reader.h"
#include "support/RNG.h"
#include "types/TypeOps.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

using namespace grift;

namespace {

class TypesTest : public ::testing::Test {
protected:
  TypeContext Ctx;
  DiagnosticEngine Diags;

  const Type *parse(std::string_view Text) {
    DiagnosticEngine LocalDiags;
    auto Data = readSexps(Text, LocalDiags);
    EXPECT_FALSE(LocalDiags.hasErrors()) << LocalDiags.str();
    EXPECT_EQ(Data.size(), 1u);
    const Type *T = parseType(Ctx, Data[0], LocalDiags);
    EXPECT_TRUE(T != nullptr) << LocalDiags.str();
    return T;
  }

  const Type *parseBad(std::string_view Text) {
    DiagnosticEngine LocalDiags;
    auto Data = readSexps(Text, LocalDiags);
    EXPECT_EQ(Data.size(), 1u);
    const Type *T = parseType(Ctx, Data[0], LocalDiags);
    EXPECT_TRUE(LocalDiags.hasErrors());
    return T;
  }
};

} // namespace

TEST_F(TypesTest, AtomicSingletons) {
  EXPECT_EQ(Ctx.integer(), Ctx.integer());
  EXPECT_NE(Ctx.integer(), Ctx.boolean());
  EXPECT_TRUE(Ctx.dyn()->isDyn());
  EXPECT_TRUE(Ctx.integer()->isAtomic());
  EXPECT_FALSE(Ctx.dyn()->isAtomic());
}

TEST_F(TypesTest, InterningGivesPointerEquality) {
  const Type *F1 = Ctx.function({Ctx.integer()}, Ctx.boolean());
  const Type *F2 = Ctx.function({Ctx.integer()}, Ctx.boolean());
  EXPECT_EQ(F1, F2);
  const Type *F3 = Ctx.function({Ctx.boolean()}, Ctx.boolean());
  EXPECT_NE(F1, F3);
  EXPECT_EQ(Ctx.tuple({Ctx.integer(), Ctx.floating()}),
            Ctx.tuple({Ctx.integer(), Ctx.floating()}));
  EXPECT_EQ(Ctx.box(Ctx.integer()), Ctx.box(Ctx.integer()));
  EXPECT_NE(Ctx.box(Ctx.integer()), Ctx.vect(Ctx.integer()));
}

TEST_F(TypesTest, ParsePrintRoundTrip) {
  for (const char *Text :
       {"Int", "Bool", "Dyn", "Unit", "Char", "Float", "(Int -> Bool)",
        "(Int Int -> Int)", "(-> Int)", "(Tuple Int Float)", "(Ref Int)",
        "(Vect (Tuple Int Int))", "(Rec r0 (Tuple Int (-> r0)))",
        "((Dyn -> Bool) -> Bool)"}) {
    const Type *T = parse(Text);
    ASSERT_NE(T, nullptr);
    EXPECT_EQ(parse(T->str()), T) << Text << " printed as " << T->str();
  }
}

TEST_F(TypesTest, ParseErrors) {
  parseBad("Intx");
  parseBad("(Tuple)");
  parseBad("(Ref Int Int)");
  parseBad("(Rec x)");
  parseBad("(Weird Int)");
  parseBad("unboundvar");
}

TEST_F(TypesTest, RecAlphaEquivalence) {
  const Type *A = parse("(Rec s (Tuple Int (-> s)))");
  const Type *B = parse("(Rec t (Tuple Int (-> t)))");
  EXPECT_EQ(A, B);
}

TEST_F(TypesTest, RecNormalization) {
  // (Rec x Dyn) = Dyn; (Rec x Int) = Int; (Rec x x) = Dyn.
  EXPECT_EQ(Ctx.rec(Ctx.dyn()), Ctx.dyn());
  EXPECT_EQ(Ctx.rec(Ctx.integer()), Ctx.integer());
  EXPECT_EQ(Ctx.rec(Ctx.var(0)), Ctx.dyn());
}

TEST_F(TypesTest, UnfoldSubstitutes) {
  const Type *Stream = parse("(Rec s (Tuple Int (-> s)))");
  const Type *Unfolded = Ctx.unfold(Stream);
  ASSERT_TRUE(Unfolded->isTuple());
  EXPECT_EQ(Unfolded->element(0), Ctx.integer());
  const Type *Thunk = Unfolded->element(1);
  ASSERT_TRUE(Thunk->isFunction());
  EXPECT_EQ(Thunk->result(), Stream);
  // Unfolding is memoized and deterministic.
  EXPECT_EQ(Ctx.unfold(Stream), Unfolded);
}

TEST_F(TypesTest, ConsistencyBasics) {
  const Type *I = Ctx.integer();
  const Type *B = Ctx.boolean();
  const Type *D = Ctx.dyn();
  EXPECT_TRUE(consistent(Ctx, I, I));
  EXPECT_TRUE(consistent(Ctx, I, D));
  EXPECT_TRUE(consistent(Ctx, D, I));
  EXPECT_FALSE(consistent(Ctx, I, B));
  EXPECT_FALSE(consistent(Ctx, I, Ctx.floating()));
}

TEST_F(TypesTest, ConsistencyStructural) {
  const Type *F1 = parse("(Int -> Bool)");
  const Type *F2 = parse("(Dyn -> Bool)");
  const Type *F3 = parse("(Bool -> Bool)");
  EXPECT_TRUE(consistent(Ctx, F1, F2));
  EXPECT_FALSE(consistent(Ctx, F1, F3));
  EXPECT_FALSE(consistent(Ctx, F1, parse("(Int Int -> Bool)")));
  EXPECT_FALSE(consistent(Ctx, F1, Ctx.integer()));
  EXPECT_TRUE(consistent(Ctx, parse("(Ref Dyn)"), parse("(Ref Int)")));
  EXPECT_FALSE(consistent(Ctx, parse("(Ref Int)"), parse("(Vect Int)")));
  EXPECT_TRUE(
      consistent(Ctx, parse("(Tuple Int Dyn)"), parse("(Tuple Dyn Bool)")));
  EXPECT_FALSE(
      consistent(Ctx, parse("(Tuple Int Int)"), parse("(Tuple Int)")));
}

TEST_F(TypesTest, ConsistencyEquirecursive) {
  const Type *S = parse("(Rec s (Tuple Int (-> s)))");
  // Equal types and Dyn on either side answer before any unfolding.
  EXPECT_TRUE(consistent(Ctx, S, S));
  EXPECT_TRUE(consistent(Ctx, Ctx.dyn(), S));
  EXPECT_TRUE(consistent(Ctx, S, Ctx.dyn()));
  // An atomic type clashes with the unfolded tuple.
  EXPECT_FALSE(consistent(Ctx, S, Ctx.integer()));
  // A recursive type is consistent with its own unfolding.
  EXPECT_TRUE(consistent(Ctx, S, Ctx.unfold(S)));
  // And with a less precise variant.
  const Type *SDyn = parse("(Rec s (Tuple Dyn (-> s)))");
  EXPECT_TRUE(consistent(Ctx, S, SDyn));
  // But not with a clashing one.
  const Type *SBool = parse("(Rec s (Tuple Bool (-> s)))");
  EXPECT_FALSE(consistent(Ctx, S, SBool));
}

TEST_F(TypesTest, MeetBasics) {
  const Type *I = Ctx.integer();
  const Type *D = Ctx.dyn();
  EXPECT_EQ(meet(Ctx, I, D), I);
  EXPECT_EQ(meet(Ctx, D, I), I);
  EXPECT_EQ(meet(Ctx, D, D), D);
  EXPECT_EQ(meet(Ctx, I, I), I);
  EXPECT_EQ(meet(Ctx, I, Ctx.boolean()), nullptr);
}

TEST_F(TypesTest, MeetStructural) {
  const Type *A = parse("(Int -> Dyn)");
  const Type *B = parse("(Dyn -> Bool)");
  EXPECT_EQ(meet(Ctx, A, B), parse("(Int -> Bool)"));
  EXPECT_EQ(meet(Ctx, parse("(Tuple Dyn Int)"), parse("(Tuple Bool Dyn)")),
            parse("(Tuple Bool Int)"));
  EXPECT_EQ(meet(Ctx, parse("(Ref Dyn)"), parse("(Ref Int)")),
            parse("(Ref Int)"));
  EXPECT_EQ(meet(Ctx, parse("(Int -> Int)"), parse("(Bool -> Int)")),
            nullptr);
}

TEST_F(TypesTest, MeetEquirecursive) {
  const Type *S = parse("(Rec s (Tuple Int (-> s)))");
  const Type *SDyn = parse("(Rec s (Tuple Dyn (-> s)))");
  const Type *M = meet(Ctx, S, SDyn);
  ASSERT_NE(M, nullptr);
  // The meet of a recursive type with a less precise version is the type.
  EXPECT_TRUE(consistent(Ctx, M, S));
  EXPECT_TRUE(lessPrecise(Ctx, SDyn, M));
  // Meeting with its own unfolding is consistent too.
  EXPECT_NE(meet(Ctx, S, Ctx.unfold(S)), nullptr);
}

TEST_F(TypesTest, PrecisionMetric) {
  EXPECT_DOUBLE_EQ(precision(Ctx.dyn()), 0.0);
  EXPECT_DOUBLE_EQ(precision(Ctx.integer()), 1.0);
  // (Int -> Dyn): 3 nodes, 2 typed.
  EXPECT_DOUBLE_EQ(precision(parse("(Int -> Dyn)")), 2.0 / 3.0);
}

TEST_F(TypesTest, NodeCounts) {
  const Type *T = parse("(Tuple Int (Ref Dyn))");
  EXPECT_EQ(T->nodeCount(), 4u);
  EXPECT_EQ(T->typedNodeCount(), 3u);
  EXPECT_EQ(T->height(), 3u);
}

TEST_F(TypesTest, StaticAndDynFlags) {
  EXPECT_TRUE(parse("(Int -> Bool)")->isStatic());
  EXPECT_FALSE(parse("(Int -> Dyn)")->isStatic());
  EXPECT_TRUE(parse("(Int -> Dyn)")->hasDyn());
  EXPECT_TRUE(parse("(Rec s (-> s))")->hasRec());
  EXPECT_FALSE(parse("(Int -> Bool)")->hasRec());
}

TEST_F(TypesTest, LessPrecise) {
  EXPECT_TRUE(lessPrecise(Ctx, Ctx.dyn(), parse("(Int -> Bool)")));
  EXPECT_TRUE(lessPrecise(Ctx, parse("(Dyn -> Bool)"), parse("(Int -> Bool)")));
  EXPECT_FALSE(
      lessPrecise(Ctx, parse("(Int -> Bool)"), parse("(Dyn -> Bool)")));
  EXPECT_FALSE(lessPrecise(Ctx, Ctx.integer(), Ctx.boolean()));
  EXPECT_TRUE(lessPrecise(Ctx, parse("(Rec s (Tuple Dyn (-> s)))"),
                          parse("(Rec s (Tuple Int (-> s)))")));
}

// Property sweep: random type pairs keep the algebraic laws of Figure 17.
namespace {

const Type *randomType(TypeContext &Ctx, RNG &Gen, unsigned Depth) {
  unsigned Choice = Gen.below(Depth == 0 ? 6 : 10);
  switch (Choice) {
  case 0:
    return Ctx.dyn();
  case 1:
    return Ctx.integer();
  case 2:
    return Ctx.boolean();
  case 3:
    return Ctx.floating();
  case 4:
    return Ctx.unit();
  case 5:
    return Ctx.character();
  case 6: {
    std::vector<const Type *> Params;
    unsigned NumParams = Gen.below(3);
    for (unsigned I = 0; I != NumParams; ++I)
      Params.push_back(randomType(Ctx, Gen, Depth - 1));
    return Ctx.function(std::move(Params), randomType(Ctx, Gen, Depth - 1));
  }
  case 7: {
    std::vector<const Type *> Elements;
    unsigned NumElements = 1 + Gen.below(3);
    for (unsigned I = 0; I != NumElements; ++I)
      Elements.push_back(randomType(Ctx, Gen, Depth - 1));
    return Ctx.tuple(std::move(Elements));
  }
  case 8:
    return Ctx.box(randomType(Ctx, Gen, Depth - 1));
  default:
    return Ctx.vect(randomType(Ctx, Gen, Depth - 1));
  }
}

} // namespace

class TypeLawsTest : public ::testing::TestWithParam<int> {};

TEST_P(TypeLawsTest, ConsistencyAndMeetLaws) {
  TypeContext Ctx;
  RNG Gen(GetParam() * 7919 + 13);
  for (int Iter = 0; Iter != 200; ++Iter) {
    const Type *A = randomType(Ctx, Gen, 3);
    const Type *B = randomType(Ctx, Gen, 3);
    // Consistency is reflexive and symmetric.
    EXPECT_TRUE(consistent(Ctx, A, A));
    EXPECT_EQ(consistent(Ctx, A, B), consistent(Ctx, B, A));
    const Type *M = meet(Ctx, A, B);
    EXPECT_EQ(M != nullptr, consistent(Ctx, A, B));
    if (M) {
      // The meet is at least as precise as both inputs and consistent
      // with them; meet is commutative.
      EXPECT_TRUE(lessPrecise(Ctx, A, M));
      EXPECT_TRUE(lessPrecise(Ctx, B, M));
      EXPECT_TRUE(consistent(Ctx, A, M));
      EXPECT_EQ(M, meet(Ctx, B, A));
      // Meet is idempotent on its result.
      EXPECT_EQ(meet(Ctx, M, M), M);
    }
    // Dyn is the unit of meet.
    EXPECT_EQ(meet(Ctx, A, Ctx.dyn()), A);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, TypeLawsTest,
                         ::testing::Range(0, 8));
