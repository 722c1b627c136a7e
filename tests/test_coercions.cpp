//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and property tests for coercion creation and space-efficient
/// composition (paper Figures 15 and 17). The semantic soundness property
/// apply(c ⨟ d, v) ≡ apply(d, apply(c, v)) is tested in test_runtime.cpp
/// where value application exists; here we check the structural laws.
///
//===----------------------------------------------------------------------===//
#include "coercions/CoercionFactory.h"
#include "sexp/Reader.h"
#include "support/RNG.h"
#include "types/TypeOps.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

using namespace grift;

namespace {

class CoercionTest : public ::testing::Test {
protected:
  TypeContext Types;
  CoercionFactory F{Types};

  const Type *ty(std::string_view Text) {
    DiagnosticEngine Diags;
    auto Data = readSexps(Text, Diags);
    EXPECT_EQ(Data.size(), 1u) << Text;
    const Type *T = parseType(Types, Data[0], Diags);
    EXPECT_NE(T, nullptr) << Diags.str();
    return T;
  }

  const Coercion *mk(std::string_view S, std::string_view T,
                     std::string_view Label = "p") {
    return F.make(ty(S), ty(T), Label);
  }
};

} // namespace

TEST_F(CoercionTest, IdentityCases) {
  EXPECT_TRUE(mk("Int", "Int")->isId());
  EXPECT_TRUE(mk("Dyn", "Dyn")->isId());
  EXPECT_TRUE(mk("(Int -> Bool)", "(Int -> Bool)")->isId());
  EXPECT_TRUE(mk("(Rec s (Tuple Int (-> s)))", "(Rec s (Tuple Int (-> s)))")
                  ->isId());
}

TEST_F(CoercionTest, InjectionAndProjection) {
  const Coercion *Inj = mk("Int", "Dyn");
  ASSERT_TRUE(Inj->isInjectSeq());
  EXPECT_EQ(Inj->second()->type(), Types.integer());
  EXPECT_TRUE(Inj->first()->isId());

  const Coercion *Prj = mk("Dyn", "Int", "here");
  ASSERT_TRUE(Prj->isProjectSeq());
  EXPECT_EQ(Prj->first()->type(), Types.integer());
  EXPECT_EQ(Prj->first()->label(), "here");
  EXPECT_TRUE(Prj->second()->isId());
}

TEST_F(CoercionTest, LazyDInjectsNonGroundTypes) {
  // lazy-D: (Int -> Int) injects directly (it is not a ground type).
  const Coercion *Inj = mk("(Int -> Int)", "Dyn");
  ASSERT_TRUE(Inj->isInjectSeq());
  EXPECT_EQ(Inj->second()->type(), ty("(Int -> Int)"));
}

TEST_F(CoercionTest, InconsistentTypesFail) {
  EXPECT_TRUE(mk("Int", "Bool", "b1")->isFail());
  EXPECT_EQ(mk("Int", "Bool", "b1")->label(), "b1");
  EXPECT_TRUE(mk("Int", "Float")->isFail());
  EXPECT_TRUE(mk("(Int -> Int)", "(Int Int -> Int)")->isFail());
  EXPECT_TRUE(mk("(Ref Int)", "(Vect Int)")->isFail());
}

TEST_F(CoercionTest, FunctionCoercionIsContravariant) {
  const Coercion *C = mk("(Int -> Dyn)", "(Dyn -> Dyn)");
  ASSERT_EQ(C->kind(), CoercionKind::Fun);
  // Argument coercion converts Dyn (new domain) to Int (old domain).
  ASSERT_TRUE(C->arg(0)->isProjectSeq());
  EXPECT_EQ(C->arg(0)->first()->type(), Types.integer());
  EXPECT_TRUE(C->result()->isId());
}

TEST_F(CoercionTest, RefCoercionReadsAndWrites) {
  const Coercion *C = mk("(Ref Int)", "(Ref Dyn)");
  ASSERT_EQ(C->kind(), CoercionKind::RefC);
  // Read: Int (stored) => Dyn (observed) — injection.
  EXPECT_TRUE(C->readCoercion()->isInjectSeq());
  // Write: Dyn (incoming) => Int (stored) — projection.
  EXPECT_TRUE(C->writeCoercion()->isProjectSeq());
}

TEST_F(CoercionTest, TupleCoercion) {
  const Coercion *C = mk("(Tuple Int Dyn)", "(Tuple Dyn Int)");
  ASSERT_EQ(C->kind(), CoercionKind::TupleC);
  EXPECT_TRUE(C->element(0)->isInjectSeq());
  EXPECT_TRUE(C->element(1)->isProjectSeq());
}

TEST_F(CoercionTest, MakeIsInterned) {
  EXPECT_EQ(mk("Int", "Dyn", "x"), mk("Int", "Dyn", "x"));
  // Different blame labels on a projection are different coercions.
  EXPECT_NE(mk("Dyn", "Int", "x"), mk("Dyn", "Int", "y"));
  // ... but injections carry no label.
  EXPECT_EQ(mk("Int", "Dyn", "x"), mk("Int", "Dyn", "y"));
}

TEST_F(CoercionTest, ApplyShapesOfNormalForms) {
  // Identity: nothing to do at run time, atomic values are their own Dyn
  // encoding.
  EXPECT_EQ(F.id()->applyShape(), ApplyShape::Identity);
  EXPECT_EQ(F.inject(Types.integer())->applyShape(), ApplyShape::Identity);
  EXPECT_EQ(mk("Int", "Dyn")->applyShape(), ApplyShape::Identity);
  EXPECT_EQ(mk("Float", "Dyn")->applyShape(), ApplyShape::Identity);

  // Project(T): a runtime type check, then untag.
  const Coercion *Prj = mk("Dyn", "Int");
  EXPECT_EQ(Prj->applyShape(), ApplyShape::Project);
  EXPECT_EQ(Prj->applyType(), Types.integer());
  const Coercion *Bare = F.project(Types.boolean(), "p");
  EXPECT_EQ(Bare->applyShape(), ApplyShape::Project);
  EXPECT_EQ(Bare->applyType(), Types.boolean());
  const Coercion *FunPrj = mk("Dyn", "(Int -> Int)");
  EXPECT_EQ(FunPrj->applyShape(), ApplyShape::Project);
  EXPECT_EQ(FunPrj->applyType(), ty("(Int -> Int)"));

  // General: injecting a non-atomic value allocates a DynBox.
  EXPECT_EQ(mk("(Int -> Int)", "Dyn")->applyShape(), ApplyShape::General);
  EXPECT_EQ(F.inject(ty("(Int -> Int)"))->applyShape(), ApplyShape::General);
  EXPECT_EQ(mk("(Int -> Dyn)", "(Dyn -> Dyn)")->applyShape(),
            ApplyShape::General);
  EXPECT_EQ(mk("(Ref Int)", "(Ref Dyn)")->applyShape(), ApplyShape::General);
  EXPECT_EQ(mk("(Tuple Int Dyn)", "(Tuple Dyn Int)")->applyShape(),
            ApplyShape::General);
  EXPECT_EQ(mk("Int", "Bool")->applyShape(), ApplyShape::General);
  EXPECT_EQ(mk("(Rec s (Tuple Int (-> s)))", "(Rec s (Tuple Dyn (-> s)))")
                ->applyShape(),
            ApplyShape::General);
  // A projection sequence whose tail does work: (Int?ᵖ ; (ι ; Int!)).
  const Coercion *Round = F.compose(mk("Dyn", "Int"), mk("Int", "Dyn"));
  ASSERT_TRUE(Round->isProjectSeq());
  ASSERT_FALSE(Round->second()->isId());
  EXPECT_EQ(Round->applyShape(), ApplyShape::General);
  const Coercion *PrjFun =
      F.compose(mk("Dyn", "(Int -> Dyn)"), mk("(Int -> Dyn)", "(Int -> Int)"));
  ASSERT_TRUE(PrjFun->isProjectSeq());
  EXPECT_EQ(PrjFun->applyShape(), ApplyShape::General);
}

TEST_F(CoercionTest, RecursiveCoercionTiesKnot) {
  const Coercion *C = mk("(Rec s (Tuple Int (-> s)))",
                         "(Rec s (Tuple Dyn (-> s)))");
  // The coercion is a μ whose body converts the head and, recursively,
  // the tail thunk.
  ASSERT_EQ(C->kind(), CoercionKind::Rec);
  const Coercion *Body = C->body();
  ASSERT_EQ(Body->kind(), CoercionKind::TupleC);
  EXPECT_TRUE(Body->element(0)->isInjectSeq());
  const Coercion *Tail = Body->element(1);
  ASSERT_EQ(Tail->kind(), CoercionKind::Fun);
  EXPECT_EQ(Tail->result(), C) << "back edge must point at the μ node";
}

TEST_F(CoercionTest, RecursiveVsUnfoldingIsIdentity) {
  const Type *S = ty("(Rec s (Tuple Int (-> s)))");
  const Type *U = Types.unfold(S);
  // μX.T and its unfolding are different interned types but the coercion
  // between them does no work.
  ASSERT_NE(S, U);
  const Coercion *C = F.make(S, U, "p");
  EXPECT_TRUE(C->isId());
}

TEST_F(CoercionTest, ComposeIdentityLaws) {
  const Coercion *C = mk("Int", "Dyn");
  EXPECT_EQ(F.compose(F.id(), C), C);
  EXPECT_EQ(F.compose(C, F.id()), C);
  EXPECT_TRUE(F.compose(F.id(), F.id())->isId());
}

TEST_F(CoercionTest, ComposeFailAbsorbs) {
  const Coercion *Fail = F.fail("boom");
  const Coercion *C = mk("Int", "Dyn");
  EXPECT_EQ(F.compose(Fail, C), Fail);
  // Failure on the right is deferred past injections but absorbs middles.
  const Coercion *FunC = mk("(Int -> Int)", "(Dyn -> Dyn)");
  EXPECT_EQ(F.compose(FunC, Fail), Fail);
}

TEST_F(CoercionTest, InjectionMeetsProjectionCancels) {
  // (ι ; Int!) ⨟ (Int?ᵖ ; ι) = ι — the space-efficiency linchpin.
  const Coercion *Up = mk("Int", "Dyn");
  const Coercion *Down = mk("Dyn", "Int");
  EXPECT_TRUE(F.compose(Up, Down)->isId());
}

TEST_F(CoercionTest, InjectionMeetsWrongProjectionFails) {
  const Coercion *Up = mk("Int", "Dyn");
  const Coercion *Down = mk("Dyn", "Bool", "blame-me");
  const Coercion *C = F.compose(Up, Down);
  ASSERT_TRUE(C->isFail());
  EXPECT_EQ(C->label(), "blame-me");
}

TEST_F(CoercionTest, ThreeCoercionBound) {
  // A classic even/odd-style alternating chain stays bounded: composing
  // (Dyn->Bool => Bool->Bool) with (Bool->Bool => Dyn->Bool) repeatedly
  // must not grow.
  const Coercion *A = mk("(Dyn -> Bool)", "(Bool -> Bool)");
  const Coercion *B = mk("(Bool -> Bool)", "(Dyn -> Bool)");
  const Coercion *Acc = A;
  unsigned MaxSize = 0;
  for (int I = 0; I != 50; ++I) {
    Acc = F.compose(Acc, I % 2 == 0 ? B : A);
    MaxSize = std::max(MaxSize, Acc->size());
    ASSERT_TRUE(CoercionFactory::isNormalForm(Acc));
  }
  // Height-2 types: the bound 5(2^2 - 1) = 15 nodes.
  EXPECT_LE(MaxSize, 15u);
}

TEST_F(CoercionTest, ProxyChainCompressionOnRefs) {
  // Alternating (Ref Int)/(Ref Dyn) casts — quicksort's pattern.
  const Coercion *A = mk("(Ref Int)", "(Ref Dyn)");
  const Coercion *B = mk("(Ref Dyn)", "(Ref Int)");
  const Coercion *Acc = A;
  for (int I = 0; I != 64; ++I) {
    Acc = F.compose(Acc, I % 2 == 0 ? B : A);
    ASSERT_LE(Acc->size(), 15u);
  }
}

TEST_F(CoercionTest, RecursiveCompositionStaysBounded) {
  // The sieve pattern at the coercion level: bouncing a stream between
  // its typed and partially-Dyn views must not grow the coercion.
  const Coercion *Up = mk("(Rec s (Tuple Int (-> s)))",
                          "(Rec s (Tuple Dyn (-> s)))");
  const Coercion *Down = mk("(Rec s (Tuple Dyn (-> s)))",
                            "(Rec s (Tuple Int (-> s)))");
  const Coercion *Acc = Up;
  unsigned MaxSize = 0;
  for (int I = 0; I != 40; ++I) {
    Acc = F.compose(Acc, I % 2 == 0 ? Down : Up);
    MaxSize = std::max(MaxSize, Acc->size());
    ASSERT_TRUE(CoercionFactory::isNormalForm(Acc)) << Acc->str();
  }
  EXPECT_LE(MaxSize, 32u) << "recursive composition grew unboundedly";
}

TEST_F(CoercionTest, RecursiveRoundTripCollapsesToIdentity) {
  // μ-coercion up followed by down composes to ι on the nose (the
  // Figure 15 id_eqv/fvs machinery): projections meet injections inside
  // the recursive body and everything cancels.
  const Coercion *Up = mk("(Rec s (Tuple Int (-> s)))",
                          "(Rec s (Tuple Dyn (-> s)))");
  const Coercion *Down = mk("(Rec s (Tuple Dyn (-> s)))",
                            "(Rec s (Tuple Int (-> s)))");
  EXPECT_TRUE(F.compose(Up, Down)->isId())
      << F.compose(Up, Down)->str();
}

TEST_F(CoercionTest, MutuallyRecursiveTypesCompose) {
  // Two distinct recursive types whose bodies reference each other's
  // shape through double nesting.
  const char *A = "(Rec a (Tuple Int (Rec b (Tuple (-> a) (-> b) Int))))";
  const char *B = "(Rec a (Tuple Dyn (Rec b (Tuple (-> a) (-> b) Dyn))))";
  const Coercion *AB = mk(A, B);
  const Coercion *BA = mk(B, A);
  ASSERT_TRUE(CoercionFactory::isNormalForm(AB)) << AB->str();
  const Coercion *Round = F.compose(AB, BA);
  ASSERT_TRUE(CoercionFactory::isNormalForm(Round)) << Round->str();
  EXPECT_TRUE(Round->isId()) << Round->str();
}

TEST_F(CoercionTest, RefCoercionCarriesTargetAndLabel) {
  // Monotonic mode depends on RefC recording its target view.
  const Coercion *C = mk("(Ref Int)", "(Ref Dyn)", "here");
  ASSERT_EQ(C->kind(), CoercionKind::RefC);
  EXPECT_EQ(C->type(), ty("(Ref Dyn)"));
  EXPECT_EQ(C->label(), "here");
  // Composition keeps the *newer* cast's target and label.
  const Coercion *D = mk("(Ref Dyn)", "(Ref Int)", "newer");
  const Coercion *CD = F.compose(C, D);
  if (CD->kind() == CoercionKind::RefC) {
    EXPECT_EQ(CD->type(), ty("(Ref Int)"));
    EXPECT_EQ(CD->label(), "newer");
  } else {
    EXPECT_TRUE(CD->isId()); // full cancellation is also correct
  }
}

TEST_F(CoercionTest, NormalFormAfterMake) {
  const char *Pairs[][2] = {
      {"Int", "Dyn"},
      {"Dyn", "(Int -> Bool)"},
      {"(Int -> Dyn)", "(Dyn -> Int)"},
      {"(Tuple Int (Ref Dyn))", "(Tuple Dyn (Ref Int))"},
      {"(Vect Dyn)", "(Vect Int)"},
      {"(Rec s (Tuple Int (-> s)))", "(Rec s (Tuple Dyn (-> s)))"},
      {"Int", "Bool"},
  };
  for (auto &P : Pairs) {
    const Coercion *C = mk(P[0], P[1]);
    EXPECT_TRUE(CoercionFactory::isNormalForm(C))
        << P[0] << " => " << P[1] << " gave " << C->str();
  }
}

//===----------------------------------------------------------------------===//
// Property sweeps
//===----------------------------------------------------------------------===//

namespace {

const Type *randomType(TypeContext &Ctx, RNG &Gen, unsigned Depth) {
  unsigned Choice = Gen.below(Depth == 0 ? 4 : 8);
  switch (Choice) {
  case 0:
    return Ctx.dyn();
  case 1:
    return Ctx.integer();
  case 2:
    return Ctx.boolean();
  case 3:
    return Ctx.unit();
  case 4: {
    std::vector<const Type *> Params;
    unsigned NumParams = Gen.below(3);
    for (unsigned I = 0; I != NumParams; ++I)
      Params.push_back(randomType(Ctx, Gen, Depth - 1));
    return Ctx.function(std::move(Params), randomType(Ctx, Gen, Depth - 1));
  }
  case 5: {
    std::vector<const Type *> Elements;
    unsigned NumElements = 1 + Gen.below(2);
    for (unsigned I = 0; I != NumElements; ++I)
      Elements.push_back(randomType(Ctx, Gen, Depth - 1));
    return Ctx.tuple(std::move(Elements));
  }
  case 6:
    return Ctx.box(randomType(Ctx, Gen, Depth - 1));
  default:
    return Ctx.vect(randomType(Ctx, Gen, Depth - 1));
  }
}

} // namespace

class CoercionLawsTest : public ::testing::TestWithParam<int> {};

TEST_P(CoercionLawsTest, MakeRespectsSpaceBound) {
  TypeContext Types;
  CoercionFactory F(Types);
  RNG Gen(GetParam() * 104729 + 1);
  for (int Iter = 0; Iter != 300; ++Iter) {
    const Type *S = randomType(Types, Gen, 3);
    const Type *T = randomType(Types, Gen, 3);
    const Coercion *C = F.make(S, T, "p");
    ASSERT_TRUE(CoercionFactory::isNormalForm(C));
    unsigned H = std::max(S->height(), T->height());
    EXPECT_LE(C->size(), 5u * ((1u << H) - 1))
        << S->str() << " => " << T->str() << " : " << C->str();
  }
}

TEST_P(CoercionLawsTest, ComposeClosedUnderNormalForm) {
  TypeContext Types;
  CoercionFactory F(Types);
  RNG Gen(GetParam() * 7 + 99);
  for (int Iter = 0; Iter != 300; ++Iter) {
    // Build composable coercions: S => M and M => T share the middle type.
    const Type *S = randomType(Types, Gen, 2);
    const Type *M = randomType(Types, Gen, 2);
    const Type *T = randomType(Types, Gen, 2);
    const Coercion *C = F.make(S, M, "p1");
    const Coercion *D = F.make(M, T, "p2");
    const Coercion *E = F.compose(C, D);
    ASSERT_TRUE(CoercionFactory::isNormalForm(E))
        << C->str() << " ; " << D->str() << " = " << E->str();
    // Composition respects the same height-derived bound.
    unsigned H = std::max({S->height(), M->height(), T->height()});
    EXPECT_LE(E->size(), 5u * ((1u << H) - 1));
  }
}

TEST_P(CoercionLawsTest, ComposeAssociativeStructurally) {
  TypeContext Types;
  CoercionFactory F(Types);
  RNG Gen(GetParam() * 31 + 5);
  for (int Iter = 0; Iter != 200; ++Iter) {
    const Type *A = randomType(Types, Gen, 2);
    const Type *B = randomType(Types, Gen, 2);
    const Type *C = randomType(Types, Gen, 2);
    const Type *D = randomType(Types, Gen, 2);
    const Coercion *AB = F.make(A, B, "p1");
    const Coercion *BC = F.make(B, C, "p2");
    const Coercion *CD = F.make(C, D, "p3");
    const Coercion *Left = F.compose(F.compose(AB, BC), CD);
    const Coercion *Right = F.compose(AB, F.compose(BC, CD));
    // Structural (pointer) equality thanks to interning + normal forms.
    EXPECT_EQ(Left, Right)
        << "left: " << Left->str() << "\nright: " << Right->str();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, CoercionLawsTest,
                         ::testing::Range(0, 8));

TEST_F(CoercionTest, NestedSubCoercionsAreInternedAcrossMakes) {
  // makeImpl routes μ-free structural subpairs through makeInterned, so
  // deriving an outer coercion seeds MakeCache with every nested
  // subderivation: re-making any of those subpairs afterwards must
  // allocate zero new nodes.
  const Coercion *Outer = mk("(Tuple (Tuple Int Bool) (Int -> Bool))",
                             "(Tuple (Tuple Dyn Bool) (Dyn -> Bool))");
  ASSERT_FALSE(Outer->isId());
  size_t Nodes = F.allocatedNodes();
  mk("(Tuple Int Bool)", "(Tuple Dyn Bool)");
  mk("(Int -> Bool)", "(Dyn -> Bool)");
  mk("Int", "Dyn");
  EXPECT_EQ(F.allocatedNodes(), Nodes);
}

TEST_F(CoercionTest, RecursiveSubderivationsStillTieKnots) {
  // μ-typed pairs keep the frame-stack path (their subderivations are
  // not self-contained), and the result is unchanged by the caching of
  // μ-free subpairs around them.
  const Coercion *C = mk("(Rec s (Tuple Int (-> s)))",
                         "(Rec s (Tuple Dyn (-> s)))");
  EXPECT_TRUE(CoercionFactory::isNormalForm(C));
  EXPECT_TRUE(C->hasRec());
}

TEST_F(CoercionTest, ResetStartsAFreshEpoch) {
  const Coercion *C = mk("Int", "Dyn");
  ASSERT_TRUE(C->isInjectSeq());
  EXPECT_GT(F.allocatedNodes(), 1u);
  F.reset();
  EXPECT_EQ(F.allocatedNodes(), 1u); // ι only
  EXPECT_TRUE(F.id()->isId());
  // The factory is fully usable in the new epoch.
  const Coercion *C2 = mk("Int", "Dyn");
  ASSERT_TRUE(C2->isInjectSeq());
  EXPECT_TRUE(CoercionFactory::isNormalForm(C2));
  const Coercion *Mu = mk("(Rec s (Tuple Int (-> s)))",
                          "(Rec s (Tuple Dyn (-> s)))");
  EXPECT_TRUE(CoercionFactory::isNormalForm(Mu));
}
