//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the parser and the gradual type checker / cast insertion.
///
//===----------------------------------------------------------------------===//
#include "frontend/Parser.h"
#include "frontend/TypeChecker.h"
#include "sexp/Reader.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

using namespace grift;

namespace {

class FrontendTest : public ::testing::Test {
protected:
  TypeContext Ctx;

  Program parseOk(std::string_view Source) {
    DiagnosticEngine Diags;
    auto Prog = parseProgram(Ctx, Source, Diags);
    EXPECT_TRUE(Prog.has_value()) << Diags.str();
    return Prog ? std::move(*Prog) : Program{};
  }

  void parseFails(std::string_view Source) {
    DiagnosticEngine Diags;
    auto Prog = parseProgram(Ctx, Source, Diags);
    EXPECT_TRUE(!Prog || Diags.hasErrors())
        << "expected parse failure for: " << Source;
  }

  core::CoreProgram checkOk(std::string_view Source) {
    DiagnosticEngine Diags;
    auto Prog = parseProgram(Ctx, Source, Diags);
    EXPECT_TRUE(Prog.has_value()) << Diags.str();
    auto Core = typeCheck(Ctx, *Prog, Diags);
    EXPECT_TRUE(Core.has_value()) << Diags.str();
    return Core ? std::move(*Core) : core::CoreProgram{};
  }

  void checkFails(std::string_view Source) {
    DiagnosticEngine Diags;
    auto Prog = parseProgram(Ctx, Source, Diags);
    ASSERT_TRUE(Prog.has_value()) << Diags.str();
    auto Core = typeCheck(Ctx, *Prog, Diags);
    EXPECT_FALSE(Core.has_value()) << "expected type error for: " << Source;
  }

  /// Type of the final top-level expression.
  const Type *resultType(std::string_view Source) {
    core::CoreProgram Core = checkOk(Source);
    if (Core.Defs.empty())
      return nullptr;
    return Core.Defs.back().Ty;
  }

};

} // namespace

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST_F(FrontendTest, ParseLiteralKinds) {
  Program P = parseOk("42 3.5 #t #\\a ()");
  ASSERT_EQ(P.Defines.size(), 5u);
  EXPECT_EQ(P.Defines[0].Body->Kind, ExprKind::LitInt);
  EXPECT_EQ(P.Defines[1].Body->Kind, ExprKind::LitFloat);
  EXPECT_EQ(P.Defines[2].Body->Kind, ExprKind::LitBool);
  EXPECT_EQ(P.Defines[3].Body->Kind, ExprKind::LitChar);
  EXPECT_EQ(P.Defines[4].Body->Kind, ExprKind::LitUnit);
}

TEST_F(FrontendTest, ParseDefineForms) {
  Program P = parseOk("(define x : Int 5)"
                      "(define y 6)"
                      "(define (f [a : Int]) : Int (+ a 1))"
                      "(define (g a) a)");
  ASSERT_EQ(P.Defines.size(), 4u);
  EXPECT_EQ(P.Defines[0].Name, "x");
  EXPECT_NE(P.Defines[0].Annot, nullptr);
  EXPECT_EQ(P.Defines[1].Annot, nullptr);
  EXPECT_EQ(P.Defines[2].Body->Kind, ExprKind::Lambda);
  EXPECT_NE(P.Defines[2].Body->ReturnAnnot, nullptr);
  EXPECT_EQ(P.Defines[3].Body->Params[0].Annot, nullptr);
}

TEST_F(FrontendTest, ParseLambdaAndLet) {
  Program P = parseOk("(let ([x : Int 1] [y 2]) (+ x y))");
  const Expr &Let = *P.Defines[0].Body;
  ASSERT_EQ(Let.Kind, ExprKind::Let);
  ASSERT_EQ(Let.Bindings.size(), 2u);
  EXPECT_NE(Let.Bindings[0].Annot, nullptr);
  EXPECT_EQ(Let.Bindings[1].Annot, nullptr);
}

TEST_F(FrontendTest, ParseSugar) {
  // and/or/when/unless/cond all desugar to if.
  for (const char *Source :
       {"(and #t #f)", "(or #t #f)", "(when #t 1 2)", "(unless #f 1)",
        "(cond [#t 1] [else 2])"}) {
    Program P = parseOk(Source);
    EXPECT_EQ(P.Defines[0].Body->Kind, ExprKind::If) << Source;
  }
}

TEST_F(FrontendTest, ParseRepeat) {
  Program P = parseOk("(repeat (i 0 10) (acc : Int 0) (+ acc i))");
  const Expr &R = *P.Defines[0].Body;
  ASSERT_EQ(R.Kind, ExprKind::Repeat);
  EXPECT_TRUE(R.HasAcc);
  EXPECT_EQ(R.AccName, "acc");
  EXPECT_EQ(R.SubExprs.size(), 4u);
}

TEST_F(FrontendTest, ParseErrors) {
  parseFails("(define)");
  parseFails("(if #t 1)");
  parseFails("(lambda)");
  parseFails("(tuple-proj x y)");
  parseFails("(let ([x]) x)");
  parseFails("(+ 1)");
  parseFails("(repeat (i 0) 1)");
  parseFails("(f (define x 1))");
  parseFails("(cond [else 1] [#t 2])");
  parseFails("(ann 1 NotAType)");
}

TEST_F(FrontendTest, ProgramPrintRoundTrip) {
  const char *Source = "(define (f [x : Int]) : Int (+ x 1)) (f 41)";
  Program P = parseOk(Source);
  Program P2 = parseOk(P.str());
  EXPECT_EQ(P.str(), P2.str());
}

//===----------------------------------------------------------------------===//
// Type checking
//===----------------------------------------------------------------------===//

TEST_F(FrontendTest, LiteralTypes) {
  EXPECT_EQ(resultType("42"), Ctx.integer());
  EXPECT_EQ(resultType("3.5"), Ctx.floating());
  EXPECT_EQ(resultType("#t"), Ctx.boolean());
  EXPECT_EQ(resultType("#\\a"), Ctx.character());
  EXPECT_EQ(resultType("()"), Ctx.unit());
}

TEST_F(FrontendTest, PrimTypes) {
  EXPECT_EQ(resultType("(+ 1 2)"), Ctx.integer());
  EXPECT_EQ(resultType("(< 1 2)"), Ctx.boolean());
  EXPECT_EQ(resultType("(fl+ 1.0 2.0)"), Ctx.floating());
  EXPECT_EQ(resultType("(int->float 3)"), Ctx.floating());
}

TEST_F(FrontendTest, NoNumericTower) {
  checkFails("(+ 1.0 2)");
  checkFails("(fl+ 1 2.0)");
  checkFails("(+ #t 1)");
}

TEST_F(FrontendTest, LambdaTypes) {
  EXPECT_EQ(resultType("(lambda ([x : Int]) x)"),
            Ctx.function({Ctx.integer()}, Ctx.integer()));
  // Unannotated parameters default to Dyn (fine-grained gradual typing).
  EXPECT_EQ(resultType("(lambda (x) x)"),
            Ctx.function({Ctx.dyn()}, Ctx.dyn()));
  EXPECT_EQ(resultType("((lambda ([x : Int]) : Int (+ x 1)) 41)"),
            Ctx.integer());
}

TEST_F(FrontendTest, ApplicationChecks) {
  checkFails("((lambda ([x : Int]) x) #t)");  // inconsistent argument
  checkFails("((lambda ([x : Int]) x) 1 2)"); // arity
  checkFails("(1 2)");                        // non-function
  // Dyn callee is fine (checked at run time).
  EXPECT_EQ(resultType("((lambda (f) (f 1)) (lambda (x) x))"), Ctx.dyn());
}

TEST_F(FrontendTest, CastInsertionOnDynArgument) {
  core::CoreProgram Core = checkOk("((lambda ([x : Dyn]) x) 42)");
  // 42 : Int flows into x : Dyn — exactly one cast.
  EXPECT_EQ(core::countCasts(Core), 1u);
}

TEST_F(FrontendTest, NoCastsInFullyTypedCode) {
  core::CoreProgram Core =
      checkOk("(define (f [x : Int]) : Int (+ x 1)) (f 41)");
  EXPECT_EQ(core::countCasts(Core), 0u);
}

TEST_F(FrontendTest, AppOnDynUsesAppDyn) {
  core::CoreProgram Core = checkOk("(lambda ([f : Dyn]) (f 42))");
  const core::Node &Lambda = *Core.Defs[0].Body;
  const core::Node &Body = *Lambda.Subs[0];
  // Body is a cast-to-Dyn of the AppDyn or the AppDyn itself.
  const core::Node &AppNode =
      Body.Kind == core::NodeKind::Cast ? *Body.Subs[0] : Body;
  EXPECT_EQ(AppNode.Kind, core::NodeKind::AppDyn);
}

TEST_F(FrontendTest, IfJoinUsesMeet) {
  // One branch Int, other Dyn: result Int (meet), Dyn branch gets cast.
  EXPECT_EQ(resultType("(lambda ([d : Dyn]) (if #t 1 d))"),
            Ctx.function({Ctx.dyn()}, Ctx.integer()));
  checkFails("(if #t 1 #f)");
  checkFails("(if 1 2 3)");
}

TEST_F(FrontendTest, IfCondFromDyn) {
  core::CoreProgram Core = checkOk("(lambda ([d : Dyn]) (if d 1 2))");
  EXPECT_EQ(core::countCasts(Core), 1u);
}

TEST_F(FrontendTest, MutualRecursionAtTopLevel) {
  const char *Source =
      "(define (even? [n : Int]) : Bool (if (= n 0) #t (odd? (- n 1))))"
      "(define (odd? [n : Int]) : Bool (if (= n 0) #f (even? (- n 1))))"
      "(even? 10)";
  EXPECT_EQ(resultType(Source), Ctx.boolean());
}

TEST_F(FrontendTest, LetrecRequiresLambda) {
  checkFails("(letrec ([x 5]) x)");
  EXPECT_EQ(resultType("(letrec ([f : (Int -> Int)"
                       "           (lambda ([n : Int]) : Int"
                       "             (if (= n 0) 1 (* n (f (- n 1)))))])"
                       "  (f 5))"),
            Ctx.integer());
}

TEST_F(FrontendTest, TupleTypes) {
  EXPECT_EQ(resultType("(tuple 1 2.0)"),
            Ctx.tuple({Ctx.integer(), Ctx.floating()}));
  EXPECT_EQ(resultType("(tuple-proj (tuple 1 2.0) 1)"), Ctx.floating());
  checkFails("(tuple-proj (tuple 1) 3)");
  checkFails("(tuple-proj 5 0)");
  // Projection from Dyn is allowed, checked at run time.
  EXPECT_EQ(resultType("(lambda ([d : Dyn]) (tuple-proj d 0))"),
            Ctx.function({Ctx.dyn()}, Ctx.dyn()));
}

TEST_F(FrontendTest, ReferenceTypes) {
  EXPECT_EQ(resultType("(box 5)"), Ctx.box(Ctx.integer()));
  EXPECT_EQ(resultType("(unbox (box 5))"), Ctx.integer());
  EXPECT_EQ(resultType("(box-set! (box 5) 6)"), Ctx.unit());
  checkFails("(unbox 5)");
  checkFails("(box-set! (box 5) #t)");
  EXPECT_EQ(resultType("(make-vector 3 0)"), Ctx.vect(Ctx.integer()));
  EXPECT_EQ(resultType("(vector-ref (make-vector 3 0) 0)"), Ctx.integer());
  EXPECT_EQ(resultType("(vector-length (make-vector 3 0))"), Ctx.integer());
  checkFails("(vector-ref (make-vector 3 0) #t)");
  checkFails("(vector-set! (make-vector 3 0) 0 1.5)");
}

TEST_F(FrontendTest, AnnInsertsCast) {
  core::CoreProgram Core = checkOk("(lambda ([d : Dyn]) (ann d Int))");
  EXPECT_EQ(core::countCasts(Core), 1u);
  checkFails("(ann 1 Bool)");
}

TEST_F(FrontendTest, UndefinedVariable) {
  checkFails("nope");
  checkFails("(define x : Int y)");
}

TEST_F(FrontendTest, DuplicateDefine) {
  checkFails("(define x 1) (define x 2)");
}

TEST_F(FrontendTest, RepeatTyping) {
  EXPECT_EQ(resultType("(repeat (i 0 10) (acc : Int 0) (+ acc i))"),
            Ctx.integer());
  EXPECT_EQ(resultType("(repeat (i 0 10) (+ i 1))"), Ctx.unit());
  checkFails("(repeat (i #t 10) 1)");
}

TEST_F(FrontendTest, RecursiveTypeAnnotations) {
  // A stream of integers, sieve-style.
  const char *Source =
      "(define (ones) : (Rec s (Tuple Int (-> s)))"
      "  (tuple 1 ones))"
      "(tuple-proj (ones) 0)";
  EXPECT_EQ(resultType(Source), Ctx.integer());
}

TEST_F(FrontendTest, QuicksortHeaderCast) {
  // The paper's Figure 3 pattern: declared type (Vect Int), lambda
  // parameter (Vect Dyn). The define body must contain exactly one cast.
  const char *Source =
      "(define sort! : ((Vect Int) Int Int -> ())"
      "  (lambda ([v : (Vect Dyn)] [lo : Int] [hi : Int]) ()))";
  core::CoreProgram Core = checkOk(Source);
  EXPECT_EQ(core::countCasts(Core), 1u);
  EXPECT_EQ(Core.Defs[0].Body->Kind, core::NodeKind::Cast);
}

TEST_F(FrontendTest, BlameLabelsCarryLocation) {
  core::CoreProgram Core = checkOk("(ann\n  1 Dyn)");
  const core::Node &Cast = *Core.Defs[0].Body;
  ASSERT_EQ(Cast.Kind, core::NodeKind::Cast);
  EXPECT_EQ(Cast.blameLabel(), "1:1");
}

TEST_F(FrontendTest, TimePreservesType) {
  EXPECT_EQ(resultType("(time (+ 1 2))"), Ctx.integer());
}

TEST_F(FrontendTest, BeginTypeIsLast) {
  EXPECT_EQ(resultType("(begin 1 2.0 #t)"), Ctx.boolean());
}

TEST_F(FrontendTest, InconsistentDefineAnnotations) {
  checkFails("(define x : Int #t)");
  checkFails("(define f : (Int -> Int) (lambda ([x : Bool]) x))");
  checkFails("(define f : Bool (lambda ([x : Int]) x))");
  // A Dyn annotation accepts anything.
  EXPECT_EQ(resultType("(define f : Dyn (lambda ([x : Int]) x)) 1"),
            Ctx.integer());
}

TEST_F(FrontendTest, LetrecAnnotationConsistency) {
  // Dyn annotation on a letrec binding is legal gradual typing...
  EXPECT_EQ(resultType("(letrec ([f : Dyn (lambda ([n : Int]) n)]) 5)"),
            Ctx.integer());
  // ...but an inconsistent one is a static error.
  checkFails("(letrec ([f : Int (lambda ([n : Int]) n)]) 5)");
  checkFails("(letrec ([f : (Bool -> Int) (lambda ([n : Int]) : Int n)])"
             "  (f 1))");
}

TEST_F(FrontendTest, RepeatAccumulatorConsistency) {
  checkFails("(repeat (i 0 3) (acc : Int 0) #t)");
  checkFails("(repeat (i 0 3) (acc : Int #f) 1)");
  // A Dyn accumulator absorbs both.
  EXPECT_EQ(resultType("(repeat (i 0 3) (acc : Dyn 0) #t)"), Ctx.dyn());
}

TEST_F(FrontendTest, ZeroArityFunctions) {
  EXPECT_EQ(resultType("(lambda () 5)"), Ctx.function({}, Ctx.integer()));
  EXPECT_EQ(resultType("((lambda () 5))"), Ctx.integer());
  checkFails("((lambda () 5) 1)");
  // Zero-arity through Dyn is checked at run time.
  EXPECT_EQ(resultType("((ann (lambda () 5) Dyn))"), Ctx.dyn());
}

TEST_F(FrontendTest, SingleElementTupleTypes) {
  EXPECT_EQ(resultType("(tuple 9)"), Ctx.tuple({Ctx.integer()}));
  EXPECT_EQ(resultType("(tuple-proj (tuple 9) 0)"), Ctx.integer());
}

TEST_F(FrontendTest, NestedAscriptionsCompose) {
  core::CoreProgram Core =
      checkOk("(ann (ann (ann 1 Dyn) Int) Dyn)");
  EXPECT_EQ(core::countCasts(Core), 3u);
}

TEST_F(FrontendTest, KeywordsRejectedAsVariables) {
  parseFails("(let ([define 1]) define)");
  parseFails("(+ if 1)");
  parseFails("(lambda (lambda) 1)");
}

TEST_F(FrontendTest, DeeplyNestedTypesParse) {
  EXPECT_NE(resultType("(lambda ([f : ((Vect (Tuple Int (Ref Dyn))) "
                       "-> (Rec s (Tuple Float (-> s))))]) 0)"),
            nullptr);
}

TEST_F(FrontendTest, ConditionMustBeConsistentWithBool) {
  checkFails("(if 3.5 1 2)");
  checkFails("(if () 1 2)");
  // Dyn condition is checked at run time.
  EXPECT_EQ(resultType("(lambda ([c : Dyn]) (if c 1 2))"),
            Ctx.function({Ctx.dyn()}, Ctx.integer()));
}

TEST_F(FrontendTest, VectorOfVectors) {
  EXPECT_EQ(resultType("(make-vector 2 (make-vector 3 0))"),
            Ctx.vect(Ctx.vect(Ctx.integer())));
  EXPECT_EQ(resultType("(vector-ref (make-vector 2 (make-vector 3 0)) 0)"),
            Ctx.vect(Ctx.integer()));
}

TEST_F(FrontendTest, FunctionReturningFunction) {
  EXPECT_EQ(
      resultType("(lambda ([x : Int]) (lambda ([y : Int]) (+ x y)))"),
      Ctx.function({Ctx.integer()},
                   Ctx.function({Ctx.integer()}, Ctx.integer())));
}

TEST_F(FrontendTest, NumberLiteralsOutsideTheirRangeAreReadErrors) {
  auto diagnose = [&](std::string_view Source) {
    DiagnosticEngine Diags;
    auto Prog = parseProgram(Ctx, Source, Diags);
    EXPECT_FALSE(Prog.has_value()) << Source;
    return Diags.str();
  };
  EXPECT_EQ(diagnose("(+ 99999999999999999999 1)"),
            "error: 1:4: integer literal 99999999999999999999 is outside "
            "the fixnum range [-2^47, 2^47)\n");
  EXPECT_EQ(diagnose("(fl+ 1e400 1.0)"),
            "error: 1:6: float literal 1e400 is outside the Float range\n");
  // In int64 but not a fixnum: the parser's check, printed as before.
  EXPECT_EQ(diagnose("(+ +140737488355328 1)"),
            "error: 1:4: integer literal 140737488355328 is outside the "
            "fixnum range [-2^47, 2^47)\n");
}

TEST_F(FrontendTest, HexSpellingIsAVariableNotAFloat) {
  DiagnosticEngine Diags;
  auto Prog = parseProgram(Ctx, "(fl+ 0x10 1.0)", Diags);
  ASSERT_TRUE(Prog.has_value()) << Diags.str();
  auto Core = typeCheck(Ctx, *Prog, Diags);
  EXPECT_FALSE(Core.has_value());
  EXPECT_EQ(Diags.str(), "error: 1:6: undefined variable '0x10'\n");
}

TEST_F(FrontendTest, PrimitiveSymbolsCarryTheirPrimOp) {
  for (unsigned I = 0; I != numPrims(); ++I) {
    std::string Name(primName(PrimOp(I)));
    DiagnosticEngine Diags;
    SexpArena Data = readSexps(Name, Diags);
    ASSERT_EQ(Data.size(), 1u) << Name;
    EXPECT_EQ(Data[0].symbolClass(), Sexp::Class::Prim) << Name;
    EXPECT_EQ(Data[0].id(), I) << Name;
  }
}

TEST_F(FrontendTest, ShadowingFollowsTheInnermostBinding) {
  // Flat scopes: an inner binding hides an outer one until its scope
  // ends, and a repeated name in one scope means its last binding.
  EXPECT_EQ(resultType("(let ([x 1]) (let ([x #t]) x))"), Ctx.boolean());
  EXPECT_EQ(resultType("(let ([x 1]) (begin (let ([x #t]) x) x))"),
            Ctx.integer());
  EXPECT_EQ(resultType("((lambda ([x : Int] [x : Bool]) x) 1 #t)"),
            Ctx.boolean());
  EXPECT_EQ(resultType("(let ([x 1.5]) (repeat (x 0 3) (acc 0) (+ acc x)))"),
            Ctx.integer());
  checkFails("(let ([y (let ([x 1]) x)]) x)");
}
