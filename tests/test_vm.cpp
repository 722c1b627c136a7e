//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests: compile and run GTLC+ programs through the full
/// pipeline in every cast mode. Includes the semantic soundness property
/// for coercions (composing equals sequential application) exercised via
/// programs, the paper's even/odd and quicksort behaviours, blame
/// tracking, and mode-equivalence checks.
///
//===----------------------------------------------------------------------===//
#include "grift/Grift.h"
#include "refinterp/RefInterp.h"

#include <gtest/gtest.h>

using namespace grift;

namespace {

class VMTest : public ::testing::Test {
protected:
  Grift G;

  RunResult runMode(std::string_view Source, CastMode Mode,
                    std::string Input = "") {
    std::string Errors;
    auto Exe = G.compile(Source, Mode, Errors);
    EXPECT_TRUE(Exe.has_value()) << Errors;
    if (!Exe) {
      RunResult R;
      R.Error = {ErrorKind::Trap, "", "compile failed: " + Errors};
      return R;
    }
    return Exe->run(std::move(Input));
  }

  /// Runs under coercions and checks the result text.
  void expectResult(std::string_view Source, std::string_view Expected) {
    RunResult R = runMode(Source, CastMode::Coercions);
    ASSERT_TRUE(R.OK) << R.Error.str() << " for " << Source;
    EXPECT_EQ(R.ResultText, Expected) << Source;
  }

  /// Runs under both gradual modes and expects identical result text.
  std::string expectModesAgree(std::string_view Source) {
    RunResult A = runMode(Source, CastMode::Coercions);
    RunResult B = runMode(Source, CastMode::TypeBased);
    EXPECT_EQ(A.OK, B.OK) << Source;
    if (A.OK && B.OK) {
      EXPECT_EQ(A.ResultText, B.ResultText) << Source;
      EXPECT_EQ(A.Output, B.Output) << Source;
    }
    return A.OK ? A.ResultText : std::string();
  }

  void expectBlame(std::string_view Source, CastMode Mode,
                   std::string_view Label = "") {
    RunResult R = runMode(Source, Mode);
    ASSERT_FALSE(R.OK) << "expected blame for " << Source;
    EXPECT_TRUE(R.Error.isBlame()) << R.Error.str();
    if (!Label.empty())
      EXPECT_EQ(R.Error.Label, Label) << Source;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Basic semantics
//===----------------------------------------------------------------------===//

TEST_F(VMTest, Literals) {
  expectResult("42", "42");
  expectResult("-17", "-17");
  expectResult("3.5", "3.5");
  expectResult("#t", "#t");
  expectResult("#\\a", "#\\a");
  expectResult("()", "()");
}

TEST_F(VMTest, IntegerArithmetic) {
  expectResult("(+ 1 2)", "3");
  expectResult("(- 1 2)", "-1");
  expectResult("(* 6 7)", "42");
  expectResult("(/ 7 2)", "3");
  expectResult("(% 7 2)", "1");
  expectResult("(< 1 2)", "#t");
  expectResult("(>= 2 2)", "#t");
  expectResult("(= 1 2)", "#f");
}

TEST_F(VMTest, FloatArithmetic) {
  expectResult("(fl+ 1.5 2.25)", "3.75");
  expectResult("(fl* 2.0 4.0)", "8.0");
  expectResult("(flsqrt 9.0)", "3.0");
  expectResult("(fl< 1.0 2.0)", "#t");
  expectResult("(flmin 3.0 1.0)", "1.0");
  expectResult("(int->float 2)", "2.0");
  expectResult("(float->int 2.75)", "2");
}

TEST_F(VMTest, Conversions) {
  expectResult("(char->int #\\a)", "97");
  expectResult("(int->char 98)", "#\\b");
  expectResult("(not #f)", "#t");
}

TEST_F(VMTest, IfAndSugar) {
  expectResult("(if #t 1 2)", "1");
  expectResult("(if #f 1 2)", "2");
  expectResult("(and #t #t #f)", "#f");
  expectResult("(or #f #f #t)", "#t");
  // when/unless produce () on the missing branch, so bodies are Unit.
  RunResult W = runMode("(when (< 1 2) (print-int 5))", CastMode::Coercions);
  ASSERT_TRUE(W.OK);
  EXPECT_EQ(W.Output, "5");
  expectResult("(unless (< 1 2) (print-int 5))", "()");
  expectResult("(cond [(< 2 1) 0] [(< 1 2) 1] [else 2])", "1");
}

TEST_F(VMTest, LetAndBegin) {
  expectResult("(let ([x 1] [y 2]) (+ x y))", "3");
  expectResult("(let ([x 1]) (let ([x 2] [y x]) (+ x y)))", "3"); // parallel
  expectResult("(begin 1 2 3)", "3");
}

TEST_F(VMTest, LambdaAndApplication) {
  expectResult("((lambda ([x : Int]) (* x x)) 7)", "49");
  expectResult("((lambda (x y) x) 1 2)", "1");
  expectResult("(let ([f (lambda ([x : Int]) : Int (+ x 1))]) (f (f 40)))",
               "42");
}

TEST_F(VMTest, ClosuresCapture) {
  expectResult("(let ([make (lambda ([n : Int])"
               "              (lambda ([m : Int]) (+ n m)))])"
               "  (let ([add5 (make 5)]) (add5 37)))",
               "42");
  // Nested capture through two lambda levels.
  expectResult("(let ([a 1])"
               "  (let ([f (lambda () (lambda () a))])"
               "    ((f))))",
               "1");
}

TEST_F(VMTest, TopLevelRecursion) {
  expectResult("(define (fact [n : Int]) : Int"
               "  (if (= n 0) 1 (* n (fact (- n 1)))))"
               "(fact 10)",
               "3628800");
}

TEST_F(VMTest, MutualRecursion) {
  expectResult(
      "(define (even? [n : Int]) : Bool (if (= n 0) #t (odd? (- n 1))))"
      "(define (odd? [n : Int]) : Bool (if (= n 0) #f (even? (- n 1))))"
      "(even? 100)",
      "#t");
}

TEST_F(VMTest, LetrecLocalRecursion) {
  expectResult("(letrec ([fib : (Int -> Int)"
               "           (lambda ([n : Int]) : Int"
               "             (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))])"
               "  (fib 15))",
               "610");
  // Mutually recursive letrec.
  expectResult(
      "(letrec ([e? : (Int -> Bool)"
      "           (lambda ([n : Int]) : Bool (if (= n 0) #t (o? (- n 1))))]"
      "         [o? : (Int -> Bool)"
      "           (lambda ([n : Int]) : Bool (if (= n 0) #f (e? (- n 1))))])"
      "  (e? 41))",
      "#f");
}

TEST_F(VMTest, TailCallsRunDeep) {
  expectResult("(define (loop [n : Int] [acc : Int]) : Int"
               "  (if (= n 0) acc (loop (- n 1) (+ acc 1))))"
               "(loop 1000000 0)",
               "1000000");
}

TEST_F(VMTest, RepeatLoop) {
  expectResult("(repeat (i 0 10) (acc : Int 0) (+ acc i))", "45");
  expectResult("(repeat (i 0 0) (acc : Int 7) (+ acc 1))", "7");
  expectResult("(let ([v (make-vector 5 0)])"
               "  (begin (repeat (i 0 5) (vector-set! v i (* i i)))"
               "         (vector-ref v 4)))",
               "16");
}

/// Binders the checker must resolve exactly as lexical scope does:
/// duplicate names in one binding form, a repeat accumulator named like
/// its index, shadowing across lambdas and sibling letrec bindings. The
/// reference interpreter resolves names itself, so it is the oracle for
/// the binder ids codegen compiles from.
TEST_F(VMTest, BindersResolveLexicallyInEveryMode) {
  struct Case {
    const char *Source;
    const char *Expected;
  };
  const Case Cases[] = {
      {"(let ([x 1] [x 2]) x)", "2"},
      {"((lambda (x x) x) 1 2)", "2"},
      {"(letrec ([f (lambda () 1)] [f (lambda () 2)]) (f))", "2"},
      {"(repeat (i 0 3) (i 10) (+ i 1))", "13"},
      {"(let ([x 1]) (repeat (x 0 3) (a x) (+ a x)))", "4"},
      // A local shadowing a global, read under a lambda.
      {"(define x 5) (let ([x 1]) ((lambda () x)))", "1"},
      // A capture through three lambda levels.
      {"(let ([x 1]) ((lambda () ((lambda () ((lambda () x)))))))", "1"},
      // A letrec sibling shadowed by an inner let.
      {"(letrec ([f (lambda () (let ([g (lambda () #t)]) (g)))]"
       "         [g (lambda () #f)])"
       "  (f))",
       "#t"},
  };
  for (const Case &C : Cases) {
    for (CastMode Mode : AllCastModes) {
      if (Mode == CastMode::Static)
        continue;
      RunResult R = runMode(C.Source, Mode);
      ASSERT_TRUE(R.OK) << R.Error.str() << " for " << C.Source;
      EXPECT_EQ(R.ResultText, C.Expected)
          << C.Source << " in " << castModeName(Mode);
    }
    std::string Errors;
    auto Ast = G.parse(C.Source, Errors);
    ASSERT_TRUE(Ast) << Errors;
    auto Core = G.check(*Ast, Errors);
    ASSERT_TRUE(Core) << Errors;
    refinterp::RefResult Ref =
        refinterp::interpret(G.types(), G.coercions(), *Core);
    ASSERT_TRUE(Ref.OK) << Ref.Message << " for " << C.Source;
    EXPECT_EQ(Ref.ResultText, C.Expected) << C.Source << " in refinterp";
  }
}

TEST_F(VMTest, TuplesWork) {
  expectResult("(tuple 1 2.5 #t)", "#(1 2.5 #t)");
  expectResult("(tuple-proj (tuple 1 2) 1)", "2");
  expectResult("(let ([p (tuple (tuple 1 2) 3)])"
               "  (tuple-proj (tuple-proj p 0) 1))",
               "2");
}

TEST_F(VMTest, BoxesWork) {
  expectResult("(unbox (box 41))", "41");
  expectResult("(let ([b (box 1)]) (begin (box-set! b 42) (unbox b)))", "42");
}

TEST_F(VMTest, VectorsWork) {
  expectResult("(vector-length (make-vector 7 0))", "7");
  expectResult("(let ([v (make-vector 3 9)]) (vector-ref v 2))", "9");
  expectResult("(let ([v (make-vector 3 0)])"
               "  (begin (vector-set! v 1 5) (vector-ref v 1)))",
               "5");
}

TEST_F(VMTest, VectorBoundsTrap) {
  RunResult R = runMode("(vector-ref (make-vector 2 0) 5)",
                        CastMode::Coercions);
  ASSERT_FALSE(R.OK);
  EXPECT_FALSE(R.Error.isBlame());
}

TEST_F(VMTest, PrintingAndInput) {
  RunResult R = runMode("(begin (print-int 42) (print-char #\\newline)"
                        "       (print-float 1.5) (print-bool #t) ())",
                        CastMode::Coercions);
  ASSERT_TRUE(R.OK) << R.Error.str();
  EXPECT_EQ(R.Output, "42\n1.5#t");
  RunResult R2 =
      runMode("(+ (read-int) (read-int))", CastMode::Coercions, " 40  2 ");
  ASSERT_TRUE(R2.OK);
  EXPECT_EQ(R2.ResultText, "42");
}

TEST_F(VMTest, TimeFormMeasures) {
  RunResult R = runMode("(time (repeat (i 0 1000) (acc : Int 0) (+ acc i)))",
                        CastMode::Coercions);
  ASSERT_TRUE(R.OK);
  EXPECT_EQ(R.ResultText, "499500");
  EXPECT_GE(R.Stats.TimedNanos, 0);
}

//===----------------------------------------------------------------------===//
// Gradual typing semantics
//===----------------------------------------------------------------------===//

TEST_F(VMTest, CastThroughDyn) {
  expectModesAgree("(ann (ann 42 Dyn) Int)");
  expectModesAgree("(ann (ann 2.5 Dyn) Float)");
  expectModesAgree("(ann (ann #t Dyn) Bool)");
}

TEST_F(VMTest, DynArithmeticViaProjection) {
  expectResult("(lambda (x) x)", "#<procedure>");
  EXPECT_EQ(expectModesAgree("((lambda (x) (+ x 1)) (ann 41 Dyn))"), "42");
}

TEST_F(VMTest, AppDynWorks) {
  EXPECT_EQ(expectModesAgree("((lambda (f) (f 21))"
                             " (lambda ([x : Int]) : Int (* 2 x)))"),
            "42");
}

TEST_F(VMTest, AppDynNonFunctionBlames) {
  expectBlame("((lambda (f) (f 1)) 5)", CastMode::Coercions);
  expectBlame("((lambda (f) (f 1)) 5)", CastMode::TypeBased);
}

TEST_F(VMTest, AppDynArityBlames) {
  expectBlame("((lambda (f) (f 1 2)) (lambda ([x : Int]) x))",
              CastMode::Coercions);
}

TEST_F(VMTest, ProjectionBlameCarriesLocation) {
  // The failing cast is the (ann d Bool) projection on line 1.
  RunResult R = runMode("((lambda ([d : Dyn]) (ann d Bool)) 42)",
                        CastMode::Coercions);
  ASSERT_FALSE(R.OK);
  EXPECT_TRUE(R.Error.isBlame());
  EXPECT_EQ(R.Error.Label, "1:22");
  // Same blame in type-based mode.
  RunResult R2 = runMode("((lambda ([d : Dyn]) (ann d Bool)) 42)",
                         CastMode::TypeBased);
  ASSERT_FALSE(R2.OK);
  EXPECT_EQ(R2.Error.Label, "1:22");
}

TEST_F(VMTest, ProjectionShapedCastOfAnotherType) {
  // (T?ᵖ ; ι) applied to a Dyn value whose runtime type is not T leaves
  // the inline path: a consistent type converts, an inconsistent one
  // blames the site. Either way the cast counts once per application.
  auto Loop = [](int N) {
    return "(define t : Dyn (tuple 1 2))\n"
           "(repeat (i 0 " + std::to_string(N) + ") (acc : Int 0)\n"
           "  (+ acc (tuple-proj (ann t (Tuple Dyn Int)) 1)))";
  };
  for (CastMode Mode : {CastMode::Coercions, CastMode::CoercionPassing}) {
    RunResult Short = runMode(Loop(10), Mode);
    RunResult Long = runMode(Loop(30), Mode);
    ASSERT_TRUE(Short.OK && Long.OK) << castModeName(Mode);
    EXPECT_EQ(Long.ResultText, "60");
    EXPECT_EQ(Long.Stats.CastsApplied - Short.Stats.CastsApplied, 20u)
        << castModeName(Mode);

    RunResult R = runMode("(define t : Dyn (tuple 1 2))\n"
                          "(tuple-proj (ann t (Tuple Bool Int)) 1)",
                          Mode);
    ASSERT_FALSE(R.OK) << castModeName(Mode);
    EXPECT_TRUE(R.Error.isBlame()) << R.Error.str();
    EXPECT_EQ(R.Error.Label, "2:13") << castModeName(Mode);
    RunResult A = runMode("(define d : Dyn (ann #t Dyn))\n"
                          "(+ 1 (ann d Int))",
                          Mode);
    ASSERT_FALSE(A.OK) << castModeName(Mode);
    EXPECT_TRUE(A.Error.isBlame()) << A.Error.str();
    EXPECT_EQ(A.Error.Label, "2:6") << castModeName(Mode);
  }
}

TEST_F(VMTest, HigherOrderCastDefersBlame) {
  // Casting (Int -> Int) to (Dyn -> Dyn) succeeds; calling it with a
  // non-Int blames at the call.
  const char *Source = "(define f : (Dyn -> Dyn) (lambda ([x : Int]) x))"
                       "(f #t)";
  expectBlame(Source, CastMode::Coercions);
  expectBlame(Source, CastMode::TypeBased);
  // Calling with an Int succeeds.
  EXPECT_EQ(expectModesAgree(
                "(define f : (Dyn -> Dyn) (lambda ([x : Int]) x))(f 7)"),
            "7");
}

TEST_F(VMTest, FunctionProxyRoundTrip) {
  // Cast a function to Dyn and back, then call it.
  EXPECT_EQ(expectModesAgree(
                "(let ([f (ann (lambda ([x : Int]) : Int (+ x 1)) Dyn)])"
                "  ((ann f (Int -> Int)) 41))"),
            "42");
}

TEST_F(VMTest, CoerceComposeEqualsSequentialApply) {
  // Semantic soundness of composition: a value pushed through a chain of
  // casts one at a time equals the value pushed through repeated
  // proxy-composition (coercion mode composes on each cast).
  const char *Chain =
      "(define f : (Int -> Int) (lambda ([x : Int]) : Int (+ x 1)))"
      "(define g1 : (Dyn -> Dyn) f)"   // Int->Int => Dyn->Dyn
      "(define g2 : (Int -> Dyn) g1)"  // and back partway
      "(define g3 : (Dyn -> Int) g2)"  // ...
      "(define g4 : (Int -> Int) g3)"  // full circle
      "(g4 41)";
  EXPECT_EQ(expectModesAgree(Chain), "42");
}

TEST_F(VMTest, DynBoxOperations) {
  EXPECT_EQ(expectModesAgree("((lambda (b) (unbox b)) (box 41))"), "41");
  EXPECT_EQ(expectModesAgree("((lambda (b) (begin (box-set! b 5) (unbox b)))"
                             " (box 1))"),
            "5");
  expectBlame("((lambda (b) (unbox b)) 3)", CastMode::Coercions);
}

TEST_F(VMTest, DynVectorOperations) {
  EXPECT_EQ(expectModesAgree("((lambda (v) (vector-ref v 1))"
                             " (make-vector 3 9))"),
            "9");
  EXPECT_EQ(expectModesAgree("((lambda (v) (vector-length v))"
                             " (make-vector 4 0))"),
            "4");
  EXPECT_EQ(
      expectModesAgree("((lambda (v) (begin (vector-set! v 0 7)"
                       "                    (vector-ref v 0)))"
                       " (make-vector 2 0))"),
      "7");
  expectBlame("((lambda (v) (vector-ref v 0)) 5)", CastMode::TypeBased);
}

TEST_F(VMTest, DynTupleProjection) {
  EXPECT_EQ(expectModesAgree("((lambda (t) (tuple-proj t 1)) (tuple 1 2))"),
            "2");
  expectBlame("((lambda (t) (tuple-proj t 5)) (tuple 1 2))",
              CastMode::Coercions);
}

TEST_F(VMTest, ProxiedVectorThroughAnnotation) {
  // Write through a (Vect Dyn) view of a (Vect Int); read back raw.
  const char *Source = "(let ([v : (Vect Int) (make-vector 3 0)])"
                       "  (let ([w : (Vect Dyn) v])"
                       "    (begin (vector-set! w 1 (ann 5 Dyn))"
                       "           (vector-ref v 1))))";
  EXPECT_EQ(expectModesAgree(Source), "5");
}

TEST_F(VMTest, ProxiedWriteOfWrongTypeBlames) {
  const char *Source = "(let ([v : (Vect Int) (make-vector 3 0)])"
                       "  (let ([w : (Vect Dyn) v])"
                       "    (vector-set! w 1 (ann #t Dyn))))";
  expectBlame(Source, CastMode::Coercions);
  expectBlame(Source, CastMode::TypeBased);
}

TEST_F(VMTest, RecursiveTypeStream) {
  // An integer stream as in the sieve benchmark.
  const char *Source =
      "(define (count-from [n : Int]) : (Rec s (Tuple Int (-> s)))"
      "  (tuple n (lambda () (count-from (+ n 1)))))"
      "(define (nth [s : (Rec s (Tuple Int (-> s)))] [k : Int]) : Int"
      "  (if (= k 0) (tuple-proj s 0) (nth ((tuple-proj s 1)) (- k 1))))"
      "(nth (count-from 10) 5)";
  EXPECT_EQ(expectModesAgree(Source), "15");
}

TEST_F(VMTest, StaticModeMatchesOnTypedPrograms) {
  const char *Typed = "(define (fact [n : Int]) : Int"
                      "  (if (= n 0) 1 (* n (fact (- n 1)))))"
                      "(fact 12)";
  RunResult S = runMode(Typed, CastMode::Static);
  RunResult C = runMode(Typed, CastMode::Coercions);
  ASSERT_TRUE(S.OK && C.OK);
  EXPECT_EQ(S.ResultText, C.ResultText);
  EXPECT_EQ(S.Stats.CastsApplied, 0u);
  EXPECT_EQ(C.Stats.CastsApplied, 0u); // fully typed: no casts either
}

TEST_F(VMTest, StaticModeRejectsGradualPrograms) {
  std::string Errors;
  auto Exe = G.compile("(lambda (x) x)", CastMode::Static, Errors);
  // Unannotated parameter means Dyn — static compilation must fail.
  EXPECT_FALSE(Exe.has_value());
}

//===----------------------------------------------------------------------===//
// The paper's space-efficiency behaviours
//===----------------------------------------------------------------------===//

namespace {

/// The even/odd CPS program of paper Figure 2, parameterized by n.
std::string evenOddProgram(int N) {
  return "(define even? : (Dyn (Dyn -> Bool) -> Bool)"
         "  (lambda ([n : Dyn] [k : (Dyn -> Bool)])"
         "    (if (= n 0) (k #t) (odd? (- n 1) k))))"
         "(define odd? : (Int (Bool -> Bool) -> Bool)"
         "  (lambda ([n : Int] [k : (Bool -> Bool)])"
         "    (if (= n 0) (k #f) (even? (- n 1) k))))"
         "(even? (ann " +
         std::to_string(N) +
         " Dyn) (lambda ([b : Dyn]) (ann b Bool)))";
}

/// even/odd via evenOddProgram but reading n from input so one
/// executable serves several sizes (heap peaks must be comparable).
std::string evenOddSpaceProgram() {
  return "(define even? : (Dyn (Dyn -> Bool) -> Bool)"
         "  (lambda ([n : Dyn] [k : (Dyn -> Bool)])"
         "    (if (= n 0) (k #t) (odd? (- n 1) k))))"
         "(define odd? : (Int (Bool -> Bool) -> Bool)"
         "  (lambda ([n : Int] [k : (Bool -> Bool)])"
         "    (if (= n 0) (k #f) (even? (- n 1) k))))"
         "(even? (ann (read-int) Dyn) (lambda ([b : Dyn]) (ann b Bool)))";
}

} // namespace

TEST_F(VMTest, EvenOddComputesCorrectly) {
  for (int N : {0, 1, 7, 100}) {
    RunResult C = runMode(evenOddProgram(N), CastMode::Coercions);
    RunResult T = runMode(evenOddProgram(N), CastMode::TypeBased);
    ASSERT_TRUE(C.OK) << C.Error.str();
    ASSERT_TRUE(T.OK) << T.Error.str();
    std::string Expected = N % 2 == 0 ? "#t" : "#f";
    EXPECT_EQ(C.ResultText, Expected);
    EXPECT_EQ(T.ResultText, Expected);
  }
}

TEST_F(VMTest, EvenOddProxyChainsDivergeByMode) {
  // The paper's Figure 4 (left): type-based casts accumulate proxies on
  // the continuation; coercions keep a single composed proxy.
  RunResult C = runMode(evenOddProgram(200), CastMode::Coercions);
  RunResult T = runMode(evenOddProgram(200), CastMode::TypeBased);
  ASSERT_TRUE(C.OK && T.OK);
  EXPECT_LE(C.Stats.LongestProxyChain, 1u);
  EXPECT_GE(T.Stats.LongestProxyChain, 100u);
}

TEST_F(VMTest, QuicksortPartialAnnotationChains) {
  // Figure 3: fully typed quicksort except the sort! vector parameter.
  const char *Source =
      "(define swap! : ((Vect Int) Int Int -> ())"
      "  (lambda ([v : (Vect Int)] [i : Int] [j : Int])"
      "    (let ([tmp : Int (vector-ref v i)])"
      "      (begin (vector-set! v i (vector-ref v j))"
      "             (vector-set! v j tmp)))))"
      "(define partition! : ((Vect Int) Int Int -> Int)"
      "  (lambda ([v : (Vect Int)] [l : Int] [h : Int])"
      "    (let ([p : Int (vector-ref v h)] [i : (Ref Int) (box (- l 1))])"
      "      (begin"
      "        (repeat (j l h)"
      "          (when (<= (vector-ref v j) p)"
      "            (box-set! i (+ (unbox i) 1))"
      "            (swap! v (unbox i) j)))"
      "        (swap! v (+ (unbox i) 1) h)"
      "        (+ (unbox i) 1)))))"
      "(define sort! : ((Vect Int) Int Int -> ())"
      "  (lambda ([v : (Vect Dyn)] [lo : Int] [hi : Int])"
      "    (when (< lo hi)"
      "      (let ([pivot : Int (partition! v lo hi)])"
      "        (begin (sort! v lo (- pivot 1))"
      "               (sort! v (+ pivot 1) hi))))))"
      "(define n : Int 64)"
      "(define v : (Vect Int) (make-vector n 0))"
      "(repeat (i 0 n) (vector-set! v i (- n i)))"
      "(sort! v 0 (- n 1))"
      "(repeat (i 0 n) (acc : Bool #t)"
      "  (if (= (vector-ref v i) (+ i 1)) acc #f))";
  RunResult C = runMode(Source, CastMode::Coercions);
  RunResult T = runMode(Source, CastMode::TypeBased);
  ASSERT_TRUE(C.OK) << C.Error.str();
  ASSERT_TRUE(T.OK) << T.Error.str();
  EXPECT_EQ(C.ResultText, "#t");
  EXPECT_EQ(T.ResultText, "#t");
  // Coercions: bounded proxies. Type-based: chains grow with recursion
  // depth (sorted input = worst case, depth ~ n).
  EXPECT_LE(C.Stats.LongestProxyChain, 1u);
  EXPECT_GE(T.Stats.LongestProxyChain, 30u);
}

TEST_F(VMTest, EvenOddSpaceBound) {
  // The paper's space-efficiency theorem, observed on the heap: doubling
  // n roughly doubles the type-based peak heap (a proxy per iteration
  // stays live through the continuation) while the coercion peak stays
  // flat (one composed proxy).
  std::string Errors;
  auto ExeC = G.compile(evenOddSpaceProgram(), CastMode::Coercions, Errors);
  auto ExeT = G.compile(evenOddSpaceProgram(), CastMode::TypeBased, Errors);
  ASSERT_TRUE(ExeC && ExeT) << Errors;
  // Sizes are chosen so the GC has cycled (the peak metric counts
  // garbage up to the collection threshold, so tiny runs just show the
  // threshold).
  RunResult C1 = ExeC->run("200000"), C2 = ExeC->run("400000");
  RunResult T1 = ExeT->run("200000"), T2 = ExeT->run("400000");
  ASSERT_TRUE(C1.OK && C2.OK && T1.OK && T2.OK);
  ASSERT_GT(C1.Stats.CastsApplied, 0u);
  // Type-based: the whole proxy chain is live — peak grows ~linearly.
  EXPECT_GT(T2.PeakHeapBytes, T1.PeakHeapBytes + 4000000u);
  // Coercions: constant live set — peak pinned near the GC threshold.
  EXPECT_LT(C2.PeakHeapBytes, C1.PeakHeapBytes * 3 / 2 + (1u << 16));
  // And the coercion peak is far below the type-based peak.
  EXPECT_LT(C2.PeakHeapBytes * 2, T2.PeakHeapBytes);
}

TEST_F(VMTest, GCSurvivesAllocationStorm) {
  // ~40M of garbage tuples; forces multiple collections (8MB threshold).
  const char *Source = "(repeat (i 0 300000) (acc : Int 0)"
                       "  (+ acc (tuple-proj (tuple i i i) 0)))";
  RunResult R = runMode(Source, CastMode::Coercions);
  ASSERT_TRUE(R.OK) << R.Error.str();
  EXPECT_EQ(R.ResultText, "44999850000");
}

TEST_F(VMTest, CastCountsAreTracked) {
  RunResult R = runMode("(repeat (i 0 100) (acc : Int 0)"
                        "  (+ acc (ann (ann i Dyn) Int)))",
                        CastMode::Coercions);
  ASSERT_TRUE(R.OK);
  EXPECT_GE(R.Stats.CastsApplied, 200u);
}

TEST_F(VMTest, AtomicCastShapesAgreeAcrossModes) {
  // An atomic injection and an exact-match projection do the same in
  // every gradual mode, through a Cast, the argument and result casts of
  // a Dyn application, a Dyn tuple projection and a Dyn box read. Every
  // mode must print the same value and count the same casts.
  //
  // Under minor-GC torture every cast that enters through a Runtime entry
  // point takes one torture step, the shared shapes included, so the
  // forced collections agree too, apart from two protocol differences
  // of one step per iteration: coercion-passing applies a Dyn call's
  // result cast as a composed return coercion (no entry point), and
  // monotonic reads a Dyn box through Runtime::castRuntime against the
  // cell's own runtime type (an entry point the other modes' inline read
  // does not take).
  struct Atomic {
    const char *Type;
    const char *Literal;
  };
  const Atomic Atomics[] = {
      {"Int", "42"}, {"Float", "2.5"}, {"Bool", "#t"}, {"Char", "#\\a"},
      {"Unit", "()"}};
  struct Form {
    const char *Text; // X stands for the literal, T for its type
    CastMode StepMode;
    int StepDelta; // StepMode's extra torture steps per iteration
  };
  const Form Forms[] = {
      {"(ann (ann X Dyn) T)", CastMode::Coercions, 0},
      {"(ann (f X) T)", CastMode::CoercionPassing, -1},
      {"(ann (tuple-proj t 1) T)", CastMode::Coercions, 0},
      {"(ann (unbox b) T)", CastMode::Monotonic, 1},
  };
  const int Iterations = 3;
  for (const Atomic &A : Atomics) {
    for (const Form &F : Forms) {
      const std::string T = A.Type, X = A.Literal;
      std::string Body;
      for (char C : std::string_view(F.Text))
        Body += C == 'X' ? X : C == 'T' ? T : std::string(1, C);
      const std::string Source =
          "(let ([f : Dyn (lambda ([x : " + T + "]) : " + T + " x)]"
          "      [t : Dyn (tuple " + X + " " + X + ")]"
          "      [b : Dyn (box " + X + ")])"
          "  (repeat (i 0 " + std::to_string(Iterations) + ") (acc : " + T +
          " " + X + ") " + Body + "))";
      std::optional<uint64_t> Casts;
      std::optional<int64_t> Steps;
      for (CastMode Mode : GradualCastModes) {
        const std::string Context = Source + " in " + castModeName(Mode);
        std::string Errors;
        auto Exe = G.compile(Source, Mode, Errors);
        ASSERT_TRUE(Exe.has_value()) << Errors;
        RunResult Plain = Exe->run();
        ASSERT_TRUE(Plain.OK) << Plain.Error.str() << " for " << Context;
        EXPECT_EQ(Plain.ResultText, X) << Context;
        EXPECT_EQ(Plain.Stats.CastsApplied,
                  Casts.value_or(Plain.Stats.CastsApplied))
            << Context;
        Casts = Plain.Stats.CastsApplied;

        FaultInjector Injector;
        Injector.MinorGCTorturePeriod = 1;
        RunResult Tortured = Exe->run("", {}, &Injector);
        ASSERT_TRUE(Tortured.OK) << Tortured.Error.str() << " for " << Context;
        EXPECT_EQ(Tortured.ResultText, X) << Context;
        const int64_t Shared =
            static_cast<int64_t>(Injector.ForcedMinorCollections) -
            (Mode == F.StepMode ? F.StepDelta * Iterations : 0);
        EXPECT_EQ(Shared, Steps.value_or(Shared)) << Context;
        Steps = Shared;
      }
      EXPECT_GT(*Steps, 0) << Source;
    }
  }

  std::optional<std::string> Label;
  for (CastMode Mode : GradualCastModes) {
    RunResult R = runMode("(ann (ann #t Dyn) Int)", Mode);
    ASSERT_FALSE(R.OK) << castModeName(Mode);
    EXPECT_EQ(R.Error.Kind, ErrorKind::Blame) << castModeName(Mode);
    EXPECT_EQ(R.Error.Label, Label.value_or(R.Error.Label))
        << castModeName(Mode);
    Label = R.Error.Label;
  }
}

TEST_F(VMTest, UntypedProgramsRun) {
  // Fully dynamic code: every annotation omitted.
  EXPECT_EQ(expectModesAgree("(define (map2 f v)"
                             "  (begin"
                             "    (repeat (i 0 (vector-length v))"
                             "      (vector-set! v i (f (vector-ref v i))))"
                             "    v))"
                             "(define v (make-vector 4 (ann 3 Dyn)))"
                             "(vector-ref (map2 (lambda (x) (* x 2)) v) 3)"),
            "6");
}

//===----------------------------------------------------------------------===//
// Superinstruction fusion and the specialized fixnum and cast opcodes are
// pure dispatch optimizations. Over a corpus of generated programs, the
// fused and unfused compilations of the same AST must agree exactly —
// result, output, error, fuel, and every deterministic runtime counter —
// in every cast mode. Fuel equality is the sharp check: each fused op
// must charge one unit per component instruction, hitting the same
// cancel-poll boundaries as the unfused expansion.
//===----------------------------------------------------------------------===//

#include "fuzz/FuzzGen.h"
#include "support/RNG.h"

#include <set>

namespace {

/// Every RuntimeStats counter that a deterministic run must reproduce
/// (the pause times and the (time ...) reading are wall-clock readings).
void expectSameCounters(const RuntimeStats &A, const RuntimeStats &B,
                        const std::string &Context) {
  EXPECT_EQ(A.CastsApplied, B.CastsApplied) << Context;
  EXPECT_EQ(A.Compositions, B.Compositions) << Context;
  EXPECT_EQ(A.LongestProxyChain, B.LongestProxyChain) << Context;
  EXPECT_EQ(A.MaxRetCastsPerFrame, B.MaxRetCastsPerFrame) << Context;
  EXPECT_EQ(A.ProxiesAllocated, B.ProxiesAllocated) << Context;
  EXPECT_EQ(A.CacheHits, B.CacheHits) << Context;
  EXPECT_EQ(A.CacheMisses, B.CacheMisses) << Context;
  EXPECT_EQ(A.AllocBytes, B.AllocBytes) << Context;
  for (unsigned C = 0; C != RuntimeStats::NumAllocClasses; ++C)
    EXPECT_EQ(A.AllocObjectsByClass[C], B.AllocObjectsByClass[C]) << Context;
  EXPECT_EQ(A.Collections, B.Collections) << Context;
  EXPECT_EQ(A.MinorCollections, B.MinorCollections) << Context;
  EXPECT_EQ(A.PromotedBytes, B.PromotedBytes) << Context;
  EXPECT_EQ(A.PromotedObjects, B.PromotedObjects) << Context;
  EXPECT_EQ(A.RememberedSetPeak, B.RememberedSetPeak) << Context;
  EXPECT_EQ(A.DoubleCollectionsAvoided, B.DoubleCollectionsAvoided)
      << Context;
}

/// A random counting loop: the generator seldom puts a comparison right
/// under an if, so these reach every fixnum compare, fused with its jump
/// (the loop test) and as a plain prim (the accumulator's choice, under a
/// not). The
/// loop counts up (< <=), down (> >=) or to equality (=) by a random
/// step, and accumulates through an optional Dyn round trip.
std::string loopProgram(RNG &Gen) {
  auto Num = [&](unsigned Lo, unsigned Hi) {
    return std::to_string(Lo + Gen.below(Hi - Lo + 1));
  };
  const char *Relations[] = {"<", "<=", "=", ">=", ">"};
  std::string I = Gen.flip(0.5) ? "(ann (ann i Dyn) Int)" : "i";
  std::string Acc = std::string("(if (not (") + Relations[Gen.below(5)] +
                    " i acc)) (+ acc " + I + ") (- acc " + I + "))";
  std::string Loop;
  switch (Gen.below(3)) {
  case 0:
    Loop = std::string("(if (") + (Gen.flip(0.5) ? "<" : "<=") + " i " +
           Num(5, 30) + ") (loop (+ i " + Num(1, 3) + ") " + Acc + ") acc)";
    break;
  case 1:
    Loop = std::string("(if (") + (Gen.flip(0.5) ? ">" : ">=") + " i " +
           Num(0, 10) + ") (loop (- i " + Num(1, 3) + ") " + Acc + ") acc)";
    break;
  default:
    Loop = "(if (= i " + Num(31, 40) + ") acc (loop (+ i 1) " + Acc + "))";
    break;
  }
  return "(letrec ([loop : (Int Int -> Int) (lambda ([i : Int] [acc : Int])"
         " : Int " +
         Loop + ")]) (loop " + Num(20, 30) + " 0))";
}

/// Replaces every occurrence of \p From in \p Text with \p To.
std::string replaceAll(std::string Text, const std::string &From,
                       const std::string &To) {
  for (size_t P = Text.find(From); P != std::string::npos;
       P = Text.find(From, P + To.size()))
    Text.replace(P, From.size(), To);
  return Text;
}

} // namespace

class FusionDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FusionDifferential, FusedAndUnfusedAgreeExactly) {
  // The opcodes only the fusing compile emits; the corpus must reach
  // each of them.
  const std::set<Op> Specialized = {
      Op::PushIntAdd,       Op::PushIntSub,       Op::LtIntJumpIfFalse,
      Op::LeIntJumpIfFalse, Op::EqIntJumpIfFalse, Op::GeIntJumpIfFalse,
      Op::GtIntJumpIfFalse};
  std::set<Op> Reached;
  const unsigned Iters = fuzz::iterationCount(40);
  for (unsigned Iter = 0; Iter != Iters; ++Iter) {
    RNG Gen(0xF5ED + GetParam() * 31337 + Iter);
    std::string Generated;
    {
      Grift GenG;
      fuzz::ProgramGen PG(GenG.types(), Gen);
      Generated = PG.program();
    }
    // The generator compares with < <= = only, and seldom right under an
    // if; one variant per relation in place of < reaches every fixnum
    // compare-and-jump.
    std::vector<std::string> Sources;
    for (const char *Relation : {"(< ", "(<= ", "(= ", "(>= ", "(> "})
      Sources.push_back(replaceAll(Generated, "(< ", Relation));
    Sources.push_back(loopProgram(Gen));
    for (const std::string &Source : Sources) {
      Grift G;
      std::string Errors;
      auto Ast = G.parse(Source, Errors);
      ASSERT_TRUE(Ast.has_value()) << Errors << "\nprogram:\n" << Source;

      for (CastMode Mode : GradualCastModes) {
        std::string Context = std::string(castModeName(Mode)) +
                              " program:\n" + Source;
        auto Fused = G.compileAst(*Ast, Mode, Errors,
                                  /*Optimize=*/false, /*Fuse=*/true);
        ASSERT_TRUE(Fused.has_value()) << Errors << "\n" << Context;
        auto Unfused = G.compileAst(*Ast, Mode, Errors,
                                    /*Optimize=*/false, /*Fuse=*/false);
        ASSERT_TRUE(Unfused.has_value()) << Errors << "\n" << Context;
        for (const VMFunction &Fn : Fused->program().Functions)
          for (const Instr &I : Fn.Code)
            if (Specialized.count(I.Code))
              Reached.insert(I.Code);

        RunResult RF = Fused->run();
        RunResult RU = Unfused->run();
        EXPECT_EQ(RF.OK, RU.OK) << Context;
        EXPECT_EQ(RF.ResultText, RU.ResultText) << Context;
        EXPECT_EQ(RF.Output, RU.Output) << Context;
        if (!RF.OK) {
          EXPECT_EQ(RF.Error.str(), RU.Error.str()) << Context;
        }
        EXPECT_EQ(RF.Steps, RU.Steps) << Context;
        expectSameCounters(RF.Stats, RU.Stats, Context);
      }
    }
  }
  for (Op Code : Specialized)
    EXPECT_TRUE(Reached.count(Code))
        << opName(Code) << " never appeared in a fused program";
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, FusionDifferential,
                         ::testing::Range(0, 6));

namespace {

/// Compiles \p Source fused and unfused under \p Mode.
std::pair<Executable, Executable> fusedAndUnfused(Grift &G,
                                                  std::string_view Source,
                                                  CastMode Mode) {
  std::string Errors;
  auto Fused = G.compile(Source, Mode, Errors, /*Optimize=*/false,
                         /*Fuse=*/true);
  auto Unfused = G.compile(Source, Mode, Errors, /*Optimize=*/false,
                           /*Fuse=*/false);
  EXPECT_TRUE(Fused && Unfused) << Errors;
  return {std::move(*Fused), std::move(*Unfused)};
}

bool hasOp(const Executable &Exe, Op Code) {
  for (const VMFunction &Fn : Exe.program().Functions)
    for (const Instr &I : Fn.Code)
      if (I.Code == Code)
        return true;
  return false;
}

} // namespace

TEST(SpecializedOpcodes, FuelRunsOutMidCompareAtTheUnfusedStep) {
  // A counting loop of 12 steps per iteration whose body is a fused
  // fixnum compare-and-jump plus a print. Leading statements of 3 steps
  // (print-int 0) and 2 steps (0) slide the loop's start through all 12
  // residues, so the 1024-step batch boundary lands on every step of the
  // body once, the compare's second half included; the printed prefix
  // shows exactly where the budget stopped the run. The step count and
  // output lengths are those of the build before the fixnum opcodes
  // existed, where this loop ran as prim-jump-if-false.
  const size_t ParentOutputSize[4][3] = {
      {655, 655, 655}, {656, 656, 656}, {657, 657, 654}, {655, 655, 655}};
  for (unsigned Prints = 0; Prints != 4; ++Prints) {
    for (unsigned Zeros = 0; Zeros != 3; ++Zeros) {
      std::string Source = "(begin";
      for (unsigned K = 0; K != Prints; ++K)
        Source += " (print-int 0)";
      for (unsigned K = 0; K != Zeros; ++K)
        Source += " 0";
      Source += " (letrec ([loop : (Int -> Int) (lambda ([i : Int]) : Int"
                " (if (< i 100000) (begin (print-int i) (loop (+ i 1))) i))])"
                " (loop 0)))";
      Grift G;
      auto [Fused, Unfused] = fusedAndUnfused(G, Source, CastMode::Coercions);
      ASSERT_TRUE(hasOp(Fused, Op::LtIntJumpIfFalse)) << Fused.program().str();
      RunLimits Limits;
      Limits.MaxSteps = 3000;
      RunResult RF = Fused.run("", Limits);
      RunResult RU = Unfused.run("", Limits);
      ASSERT_FALSE(RF.OK) << Source;
      EXPECT_EQ(RF.Error.Kind, ErrorKind::FuelExhausted) << Source;
      EXPECT_EQ(RF.Steps, 3072u) << Source;
      EXPECT_EQ(RF.Steps, RU.Steps) << Source;
      EXPECT_EQ(RF.Output, RU.Output) << Source;
      EXPECT_EQ(RF.Output.size(), ParentOutputSize[Prints][Zeros]) << Source;
    }
  }
}

TEST(SpecializedOpcodes, AppDynReturnCastsUseTheirSiteCache) {
  // Six Dyn application sites called in turn: each pending return cast
  // resolves through its own site's cache, so every site misses once.
  // Through one shared 4-entry cache the six labels would evict each
  // other on every call.
  const char *Source =
      "(let ([d0 : Dyn (lambda () : Int 0)] [d1 : Dyn (lambda () : Int 1)]"
      "      [d2 : Dyn (lambda () : Int 2)] [d3 : Dyn (lambda () : Int 3)]"
      "      [d4 : Dyn (lambda () : Int 4)] [d5 : Dyn (lambda () : Int 5)])"
      "  (repeat (i 0 50) (acc : Int 0)"
      "    (+ acc (+ (ann (d0) Int) (+ (ann (d1) Int) (+ (ann (d2) Int)"
      "           (+ (ann (d3) Int) (+ (ann (d4) Int) (ann (d5) Int)))))))))";
  const uint64_t Sites = 6;
  for (CastMode Mode : {CastMode::Coercions, CastMode::CoercionPassing}) {
    Grift G;
    std::string Errors;
    auto Exe = G.compile(Source, Mode, Errors);
    ASSERT_TRUE(Exe.has_value()) << Errors;
    ASSERT_EQ(Exe->program().Sites.size(), Sites);
    RunResult R = Exe->run();
    ASSERT_TRUE(R.OK) << R.Error.str();
    EXPECT_EQ(R.ResultText, "750");
    EXPECT_LE(R.Stats.CacheMisses, Sites) << castModeName(Mode);
    EXPECT_GE(R.Stats.CacheHits, 50 * Sites - Sites) << castModeName(Mode);
  }
}
