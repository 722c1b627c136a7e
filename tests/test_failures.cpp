//===----------------------------------------------------------------------===//
///
/// \file
/// Failure injection and edge cases: runtime traps (division, bounds,
/// input exhaustion), blame from deep structural positions, shadowing
/// and scoping corners, and resource-related behaviour. Errors must be
/// *reported*, never crash, and must be the right kind (trap vs blame).
///
//===----------------------------------------------------------------------===//
#include "grift/Grift.h"
#include "refinterp/RefInterp.h"

#include <gtest/gtest.h>

using namespace grift;

namespace {

class FailureTest : public ::testing::Test {
protected:
  Grift G;

  RunResult run(std::string_view Source, CastMode Mode = CastMode::Coercions,
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

  /// Expects a trap (not blame) whose message contains \p Needle.
  void expectTrap(std::string_view Source, std::string_view Needle,
                  std::string Input = "") {
    for (CastMode Mode : {CastMode::Coercions, CastMode::TypeBased,
                          CastMode::Monotonic}) {
      RunResult R = run(Source, Mode, Input);
      ASSERT_FALSE(R.OK) << Source;
      EXPECT_FALSE(R.Error.isBlame()) << R.Error.str();
      EXPECT_NE(R.Error.Message.find(Needle), std::string::npos)
          << R.Error.str();
    }
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Runtime traps
//===----------------------------------------------------------------------===//

TEST_F(FailureTest, DivisionByZeroTraps) {
  expectTrap("(/ 1 0)", "division by zero");
  expectTrap("(% 1 0)", "modulo by zero");
  expectTrap("(let ([n 0]) (/ 10 n))", "division by zero");
}

TEST_F(FailureTest, VectorBoundsTrap) {
  expectTrap("(vector-ref (make-vector 3 0) 3)", "out of bounds");
  expectTrap("(vector-ref (make-vector 3 0) -1)", "out of bounds");
  expectTrap("(vector-set! (make-vector 3 0) 99 1)", "out of bounds");
  expectTrap("(make-vector -1 0)", "invalid vector size");
}

TEST_F(FailureTest, BoundsThroughDynViewStillTrap) {
  expectTrap("((lambda (v) (vector-ref v 5)) (make-vector 2 0))",
             "out of bounds");
}

TEST_F(FailureTest, BoundsThroughProxiedVectorTrap) {
  const char *Source = "(let ([v : (Vect Int) (make-vector 2 0)])"
                       "  (let ([w : (Vect Dyn) v]) (vector-ref w 7)))";
  expectTrap(Source, "out of bounds");
}

TEST_F(FailureTest, ReadIntExhaustionTraps) {
  expectTrap("(+ (read-int) (read-int))", "no integer", "41");
  expectTrap("(read-char)", "end of input", "");
}

TEST_F(FailureTest, FloatEdgeCasesDoNotTrap) {
  // IEEE semantics, not traps.
  RunResult R = run("(fl/ 1.0 0.0)");
  ASSERT_TRUE(R.OK);
  EXPECT_EQ(R.ResultText, "+inf.0");
  RunResult R2 = run("(fl/ 0.0 0.0)");
  ASSERT_TRUE(R2.OK);
  EXPECT_EQ(R2.ResultText, "+nan.0");
  RunResult R3 = run("(flsqrt -1.0)");
  ASSERT_TRUE(R3.OK);
  EXPECT_EQ(R3.ResultText, "+nan.0");
}

//===----------------------------------------------------------------------===//
// Blame from deep positions
//===----------------------------------------------------------------------===//

TEST_F(FailureTest, BlameThroughNestedTuples) {
  const char *Source =
      "(let ([p : (Tuple (Tuple Int Dyn) Int) (tuple (tuple 1 #t) 2)])"
      "  (ann (tuple-proj (tuple-proj p 0) 1) Int))";
  for (CastMode Mode : {CastMode::Coercions, CastMode::TypeBased}) {
    RunResult R = run(Source, Mode);
    ASSERT_FALSE(R.OK);
    EXPECT_TRUE(R.Error.isBlame());
  }
}

TEST_F(FailureTest, BlameThroughFunctionResult) {
  // The lie is in the *result* side of the cast.
  const char *Source =
      "(define f : (Int -> Dyn) (lambda ([x : Int]) : Dyn (ann #t Dyn)))"
      "(define g : (Int -> Int) f)"
      "(g 1)";
  for (CastMode Mode : {CastMode::Coercions, CastMode::TypeBased,
                        CastMode::Monotonic}) {
    RunResult R = run(Source, Mode);
    ASSERT_FALSE(R.OK) << castModeName(Mode);
    EXPECT_TRUE(R.Error.isBlame());
  }
}

TEST_F(FailureTest, BlameThroughBoxReadAfterManyCasts) {
  // The box bounces through Dyn views; the bad write is caught with
  // blame, in every mode, no matter how many casts intervened.
  const char *Source =
      "(define b : (Ref Int) (box 1))"
      "(define d1 : (Ref Dyn) b)"
      "(define d2 : Dyn d1)"
      "(define d3 : (Ref Dyn) (ann d2 (Ref Dyn)))"
      "(box-set! d3 (ann #f Dyn))";
  for (CastMode Mode : {CastMode::Coercions, CastMode::TypeBased,
                        CastMode::Monotonic}) {
    RunResult R = run(Source, Mode);
    ASSERT_FALSE(R.OK) << castModeName(Mode);
    EXPECT_TRUE(R.Error.isBlame()) << R.Error.str();
  }
}

TEST_F(FailureTest, SuccessfulDeepFlowsStillWork) {
  const char *Source =
      "(define b : (Ref Int) (box 1))"
      "(define d1 : (Ref Dyn) b)"
      "(define d2 : Dyn d1)"
      "(define d3 : (Ref Dyn) (ann d2 (Ref Dyn)))"
      "(begin (box-set! d3 (ann 42 Dyn)) (unbox b))";
  for (CastMode Mode : {CastMode::Coercions, CastMode::TypeBased,
                        CastMode::Monotonic}) {
    RunResult R = run(Source, Mode);
    ASSERT_TRUE(R.OK) << castModeName(Mode) << ": " << R.Error.str();
    EXPECT_EQ(R.ResultText, "42");
  }
}

//===----------------------------------------------------------------------===//
// Blame labels, pinned. The lazy-D contract is that the *label* — the
// 1-based line:col of the cast the type checker charged — is part of
// the observable behaviour, identical across the reference interpreter
// and every VM cast strategy even though the prose of the message
// differs per runtime. These tests pin the exact label text for the
// scenarios above so a refactor that shifts attribution (to the value's
// use site, to an inner cast, off by a column) fails loudly.
//===----------------------------------------------------------------------===//

namespace {

/// Per-engine blame expectation; monotonic references legitimately
/// charge the write site rather than the reference-view cast, so it
/// gets its own slot.
struct BlameLabels {
  std::string RefAndCoercions; ///< refinterp, coercions, type-based
  std::string Monotonic;
};

} // namespace

class BlameLabelTest : public FailureTest {
protected:
  void expectLabels(std::string_view Source, const BlameLabels &Expected) {
    std::string Errors;
    auto Ast = G.parse(Source, Errors);
    ASSERT_TRUE(Ast.has_value()) << Errors;
    auto Core = G.check(*Ast, Errors);
    ASSERT_TRUE(Core.has_value()) << Errors;

    refinterp::RefResult Ref =
        refinterp::interpret(G.types(), G.coercions(), *Core);
    ASSERT_FALSE(Ref.OK) << Source;
    EXPECT_EQ(Ref.Kind, ErrorKind::Blame) << Ref.Message;
    EXPECT_EQ(Ref.Label, Expected.RefAndCoercions) << Ref.Message;

    for (CastMode Mode : {CastMode::Coercions, CastMode::TypeBased,
                          CastMode::Monotonic}) {
      RunResult R = run(Source, Mode);
      ASSERT_FALSE(R.OK) << castModeName(Mode) << "\n" << Source;
      EXPECT_EQ(R.Error.Kind, ErrorKind::Blame)
          << castModeName(Mode) << ": " << R.Error.str();
      const std::string &Want = Mode == CastMode::Monotonic
                                    ? Expected.Monotonic
                                    : Expected.RefAndCoercions;
      EXPECT_EQ(R.Error.Label, Want)
          << castModeName(Mode) << ": " << R.Error.str();
    }
  }
};

TEST_F(BlameLabelTest, AscriptionBlamesTheOuterAnn) {
  // The label is the opening paren of the *outer* (ann ...), even when
  // the annotation itself sits on the next line.
  expectLabels("(ann (ann #t Dyn)\n"
               "     Int)",
               {"1:1", "1:1"});
}

TEST_F(BlameLabelTest, NestedTupleProjectionBlamesTheAscription) {
  // The lie travels through two tuple layers; the charge lands on the
  // ascription that demanded Int, not on either projection.
  expectLabels(
      "(let ([p : (Tuple (Tuple Int Dyn) Int) (tuple (tuple 1 #t) 2)])\n"
      "  (ann (tuple-proj (tuple-proj p 0) 1) Int))",
      {"2:3", "2:3"});
}

TEST_F(BlameLabelTest, FunctionResultBlamesTheTighteningDefine) {
  // f honestly returns Dyn; the define that retyped it (Int -> Int)
  // made the promise, so its location is charged — lazily, only when
  // the call actually yields a non-Int.
  expectLabels(
      "(define f : (Int -> Dyn) (lambda ([x : Int]) : Dyn (ann #t Dyn)))\n"
      "(define g : (Int -> Int) f)\n"
      "(g 1)",
      {"2:1", "2:1"});
}

TEST_F(BlameLabelTest, ProxiedBoxWriteSplitsByStrategy) {
  // Guarded references (refinterp, coercions, type-based) charge the
  // (Ref Dyn) view that wrapped the Int box — line 2. The monotonic
  // strategy has no proxy to charge: the heap cell itself holds the
  // strongest type, so the offending write — line 5 — is blamed. Both
  // labels are pinned; a strategy drifting to any third site fails.
  expectLabels("(define b : (Ref Int) (box 1))\n"
               "(define d1 : (Ref Dyn) b)\n"
               "(define d2 : Dyn d1)\n"
               "(define d3 : (Ref Dyn) (ann d2 (Ref Dyn)))\n"
               "(box-set! d3 (ann #f Dyn))",
               {"2:1", "5:1"});
}

//===----------------------------------------------------------------------===//
// Scoping and shadowing corners
//===----------------------------------------------------------------------===//

TEST_F(FailureTest, ShadowingResolvesInnermost) {
  RunResult R = run("(let ([x 1])"
                    "  (let ([x 2])"
                    "    (+ x (let ([x 30]) x))))");
  ASSERT_TRUE(R.OK);
  EXPECT_EQ(R.ResultText, "32");
}

TEST_F(FailureTest, ParameterShadowsGlobal) {
  RunResult R = run("(define x : Int 100)"
                    "(define (f [x : Int]) : Int (+ x 1))"
                    "(f 1)");
  ASSERT_TRUE(R.OK);
  EXPECT_EQ(R.ResultText, "2");
}

TEST_F(FailureTest, ClosureCapturesShadowedBinding) {
  RunResult R = run("(let ([x 1])"
                    "  (let ([f (lambda () x)])"
                    "    (let ([x 99]) (f))))");
  ASSERT_TRUE(R.OK);
  EXPECT_EQ(R.ResultText, "1");
}

TEST_F(FailureTest, RepeatVariableScopedToBody) {
  // The loop index does not leak.
  std::string Errors;
  auto Exe = G.compile("(begin (repeat (i 0 3) ()) i)",
                       CastMode::Coercions, Errors);
  EXPECT_FALSE(Exe.has_value()); // `i` unbound outside
}

TEST_F(FailureTest, LetrecSiblingCapturesWork) {
  RunResult R = run(
      "(letrec ([even? : (Int -> Bool)"
      "           (lambda ([n : Int]) : Bool (if (= n 0) #t (odd? (- n 1))))]"
      "         [odd? : (Int -> Bool)"
      "           (lambda ([n : Int]) : Bool (if (= n 0) #f (even? (- n 1))))])"
      "  (odd? 77))");
  ASSERT_TRUE(R.OK);
  EXPECT_EQ(R.ResultText, "#t");
}

//===----------------------------------------------------------------------===//
// Numeric representation corners
//===----------------------------------------------------------------------===//

TEST_F(FailureTest, FortyEightBitFixnumsSurvive) {
  // Values at the NaN-boxed 48-bit fixnum boundary round-trip through
  // Dyn; literals past it are a parse error, not a silent truncation.
  RunResult R = run("(ann (ann 140737488355327 Dyn) Int)");
  ASSERT_TRUE(R.OK);
  EXPECT_EQ(R.ResultText, "140737488355327"); // 2^47 - 1
  RunResult R2 = run("(ann (ann -140737488355328 Dyn) Int)");
  ASSERT_TRUE(R2.OK);
  EXPECT_EQ(R2.ResultText, "-140737488355328"); // -2^47
  Grift G;
  std::string Errors;
  EXPECT_FALSE(
      G.compile("(+ 1152921504606846975 0)", CastMode::Coercions, Errors)
          .has_value());
  EXPECT_NE(Errors.find("fixnum range"), std::string::npos) << Errors;
}

TEST_F(FailureTest, NegativeZeroAndPrecisionSurvive) {
  RunResult R = run("(fl* -1.0 0.0)");
  ASSERT_TRUE(R.OK);
  EXPECT_EQ(R.ResultText, "-0.0");
  RunResult R2 = run("(ann (ann 0.1 Dyn) Float)");
  ASSERT_TRUE(R2.OK);
  EXPECT_EQ(R2.ResultText, "0.1");
}

TEST_F(FailureTest, CharRoundTripsThroughDyn) {
  RunResult R = run("(char->int (ann (ann #\\z Dyn) Char))");
  ASSERT_TRUE(R.OK);
  EXPECT_EQ(R.ResultText, "122");
}

//===----------------------------------------------------------------------===//
// Resource governance: every ErrorKind is reachable, reported (never a
// crash), and leaves the Grift instance reusable.
//===----------------------------------------------------------------------===//

namespace {

/// A divergent tail loop: runs forever in constant space on the VM.
const char *DivergentLoop = "(letrec ([loop (lambda () (loop))]) (loop))";

/// Unbounded non-tail recursion: each call pushes a real frame.
const char *DeepRecursion =
    "(letrec ([f : (Int -> Int)"
    "           (lambda ([n : Int]) : Int (+ 1 (f n)))])"
    "  (f 0))";

/// The same recursion through a fully dynamic callee: every call is an
/// AppDyn that records a pending Dyn result cast.
const char *DeepDynRecursion =
    "(define f : Dyn (lambda (n) (+ 1 (ann (f n) Int))))"
    "(f 0)";

/// The same recursion through a function cast to a proxy: every call
/// converts its argument and records the proxy's pending result cast.
const char *DeepProxiedRecursion =
    "(letrec ([f : (Int -> Int)"
    "           (lambda ([n : Int]) : Int"
    "             (+ 1 ((ann f (Dyn -> Int)) n)))])"
    "  (f 0))";

/// A tail loop that retains an ever-growing chain of boxes, so live
/// heap grows without bound while the stack stays flat.
const char *HeapGrower =
    "(letrec ([f : (Int Dyn -> Int)"
    "           (lambda ([n : Int] [l : Dyn]) : Int"
    "             (f (+ n 1) (ann (box l) Dyn)))])"
    "  (f 0 (ann 0 Dyn)))";

} // namespace

class ResourceLimitTest : public FailureTest {
protected:
  RunResult runLimited(std::string_view Source, const RunLimits &Limits,
                       FaultInjector *Injector = nullptr,
                       CastMode Mode = CastMode::Coercions) {
    std::string Errors;
    auto Exe = G.compile(Source, Mode, Errors);
    EXPECT_TRUE(Exe.has_value()) << Errors;
    if (!Exe) {
      RunResult R;
      R.Error = {ErrorKind::Trap, "", "compile failed: " + Errors};
      return R;
    }
    return Exe->run("", Limits, Injector);
  }

  /// The same Grift must compile and run a fresh program after any
  /// failure — resource exhaustion must not poison shared state.
  void expectStillUsable() {
    RunResult R = run("(+ 1 2)");
    ASSERT_TRUE(R.OK) << R.Error.str();
    EXPECT_EQ(R.ResultText, "3");
  }
};

TEST_F(ResourceLimitTest, BlameKindIsBlame) {
  RunResult R = run("(ann (ann #t Dyn) Int)");
  ASSERT_FALSE(R.OK);
  EXPECT_EQ(R.Error.Kind, ErrorKind::Blame);
  EXPECT_TRUE(R.Error.isBlame());
  EXPECT_FALSE(R.Error.isResourceExhaustion());
  expectStillUsable();
}

TEST_F(ResourceLimitTest, TrapKindIsTrap) {
  RunResult R = run("(/ 1 0)");
  ASSERT_FALSE(R.OK);
  EXPECT_EQ(R.Error.Kind, ErrorKind::Trap);
  EXPECT_FALSE(R.Error.isResourceExhaustion());
  expectStillUsable();
}

TEST_F(ResourceLimitTest, FuelExhaustedOnDivergentLoop) {
  RunLimits Limits;
  Limits.MaxSteps = 200000;
  for (CastMode Mode : {CastMode::Coercions, CastMode::TypeBased}) {
    RunResult R = runLimited(DivergentLoop, Limits, nullptr, Mode);
    ASSERT_FALSE(R.OK) << castModeName(Mode);
    EXPECT_EQ(R.Error.Kind, ErrorKind::FuelExhausted) << R.Error.str();
    EXPECT_TRUE(R.Error.isResourceExhaustion());
  }
  expectStillUsable();
}

TEST_F(ResourceLimitTest, StackOverflowOnDeepRecursion) {
  // Every kind of callee, in every mode that accepts the program: the
  // plain-closure call takes the VM's inline call path, the AppDyn and
  // proxied calls its out-of-line one, and both must hit the frame cap.
  RunLimits Limits;
  Limits.MaxFrames = 1000;
  struct Case {
    const char *Name;
    const char *Source;
  };
  for (const Case &C : {Case{"plain", DeepRecursion},
                        Case{"dyn", DeepDynRecursion},
                        Case{"proxied", DeepProxiedRecursion}}) {
    std::vector<CastMode> Modes(std::begin(GradualCastModes),
                                std::end(GradualCastModes));
    if (C.Source == DeepRecursion)
      Modes.push_back(CastMode::Static);
    for (CastMode Mode : Modes) {
      RunResult R = runLimited(C.Source, Limits, nullptr, Mode);
      ASSERT_FALSE(R.OK) << C.Name << " " << castModeName(Mode);
      EXPECT_EQ(R.Error.Kind, ErrorKind::StackOverflow)
          << C.Name << " " << castModeName(Mode) << ": " << R.Error.str();
      expectStillUsable();
    }
  }
}

TEST_F(ResourceLimitTest, BlameUnwindsPendingReturnCasts) {
  // Blame raised at the bottom of a recursion whose every frame holds
  // pending return casts (from a proxy, and from an AppDyn call); the
  // same Executable must then run cleanly.
  static const char *Source = R"(
(define f : (Int Int -> Int)
  (lambda ([n : Int] [b : Int]) : Int
    (if (= n 0)
        (if (= b 1) (ann (ann #t Dyn) Int) 0)
        (if (= (% n 2) 0)
            (+ 1 (ann ((ann f (Dyn Dyn -> Dyn)) (- n 1) b) Int))
            (+ 1 (ann ((ann f Dyn) (- n 1) b) Int))))))
(define n : Int (read-int))
(define b : Int (read-int))
(f n b)
)";
  for (CastMode Mode : GradualCastModes) {
    std::string Errors;
    auto Exe = G.compile(Source, Mode, Errors);
    ASSERT_TRUE(Exe.has_value()) << Errors;
    RunResult Blamed = Exe->run("40 1");
    ASSERT_FALSE(Blamed.OK) << castModeName(Mode);
    EXPECT_EQ(Blamed.Error.Kind, ErrorKind::Blame)
        << castModeName(Mode) << ": " << Blamed.Error.str();
    RunResult Clean = Exe->run("40 0");
    ASSERT_TRUE(Clean.OK) << castModeName(Mode) << ": " << Clean.Error.str();
    EXPECT_EQ(Clean.ResultText, "40") << castModeName(Mode);
  }
  expectStillUsable();
}

TEST_F(ResourceLimitTest, AppDynOfProxyPendingReturnCastShapes) {
  // A non-tail AppDyn call of a proxied closure carries two pending
  // return casts: the site's Dyn result cast and the proxy's result
  // coercion. Stacked modes keep both on the frame; coercion-passing
  // style composes them into one (here the Dyn => Dyn cast is the
  // identity and drops out).
  static const char *Source = R"(
(define g : (Int -> Int) (lambda ([x : Int]) : Int (+ x 1)))
(define p : (Dyn -> Dyn) g)
(define d : Dyn p)
(+ 1 (ann (d 5) Int))
)";
  for (CastMode Mode : GradualCastModes) {
    RunResult R = run(Source, Mode);
    ASSERT_TRUE(R.OK) << castModeName(Mode) << ": " << R.Error.str();
    EXPECT_EQ(R.ResultText, "7") << castModeName(Mode);
    if (Mode == CastMode::CoercionPassing)
      EXPECT_LE(R.Stats.MaxRetCastsPerFrame, 1u);
    else
      EXPECT_EQ(R.Stats.MaxRetCastsPerFrame, 2u) << castModeName(Mode);
  }
}

TEST_F(ResourceLimitTest, OutOfMemoryOnGrowingHeap) {
  RunLimits Limits;
  Limits.MaxHeapBytes = 1 << 20; // 1 MiB of live data
  Limits.MaxSteps = 100000000;   // backstop so a bug can't hang the test
  RunResult R = runLimited(HeapGrower, Limits);
  ASSERT_FALSE(R.OK);
  EXPECT_EQ(R.Error.Kind, ErrorKind::OutOfMemory) << R.Error.str();
  expectStillUsable();
}

TEST_F(ResourceLimitTest, OutOfMemoryOnHugeSingleAllocation) {
  RunLimits Limits;
  Limits.MaxHeapBytes = 1 << 20;
  RunResult R = runLimited("(vector-ref (make-vector 100000000 0) 0)", Limits);
  ASSERT_FALSE(R.OK);
  EXPECT_EQ(R.Error.Kind, ErrorKind::OutOfMemory) << R.Error.str();
  expectStillUsable();
}

TEST_F(ResourceLimitTest, TimeoutOnDivergentLoop) {
  RunLimits Limits;
  Limits.MaxWallNanos = 50 * 1000000ll; // 50 ms
  RunResult R = runLimited(DivergentLoop, Limits);
  ASSERT_FALSE(R.OK);
  EXPECT_EQ(R.Error.Kind, ErrorKind::Timeout) << R.Error.str();
  expectStillUsable();
}

TEST_F(ResourceLimitTest, InjectedAllocationFailureIsOutOfMemory) {
  FaultInjector Injector;
  Injector.FailAllocAt = 3;
  RunResult R = runLimited("(box (box (box (box 1))))", RunLimits{}, &Injector);
  ASSERT_FALSE(R.OK);
  EXPECT_EQ(R.Error.Kind, ErrorKind::OutOfMemory) << R.Error.str();
  EXPECT_NE(R.Error.Message.find("injected"), std::string::npos)
      << R.Error.str();
  expectStillUsable();
}

TEST_F(ResourceLimitTest, LimitsDoNotAffectCompletingPrograms) {
  RunLimits Limits;
  Limits.MaxSteps = 10000000;
  Limits.MaxHeapBytes = 64 << 20;
  Limits.MaxFrames = 100000;
  Limits.MaxWallNanos = 10ll * 1000000000;
  RunResult R = runLimited("(repeat (i 0 1000) (acc : Int 0) (+ acc i))",
                           Limits);
  ASSERT_TRUE(R.OK) << R.Error.str();
  EXPECT_EQ(R.ResultText, "499500");
}

//===----------------------------------------------------------------------===//
// Output determinism across modes under GC pressure
//===----------------------------------------------------------------------===//

TEST_F(FailureTest, AllocationHeavyProgramAgreesAcrossModes) {
  const char *Source =
      "(define (mk [i : Int]) : (Tuple Int (Ref Int))"
      "  (tuple i (box (* i i))))"
      "(repeat (i 0 50000) (acc : Int 0)"
      "  (+ acc (unbox (tuple-proj (mk i) 1))))";
  std::string Expected;
  for (CastMode Mode : {CastMode::Static, CastMode::Coercions,
                        CastMode::TypeBased, CastMode::Monotonic}) {
    RunResult R = run(Source, Mode);
    ASSERT_TRUE(R.OK) << castModeName(Mode) << ": " << R.Error.str();
    if (Expected.empty())
      Expected = R.ResultText;
    EXPECT_EQ(R.ResultText, Expected) << castModeName(Mode);
  }
}
