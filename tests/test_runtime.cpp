//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the value representation, heap/GC, and the cast runtime
/// applied directly to values.
///
//===----------------------------------------------------------------------===//
#include "runtime/Runtime.h"

#include "bench_programs/Benchmarks.h"
#include "grift/Grift.h"

#include <gtest/gtest.h>

using namespace grift;

//===----------------------------------------------------------------------===//
// Value tagging
//===----------------------------------------------------------------------===//

TEST(Value, FixnumRoundTrip) {
  for (int64_t I : {INT64_C(0), INT64_C(1), INT64_C(-1), INT64_C(123456789),
                    Value::FixnumMax, Value::FixnumMin}) {
    Value V = Value::fromFixnum(I);
    EXPECT_TRUE(V.isFixnum());
    EXPECT_EQ(V.asFixnum(), I);
  }
}

TEST(Value, ImmediateRoundTrip) {
  EXPECT_TRUE(Value::unit().isUnit());
  EXPECT_TRUE(Value::fromBool(true).asBool());
  EXPECT_FALSE(Value::fromBool(false).asBool());
  EXPECT_EQ(Value::fromChar('z').asChar(), 'z');
  EXPECT_EQ(Value::fromChar('\n').asChar(), '\n');
  EXPECT_FALSE(Value::unit().isBool());
  EXPECT_FALSE(Value::fromBool(true).isChar());
}

TEST(Value, TagsAreDisjoint) {
  EXPECT_TRUE(Value::fromFixnum(3).isFixnum());
  EXPECT_FALSE(Value::fromFixnum(3).isImm());
  EXPECT_FALSE(Value::fromBool(true).isFixnum());
  EXPECT_FALSE(Value::unit().isPointer());
}

//===----------------------------------------------------------------------===//
// Heap and GC
//===----------------------------------------------------------------------===//

TEST(Heap, AllocatesAndReadsBack) {
  Heap H;
  Value B = H.allocBox(Value::fromFixnum(7));
  EXPECT_EQ(B.object()->slot(0).asFixnum(), 7);

  Value V = H.allocVector(3, Value::fromFixnum(9));
  EXPECT_EQ(V.object()->slotCount(), 3u);
  EXPECT_EQ(V.object()->slot(2).asFixnum(), 9);
}

TEST(Heap, CollectsUnreachable) {
  Heap H;
  for (int I = 0; I != 1000; ++I)
    H.allocTuple(4);
  EXPECT_GE(H.liveObjects(), 1000u);
  H.collect(); // nothing is rooted
  EXPECT_EQ(H.liveObjects(), 0u);
}

TEST(Heap, RootedSurvives) {
  Heap H;
  Value Box = H.allocBox(Value::fromFixnum(1));
  {
    Rooted Root(H, Box);
    H.collect();
    EXPECT_EQ(H.liveObjects(), 1u);
    EXPECT_EQ(Root.get().object()->slot(0).asFixnum(), 1);
  }
  H.collect();
  EXPECT_EQ(H.liveObjects(), 0u);
}

TEST(Heap, MarksTransitively) {
  Heap H;
  Value Inner = H.allocBox(Value::fromFixnum(5));
  Rooted RootInner(H, Inner);
  Value Outer = H.allocBox(Inner);
  Rooted RootOuter(H, Outer);
  // Drop the direct root to Inner; it must survive through Outer.
  Value Tup = H.allocTuple(2);
  (void)Tup;
  RootInner.set(Value::unit());
  H.collect();
  EXPECT_EQ(H.liveObjects(), 2u); // outer box + inner box
  // collect() may have moved the young boxes; read through the root.
  EXPECT_EQ(RootOuter.get().object()->slot(0).object()->slot(0).asFixnum(),
            5);
}

TEST(Heap, StressWithTinyThreshold) {
  Heap H;
  // Old-generation threshold stress; also, the raw slot stores below are
  // deliberately unbarriered, which only full collections tolerate.
  H.setNurserySize(0);
  H.setGCThreshold(1 << 12);
  Value Keep = H.allocVector(16, Value::fromFixnum(0));
  Rooted Root(H, Keep);
  for (int I = 0; I != 10000; ++I) {
    Value T = H.allocTuple(3);
    T.object()->slot(0) = Value::fromFixnum(I);
    if (I % 16 == 0)
      Root.get().object()->slot((I / 16) % 16) = T;
  }
  EXPECT_GT(H.collections(), 0u);
  // The kept vector still holds live tuples.
  for (uint32_t I = 0; I != 16; ++I) {
    Value Slot = Root.get().object()->slot(I);
    if (Slot.isPointer())
      EXPECT_EQ(Slot.object()->kind(), ObjectKind::Tuple);
  }
}

TEST(Heap, ThresholdIsClampedUnderHeapLimit) {
  // Regression: collect() grew GCThreshold to max(2*live, 8 MiB) even
  // under a hard HeapLimit far below that, so maybeCollect never fired
  // again and every allocation near the limit took the emergency
  // collect-and-retry path in allocateObject — one full collection per
  // ~limit bytes instead of per ~threshold bytes. With the threshold
  // clamped to limit/4, amortized collections keep firing: churning
  // ~19 MiB of garbage under a 2 MiB limit must collect at (at least)
  // the limit/4 cadence, i.e. well over the ~10 collections the
  // emergency path alone would produce.
  Heap H;
  H.setNurserySize(0); // the threshold clamp under test is the old gen's
  H.setHeapLimit(2u << 20);
  for (int I = 0; I != 100000; ++I)
    H.allocTuple(16); // unrooted: garbage by the next collection
  EXPECT_GE(H.collections(), 20u);
  EXPECT_LE(H.peakHeapBytes(), 2u << 20);
}

TEST(Heap, SetHeapLimitClampsImmediately) {
  // The clamp must apply at setHeapLimit time too, not only after the
  // first collection — otherwise the first ~8 MiB of allocations under
  // a small limit would all take the emergency path.
  Heap H;
  H.setNurserySize(0); // the threshold clamp under test is the old gen's
  H.setHeapLimit(1u << 20);
  uint64_t Before = H.collections();
  for (int I = 0; I != 4000; ++I) // ~0.75 MiB of garbage
    H.allocTuple(16);
  EXPECT_GT(H.collections(), Before); // threshold (256 KiB) fired
}

//===----------------------------------------------------------------------===//
// Runtime casts on raw values
//===----------------------------------------------------------------------===//

namespace {

class RuntimeTest : public ::testing::Test {
protected:
  TypeContext Types;
  CoercionFactory F{Types};
  Runtime RT{Types, F, CastMode::Coercions};
  Runtime RTB{Types, F, CastMode::TypeBased};
};

} // namespace

TEST_F(RuntimeTest, InjectAtomicIsIdentity) {
  Value V = Value::fromFixnum(42);
  EXPECT_EQ(RT.inject(V, Types.integer()).Bits, V.Bits);
  EXPECT_EQ(RT.runtimeTypeOf(V), Types.integer());
  EXPECT_EQ(RT.runtimeTypeOf(Value::fromBool(true)), Types.boolean());
  EXPECT_EQ(RT.runtimeTypeOf(Value::unit()), Types.unit());
  EXPECT_EQ(RT.runtimeTypeOf(Value::fromChar('a')), Types.character());
}

TEST_F(RuntimeTest, InjectStructuredUsesDynBox) {
  Value Tup = RT.heap().allocTuple(2);
  const Type *TupTy = Types.tuple({Types.integer(), Types.integer()});
  Value Injected = RT.inject(Tup, TupTy);
  ASSERT_TRUE(Injected.isHeap());
  EXPECT_EQ(Injected.object()->kind(), ObjectKind::DynBox);
  EXPECT_EQ(RT.runtimeTypeOf(Injected), TupTy);
  EXPECT_EQ(RT.dynUnwrap(Injected).Bits, Tup.Bits);
}

TEST_F(RuntimeTest, CoerceIntThroughDyn) {
  const Coercion *Up = F.make(Types.integer(), Types.dyn(), "up");
  const Coercion *Down = F.make(Types.dyn(), Types.integer(), "down");
  Value V = RT.applyCoercion(Value::fromFixnum(7), Up);
  V = RT.applyCoercion(V, Down);
  EXPECT_EQ(V.asFixnum(), 7);
}

TEST_F(RuntimeTest, CoerceWrongProjectionBlames) {
  const Coercion *Up = F.make(Types.integer(), Types.dyn(), "up");
  const Coercion *Down = F.make(Types.dyn(), Types.boolean(), "down-lbl");
  Value V = RT.applyCoercion(Value::fromFixnum(7), Up);
  try {
    RT.applyCoercion(V, Down);
    FAIL() << "expected blame";
  } catch (RuntimeError &E) {
    EXPECT_TRUE(E.isBlame());
    EXPECT_EQ(E.Label, "down-lbl");
  }
}

TEST_F(RuntimeTest, RefProxySingleLayerInCoercionMode) {
  const Type *RefInt = Types.box(Types.integer());
  const Type *RefDyn = Types.box(Types.dyn());
  Value Box = RT.heap().allocBox(Value::fromFixnum(1));
  Rooted Root(RT.heap(), Box);
  Value P = Box;
  for (int I = 0; I != 10; ++I) {
    const Type *From = I % 2 == 0 ? RefInt : RefDyn;
    const Type *To = I % 2 == 0 ? RefDyn : RefInt;
    P = RT.applyCoercion(P, F.make(From, To, "p"));
    Rooted Keep(RT.heap(), P);
    // Never more than one proxy layer.
    if (P.isProxy())
      EXPECT_FALSE(P.object()->slot(0).isProxy());
  }
}

TEST_F(RuntimeTest, RefProxyChainsInTypeBasedMode) {
  const Type *RefInt = Types.box(Types.integer());
  const Type *RefDyn = Types.box(Types.dyn());
  Value Box = RTB.heap().allocBox(Value::fromFixnum(1));
  Rooted Root(RTB.heap(), Box);
  Value P = Box;
  for (int I = 0; I != 10; ++I) {
    const Type *From = I % 2 == 0 ? RefInt : RefDyn;
    const Type *To = I % 2 == 0 ? RefDyn : RefInt;
    P = RTB.applyTypeBased(P, From, To, nullptr);
  }
  Rooted KeepP(RTB.heap(), P);
  // Ten stacked proxies.
  unsigned Depth = 0;
  Value Cursor = P;
  while (Cursor.isProxy()) {
    ++Depth;
    Cursor = Cursor.object()->slot(0);
  }
  EXPECT_EQ(Depth, 10u);
  // Reading through the chain records its length and still works.
  Value Read = RTB.boxRead(P);
  EXPECT_EQ(Read.asFixnum(), 1);
  EXPECT_EQ(RTB.stats().LongestProxyChain, 10u);
}

TEST_F(RuntimeTest, ProxiedWriteConvertsContent) {
  const Type *RefInt = Types.box(Types.integer());
  const Type *RefDyn = Types.box(Types.dyn());
  Value Box = RT.heap().allocBox(Value::fromFixnum(1));
  Rooted Root(RT.heap(), Box);
  Value P = RT.applyCoercion(Box, F.make(RefInt, RefDyn, "p"));
  Rooted KeepP(RT.heap(), P);
  // Writing a Dyn-tagged int through the proxy stores a raw int.
  RT.boxWrite(P, Value::fromFixnum(9));
  EXPECT_EQ(Box.object()->slot(0).asFixnum(), 9);
  EXPECT_EQ(RT.boxRead(P).asFixnum(), 9);
}

TEST_F(RuntimeTest, TupleCoercionCopies) {
  const Type *SrcTy = Types.tuple({Types.integer(), Types.integer()});
  const Type *TgtTy = Types.tuple({Types.dyn(), Types.integer()});
  Value Tup = RT.heap().allocTuple(2);
  Tup.object()->slot(0) = Value::fromFixnum(1);
  Tup.object()->slot(1) = Value::fromFixnum(2);
  Rooted Root(RT.heap(), Tup);
  Value Out = RT.applyCoercion(Tup, F.make(SrcTy, TgtTy, "p"));
  EXPECT_NE(Out.Bits, Tup.Bits); // fresh tuple
  EXPECT_EQ(Out.object()->slot(0).asFixnum(), 1); // int injects inline
  EXPECT_EQ(Out.object()->slot(1).asFixnum(), 2);
}

TEST_F(RuntimeTest, ValueToStringRendersEverything) {
  EXPECT_EQ(RT.valueToString(Value::fromFixnum(42)), "42");
  EXPECT_EQ(RT.valueToString(Value::fromBool(false)), "#f");
  EXPECT_EQ(RT.valueToString(Value::unit()), "()");
  EXPECT_EQ(RT.valueToString(Value::fromChar('q')), "#\\q");
  EXPECT_EQ(RT.valueToString(Value::fromFloat(1.5)), "1.5");
  Value Tup = RT.heap().allocTuple(2);
  Tup.object()->slot(0) = Value::fromFixnum(1);
  Tup.object()->slot(1) = Value::fromBool(true);
  EXPECT_EQ(RT.valueToString(Tup), "#(1 #t)");
  EXPECT_EQ(RT.valueToString(RT.heap().allocBox(Value::fromFixnum(3))),
            "#&3");
}

TEST_F(RuntimeTest, VectorBoundsTrap) {
  Value V = RT.heap().allocVector(2, Value::fromFixnum(0));
  Rooted Root(RT.heap(), V);
  EXPECT_THROW(RT.vectorRef(V, 2), RuntimeError);
  EXPECT_THROW(RT.vectorRef(V, -1), RuntimeError);
  EXPECT_THROW(RT.vectorSet(V, 5, Value::fromFixnum(1)), RuntimeError);
  EXPECT_EQ(RT.vectorLength(V), 2);
}

//===----------------------------------------------------------------------===//
// Fault injection
//===----------------------------------------------------------------------===//

TEST(FaultInjection, CountsEveryAllocation) {
  Heap H;
  FaultInjector FI;
  H.setFaultInjector(&FI);
  for (int I = 0; I != 5; ++I)
    H.allocBox(Value::fromFixnum(I));
  EXPECT_EQ(FI.AllocCount, 5u);
  EXPECT_EQ(FI.ForcedCollections, 0u);
}

TEST(FaultInjection, ScheduledFailureIsOneShot) {
  Heap H;
  FaultInjector FI;
  FI.FailAllocAt = 3;
  H.setFaultInjector(&FI);
  H.allocBox(Value::unit());
  H.allocBox(Value::unit());
  try {
    H.allocBox(Value::unit());
    FAIL() << "allocation #3 should have failed";
  } catch (const RuntimeError &E) {
    EXPECT_EQ(E.Kind, ErrorKind::OutOfMemory);
    EXPECT_NE(E.Message.find("injected"), std::string::npos) << E.str();
  }
  // One-shot: the counter has moved past the trigger.
  Value After = H.allocBox(Value::fromFixnum(4));
  EXPECT_EQ(After.object()->slot(0).asFixnum(), 4);
  EXPECT_EQ(FI.AllocCount, 4u);
}

TEST(FaultInjection, TortureForcesCollectionEveryPeriod) {
  Heap H;
  FaultInjector FI;
  FI.GCTorturePeriod = 3;
  H.setFaultInjector(&FI);
  for (int I = 0; I != 10; ++I)
    H.allocTuple(2);
  EXPECT_EQ(FI.ForcedCollections, 3u); // after allocations 3, 6, 9
  EXPECT_GE(H.collections(), 3u);
}

TEST(FaultInjection, TorturedRootedValuesSurvive) {
  Heap H;
  FaultInjector FI;
  FI.GCTorturePeriod = 1;
  H.setFaultInjector(&FI);
  Value Keep = H.allocVector(8, Value::fromFixnum(0));
  Rooted Root(H, Keep);
  for (int I = 0; I != 8; ++I) {
    Value B = H.allocBox(Value::fromFixnum(I)); // forces a GC
    Root.get().object()->slot(I) = B;
  }
  for (uint32_t I = 0; I != 8; ++I)
    EXPECT_EQ(
        Root.get().object()->slot(I).object()->slot(0).asFixnum(),
        static_cast<int64_t>(I));
}

#ifndef NDEBUG
TEST(HeapDeathTest, PopWithoutPushAsserts) {
  EXPECT_DEATH(
      {
        Heap H;
        H.popTempRoot();
      },
      "popTempRoot without a matching push");
}

TEST(HeapDeathTest, NullTempRootAsserts) {
  EXPECT_DEATH(
      {
        Heap H;
        H.pushTempRoot(nullptr);
      },
      "null temp root");
}
#endif

//===----------------------------------------------------------------------===//
// GC torture over whole programs: collecting on every allocation turns
// any missing root in a runtime helper into a deterministic failure.
//===----------------------------------------------------------------------===//

namespace {

class GCTortureTest : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(GCTortureTest, BenchmarkSurvivesCollectEveryAllocation) {
  const BenchProgram &B = getBenchmark(GetParam());
  Grift G;
  std::string Errors;
  auto Exe = G.compile(B.Source, CastMode::Coercions, Errors);
  ASSERT_TRUE(Exe.has_value()) << Errors;
  FaultInjector Injector;
  Injector.GCTorturePeriod = 1;
  RunResult R = Exe->run(B.TestInput, {}, &Injector);
  ASSERT_TRUE(R.OK) << B.Name << ": " << R.Error.str();
  EXPECT_GT(Injector.ForcedCollections, 0u) << B.Name;
  std::string Out = R.Output;
  while (!Out.empty() && Out.back() == '\n')
    Out.pop_back();
  EXPECT_EQ(Out, B.TestOutput) << B.Name;
}

TEST_P(GCTortureTest, TypeBasedSurvivesFrequentCollections) {
  // Proxy chains in type-based mode allocate aggressively; a coarser
  // period keeps the quadratic torture cost affordable.
  const BenchProgram &B = getBenchmark(GetParam());
  Grift G;
  std::string Errors;
  auto Exe = G.compile(B.Source, CastMode::TypeBased, Errors);
  ASSERT_TRUE(Exe.has_value()) << Errors;
  FaultInjector Injector;
  Injector.GCTorturePeriod = 13;
  RunResult R = Exe->run(B.TestInput, {}, &Injector);
  ASSERT_TRUE(R.OK) << B.Name << ": " << R.Error.str();
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, GCTortureTest,
    ::testing::Values("sieve", "n-body", "tak", "ray", "blackscholes",
                      "matmult", "quicksort", "fft"),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });
