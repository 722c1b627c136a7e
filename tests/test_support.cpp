//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the support module: diagnostics, string utilities, RNG,
/// the bump arena.
///
//===----------------------------------------------------------------------===//
#include "support/Arena.h"
#include "support/Diagnostics.h"
#include "support/RNG.h"
#include "support/StringUtil.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

using namespace grift;

TEST(SourceLoc, DefaultIsInvalid) {
  SourceLoc Loc;
  EXPECT_FALSE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "?");
}

TEST(SourceLoc, Formats) {
  SourceLoc Loc(3, 14);
  EXPECT_TRUE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "3:14");
}

TEST(Diagnostics, CountsErrorsOnly) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning(SourceLoc(1, 1), "w");
  Diags.note(SourceLoc(1, 2), "n");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error(SourceLoc(2, 1), "e");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.diagnostics().size(), 3u);
}

TEST(Diagnostics, RendersSeverityAndLocation) {
  DiagnosticEngine Diags;
  Diags.error(SourceLoc(7, 2), "bad type");
  EXPECT_EQ(Diags.diagnostics()[0].str(), "error: 7:2: bad type");
}

TEST(Diagnostics, ClearResets) {
  DiagnosticEngine Diags;
  Diags.error(SourceLoc(1, 1), "e");
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.diagnostics().empty());
}

TEST(StringUtil, ParseInt64) {
  int64_t Value = 0;
  EXPECT_TRUE(parseInt64("42", Value));
  EXPECT_EQ(Value, 42);
  EXPECT_TRUE(parseInt64("-17", Value));
  EXPECT_EQ(Value, -17);
  EXPECT_FALSE(parseInt64("", Value));
  EXPECT_FALSE(parseInt64("12x", Value));
  EXPECT_FALSE(parseInt64("1.5", Value));
  EXPECT_FALSE(parseInt64("999999999999999999999999", Value));
}

TEST(StringUtil, ParseDouble) {
  double Value = 0;
  EXPECT_TRUE(parseDouble("3.5", Value));
  EXPECT_DOUBLE_EQ(Value, 3.5);
  EXPECT_TRUE(parseDouble("-2e3", Value));
  EXPECT_DOUBLE_EQ(Value, -2000.0);
  EXPECT_FALSE(parseDouble("abc", Value));
  EXPECT_FALSE(parseDouble("1.5q", Value));
}

TEST(StringUtil, ParseInt64SignsAndRange) {
  int64_t Value = 0;
  EXPECT_TRUE(parseInt64("+5", Value));
  EXPECT_EQ(Value, 5);
  EXPECT_TRUE(parseInt64("9223372036854775807", Value));
  EXPECT_EQ(Value, INT64_MAX);
  EXPECT_TRUE(parseInt64("-9223372036854775808", Value));
  EXPECT_EQ(Value, INT64_MIN);
  Value = 7;
  EXPECT_FALSE(parseInt64("9223372036854775808", Value));
  EXPECT_FALSE(parseInt64("+-5", Value));
  EXPECT_FALSE(parseInt64("+", Value));
  EXPECT_FALSE(parseInt64("0x10", Value));
  EXPECT_FALSE(parseInt64(" 5", Value));
  EXPECT_EQ(Value, 7) << "a failed parse leaves Out alone";
}

TEST(StringUtil, ParseDoubleIsDecimalOnly) {
  double Value = 0;
  EXPECT_TRUE(parseDouble("+1.5", Value));
  EXPECT_EQ(Value, 1.5);
  EXPECT_TRUE(parseDouble("5e-324", Value));
  EXPECT_EQ(Value, 5e-324);
  EXPECT_TRUE(parseDouble("1e-400", Value));
  EXPECT_EQ(Value, 0.0);
  EXPECT_FALSE(std::signbit(Value));
  EXPECT_TRUE(parseDouble("-0.0001e-400", Value));
  EXPECT_TRUE(std::signbit(Value));
  Value = 7;
  EXPECT_FALSE(parseDouble("1e400", Value));
  EXPECT_FALSE(parseDouble("0.001e312", Value));
  EXPECT_FALSE(parseDouble("0x10", Value));
  EXPECT_FALSE(parseDouble("0x1p3", Value));
  EXPECT_FALSE(parseDouble("+-1", Value));
  EXPECT_FALSE(parseDouble("", Value));
  EXPECT_EQ(Value, 7) << "a failed parse leaves Out alone";
}

TEST(StringUtil, FormatDoubleRoundTrips) {
  for (double Value : {0.0, 1.0, -1.5, 3.141592653589793, 1e-9, 1e300,
                       5e-324, 1.7976931348623157e308, -2.2250738585072014e-308,
                       0.1 + 0.2}) {
    double Back = 0;
    ASSERT_TRUE(parseDouble(formatDouble(Value), Back));
    EXPECT_EQ(Back, Value);
  }
}

TEST(StringUtil, FormatDoubleIntegralHasPoint) {
  EXPECT_EQ(formatDouble(2.0), "2.0");
  EXPECT_EQ(formatDouble(0.0), "0.0");
}

TEST(StringUtil, Join) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtil, HashBytesDiffers) {
  uint64_t HashA = hashBytes("hello", 5);
  uint64_t HashB = hashBytes("hellp", 5);
  EXPECT_NE(HashA, HashB);
  EXPECT_EQ(HashA, hashBytes("hello", 5));
}

TEST(RNG, Deterministic) {
  RNG A(12345), B(12345);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RNG, BelowInRange) {
  RNG Gen(7);
  for (int I = 0; I != 1000; ++I) {
    uint64_t Draw = Gen.below(10);
    EXPECT_LT(Draw, 10u);
  }
}

TEST(RNG, UnitInRange) {
  RNG Gen(11);
  for (int I = 0; I != 1000; ++I) {
    double Draw = Gen.unit();
    EXPECT_GE(Draw, 0.0);
    EXPECT_LT(Draw, 1.0);
  }
}

TEST(RNG, BelowCoversValues) {
  RNG Gen(3);
  bool Seen[4] = {false, false, false, false};
  for (int I = 0; I != 200; ++I)
    Seen[Gen.below(4)] = true;
  EXPECT_TRUE(Seen[0] && Seen[1] && Seen[2] && Seen[3]);
}

TEST(Arena, AlignsObjectsAndCopiesStrings) {
  Arena A;
  std::string Text = "a name that outlives its source";
  std::string_view Copy = A.copy(Text);
  Text.assign(Text.size(), '?');
  EXPECT_EQ(Copy, "a name that outlives its source");
  for (int I = 0; I != 100; ++I) {
    A.copy(std::string_view("xyz", 1 + I % 3));
    auto *D = A.make<double>(I);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(D) % alignof(double), 0u);
    EXPECT_EQ(*D, I);
  }
  EXPECT_TRUE(A.copy(std::string_view()).empty());
}

TEST(Arena, CopiesArraysAndServesLargeRequests) {
  Arena A;
  std::vector<int> Small = {1, 2, 3};
  std::span<int> Copy = A.copy<int>(Small);
  Small[0] = 9;
  EXPECT_EQ(Copy[0], 1);
  EXPECT_EQ(Copy.size(), 3u);
  EXPECT_TRUE(A.copy<int>(std::span<const int>()).empty());
  // Larger than any block: gets a block of its own and stays usable.
  std::vector<uint64_t> Big(100000, 7);
  std::span<uint64_t> BigCopy = A.copy<uint64_t>(Big);
  EXPECT_EQ(BigCopy.size(), Big.size());
  EXPECT_EQ(BigCopy.back(), 7u);
  EXPECT_EQ(Copy[2], 3);
}

TEST(Arena, MovingKeepsEveryObjectInPlace) {
  Arena A;
  std::vector<int *> Made;
  for (int I = 0; I != 5000; ++I)
    Made.push_back(A.make<int>(I));
  Arena B = std::move(A);
  Arena C;
  C = std::move(B);
  for (int I = 0; I != 5000; ++I)
    EXPECT_EQ(*Made[I], I);
  // The moved-from arena is empty and usable.
  EXPECT_EQ(*A.make<int>(42), 42);
}
