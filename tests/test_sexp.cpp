//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the s-expression reader.
///
//===----------------------------------------------------------------------===//
#include "sexp/Reader.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace grift;

namespace {

SexpArena readOk(std::string_view Source) {
  DiagnosticEngine Diags;
  SexpArena Data = readSexps(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return Data;
}

void expectReadError(std::string_view Source) {
  DiagnosticEngine Diags;
  readSexps(Source, Diags);
  EXPECT_TRUE(Diags.hasErrors()) << "expected a read error for: " << Source;
}

/// The single diagnostic a failed read reports, as "line:col: message".
std::string readError(std::string_view Source) {
  DiagnosticEngine Diags;
  readSexps(Source, Diags);
  const auto &All = Diags.diagnostics();
  EXPECT_EQ(All.size(), 1u) << Source;
  return All.empty() ? "" : All[0].Loc.str() + ": " + All[0].Message;
}

} // namespace

TEST(Reader, EmptyInput) {
  EXPECT_TRUE(readOk("").empty());
  EXPECT_TRUE(readOk("   \n\t ").empty());
  EXPECT_TRUE(readOk("; just a comment\n").empty());
}

TEST(Reader, Integers) {
  auto Data = readOk("42 -7 0");
  ASSERT_EQ(Data.size(), 3u);
  EXPECT_EQ(Data[0].intValue(), 42);
  EXPECT_EQ(Data[1].intValue(), -7);
  EXPECT_EQ(Data[2].intValue(), 0);
}

TEST(Reader, Floats) {
  auto Data = readOk("3.5 -0.25 1e3 2.");
  ASSERT_EQ(Data.size(), 4u);
  EXPECT_DOUBLE_EQ(Data[0].floatValue(), 3.5);
  EXPECT_DOUBLE_EQ(Data[1].floatValue(), -0.25);
  EXPECT_DOUBLE_EQ(Data[2].floatValue(), 1000.0);
  EXPECT_DOUBLE_EQ(Data[3].floatValue(), 2.0);
}

TEST(Reader, Booleans) {
  auto Data = readOk("#t #f");
  ASSERT_EQ(Data.size(), 2u);
  EXPECT_TRUE(Data[0].boolValue());
  EXPECT_FALSE(Data[1].boolValue());
}

TEST(Reader, Characters) {
  auto Data = readOk("#\\a #\\newline #\\space #\\0");
  ASSERT_EQ(Data.size(), 4u);
  EXPECT_EQ(Data[0].charValue(), 'a');
  EXPECT_EQ(Data[1].charValue(), '\n');
  EXPECT_EQ(Data[2].charValue(), ' ');
  EXPECT_EQ(Data[3].charValue(), '0');
}

TEST(Reader, Symbols) {
  auto Data = readOk("vector-ref fl+ -> even? - ...");
  ASSERT_EQ(Data.size(), 6u);
  EXPECT_EQ(Data[0].symbol(), "vector-ref");
  EXPECT_EQ(Data[1].symbol(), "fl+");
  EXPECT_EQ(Data[2].symbol(), "->");
  EXPECT_EQ(Data[3].symbol(), "even?");
  EXPECT_EQ(Data[4].symbol(), "-");
  EXPECT_EQ(Data[5].symbol(), "...");
}

TEST(Reader, Strings) {
  auto Data = readOk("\"hello\" \"a\\nb\" \"q\\\"q\"");
  ASSERT_EQ(Data.size(), 3u);
  EXPECT_EQ(Data[0].string(), "hello");
  EXPECT_EQ(Data[1].string(), "a\nb");
  EXPECT_EQ(Data[2].string(), "q\"q");
}

TEST(Reader, NestedLists) {
  auto Data = readOk("(define (f [x : Int]) : Int (+ x 1))");
  ASSERT_EQ(Data.size(), 1u);
  const Sexp &Define = Data[0];
  ASSERT_TRUE(Define.isList());
  ASSERT_EQ(Define.size(), 5u);
  EXPECT_TRUE(Define[0].is(Keyword::Define));
  EXPECT_TRUE(Define[1].isList());
  EXPECT_TRUE(Define[1][1].isList());
  EXPECT_EQ(Define[1][1][0].symbol(), "x");
}

TEST(Reader, BracketsAreParens) {
  auto Data = readOk("[let ([x 1]) x]");
  ASSERT_EQ(Data.size(), 1u);
  EXPECT_TRUE(Data[0][0].is(Keyword::Let));
}

TEST(Reader, MismatchedBracketFails) {
  expectReadError("(let [x 1)]");
  expectReadError("(a b");
  expectReadError(")");
}

TEST(Reader, EmptyListIsUnit) {
  auto Data = readOk("()");
  ASSERT_EQ(Data.size(), 1u);
  EXPECT_TRUE(Data[0].isEmptyList());
}

TEST(Reader, LineComments) {
  auto Data = readOk("1 ; ignored (2 3\n4");
  ASSERT_EQ(Data.size(), 2u);
  EXPECT_EQ(Data[0].intValue(), 1);
  EXPECT_EQ(Data[1].intValue(), 4);
}

TEST(Reader, BlockComments) {
  auto Data = readOk("1 #| a #| nested |# b |# 2");
  ASSERT_EQ(Data.size(), 2u);
  EXPECT_EQ(Data[1].intValue(), 2);
  expectReadError("#| unterminated");
}

TEST(Reader, SourceLocations) {
  auto Data = readOk("\n  (f 1)");
  ASSERT_EQ(Data.size(), 1u);
  EXPECT_EQ(Data[0].loc().Line, 2u);
  EXPECT_EQ(Data[0].loc().Column, 3u);
  EXPECT_EQ(Data[0][1].loc().Column, 6u);
}

TEST(Reader, StrRoundTrip) {
  const char *Source = "(define x (tuple 1 2.5 #t #\\a \"s\" ()))";
  auto Data = readOk(Source);
  ASSERT_EQ(Data.size(), 1u);
  // Symbols view their source, which must outlive the arena.
  std::string Text = Data[0].str();
  auto Again = readOk(Text);
  ASSERT_EQ(Again.size(), 1u);
  EXPECT_EQ(Again[0].str(), Data[0].str());
}

TEST(Reader, UnknownHashSyntaxFails) {
  expectReadError("#q");
  expectReadError("#\\bogusname");
}

TEST(Reader, DiagnosticsPinMessageAndLocation) {
  EXPECT_EQ(readError("(a b"), "1:1: unterminated list");
  EXPECT_EQ(readError("(f\n  (g 1"), "2:3: unterminated list");
  EXPECT_EQ(readError("\"abc"), "1:1: unterminated string literal");
  EXPECT_EQ(readError("\"abc\\"), "1:1: unterminated string escape");
  EXPECT_EQ(readError("1 #| x #| y |# z"), "1:3: unterminated block comment");
  EXPECT_EQ(readError("(let [x 1)]"), "1:10: mismatched closing parenthesis");
  EXPECT_EQ(readError("(f\n  (g [x 1)))"),
            "2:10: mismatched closing parenthesis");
  EXPECT_EQ(readError(")"), "1:1: unexpected closing parenthesis");
  EXPECT_EQ(readError("\n  ]"), "2:3: unexpected closing parenthesis");
  EXPECT_EQ(readError("\"a\\qb\""), "1:1: unknown string escape '\\q'");
  EXPECT_EQ(readError("#"), "1:1: dangling '#'");
  EXPECT_EQ(readError("#\\"), "1:1: dangling character literal");
  EXPECT_EQ(readError("(f #\\bogusname)"),
            "1:4: unknown character name '#\\bogusname'");
  EXPECT_EQ(readError("#q"), "1:1: unknown '#' syntax '#q'");
  EXPECT_EQ(readError("  #tx"), "1:3: junk after boolean literal");
}

TEST(Reader, LocationsCountBytesAfterNewlinesInsideTokens) {
  auto Data = readOk("\"a\nb\" #\\\n #| x\n |# (f\ty)");
  ASSERT_EQ(Data.size(), 3u);
  EXPECT_EQ(Data[0].string(), "a\nb");
  EXPECT_EQ(Data[1].charValue(), '\n');
  EXPECT_EQ(Data[1].loc(), SourceLoc(2, 4));
  EXPECT_EQ(Data[2].loc(), SourceLoc(4, 5));
  EXPECT_EQ(Data[2][1].loc(), SourceLoc(4, 8));
}

TEST(Reader, IntegerOutsideInt64IsAFixnumRangeError) {
  EXPECT_EQ(readError("(+ 99999999999999999999 1)"),
            "1:4: integer literal 99999999999999999999 is outside the "
            "fixnum range [-2^47, 2^47)");
  EXPECT_EQ(readError("-9223372036854775809"),
            "1:1: integer literal -9223372036854775809 is outside the "
            "fixnum range [-2^47, 2^47)");
  auto Data = readOk("9223372036854775807 -9223372036854775808");
  ASSERT_EQ(Data.size(), 2u);
  EXPECT_EQ(Data[0].intValue(), INT64_MAX);
  EXPECT_EQ(Data[1].intValue(), INT64_MIN);
}

TEST(Reader, HexAndOtherNonDecimalSpellingsAreSymbols) {
  auto Data = readOk("0x10 0x1p3 1e5x 1e +- . inf 1.5.2");
  ASSERT_EQ(Data.size(), 8u);
  for (const Sexp &Datum : Data)
    EXPECT_TRUE(Datum.isSymbol()) << Datum.str();
  EXPECT_EQ(Data[0].symbol(), "0x10");
}

TEST(Reader, FloatOutsideDoubleRangeIsAnError) {
  EXPECT_EQ(readError("1e400"),
            "1:1: float literal 1e400 is outside the Float range");
  EXPECT_EQ(readError("(f -1.5e309)"),
            "1:4: float literal -1.5e309 is outside the Float range");
}

TEST(Reader, AcceptedNumberSpellingsAreKept) {
  auto Data = readOk("+5 -3 1e5 5e-324 .5 2. -.5e-3 1E2 1e-400 -1e-400");
  ASSERT_EQ(Data.size(), 10u);
  EXPECT_EQ(Data[0].intValue(), 5);
  EXPECT_EQ(Data[1].intValue(), -3);
  EXPECT_EQ(Data[2].floatValue(), 1e5);
  EXPECT_EQ(Data[3].floatValue(), 5e-324);
  EXPECT_EQ(Data[4].floatValue(), 0.5);
  EXPECT_EQ(Data[5].floatValue(), 2.0);
  EXPECT_EQ(Data[6].floatValue(), -0.5e-3);
  EXPECT_EQ(Data[7].floatValue(), 100.0);
  // An underflow reads as a signed zero, as strtod gives.
  EXPECT_EQ(Data[8].floatValue(), 0.0);
  EXPECT_FALSE(std::signbit(Data[8].floatValue()));
  EXPECT_TRUE(std::signbit(Data[9].floatValue()));
}

TEST(Reader, SymbolsAreClassifiedAtReadTime) {
#define GRIFT_CHECK(ID, NAME)                                                  \
  {                                                                            \
    auto Data = readOk(NAME);                                                  \
    ASSERT_EQ(Data.size(), 1u);                                                \
    EXPECT_TRUE(Data[0].is(KIND::ID)) << NAME;                                 \
    EXPECT_EQ(Data[0].symbol(), NAME);                                         \
  }
#define KIND Keyword
  GRIFT_KEYWORDS(GRIFT_CHECK)
#undef KIND
#define KIND TypeName
  GRIFT_TYPE_NAMES(GRIFT_CHECK)
#undef KIND
#undef GRIFT_CHECK
  auto Data = readOk("x Tuplex iff define? (if)");
  for (size_t I = 0; I != 4; ++I)
    EXPECT_EQ(Data[I].symbolClass(), Sexp::Class::Plain) << Data[I].str();
  EXPECT_EQ(Data[4].symbolClass(), Sexp::Class::Plain);
  EXPECT_TRUE(Data[4][0].is(Keyword::If));
  EXPECT_FALSE(Data[4][0].is(TypeName::Dyn));
}
