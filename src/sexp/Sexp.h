//===----------------------------------------------------------------------===//
///
/// \file
/// S-expression datum produced by the Reader. GTLC+ surface syntax (paper
/// Figure 5) is Lisp-style, so the front end first reads generic
/// s-expressions and then parses them into the AST.
///
/// A Sexp is a flat 24-byte node owned by the SexpArena of one read: a
/// list is a span of the arena's child array, a symbol views the source
/// text and carries the class the reader gave it, so the parsers switch
/// on an id instead of comparing names.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_SEXP_SEXP_H
#define GRIFT_SEXP_SEXP_H

#include "support/SourceLoc.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>

namespace grift {

/// Names that head special forms; none of them can be a variable.
#define GRIFT_KEYWORDS(X)                                                      \
  X(Define, "define") X(Lambda, "lambda") X(Let, "let") X(Letrec, "letrec")    \
  X(If, "if") X(Begin, "begin") X(Repeat, "repeat") X(Time, "time")            \
  X(Tuple, "tuple") X(TupleProj, "tuple-proj") X(Box, "box")                   \
  X(Unbox, "unbox") X(BoxSet, "box-set!") X(MakeVector, "make-vector")         \
  X(VectorRef, "vector-ref") X(VectorSet, "vector-set!")                       \
  X(VectorLength, "vector-length") X(Ann, "ann") X(And, "and") X(Or, "or")     \
  X(When, "when") X(Unless, "unless") X(Cond, "cond") X(Else, "else")          \
  X(Colon, ":")

/// Names of the type syntax; plain variables outside types.
#define GRIFT_TYPE_NAMES(X)                                                    \
  X(Dyn, "Dyn") X(Unit, "Unit") X(Bool, "Bool") X(Int, "Int")                  \
  X(Char, "Char") X(Float, "Float") X(Tuple, "Tuple") X(Ref, "Ref")            \
  X(Vect, "Vect") X(Rec, "Rec") X(Arrow, "->")

#define GRIFT_ENUMERATOR(ID, NAME) ID,
enum class Keyword : uint8_t { GRIFT_KEYWORDS(GRIFT_ENUMERATOR) };
enum class TypeName : uint8_t { GRIFT_TYPE_NAMES(GRIFT_ENUMERATOR) };
#undef GRIFT_ENUMERATOR

/// One s-expression datum: an atom or a (possibly empty) list.
class Sexp {
public:
  enum class Kind : uint8_t {
    Symbol, ///< identifier, e.g. `vector-ref`
    Int,    ///< integer literal
    Float,  ///< floating point literal
    Bool,   ///< `#t` / `#f`
    Char,   ///< `#\a`, `#\newline`, ...
    String, ///< double-quoted string (used for blame labels in tests)
    List,   ///< `(...)` — the empty list doubles as the unit literal
  };

  /// What a symbol names, fixed once at read time; every non-symbol is
  /// Plain. Prim ids are PrimOp values: both follow ast/Prims.def.
  enum class Class : uint8_t { Plain, Keyword, Prim, TypeName };

  Kind kind() const { return TheKind; }
  SourceLoc loc() const { return Loc; }

  bool isSymbol() const { return TheKind == Kind::Symbol; }
  bool is(Keyword K) const { return isClass(Class::Keyword, uint8_t(K)); }
  bool is(TypeName T) const { return isClass(Class::TypeName, uint8_t(T)); }
  bool isList() const { return TheKind == Kind::List; }
  bool isEmptyList() const { return isList() && Len == 0; }

  Class symbolClass() const { return TheClass; }
  /// The Keyword, PrimOp or TypeName of a classified symbol.
  uint8_t id() const { return Id; }

  std::string_view symbol() const { return {as(Kind::Symbol).Text, Len}; }
  std::string_view string() const { return {as(Kind::String).Text, Len}; }
  int64_t intValue() const { return as(Kind::Int).IntVal; }
  double floatValue() const { return as(Kind::Float).FloatVal; }
  bool boolValue() const { return as(Kind::Bool).IntVal != 0; }
  char charValue() const { return static_cast<char>(as(Kind::Char).IntVal); }

  /// A list's elements.
  const Sexp *begin() const { return as(Kind::List).Kids; }
  const Sexp *end() const { return begin() + Len; }
  size_t size() const { return as(Kind::List).Len; }
  const Sexp &operator[](size_t Index) const {
    assert(Index < size() && "sexp index out of range");
    return Kids[Index];
  }

  /// Renders the datum back to text (for diagnostics and round-trip tests).
  std::string str() const;

private:
  friend class SexpReader;

  bool isClass(Class C, uint8_t I) const { return TheClass == C && Id == I; }
  const Sexp &as([[maybe_unused]] Kind K) const {
    assert(TheKind == K && "wrong kind of sexp");
    return *this;
  }

  Kind TheKind = Kind::List;
  Class TheClass = Class::Plain;
  uint8_t Id = 0;
  uint32_t Len = 0; ///< Symbol/String bytes, List elements
  SourceLoc Loc;
  union {
    const char *Text; ///< Symbol: the source; String: the arena
    int64_t IntVal;   ///< Int, Bool, Char (as code point)
    double FloatVal;
    const Sexp *Kids = nullptr;
    size_t First; ///< List, while reading: index of Kids in the arena
  };
};

} // namespace grift

#endif // GRIFT_SEXP_SEXP_H
