//===----------------------------------------------------------------------===//
///
/// \file
/// The GTLC+ surface AST (paper Figure 5). Nodes are intentionally plain
/// structs with public members: the configuration sampler (src/lattice)
/// rewrites type annotations in place, and the front end consumes the tree
/// read-only. Sub-expression layout per kind is documented on ExprKind.
///
/// Every node, child list and name of a Program lives in that Program's
/// Arena, so nodes are trivially destructible and the tree dies with its
/// arena's blocks. A node may be linked only into the program whose arena
/// holds it: a rewrite that adds a node takes it from the edited
/// program's arena(), and clone() copies everything into the clone's own.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_AST_AST_H
#define GRIFT_AST_AST_H

#include "ast/Prim.h"
#include "support/Arena.h"
#include "support/SourceLoc.h"
#include "types/Type.h"

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace grift {

struct Expr;

/// Expression constructors. `Sub` below names Expr::SubExprs.
enum class ExprKind : uint8_t {
  LitUnit,   ///< ()
  LitBool,   ///< #t / #f; BoolVal
  LitInt,    ///< IntVal
  LitFloat,  ///< FloatVal
  LitChar,   ///< CharVal
  Var,       ///< Name
  If,        ///< Sub = [cond, then, else]
  Lambda,    ///< Params, ReturnAnnot?; Sub = [body]
  App,       ///< Sub = [callee, args...]
  PrimApp,   ///< Prim; Sub = args
  Let,       ///< Bindings; Sub = body sequence
  Letrec,    ///< Bindings (lambda RHS only); Sub = body sequence
  Begin,     ///< Sub = expressions (non-empty)
  Repeat,    ///< Name = index var; Sub = [lo, hi, (accInit)?, body];
             ///< AccName/AccAnnot when HasAcc
  Time,      ///< Sub = [body]
  Tuple,     ///< Sub = elements
  TupleProj, ///< Index; Sub = [tuple]
  BoxE,      ///< Sub = [init]
  Unbox,     ///< Sub = [box]
  BoxSet,    ///< Sub = [box, value]
  MakeVect,  ///< Sub = [size, init]
  VectRef,   ///< Sub = [vect, index]
  VectSet,   ///< Sub = [vect, index, value]
  VectLen,   ///< Sub = [vect]
  Ascribe,   ///< Annot; Sub = [body]  — (ann E T)
};

/// A formal parameter; Annot == nullptr means the annotation was omitted
/// (which the type checker reads as Dyn, fine-grained gradual typing).
struct Param {
  std::string_view Name;
  const Type *Annot = nullptr;
  SourceLoc Loc;
};

/// A let/letrec binding; Annot == nullptr means "synthesize from Init".
struct Binding {
  std::string_view Name;
  const Type *Annot = nullptr;
  Expr *Init = nullptr;
  SourceLoc Loc;
};

/// One surface expression.
struct Expr {
  ExprKind Kind = ExprKind::LitUnit;
  SourceLoc Loc;

  // Literal payloads.
  int64_t IntVal = 0;
  double FloatVal = 0;
  bool BoolVal = false;
  char CharVal = 0;

  std::string_view Name;    // Var, Repeat index variable
  PrimOp Prim{};            // PrimApp
  uint32_t Index = 0;       // TupleProj
  bool HasAcc = false;      // Repeat accumulator present?
  std::string_view AccName; // Repeat accumulator variable
  const Type *AccAnnot = nullptr;    // Repeat accumulator annotation
  const Type *ReturnAnnot = nullptr; // Lambda return annotation
  const Type *Annot = nullptr;       // Ascribe target type

  std::span<Param> Params;     // Lambda
  std::span<Binding> Bindings; // Let / Letrec
  std::span<Expr *> SubExprs;  // layout per ExprKind

  /// Renders surface syntax (annotations included).
  std::string str() const;
};

/// Factory helpers; every node gets a location and lives in \p A.
Expr *makeExpr(Arena &A, ExprKind Kind, SourceLoc Loc);
Expr *makeLitUnit(Arena &A, SourceLoc Loc);
Expr *makeLitBool(Arena &A, bool Value, SourceLoc Loc);
Expr *makeLitInt(Arena &A, int64_t Value, SourceLoc Loc);
Expr *makeLitFloat(Arena &A, double Value, SourceLoc Loc);

/// A top-level definition: (define x : T E) or a bare expression
/// (Name empty). Function defines are desugared to lambda bindings by the
/// parser.
struct Define {
  std::string_view Name;       // empty for an expression statement
  const Type *Annot = nullptr; // nullptr: synthesize
  Expr *Body = nullptr;
  SourceLoc Loc;
};

static_assert(std::is_trivially_destructible_v<Expr> &&
                  std::is_trivially_destructible_v<Param> &&
                  std::is_trivially_destructible_v<Binding> &&
                  std::is_trivially_destructible_v<Define>,
              "AST nodes live in their program's arena");

/// A whole program: an ordered sequence of definitions and expressions,
/// owning the arena its nodes live in. The arena sits behind a pointer,
/// so moving a Program moves no node and a reference to arena() stays
/// valid across the move.
class Program {
public:
  std::vector<Define> Defines;

  Program();

  /// The arena that holds this program's nodes.
  Arena &arena() { return *Nodes; }

  /// Deep copy into a fresh arena (the sampler clones programs before
  /// mutating annotations); the copy outlives this program.
  Program clone() const;
  /// Renders the program as concrete syntax.
  std::string str() const;

private:
  std::unique_ptr<Arena> Nodes;
};

} // namespace grift

#endif // GRIFT_AST_AST_H
