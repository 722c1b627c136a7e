//===----------------------------------------------------------------------===//
///
/// \file
/// The explicit-cast intermediate language that cast insertion produces
/// (paper Section 3, Appendix B). Every node carries its static type.
/// Casts appear as explicit `Cast` nodes with source type, target type and
/// a blame label; how a cast is executed (coercions vs. type-based) is
/// decided later by the VM compiler.
///
/// The checker resolves every variable: a LocalRef carries the id of its
/// binder and a GlobalRef the index of its global, so codegen turns
/// variables into slots by indexing arrays. The names themselves live in
/// the program's NameTable.
///
/// The *Dyn node kinds implement the paper's Section 3 optimization: an
/// elimination form applied to a Dyn value is specialized so that "code
/// that does what a proxy would do" runs without allocating a proxy.
///
/// Nodes and their child lists live in the CoreProgram's arena, so they
/// are trivially destructible; a pass that adds nodes (the optimizer)
/// takes them from the same program's arena().
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_FRONTEND_COREIR_H
#define GRIFT_FRONTEND_COREIR_H

#include "ast/Prim.h"
#include "support/Arena.h"
#include "support/SourceLoc.h"
#include "types/Type.h"

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace grift::core {

/// Core node constructors. `Sub` names Node::Subs.
enum class NodeKind : uint8_t {
  LitUnit,
  LitBool,
  LitInt,
  LitFloat,
  LitChar,
  LocalRef,     ///< Id = binder id
  GlobalRef,    ///< Id = global index
  If,           ///< Sub = [cond, then, else]
  Lambda,       ///< Id = first param binder; Ty (function type); Sub = [body]
  App,          ///< callee statically a function; Sub = [callee, args...]
  AppDyn,       ///< callee statically Dyn; Sub = [callee, args...]
  PrimApp,      ///< Prim; Sub = args
  Let,          ///< Id = first binder; Sub = [inits..., body]
  Letrec,       ///< Id = first binder; Sub = [lambda inits..., body]
  Begin,        ///< Sub = exprs
  Repeat,       ///< Id = index binder (then acc); HasAcc;
                ///< Sub = [lo, hi, (accInit)?, body]
  Time,         ///< Sub = [body]
  Tuple,        ///< Sub = elements
  TupleProj,    ///< Index; Sub = [tuple]
  TupleProjDyn, ///< Index; Sub = [dyn]
  BoxAlloc,     ///< Sub = [init]
  Unbox,        ///< Sub = [box]
  UnboxDyn,     ///< Sub = [dyn]
  BoxSet,       ///< Sub = [box, value]
  BoxSetDyn,    ///< Sub = [dyn, value]
  MakeVect,     ///< Sub = [size, init]
  VectRef,      ///< Sub = [vect, index]
  VectRefDyn,   ///< Sub = [dyn, index]
  VectSet,      ///< Sub = [vect, index, value]
  VectSetDyn,   ///< Sub = [dyn, index, value]
  VectLen,      ///< Sub = [vect]
  VectLenDyn,   ///< Sub = [dyn]
  Cast,         ///< SrcTy => Ty, blamed at Loc; Sub = [body]
};

/// One core IR node. Plain data; built by the type checker (and the
/// optimizer's folds).
struct Node {
  NodeKind Kind = NodeKind::LitUnit;
  SourceLoc Loc;
  /// Static type of this expression.
  const Type *Ty = nullptr;

  int64_t IntVal = 0;
  double FloatVal = 0;
  bool BoolVal = false;
  char CharVal = 0;

  /// LocalRef: its binder's id. GlobalRef: its global index. Lambda,
  /// Let, Letrec and Repeat: the id of the first binder they introduce;
  /// the others follow it in order (params, bindings, or the index and
  /// then the accumulator).
  uint32_t Id = 0;
  grift::PrimOp Prim{};        // PrimApp
  uint32_t Index = 0;          // TupleProj*
  bool HasAcc = false;         // Repeat
  const Type *SrcTy = nullptr; // Cast source

  std::span<Node *> Subs;

  /// The blame label of a Cast or *Dyn node: its source location "L:C".
  std::string blameLabel() const { return Loc.str(); }
};
static_assert(std::is_trivially_destructible_v<Node>,
              "core nodes live in their program's arena");

/// The names of a program's binders and globals, kept beside the IR:
/// --dump-core, the VM's global table and the reference interpreter read
/// them, codegen never does.
struct NameTable {
  std::vector<std::string> Binders; ///< by binder id
  std::vector<std::string> Globals; ///< by global index
};

/// A checked top-level definition.
struct Def {
  int32_t Global = -1; ///< global index; -1 for an expression statement
  const Type *Ty = nullptr;
  Node *Body = nullptr;
};

/// A checked program, owning the arena its nodes live in. As with the
/// surface Program, the arena sits behind a pointer, so moving a
/// CoreProgram moves no node.
class CoreProgram {
public:
  std::vector<Def> Defs;
  NameTable Names;

  CoreProgram();

  /// The arena that holds this program's nodes.
  Arena &arena() { return *Nodes; }

  /// Renders a debug S-expression of the core IR (with explicit casts).
  std::string str() const;

private:
  std::unique_ptr<Arena> Nodes;
};

/// Counts Cast nodes in a program (tests, experiment reporting).
unsigned countCasts(const CoreProgram &Prog);

} // namespace grift::core

#endif // GRIFT_FRONTEND_COREIR_H
