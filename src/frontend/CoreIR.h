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
//===----------------------------------------------------------------------===//
#ifndef GRIFT_FRONTEND_COREIR_H
#define GRIFT_FRONTEND_COREIR_H

#include "ast/Prim.h"
#include "support/SourceLoc.h"
#include "types/Type.h"

#include <memory>
#include <string>
#include <vector>

namespace grift::core {

struct Node;
using NodePtr = std::unique_ptr<Node>;

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

/// One core IR node. Plain data; built only by the type checker.
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

  std::vector<NodePtr> Subs;

  /// The blame label of a Cast or *Dyn node: its source location "L:C".
  std::string blameLabel() const { return Loc.str(); }
};

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
  NodePtr Body;
};

/// A checked program.
struct CoreProgram {
  std::vector<Def> Defs;
  NameTable Names;

  /// Renders a debug S-expression of the core IR (with explicit casts).
  std::string str() const;
};

/// Counts Cast nodes in a program (tests, experiment reporting).
unsigned countCasts(const CoreProgram &Prog);

} // namespace grift::core

#endif // GRIFT_FRONTEND_COREIR_H
