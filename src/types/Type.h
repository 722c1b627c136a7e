//===----------------------------------------------------------------------===//
///
/// \file
/// GTLC+ types (paper Figure 5):
///
///   T ::= Dyn | Unit | Bool | Int | Char | Float
///       | (T ... -> T) | (Tuple T ...) | (Ref T) | (Vect T) | (Rec x T)
///
/// Types are hash-consed by TypeContext so that structural equality is
/// pointer equality, mirroring the runtime representation described in the
/// paper's Figure 11 ("heap allocated types are hoisted and shared ... so
/// that structural equality is equivalent to pointer equality").
/// Recursive types use de Bruijn indices: `Var(k)` refers to the k-th
/// enclosing `Rec` binder, which makes alpha-equivalent types identical
/// under interning.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_TYPES_TYPE_H
#define GRIFT_TYPES_TYPE_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace grift {

class TypeContext;

/// The constructor of a type.
enum class TypeKind : uint8_t {
  Dyn,
  Unit,
  Bool,
  Int,
  Char,
  Float,
  Function, ///< children = params..., return (last)
  Tuple,    ///< children = elements
  Box,      ///< (Ref T); children = [element]
  Vect,     ///< (Vect T); children = [element]
  Rec,      ///< (Rec x T); children = [body]
  Var,      ///< de Bruijn reference to an enclosing Rec
};

/// An immutable, interned type. Never construct directly; use TypeContext.
class Type {
public:
  TypeKind kind() const { return Kind; }
  uint64_t hash() const { return Hash; }
  uint32_t id() const { return Id; }

  bool isDyn() const { return Kind == TypeKind::Dyn; }
  bool isAtomic() const {
    return Kind == TypeKind::Unit || Kind == TypeKind::Bool ||
           Kind == TypeKind::Int || Kind == TypeKind::Char ||
           Kind == TypeKind::Float;
  }
  bool isFunction() const { return Kind == TypeKind::Function; }
  bool isTuple() const { return Kind == TypeKind::Tuple; }
  bool isBox() const { return Kind == TypeKind::Box; }
  bool isVect() const { return Kind == TypeKind::Vect; }
  bool isRec() const { return Kind == TypeKind::Rec; }
  bool isVar() const { return Kind == TypeKind::Var; }
  /// True for Box and Vect, the two reference-like constructors that are
  /// implemented with read/write proxies.
  bool isRefLike() const { return isBox() || isVect(); }

  const std::vector<const Type *> &children() const { return Children; }

  // The child accessors are inline: the VM's Dyn elimination handlers
  // and every AppDyn argument cast read them on the hot path.

  /// Function parameter count.
  size_t arity() const {
    assert(isFunction() && "arity of non-function");
    return Children.size() - 1;
  }
  /// Function parameter \p Index.
  const Type *param(size_t Index) const {
    assert(isFunction() && Index < arity() && "bad parameter index");
    return Children[Index];
  }
  /// Function return type.
  const Type *result() const {
    assert(isFunction() && "result of non-function");
    return Children.back();
  }
  /// Tuple element count.
  size_t tupleSize() const {
    assert(isTuple() && "tupleSize of non-tuple");
    return Children.size();
  }
  /// Tuple element \p Index.
  const Type *element(size_t Index) const {
    assert(isTuple() && Index < Children.size() && "bad tuple index");
    return Children[Index];
  }
  /// Box/Vect element, or Rec body.
  const Type *inner() const {
    assert((isBox() || isVect() || isRec()) && "inner of leaf type");
    return Children[0];
  }
  /// de Bruijn index of a Var.
  uint32_t varIndex() const;

  /// True if this (closed) type mentions Dyn anywhere.
  bool hasDyn() const { return HasDyn; }
  /// True if this type is fully static, i.e. mentions no Dyn.
  bool isStatic() const { return !HasDyn; }
  /// True if any Rec binder occurs inside.
  bool hasRec() const { return HasRec; }
  /// Largest de Bruijn index of a free Var, plus one (0 when closed).
  uint32_t freeVarBound() const { return FreeVarBound; }

  /// Total number of type constructors (for the precision metric).
  uint32_t nodeCount() const { return NodeCount; }
  /// Number of constructors that are not Dyn.
  uint32_t typedNodeCount() const { return TypedNodeCount; }
  /// Height of the type tree (atomics have height 1). The paper's space
  /// bound for normal-form coercions is stated in terms of this height.
  uint32_t height() const { return Height; }

  /// Renders GTLC+ concrete syntax, e.g. "(Int -> Bool)".
  std::string str() const;

private:
  friend class TypeContext;
  Type() = default;

  TypeKind Kind = TypeKind::Dyn;
  uint32_t Id = 0;
  uint32_t VarIdx = 0;
  uint64_t Hash = 0;
  bool HasDyn = false;
  bool HasRec = false;
  uint32_t FreeVarBound = 0;
  uint32_t NodeCount = 1;
  uint32_t TypedNodeCount = 0;
  uint32_t Height = 1;
  std::vector<const Type *> Children;
};

} // namespace grift

#endif // GRIFT_TYPES_TYPE_H
