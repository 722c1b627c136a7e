//===----------------------------------------------------------------------===//
///
/// \file
/// Henglein-style coercions in the lazy-D space-efficient normal form of
/// paper Figure 17:
///
///   c, d ::= i | (I?ᵖ ; i)                 (space-efficient coercions)
///   i    ::= g | (g ; I!) | ⊥ᵖ             (final coercions)
///   g    ::= ι | c → d | c × d | Ref c d | μ  (middle coercions)
///
/// Representation notes (paper Section 3.2):
///  * Sequence nodes only ever take the two normal-form shapes
///    (Project ; final) and (middle ; Inject).
///  * Ref coercions carry a write coercion (applied when storing) and a
///    read coercion (applied when loading); they serve both `Ref` boxes
///    and `Vect` vectors.
///  * Recursive (μ) coercions are back-edge targets for casts between
///    equirecursive types; their body is sealed after creation and may
///    contain pointers back to the node itself.
///
/// All coercions are immutable after construction (μ bodies are sealed
/// exactly once by the factory) and live as long as their
/// CoercionFactory; structural equality is pointer equality for all
/// non-μ coercions.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_COERCIONS_COERCION_H
#define GRIFT_COERCIONS_COERCION_H

#include "types/Type.h"

#include <cstdint>
#include <string>
#include <vector>

namespace grift {

enum class CoercionKind : uint8_t {
  Id,       ///< ι — returns the value unchanged
  Project,  ///< T?ᵖ — check a Dyn value against T, blame p on failure
  Inject,   ///< T! — tag a value of type T as Dyn
  Sequence, ///< (c ; d) — apply c then d (normal-form shapes only)
  Fail,     ///< ⊥ᵖ — signal blame p when applied
  Fun,      ///< (c₁ ... cₙ → d) — proxy a function
  RefC,     ///< Ref c d — proxy a box/vector (c = write, d = read)
  TupleC,   ///< (c₁ × ... × cₙ) — convert a tuple eagerly
  Rec,      ///< μX. c — back-edge target for equirecursive casts
};

/// What applying a coercion takes, fixed when the node is interned, so
/// the cast fast path switches on one byte instead of walking the node:
///  * Identity — returns the value unchanged: ι, an atomic G!, and
///    (ι ; G!) with atomic G (atomic values are their own Dyn encoding);
///  * Project — T?ᵖ and (T?ᵖ ; ι): untag the value if its runtime type
///    is exactly applyType(), otherwise take the general path;
///  * General — everything else (allocation, proxies, blame, μ).
enum class ApplyShape : uint8_t { General, Identity, Project };

/// An immutable coercion node. Construct through CoercionFactory only.
class Coercion {
public:
  CoercionKind kind() const { return Kind; }
  ApplyShape applyShape() const { return Shape; }
  /// ApplyShape::Project: the type a Dyn value must carry to be untagged.
  const Type *applyType() const { return ShapeTy; }

  bool isId() const { return Kind == CoercionKind::Id; }
  bool isFail() const { return Kind == CoercionKind::Fail; }
  bool isSequence() const { return Kind == CoercionKind::Sequence; }
  /// Sequence that begins with a projection: (I?ᵖ ; i).
  bool isProjectSeq() const {
    return isSequence() && Parts[0]->kind() == CoercionKind::Project;
  }
  /// Sequence that ends with an injection: (g ; I!).
  bool isInjectSeq() const {
    return isSequence() && Parts[1]->kind() == CoercionKind::Inject;
  }
  /// Middle coercion per the grammar (ι, →, ×, Ref, μ).
  bool isMiddle() const {
    switch (Kind) {
    case CoercionKind::Id:
    case CoercionKind::Fun:
    case CoercionKind::RefC:
    case CoercionKind::TupleC:
    case CoercionKind::Rec:
      return true;
    default:
      return false;
    }
  }

  /// True if a μ node occurs anywhere below (conservative for sealed
  /// bodies; see CoercionFactory).
  bool hasRec() const { return HasRec; }

  /// Project/Inject: the type checked or tagged.
  const Type *type() const { return Ty; }
  /// Project/Fail: the blame label.
  const std::string &label() const { return *Label; }
  /// Project/Fail: the interned label pointer (fast-path coercion
  /// creation keys on it).
  const std::string *labelPointer() const { return Label; }

  const Coercion *first() const { return Parts[0]; }  ///< Sequence
  const Coercion *second() const { return Parts[1]; } ///< Sequence

  /// Fun: argument count.
  size_t arity() const { return Parts.size() - 1; }
  /// Fun: coercion for argument \p Index (applied to call arguments).
  const Coercion *arg(size_t Index) const { return Parts[Index]; }
  /// Fun: coercion for the result.
  const Coercion *result() const { return Parts.back(); }

  const Coercion *writeCoercion() const { return Parts[0]; } ///< RefC
  const Coercion *readCoercion() const { return Parts[1]; }  ///< RefC

  /// TupleC: element count / element coercions.
  size_t tupleSize() const { return Parts.size(); }
  const Coercion *element(size_t Index) const { return Parts[Index]; }

  /// Rec: the sealed body (valid after creation completes).
  const Coercion *body() const { return Parts[0]; }

  /// Number of distinct nodes reachable from this coercion (μ-safe).
  /// This is the "size" of the paper's space bound size(c) ≤ 5(2ʰ − 1).
  unsigned size() const;

  /// Renders the coercion, e.g. "(Int? ; (ι → Int!))".
  std::string str() const;

private:
  friend class CoercionFactory;
  Coercion() = default;

  CoercionKind Kind = CoercionKind::Id;
  ApplyShape Shape = ApplyShape::General;
  bool HasRec = false;
  const Type *ShapeTy = nullptr;
  const Type *Ty = nullptr;
  const std::string *Label = nullptr;
  std::vector<const Coercion *> Parts;
};

} // namespace grift

#endif // GRIFT_COERCIONS_COERCION_H
