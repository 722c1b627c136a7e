//===----------------------------------------------------------------------===//
///
/// \file
/// Serialization of a compiled VMProgram — bytecode, the interned type
/// table, blame labels, and the normal-form coercion graph — to and from
/// the store image format (Format.h).
///
/// Loading re-interns everything through the owning TypeContext and
/// CoercionFactory instead of trusting raw pointers, so a loaded program
/// obeys the same invariants as a freshly compiled one: structural
/// equality is pointer equality, every cast root is in normal form, and
/// the make() memo is seeded so re-making a loaded cast allocates zero
/// new nodes. μ (Rec) coercions — the only cycles in the graph — load in
/// three passes: allocate all μ placeholders, build the acyclic rest in
/// topological order, then seal each μ body.
///
/// Every byte of payload is treated as untrusted even though the caller
/// has already CRC-validated it: reads are bounds-checked, every table
/// index is range-checked, and every bytecode operand that indexes a
/// program table is validated against that table's loaded size. A
/// structural violation returns false with a reason, never UB.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_STORE_SERIALIZE_H
#define GRIFT_STORE_SERIALIZE_H

#include "store/Format.h"
#include "vm/Bytecode.h"

#include <optional>
#include <string>
#include <string_view>

namespace grift {
class TypeContext;
class CoercionFactory;
} // namespace grift

namespace grift::store {

/// One section's payload bytes inside a mapped image.
struct Span {
  const uint8_t *Data = nullptr;
  size_t Size = 0;
};

/// The validated sections of an image, one span per SectionId.
struct ImageSections {
  Span Meta, Strings, Types, Coercions, Code;
};

/// Validates header, section table, and every section CRC of the image
/// at [Data, Data+Size) without interpreting any payload byte. On
/// LoadStatus::Hit, \p Out holds the five section spans. \p ExpectKeyHash
/// guards against a mixed-up file: non-zero and != header key is a
/// KeyMismatch. \p Reason carries a human-readable diagnostic on failure.
LoadStatus validateImage(const uint8_t *Data, size_t Size,
                         uint64_t ExpectKeyHash, ImageSections &Out,
                         std::string &Reason);

/// Serializes \p Prog into a complete image (header, section table,
/// payloads, CRCs) keyed by \p KeyHash. The Meta section records
/// \p Source, the text \p Prog was compiled from.
std::string serializeProgram(const VMProgram &Prog, uint64_t KeyHash,
                             std::string_view Source = {});

/// The compile request an image must have been built for. The key is
/// only a hash of these, so the Meta section records them too; an unset
/// field accepts any recorded value.
struct Expected {
  std::optional<std::string_view> Source;
  std::optional<CastMode> Mode;
  std::optional<bool> Optimize;
};

/// Deserializes a validated image into \p Out, re-interning types and
/// labels through \p TypesCtx / \p Coercions and rebuilding the coercion
/// graph through the factory's smart constructors. Returns Hit, or
/// BadPayload with \p Error set on any structural violation (the caller
/// recompiles). An image whose Meta section records another source text
/// than \p Want is a SourceMismatch, and one that records another mode
/// or optimize flag is a ModeMismatch; both are found before anything is
/// interned.
LoadStatus loadProgram(const ImageSections &S, const Expected &Want,
                       TypeContext &TypesCtx, CoercionFactory &Coercions,
                       VMProgram &Out, std::string &Error);

} // namespace grift::store

#endif // GRIFT_STORE_SERIALIZE_H
