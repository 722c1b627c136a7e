//===----------------------------------------------------------------------===//
///
/// \file
/// The cast implementation strategies compared in the paper's evaluation.
///
/// Every mapping over CastMode in the tree is either a delegation to the
/// CastBackend interface (src/runtime/CastBackend.h) or a compile-time
/// exhaustive switch guarded by a static_assert on NumCastModes, so
/// adding a mode breaks the build at each site instead of falling
/// through a default branch at runtime.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_RUNTIME_MODE_H
#define GRIFT_RUNTIME_MODE_H

#include <string_view>

namespace grift {

enum class CastMode {
  /// Space-efficient coercions in normal form (the paper's contribution):
  /// proxies carry a composed coercion; at most one proxy per value.
  Coercions,
  /// Traditional type-based casts: every higher-order cast adds a proxy;
  /// chains grow without bound (the paper's baseline).
  TypeBased,
  /// No gradual typing support at all; requires a fully static program
  /// ("Static Grift"). Vector/box operations skip proxy checks.
  Static,
  /// Monotonic references (paper Section 5 / Siek et al. ESOP'15):
  /// functions use coercions, but references are never proxied — casting
  /// a reference strengthens the heap cell's runtime type to the meet
  /// and converts the stored values in place. Reads and writes at fully
  /// static types compile to unchecked operations, eliminating the
  /// proxy-check overhead in typed code.
  Monotonic,
  /// Coercion-passing style (Tsuda, Igarashi & Tabuchi): casts compile to
  /// the same interned normal-form coercions as `Coercions`, but the
  /// pending return coercions of a call are *composed* into one per-frame
  /// coercion argument instead of stacked, so a chain of proxied tail
  /// calls uses O(1) return-cast space per frame instead of Θ(n).
  /// Appended last: the serialized mode byte of every pre-existing mode
  /// (store image key and meta) keeps its value.
  CoercionPassing,
};

/// Number of enumerators in CastMode. Every compile-time mode map
/// static_asserts against this so a new mode fails the build there.
inline constexpr unsigned NumCastModes = 5;

/// All modes, in enum order (iteration for store round-trip tests,
/// benchmark matrices, and the like).
inline constexpr CastMode AllCastModes[NumCastModes] = {
    CastMode::Coercions, CastMode::TypeBased, CastMode::Static,
    CastMode::Monotonic, CastMode::CoercionPassing};

/// The gradual modes — every mode that accepts partially typed programs
/// and can therefore participate in lattice/blame differential oracles
/// at arbitrary configurations. Static is excluded: it only admits the
/// fully typed top of the lattice.
inline constexpr CastMode GradualCastModes[] = {
    CastMode::Coercions, CastMode::TypeBased, CastMode::Monotonic,
    CastMode::CoercionPassing};
inline constexpr unsigned NumGradualCastModes =
    sizeof(GradualCastModes) / sizeof(GradualCastModes[0]);
static_assert(NumGradualCastModes == NumCastModes - 1,
              "every mode except Static is gradual; register new modes in "
              "GradualCastModes (or update this assert with rationale)");

inline const char *castModeName(CastMode Mode) {
  static_assert(NumCastModes == 5, "add the new mode's name here");
  switch (Mode) {
  case CastMode::Coercions:
    return "coercions";
  case CastMode::TypeBased:
    return "type-based";
  case CastMode::Static:
    return "static";
  case CastMode::Monotonic:
    return "monotonic";
  case CastMode::CoercionPassing:
    return "coercion-passing";
  }
  return "?";
}

/// True for modes whose cast sites are compiled to interned normal-form
/// coercions (CastDescriptor::C filled at compile time): plain coercions
/// and coercion-passing style, which shares the coercion compilation
/// pipeline and differs only in the VM's return-cast protocol.
inline constexpr bool castModePrebuildsCoercions(CastMode Mode) {
  static_assert(NumCastModes == 5,
                "decide whether the new mode prebuilds coercions");
  switch (Mode) {
  case CastMode::Coercions:
  case CastMode::CoercionPassing:
    return true;
  case CastMode::TypeBased:
  case CastMode::Static:
  case CastMode::Monotonic:
    return false;
  }
  return false;
}

/// Parses the wire/CLI spelling of a mode (the castModeName strings).
/// Returns false on anything else — callers treat that as a structured
/// bad request / usage error, never a default. The single shared parser
/// keeps griftc, the griftd protocol, and the benches in agreement.
inline bool castModeFromName(std::string_view Name, CastMode &Out) {
  for (CastMode Mode : AllCastModes)
    if (Name == castModeName(Mode)) {
      Out = Mode;
      return true;
    }
  return false;
}

} // namespace grift

#endif // GRIFT_RUNTIME_MODE_H
