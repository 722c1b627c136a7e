//===----------------------------------------------------------------------===//
///
/// \file
/// Small string helpers shared across modules.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_SUPPORT_STRINGUTIL_H
#define GRIFT_SUPPORT_STRINGUTIL_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace grift {

/// Returns true if \p Text parses completely as a signed 64-bit decimal
/// integer (an optional sign, then digits). Independent of the locale.
bool parseInt64(std::string_view Text, int64_t &Out);

/// Returns true if \p Text parses completely as a decimal double. An
/// overflow fails; an underflow reads as a signed zero, as with strtod.
/// Independent of the locale.
bool parseDouble(std::string_view Text, double &Out);

/// Renders a double the way the runtime prints Float values: shortest
/// round-trip representation with a trailing ".0" when integral.
std::string formatDouble(double Value);

/// Joins \p Parts with \p Sep between elements.
std::string join(const std::vector<std::string> &Parts, std::string_view Sep);

/// 64-bit FNV-1a hash, used for structural hashing of types and coercions.
uint64_t hashBytes(const void *Data, size_t Size, uint64_t Seed = 14695981039346656037ULL);

/// Combines two hashes (boost-style mix).
inline uint64_t hashCombine(uint64_t A, uint64_t B) {
  A ^= B + 0x9e3779b97f4a7c15ULL + (A << 6) + (A >> 2);
  return A;
}

} // namespace grift

#endif // GRIFT_SUPPORT_STRINGUTIL_H
