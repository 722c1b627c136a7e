//===----------------------------------------------------------------------===//
///
/// \file
/// On-disk image format for the persistent compiled-program store.
///
/// A store entry is a single file:
///
///   +--------------------+  offset 0
///   | ImageHeader        |  fixed size, self-checksummed
///   +--------------------+
///   | SectionEntry[N]    |  N = Header.SectionCount, covered by TableCRC
///   +--------------------+
///   | section payloads   |  each covered by its entry's CRC32
///   +--------------------+
///
/// The header and the section table are fully validated — magic, format
/// version, declared file size, section count bound, header CRC, table
/// CRC, per-section bounds and CRCs — before ANY payload byte is
/// interpreted. Every validation failure is a structured, non-fatal
/// verdict (LoadStatus + reason string): the store treats it as a miss,
/// deletes the entry, and falls back to a fresh compile. Nothing in this
/// layer aborts, throws past its API, or reads out of bounds.
///
/// Versioning policy: FormatVersion names the exact serializer encoding,
/// including the bytecode opcode numbering it embeds. Any change to the
/// VMProgram encoding, the type/coercion section layouts, or the opcode
/// set MUST bump it; a version mismatch is a miss (never a migration),
/// so skew after a binary upgrade costs one recompile per program.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_STORE_FORMAT_H
#define GRIFT_STORE_FORMAT_H

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace grift::store {

/// "GRFTIMG\0" little-endian.
constexpr uint64_t ImageMagic = 0x00474D4954465247ull;

/// Bump on ANY encoding change (see the versioning policy above).
/// Version 2: the fixnum and cast-shape opcodes, and the source text in
/// the Meta section. Version 3: the optimize flag in the Meta section.
constexpr uint32_t FormatVersion = 3;

/// Section identifiers. Order in the file is not significant; the table
/// is searched by id.
enum class SectionId : uint32_t {
  Meta = 1,      ///< mode, optimize flag, main function, source text
  Strings = 2,   ///< interned blame labels and names
  Types = 3,     ///< interned type table, topologically ordered
  Coercions = 4, ///< normal-form coercion graph (μ back-edges allowed)
  Code = 5,      ///< functions, instructions, pools, cast table
};

/// Upper bound on SectionCount: a header claiming more is corrupt, not
/// merely from the future (future versions fail the version check first).
constexpr uint32_t MaxSections = 16;

struct SectionEntry {
  uint32_t Id = 0;       ///< SectionId
  uint32_t CRC = 0;      ///< CRC-32 (IEEE) of the payload bytes
  uint64_t Offset = 0;   ///< absolute file offset of the payload
  uint64_t Size = 0;     ///< payload bytes
};
static_assert(sizeof(SectionEntry) == 24, "section entry layout is the format");

struct ImageHeader {
  uint64_t Magic = ImageMagic;
  uint32_t Version = FormatVersion;
  uint32_t SectionCount = 0;
  uint64_t KeyHash = 0;  ///< content key: hash(source, mode, optimize, version)
  uint64_t FileSize = 0; ///< total image size; truncation check
  uint32_t TableCRC = 0; ///< CRC-32 of the SectionEntry array
  uint32_t HeaderCRC = 0;///< CRC-32 of this struct with HeaderCRC zeroed
};
static_assert(sizeof(ImageHeader) == 40, "header layout is the format");

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) — the classic
/// table-driven implementation; detects all single-bit flips and all
/// burst errors up to 32 bits, which is exactly the corruption class the
/// tests inject.
inline uint32_t crc32(const void *Data, size_t Size, uint32_t Seed = 0) {
  static const uint32_t *Table = [] {
    static uint32_t T[256];
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  uint32_t C = ~Seed;
  const auto *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I != Size; ++I)
    C = Table[(C ^ P[I]) & 0xFF] ^ (C >> 8);
  return ~C;
}

/// Header CRC is computed with the HeaderCRC field itself zeroed.
inline uint32_t headerCRC(const ImageHeader &H) {
  ImageHeader Copy = H;
  Copy.HeaderCRC = 0;
  return crc32(&Copy, sizeof Copy);
}

/// Why a lookup did not produce a usable image. Everything except Hit is
/// a counted graceful miss.
enum class LoadStatus : uint8_t {
  Hit,             ///< header, table, and every section validated
  Missing,         ///< no entry on disk for the key
  TruncatedHeader, ///< file smaller than the fixed header
  BadMagic,
  VersionSkew,     ///< written by a different serializer version
  KeyMismatch,     ///< header key differs from the key looked up
  TruncatedFile,   ///< declared FileSize != actual size
  BadHeaderCRC,
  BadSectionTable, ///< count bound, table CRC, bounds, overlap, oversize
  BadSectionCRC,
  BadPayload,      ///< section bytes failed structural validation on load
  IOError,         ///< open/map failed for a reason other than ENOENT
  SourceMismatch,  ///< a valid image built from another source (key collision)
  ModeMismatch,    ///< a valid image built for another mode or optimize flag
};

inline const char *loadStatusName(LoadStatus S) {
  switch (S) {
  case LoadStatus::Hit:             return "hit";
  case LoadStatus::Missing:         return "missing";
  case LoadStatus::TruncatedHeader: return "truncated-header";
  case LoadStatus::BadMagic:        return "bad-magic";
  case LoadStatus::VersionSkew:     return "version-skew";
  case LoadStatus::KeyMismatch:     return "key-mismatch";
  case LoadStatus::TruncatedFile:   return "truncated-file";
  case LoadStatus::BadHeaderCRC:    return "bad-header-crc";
  case LoadStatus::BadSectionTable: return "bad-section-table";
  case LoadStatus::BadSectionCRC:   return "bad-section-crc";
  case LoadStatus::BadPayload:      return "bad-payload";
  case LoadStatus::IOError:         return "io-error";
  case LoadStatus::SourceMismatch:  return "source-mismatch";
  case LoadStatus::ModeMismatch:    return "mode-mismatch";
  }
  return "?";
}

} // namespace grift::store

#endif // GRIFT_STORE_FORMAT_H
