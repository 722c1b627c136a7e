//===----------------------------------------------------------------------===//
///
/// \file
/// A crash-only, content-addressed on-disk cache of compiled programs.
///
/// Entries live under a cache directory as `<16-hex-key>.img`, where the
/// key hashes (source, cast mode, optimize flag, format version). Writes
/// go through a private temp file + fsync + atomic rename, so a reader
/// never observes a half-written entry and a crash at any instant leaves
/// either the old image, the new image, or a stray `.tmp` file — never a
/// torn visible entry. Reads mmap the file and fully validate header,
/// section table, and per-section CRCs before a single payload byte is
/// interpreted; any validation failure is a counted structured miss that
/// deletes the bad entry and falls back to the in-memory compile path.
/// Nothing in this layer aborts the process.
///
/// Eviction is a size-capped oldest-first scan, itself crash-safe: each
/// eviction is one unlink, and a concurrently mapped image stays valid
/// after its file is unlinked (POSIX keeps the mapping alive).
///
/// Fault injection: an optional FaultInjector (not owned) supplies the
/// file-I/O fault family — short write, fsync failure, and a single bit
/// flip on read. The bit flip is applied to a MAP_PRIVATE copy, so the
/// reader observes the corruption while the file on disk stays intact,
/// exactly like a decaying sector read.
///
/// Thread-safety: load/put may be called from any number of EnginePool
/// workers concurrently; counters are atomic, and the write/evict path
/// serializes on an internal mutex. Deserialized programs are re-interned
/// into the *caller's* TypeContext/CoercionFactory, preserving the
/// engine-per-thread affinity rules.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_STORE_STORE_H
#define GRIFT_STORE_STORE_H

#include "runtime/FaultInjector.h"
#include "runtime/Mode.h"
#include "store/Serialize.h"

#include <atomic>
#include <mutex>
#include <string>

namespace grift::store {

struct StoreConfig {
  /// Cache directory; empty disables the store entirely.
  std::string Dir;
  /// Eviction cap on the summed size of entries (0 = uncapped).
  uint64_t MaxBytes = 256ull << 20;
  /// Optional deterministic file-I/O faults (not owned).
  FaultInjector *Faults = nullptr;
};

struct StoreStats {
  uint64_t Hits = 0;    ///< programs served from a validated image
  uint64_t Misses = 0;  ///< every lookup that fell back to a compile
  uint64_t Corrupt = 0; ///< misses caused by a failed validation
  uint64_t Evicted = 0; ///< entries removed by the size cap
};

/// RAII read-only mapping of one entry file.
class MappedImage {
public:
  MappedImage() = default;
  MappedImage(MappedImage &&Other) noexcept;
  MappedImage &operator=(MappedImage &&Other) noexcept;
  MappedImage(const MappedImage &) = delete;
  MappedImage &operator=(const MappedImage &) = delete;
  ~MappedImage();

  const uint8_t *data() const { return Data; }
  size_t size() const { return Size; }
  explicit operator bool() const { return Data != nullptr; }

private:
  friend class Store;
  uint8_t *Data = nullptr;
  size_t Size = 0;
};

class Store {
public:
  explicit Store(StoreConfig Config);

  bool enabled() const { return !Config.Dir.empty(); }
  const std::string &dir() const { return Config.Dir; }

  /// Content key for a compile request. Folds in FormatVersion so a
  /// serializer change cold-starts cleanly instead of mass-invalidating
  /// via read-time version skew.
  static uint64_t key(std::string_view Source, CastMode Mode, bool Optimize);

  /// Full warm-start lookup: map, validate, deserialize into \p Out
  /// (re-interning through \p Types / \p Coercions). True only on a
  /// validated hit. Every other outcome counts as a miss — corrupt
  /// entries additionally count as corrupt and are deleted so the
  /// follow-up put() replaces them. The key is only a hash, so the image
  /// must also record exactly the request the caller would compile:
  /// \p Source, \p Mode and \p Optimize. A valid image built for another
  /// request (a key collision) is a SourceMismatch or ModeMismatch miss
  /// that the follow-up put() overwrites.
  ///
  /// The empty-source and any-mode defaults of load() and put() exist
  /// only for perfbench's store replay, which predates these checks;
  /// griftc and EnginePool always pass the whole request. Drop them when
  /// perfbench is next changed.
  bool load(uint64_t Key, TypeContext &Types, CoercionFactory &Coercions,
            VMProgram &Out, std::string_view Source = {},
            std::optional<CastMode> Mode = std::nullopt,
            bool Optimize = false);

  /// Serializes \p Prog, compiled from \p Source, and publishes it under
  /// \p Key via temp + fsync + rename, then enforces the size cap. False
  /// when the write could not complete (the store is then simply not
  /// warmed — never an error for the caller).
  bool put(uint64_t Key, const VMProgram &Prog, std::string_view Source = {});

  /// Offline integrity sweep (griftc --store-verify, crash-recovery CI):
  /// deep-validates every entry against a scratch engine, removes the
  /// invalid ones and any stray temp files left by a crash.
  struct VerifyResult {
    uint64_t Valid = 0;
    uint64_t Removed = 0;
    uint64_t TmpRemoved = 0;
  };
  VerifyResult verifyAll();

  /// Outcome of the most recent non-hit load() (diagnostics for tools
  /// and tests; mutex-guarded snapshot).
  LoadStatus lastStatus() const;
  std::string lastReason() const;

  StoreStats stats() const;

private:
  std::string entryPath(uint64_t Key) const;
  LoadStatus mapEntry(const std::string &Path, MappedImage &Out);
  bool writeAtomic(const std::string &Path, const std::string &Bytes);
  void removeEntry(const std::string &Path);
  void evictToCap(const std::string &JustWritten);
  void noteMiss(LoadStatus Status, std::string Reason, bool IsCorrupt);

  StoreConfig Config;
  mutable std::mutex WriteMu;
  std::atomic<uint64_t> Hits{0}, Misses{0}, Corrupt{0}, Evicted{0};
  std::atomic<uint64_t> TmpSeq{0};
  LoadStatus LastStatus = LoadStatus::Missing; ///< guarded by WriteMu
  std::string LastReason;                      ///< guarded by WriteMu
};

} // namespace grift::store

#endif // GRIFT_STORE_STORE_H
