//===----------------------------------------------------------------------===//
///
/// \file
/// A pool of per-thread Grift engines. Each slot owns one engine and
/// one compile cache; the executor leases slot i to worker thread i
/// for the thread's whole lifetime and binds the engine to it
/// (Grift::bindToCurrentThread), so the engine-per-thread affinity rule
/// in Grift.h is enforced by construction — and, in debug builds, by
/// asserts on every compile and run.
///
/// The compile cache is keyed on (source, CastMode, optimize): hot
/// programs resubmitted to the same slot skip parse/check/compile
/// entirely. Compile *failures* are cached too (negative cache) — a
/// malformed program resubmitted in a tight loop costs one map lookup,
/// not a re-parse. Caches are per-slot and unsynchronized: a program
/// compiles at most once per worker, never under a lock.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_SERVICE_ENGINEPOOL_H
#define GRIFT_SERVICE_ENGINEPOOL_H

#include "grift/Grift.h"
#include "service/Job.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace grift::store {
class Store;
} // namespace grift::store

namespace grift::service {

class EnginePool {
public:
  /// A cached compile outcome: either an Executable or the error text.
  struct CacheEntry {
    std::optional<Executable> Exe;
    std::string Errors;
  };

  /// One engine slot. Leased to exactly one worker thread at a time.
  struct Slot {
    Grift Engine;
    /// (mode|optimize|source) -> compile outcome.
    std::unordered_map<std::string, CacheEntry> Cache;
    // Atomic so stats() can snapshot while the worker is mid-job.
    std::atomic<uint64_t> CacheHits{0};
    std::atomic<uint64_t> CacheMisses{0};

    // Atomic so stats() can snapshot while the worker is mid-job.
    std::atomic<uint64_t> EpochResets{0};

    /// Compiles \p Spec through the cache. Returns the cached entry and
    /// sets \p WasHit. The returned reference is owned by the cache and
    /// stays valid until the next epoch reset (or forever when
    /// MaxCoercionNodes is 0 — the cache is then bounded only by the set
    /// of distinct programs submitted).
    ///
    /// With \p ProgStore set, the lookup order on a slot-cache miss is
    /// persistent store → compile: a validated on-disk image is
    /// deserialized into this slot's engine (zero front-end work) and
    /// adopted; otherwise the program compiles normally and, on success,
    /// is published to the store for the next cold start. Store lookup
    /// outcomes are counted by the store itself.
    const CacheEntry &compileCached(const JobSpec &Spec, bool &WasHit,
                                    bool UseCache = true,
                                    store::Store *ProgStore = nullptr);

    /// Epoch reset: when the engine's coercion arena has grown past
    /// \p MaxNodes, drops the compile cache and resets the coercion
    /// factory *together* — cached Executables hold `const Coercion *`
    /// into the arena, so neither may outlive the other. Bounds slot
    /// memory across long job streams with many distinct casts.
    /// \p MaxNodes == 0 disables the reset. Returns true if it fired.
    /// Must only be called between jobs (no Executable in flight).
    bool maybeResetEpoch(size_t MaxNodes);
  };

  /// Creates \p N slots (at least 1).
  explicit EnginePool(unsigned N);

  unsigned size() const { return static_cast<unsigned>(Slots.size()); }
  Slot &slot(unsigned I) { return *Slots[I]; }

  uint64_t totalCacheHits() const;
  uint64_t totalCacheMisses() const;
  uint64_t totalEpochResets() const;

private:
  // unique_ptr: Grift and std::atomic are immovable, and slots must not
  // share cache lines' worth of false sharing across workers anyway.
  std::vector<std::unique_ptr<Slot>> Slots;
};

} // namespace grift::service

#endif // GRIFT_SERVICE_ENGINEPOOL_H
