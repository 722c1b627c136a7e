#include "service/EnginePool.h"

#include "store/Store.h"

using namespace grift::service;

EnginePool::EnginePool(unsigned N) {
  if (N == 0)
    N = 1;
  Slots.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Slots.push_back(std::make_unique<Slot>());
}

const EnginePool::CacheEntry &
EnginePool::Slot::compileCached(const JobSpec &Spec, bool &WasHit,
                                bool UseCache, store::Store *ProgStore) {
  // Key layout: one byte of mode, one of optimize, then the source —
  // cheap to build and unambiguous (both prefixes are fixed-width).
  std::string Key;
  Key.reserve(Spec.Source.size() + 2);
  Key.push_back(static_cast<char>('0' + static_cast<int>(Spec.Mode)));
  Key.push_back(Spec.Optimize ? '1' : '0');
  Key += Spec.Source;

  if (UseCache) {
    auto It = Cache.find(Key);
    if (It != Cache.end()) {
      CacheHits.fetch_add(1, std::memory_order_relaxed);
      WasHit = true;
      return It->second;
    }
  }
  CacheMisses.fetch_add(1, std::memory_order_relaxed);
  WasHit = false;
  CacheEntry Entry;
  bool FromStore = false;
  uint64_t StoreKey = 0;
  if (ProgStore && ProgStore->enabled()) {
    StoreKey = store::Store::key(Spec.Source, Spec.Mode, Spec.Optimize);
    VMProgram Prog;
    // Warm start: a validated image deserializes straight into this
    // slot's engine — no parse, no typecheck, no coercion derivation.
    if (ProgStore->load(StoreKey, Engine.types(), Engine.coercions(), Prog,
                        Spec.Source, Spec.Mode, Spec.Optimize)) {
      Entry.Exe = Engine.adopt(std::move(Prog));
      FromStore = true;
    }
  }
  if (!FromStore) {
    Entry.Exe = Engine.compile(Spec.Source, Spec.Mode, Entry.Errors,
                               Spec.Optimize);
    // Publish successful compiles so the next cold process warm-starts;
    // compile errors stay in the in-memory negative cache only.
    if (Entry.Exe && StoreKey)
      ProgStore->put(StoreKey, Entry.Exe->program(), Spec.Source);
  }
  if (!UseCache) {
    // Still store (overwriting any stale entry) so the caller gets a
    // stable reference; with the cache disabled every compile lands here.
    return Cache[Key] = std::move(Entry);
  }
  return Cache.emplace(std::move(Key), std::move(Entry)).first->second;
}

bool EnginePool::Slot::maybeResetEpoch(size_t MaxNodes) {
  if (MaxNodes == 0 || Engine.coercions().allocatedNodes() <= MaxNodes)
    return false;
  Cache.clear();
  Engine.coercions().reset();
  // Each run's Heap retires its pool blocks to a per-thread cache; drop
  // them at the same boundary that bounds the coercion arena, so a slot's
  // memory footprint cannot ratchet across long job streams.
  Heap::purgeThreadBlockCache();
  EpochResets.fetch_add(1, std::memory_order_relaxed);
  return true;
}

uint64_t EnginePool::totalCacheHits() const {
  uint64_t N = 0;
  for (const auto &S : Slots)
    N += S->CacheHits.load(std::memory_order_relaxed);
  return N;
}

uint64_t EnginePool::totalCacheMisses() const {
  uint64_t N = 0;
  for (const auto &S : Slots)
    N += S->CacheMisses.load(std::memory_order_relaxed);
  return N;
}

uint64_t EnginePool::totalEpochResets() const {
  uint64_t N = 0;
  for (const auto &S : Slots)
    N += S->EpochResets.load(std::memory_order_relaxed);
  return N;
}
