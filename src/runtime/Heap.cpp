#include "runtime/Heap.h"

#include "runtime/Blame.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_set>

using namespace grift;

namespace {

/// Per-thread cache of retired pool blocks. Executables build a fresh
/// Heap per run, so without recycling every run would re-malloc its
/// blocks; with it, steady-state runs allocate no block memory at all.
/// Capped so an occasional huge run cannot pin memory forever; engine
/// pools additionally purge the cache at epoch resets. The wrapper's
/// destructor frees whatever is still cached at thread exit — the
/// blocks are raw malloc'd memory the vector does not own.
constexpr size_t BlockCacheCap = 64;

/// Cells a post-minor incremental sweep slice may examine. Two blocks'
/// worth: enough to keep reclamation ahead of a 256 KiB nursery's
/// promotion rate, small enough that the slice stays off the pause path.
constexpr size_t MinorSweepSliceCells = 2048;

struct BlockCache {
  std::vector<void *> Blocks;
  ~BlockCache() {
    for (void *Block : Blocks)
      std::free(Block);
  }
};
thread_local BlockCache ThreadCache;

} // namespace

Heap::Heap() = default;

Heap::~Heap() {
  HeapObject *Object = LargeObjects;
  while (Object) {
    HeapObject *Next = Object->Next;
    std::free(Object);
    Object = Next;
  }
  for (SizeClass &C : Classes) {
    for (PoolBlock *Block : C.Blocks) {
      GRIFT_UNPOISON(Block, BlockBytes);
      if (ThreadCache.Blocks.size() < BlockCacheCap)
        ThreadCache.Blocks.push_back(Block);
      else
        std::free(Block);
    }
  }
  if (NurseryBase) {
    GRIFT_UNPOISON(NurseryBase, NurserySize);
    std::free(NurseryBase);
  }
}

void Heap::purgeThreadBlockCache() {
  for (void *Block : ThreadCache.Blocks)
    std::free(Block);
  ThreadCache.Blocks.clear();
  ThreadCache.Blocks.shrink_to_fit();
}

PoolBlock *Heap::refillBlock(unsigned Class) {
  void *Memory;
  if (!ThreadCache.Blocks.empty()) {
    Memory = ThreadCache.Blocks.back();
    ThreadCache.Blocks.pop_back();
  } else {
    Memory = std::malloc(BlockBytes);
    if (!Memory)
      return nullptr;
  }
  GRIFT_UNPOISON(Memory, BlockBytes);
  PoolBlock *Block = new (Memory) PoolBlock();
  Block->CellSize = ClassCellSizes[Class];
  Block->Capacity =
      static_cast<uint32_t>((BlockBytes - sizeof(PoolBlock)) / Block->CellSize);
  Block->Bump = 0;
  Block->SweepBound = 0;
  SizeClass &C = Classes[Class];
  // Appending while a lazy sweep is pending is fine: the new block's
  // SweepBound is 0, so the sweep passes over it without touching cells.
  C.Blocks.push_back(Block);
  return Block;
}

void Heap::ensureNursery() {
  if (NurseryBase || !NurserySizeCfg)
    return;
  void *Memory = std::malloc(NurserySizeCfg);
  if (!Memory) {
    // Out of memory before the program even allocated: degrade to the
    // nursery-off configuration rather than failing the run here — the
    // pools' own failure paths produce a reportable OutOfMemory.
    NurserySizeCfg = 0;
    return;
  }
  NurseryBase = static_cast<char *>(Memory);
  NurserySize = NurserySizeCfg;
  NurseryUsed = 0;
  YoungObjects = 0;
  GRIFT_POISON(NurseryBase, NurserySize);
}

void Heap::resetNursery() {
  GRIFT_POISON(NurseryBase, NurserySize);
  NurseryUsed = 0;
  YoungObjects = 0;
}

void Heap::setNurserySize(size_t Bytes) {
  // Evacuate residents so no live object is freed with the region.
  if (NurseryBase && NurseryUsed)
    minorCollect();
  if (NurseryBase) {
    GRIFT_UNPOISON(NurseryBase, NurserySize);
    std::free(NurseryBase);
    NurseryBase = nullptr;
    NurserySize = 0;
    NurseryUsed = 0;
    YoungObjects = 0;
  }
  flushRememberedSet();
  NurserySizeCfg = Bytes == SIZE_MAX ? DefaultNurseryBytes : Bytes;
  if (NurserySizeCfg && NurserySizeCfg < MinNurseryBytes)
    NurserySizeCfg = MinNurseryBytes;
  // Mapped lazily: the first slow-path small allocation calls
  // ensureNursery, after which tryFastAlloc bumps inline.
}

void Heap::flushRememberedSet() {
  for (HeapObject *Owner : RememberedSet)
    Owner->Flags &= ~HeapObject::FlagInRemembered;
  RememberedSet.clear();
}

void Heap::sweepBlock(PoolBlock *Block, SizeClass &C) {
  for (uint32_t I = 0; I != Block->SweepBound; ++I) {
    HeapObject *Object = Block->cell(I);
    // Live iff reached by the last completed mark. No unmark pass: the
    // epoch comparison ages out by itself when the next mark begins.
    if (Object->MarkEpoch == LiveEpoch && !(Object->Flags & HeapObject::FlagFree))
      continue;
    // Dead since the last mark phase, or already free from an earlier
    // cycle (free lists are rebuilt from scratch each cycle).
    Object->Flags = HeapObject::FlagFree;
    Object->Next = C.FreeList;
    C.FreeList = Object;
    GRIFT_POISON(reinterpret_cast<char *>(Object) + sizeof(HeapObject),
                 Block->CellSize - sizeof(HeapObject));
  }
}

bool Heap::sweepForFreeCells(SizeClass &C) {
  while (C.SweepCursor < C.Blocks.size()) {
    sweepBlock(C.Blocks[C.SweepCursor++], C);
    if (C.FreeList)
      return true;
  }
  return false;
}

void Heap::finishSweep() {
  for (SizeClass &C : Classes)
    while (C.SweepCursor < C.Blocks.size())
      sweepBlock(C.Blocks[C.SweepCursor++], C);
}

void Heap::sweepSlice(size_t MaxCells) {
  bool Swept = false;
  for (SizeClass &C : Classes) {
    while (C.SweepCursor < C.Blocks.size()) {
      PoolBlock *Block = C.Blocks[C.SweepCursor];
      size_t Cells = Block->SweepBound;
      if (Swept && Cells > MaxCells)
        return; // budget exhausted; the next slice resumes here
      sweepBlock(Block, C);
      ++C.SweepCursor;
      Swept = true;
      MaxCells -= std::min(MaxCells, Cells);
    }
  }
}

HeapObject *Heap::acquireSmallCell(unsigned Class) {
  SizeClass &C = Classes[Class];
  for (;;) {
    if (HeapObject *Object = C.FreeList) {
      C.FreeList = Object->Next;
      GRIFT_UNPOISON(reinterpret_cast<char *>(Object) + sizeof(HeapObject),
                     ClassCellSizes[Class] - sizeof(HeapObject));
      return Object;
    }
    if (!C.Blocks.empty()) {
      PoolBlock *Block = C.Blocks.back();
      if (Block->Bump < Block->Capacity)
        return Block->cell(Block->Bump++);
    }
    if (sweepForFreeCells(C))
      continue;
    if (!refillBlock(Class))
      return nullptr;
  }
}

HeapObject *Heap::allocateObject(ObjectKind Kind, uint32_t NumSlots) {
  size_t Bytes = cellBytesFor(NumSlots);
  if (Injector) {
    ++Injector->AllocCount;
    if (Injector->FailAllocAt &&
        Injector->AllocCount == Injector->FailAllocAt)
      throw RuntimeError{ErrorKind::OutOfMemory, "",
                         "injected failure of allocation #" +
                             std::to_string(Injector->AllocCount)};
    if (Injector->GCTorturePeriod &&
        Injector->AllocCount % Injector->GCTorturePeriod == 0) {
      ++Injector->ForcedCollections;
      collect();
    }
    if (Injector->MinorGCTorturePeriod &&
        Injector->AllocCount % Injector->MinorGCTorturePeriod == 0) {
      ++Injector->ForcedMinorCollections;
      minorCollect();
    }
  }
  bool Small = NumSlots <= MaxSmallSlots;
  bool Collected = false;
  if (Small && NurserySizeCfg) {
    ensureNursery();
    // ensureNursery can disable itself on mapping failure; re-test.
    if (NurseryBase && NurseryUsed + Bytes > NurserySize)
      // Nursery exhausted mid-allocation: evacuate survivors. A chained
      // major counts as "collected" for the heap-limit retry logic.
      Collected = minorCollect();
  }
  if (!(Small && NurseryBase) && BytesSinceGC + Bytes >= GCThreshold) {
    collect();
    Collected = true;
  }
  if (HeapLimit && heapEstimate() + Bytes > HeapLimit) {
    // Floating garbage must not count against the budget: collect once,
    // then re-measure before declaring defeat — but when the threshold
    // path just collected, nothing has been allocated since, so a second
    // back-to-back collection could not reclaim anything more. collect()
    // finishes any pending lazy sweep before taking its counts, so this
    // retry can never double-count cells an interleaved sweep already
    // returned to a free list.
    if (Collected)
      ++DoubleCollectionsAvoided;
    else
      collect();
    if (heapEstimate() + Bytes > HeapLimit)
      throw RuntimeError{ErrorKind::OutOfMemory, "",
                         "heap limit of " + std::to_string(HeapLimit) +
                             " bytes exceeded allocating " +
                             std::to_string(Bytes) + " bytes"};
  }

  void *Memory;
  if (!Small) {
    Memory = std::malloc(Bytes);
    if (!Memory) {
      // The allocator itself failed; reclaim garbage and retry once,
      // then degrade to a reportable OutOfMemory instead of crashing.
      collect();
      Memory = std::malloc(Bytes);
      if (!Memory)
        throw RuntimeError{ErrorKind::OutOfMemory, "",
                           "allocator failed for a " + std::to_string(Bytes) +
                               "-byte object"};
    }
    ++LargeAllocated;
  } else if (NurseryBase && NurseryUsed + Bytes <= NurserySize) {
    // Young allocation (slow path: injector attached, or the minor above
    // just made room). Any nonzero nursery fits any small cell.
    HeapObject *Object =
        reinterpret_cast<HeapObject *>(NurseryBase + NurseryUsed);
    GRIFT_UNPOISON(Object, Bytes);
    NurseryUsed += Bytes;
    ++YoungObjects;
    ++Classes[classForSlots(NumSlots)].ObjectsAllocated;
    ++LiveObjects;
    BytesAllocated += Bytes;
    PeakHeapBytes = std::max(PeakHeapBytes, heapEstimate());
    return initObject(Object, Kind, NumSlots);
  } else {
    unsigned Class = classForSlots(NumSlots);
    Memory = acquireSmallCell(Class);
    if (!Memory) {
      // Block mapping failed; a collection refills the lazy-sweep queue,
      // so retry the acquire before giving up.
      collect();
      Memory = acquireSmallCell(Class);
      if (!Memory)
        throw RuntimeError{ErrorKind::OutOfMemory, "",
                           "allocator failed for a " + std::to_string(Bytes) +
                               "-byte object"};
    }
    ++Classes[Class].ObjectsAllocated;
  }
  assert((reinterpret_cast<uintptr_t>(Memory) & 7) == 0 &&
         "heap objects must be 8-byte aligned");
  HeapObject *Object = initObject(Memory, Kind, NumSlots);
  if (!Small) {
    Object->Next = LargeObjects;
    LargeObjects = Object;
  }
  ++LiveObjects;
  BytesAllocated += Bytes;
  BytesSinceGC += Bytes;
  PeakHeapBytes = std::max(PeakHeapBytes, heapEstimate());
  return Object;
}

Value Heap::allocBoxSlow(Value Content) {
  Rooted Root(*this, Content);
  HeapObject *Object = allocateObject(ObjectKind::Box, 1);
  Object->slot(0) = Root.get();
  return Value::fromHeap(Object);
}

Value Heap::allocVectorSlow(uint32_t Size, Value Fill) {
  Rooted Root(*this, Fill);
  HeapObject *Object = allocateObject(ObjectKind::Vector, Size);
  for (uint32_t I = 0; I != Size; ++I)
    Object->slot(I) = Root.get();
  // Large vectors are pre-tenured (old) but may be filled with a young
  // value — the only allocation path that creates an old→young edge.
  recordWrite(Object, Root.get());
  return Value::fromHeap(Object);
}

Value Heap::allocClosureSlow(uint32_t FunctionIndex, uint32_t NumFree) {
  HeapObject *Object = allocateObject(ObjectKind::Closure, NumFree);
  Object->Raw = FunctionIndex;
  return Value::fromHeap(Object);
}

Value Heap::allocDynBox(Value Wrapped, const Type *SourceType) {
  Rooted Root(*this, Wrapped);
  HeapObject *Object;
  if (HeapObject *Fast = tryFastAlloc(ObjectKind::DynBox, 1))
    Object = Fast;
  else
    Object = allocateObject(ObjectKind::DynBox, 1);
  Object->slot(0) = Root.get();
  Object->setMeta(0, SourceType);
  return Value::fromHeap(Object);
}

Value Heap::allocProxyClosure(Value Wrapped, const void *M0, const void *M1,
                              const void *M2) {
  Rooted Root(*this, Wrapped);
  HeapObject *Object;
  if (HeapObject *Fast = tryFastAlloc(ObjectKind::ProxyClosure, 1))
    Object = Fast;
  else
    Object = allocateObject(ObjectKind::ProxyClosure, 1);
  Object->slot(0) = Root.get();
  Object->setMeta(0, M0);
  Object->setMeta(1, M1);
  Object->setMeta(2, M2);
  return Value::fromProxy(Object);
}

Value Heap::allocRefProxy(Value Wrapped, const void *M0, const void *M1,
                          const void *M2) {
  Rooted Root(*this, Wrapped);
  HeapObject *Object;
  if (HeapObject *Fast = tryFastAlloc(ObjectKind::RefProxy, 1))
    Object = Fast;
  else
    Object = allocateObject(ObjectKind::RefProxy, 1);
  Object->slot(0) = Root.get();
  Object->setMeta(0, M0);
  Object->setMeta(1, M1);
  Object->setMeta(2, M2);
  return Value::fromProxy(Object);
}

void Heap::addRootProvider(RootProvider *Provider) {
  RootProviders.push_back(Provider);
}

void Heap::removeRootProvider(RootProvider *Provider) {
  RootProviders.erase(
      std::remove(RootProviders.begin(), RootProviders.end(), Provider),
      RootProviders.end());
}

//===----------------------------------------------------------------------===//
// Promotion and minor collection
//===----------------------------------------------------------------------===//

HeapObject *Heap::promote(HeapObject *Object) {
  uint32_t NumSlots = Object->NumSlots;
  assert(NumSlots <= MaxSmallSlots && "large objects are pre-tenured");
  unsigned Class = classForSlots(NumSlots);
  // Straight to the pools: no injector hook, no threshold check, and no
  // per-class ObjectsAllocated recount — the object was counted when it
  // was allocated, and the alloc_by_class counters must be identical
  // with the nursery on or off. acquireSmallCell can sweep a pending
  // block mid-promotion; that is safe because sweeps test against
  // LiveEpoch (the last *completed* mark) and never examine fresh cells.
  HeapObject *Memory = acquireSmallCell(Class);
  if (!Memory)
    throw RuntimeError{ErrorKind::OutOfMemory, "",
                       "allocator failed promoting a nursery object"};
  size_t Bytes = ClassCellSizes[Class];
  std::memcpy(Memory, Object, sizeof(HeapObject) + NumSlots * sizeof(Value));
  Memory->SlotArray = reinterpret_cast<Value *>(
      reinterpret_cast<char *>(Memory) + sizeof(HeapObject));
  Memory->Flags = 0;
  Memory->MarkEpoch = LiveEpoch;
  Memory->Next = nullptr;
  Object->Flags |= HeapObject::FlagForwarded;
  Object->Next = Memory;
  ++PromotedObjects;
  PromotedBytes += Bytes;
  BytesSinceGC += Bytes; // promotion is old-generation growth
  return Memory;
}

void Heap::evacuateSlot(Value &Slot) {
  if (!Slot.isPointer())
    return;
  HeapObject *Object = Slot.object();
  if (!isYoung(Object))
    return;
  if (Object->Flags & HeapObject::FlagForwarded) {
    Slot = retag(Slot, Object->Next);
    return;
  }
  HeapObject *Copy = promote(Object);
  Slot = retag(Slot, Copy);
  MarkStack.push_back(Copy);
}

void Heap::drainScanStack(void (Heap::*VisitSlot)(Value &)) {
  while (!MarkStack.empty()) {
    HeapObject *Current = MarkStack.back();
    MarkStack.pop_back();
    for (uint32_t I = 0; I != Current->NumSlots; ++I)
      (this->*VisitSlot)(Current->SlotArray[I]);
  }
}

bool Heap::minorCollect() {
  if (!NurseryBase)
    return false;
  assert(!InCollection && "re-entrant collection");
  InCollection = true;
  auto Start = std::chrono::steady_clock::now();

  uint64_t PromotedBefore = PromotedObjects;
  for (RootProvider *Provider : RootProviders)
    Provider->visitRoots(
        [](Value &Slot, void *Ctx) {
          static_cast<Heap *>(Ctx)->evacuateSlot(Slot);
        },
        this);
  for (Value *Slot : TempRoots) {
    assert(Slot && "dangling temp root at collection time — push/pop "
                   "mismatch (use the RAII Rooted helper)");
    evacuateSlot(*Slot);
  }
  // Old→young edges recorded by the write barrier. Object granularity:
  // rescan every slot of each remembered owner. Owners are live (a
  // mutator can only store into objects it reaches, and sweeps only free
  // objects that were already dead at the last mark), but skip freed
  // cells defensively — their payload is poisoned.
  RememberedSetPeak = std::max(RememberedSetPeak, RememberedSet.size());
  for (HeapObject *Owner : RememberedSet) {
    Owner->Flags &= ~HeapObject::FlagInRemembered;
    if (Owner->Flags & HeapObject::FlagFree)
      continue;
    for (uint32_t I = 0; I != Owner->NumSlots; ++I)
      evacuateSlot(Owner->SlotArray[I]);
  }
  RememberedSet.clear();
  drainScanStack(&Heap::evacuateSlot);

  uint64_t Promoted = PromotedObjects - PromotedBefore;
  assert(YoungObjects >= Promoted && "promoted more than was allocated");
  LiveObjects -= YoungObjects - static_cast<size_t>(Promoted);
  resetNursery();
  ++MinorCollections;
  PeakHeapBytes = std::max(PeakHeapBytes, heapEstimate());

  uint64_t Nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
  recordPause(Nanos, GCMinorPauseTotalNs, GCMinorPauseMaxNs, MinorPauseHist);
  GCPauseTotalNs += Nanos;
  GCPauseMaxNs = std::max(GCPauseMaxNs, Nanos);
  InCollection = false;
  maybeVerify();

  // Promotion grew the old generation; pay the debt outside the pause:
  // chain a major when past the threshold, else one incremental sweep
  // slice so dead old cells are reclaimed steadily rather than in a
  // stop-the-world finish.
  if (BytesSinceGC >= GCThreshold) {
    collect();
    return true;
  }
  sweepSlice(MinorSweepSliceCells);
  return false;
}

//===----------------------------------------------------------------------===//
// Major collection (evacuating mark, epoch liveness)
//===----------------------------------------------------------------------===//

void Heap::markValue(Value &Slot) {
  if (!Slot.isPointer())
    return;
  HeapObject *Object = Slot.object();
  if (isYoung(Object)) {
    if (Object->Flags & HeapObject::FlagForwarded) {
      Slot = retag(Slot, Object->Next);
      return;
    }
    // The major mark evacuates: every reachable nursery object is
    // promoted during the trace and its referencing slot rewritten.
    // Majors therefore never depend on the remembered set.
    HeapObject *Copy = promote(Object);
    Copy->MarkEpoch = Epoch;
    ++MarkedObjects;
    MarkedBytes += cellBytesFor(Copy->NumSlots);
    Slot = retag(Slot, Copy);
    MarkStack.push_back(Copy);
    return;
  }
  if (Object->MarkEpoch == Epoch)
    return;
  Object->MarkEpoch = Epoch;
  ++MarkedObjects;
  MarkedBytes += cellBytesFor(Object->NumSlots);
  MarkStack.push_back(Object);
}

void Heap::collect() {
  assert(!InCollection && "re-entrant collection");
  InCollection = true;
  auto Start = std::chrono::steady_clock::now();

  // Finish the previous cycle's lazy sweep first: it still holds the
  // previous mark's view of its SweepBound cells, and the live counts
  // taken below must not be double-counted by a sweep that resumes
  // after them.
  finishSweep();

  // Mark with evacuation. Live object/byte counts are taken here so the
  // accounting is exact the moment collect() returns, before any lazy
  // sweeping. ++Epoch distinguishes this mark from the last completed
  // one; LiveEpoch catches up only when the sweep schedule below is in
  // place.
  ++Epoch;
  MarkedObjects = 0;
  MarkedBytes = 0;
  for (RootProvider *Provider : RootProviders)
    Provider->visitRoots(
        [](Value &Slot, void *Ctx) {
          static_cast<Heap *>(Ctx)->markValue(Slot);
        },
        this);
  for (Value *Slot : TempRoots) {
    assert(Slot && "dangling temp root at collection time — push/pop "
                   "mismatch (use the RAII Rooted helper)");
    markValue(*Slot);
  }
  drainScanStack(&Heap::markValue);

  // Sweep the large-object list eagerly: it is short (big vectors only)
  // and each entry returns real memory to malloc.
  HeapObject **Link = &LargeObjects;
  while (*Link) {
    HeapObject *Object = *Link;
    if (Object->MarkEpoch == Epoch) {
      Link = &Object->Next;
    } else {
      *Link = Object->Next;
      std::free(Object);
    }
  }

  // Schedule the lazy sweep of every pool block. Free lists are rebuilt
  // from scratch by the sweep — clearing them here is what makes cells
  // allocated *after* this point (bump or swept-list pops) safe from
  // being treated as dead by the pending sweep: pops only ever return
  // cells a sweep has already visited, and bump cells sit at or above
  // SweepBound.
  for (SizeClass &C : Classes) {
    C.FreeList = nullptr;
    C.SweepCursor = 0;
    for (PoolBlock *Block : C.Blocks)
      Block->SweepBound = Block->Bump;
  }
  LiveEpoch = Epoch;

  // The nursery is empty now — every survivor was promoted by the mark.
  if (NurseryBase)
    resetNursery();
  flushRememberedSet();

  LiveObjects = MarkedObjects;
  BytesSinceGC = 0;
  LiveBytesAtGC = MarkedBytes;
  PeakHeapBytes = std::max(PeakHeapBytes, MarkedBytes);
  ++Collections;
  // Grow the threshold with the live set so GC stays amortized-linear —
  // but never past a fraction of the hard heap limit, or maybeCollect
  // would stop firing and every allocation near the limit would take the
  // full-collect path in allocateObject.
  GCThreshold = std::max<size_t>(MarkedBytes * 2, 8u << 20);
  clampThresholdToLimit();

  uint64_t Nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
  recordPause(Nanos, GCPauseTotalNs, GCPauseMaxNs, MajorPauseHist);
  InCollection = false;
  maybeVerify();
}

void Heap::recordPause(uint64_t Nanos, uint64_t &TotalNs, uint64_t &MaxNs,
                       uint64_t *Hist) {
  TotalNs += Nanos;
  MaxNs = std::max(MaxNs, Nanos);
  unsigned Bucket = 0;
  uint64_t Us = Nanos / 1000;
  while (Us && Bucket < PauseHistBuckets - 1) {
    Us >>= 1;
    ++Bucket;
  }
  ++Hist[Bucket];
}

Value Heap::castTortureSlow(Value Pinned) {
  assert(Injector && Injector->MinorGCTorturePeriod);
  if (++CastTortureCount % Injector->MinorGCTorturePeriod != 0)
    return Pinned;
  if (!NurseryBase)
    return Pinned;
  ++Injector->ForcedMinorCollections;
  pushTempRoot(&Pinned);
  minorCollect();
  popTempRoot();
  return Pinned;
}

//===----------------------------------------------------------------------===//
// Invariant verification
//===----------------------------------------------------------------------===//

namespace {
struct VerifyState {
  Heap *H;
  std::unordered_set<const HeapObject *> Seen;
  std::vector<const HeapObject *> Work;

  void visit(Value V) {
    if (!V.isPointer())
      return;
    const HeapObject *Object = V.object();
    if (Seen.insert(Object).second)
      Work.push_back(Object);
  }
};
} // namespace

size_t Heap::verify() {
  size_t Violations = 0;
  auto complain = [&](const char *What, const void *Object) {
    ++Violations;
    std::fprintf(stderr, "Heap::verify: %s (object %p)\n", What, Object);
  };

  // 1. Nursery header walk: strides must tile [0, NurseryUsed) exactly
  // and every header must be internally consistent.
  size_t Offset = 0;
  size_t Walked = 0;
  while (Offset < NurseryUsed) {
    const HeapObject *Object =
        reinterpret_cast<const HeapObject *>(NurseryBase + Offset);
    if (Object->NumSlots > MaxSmallSlots) {
      complain("nursery object with a large slot count", Object);
      break;
    }
    if (Object->Flags & HeapObject::FlagFree)
      complain("free-flagged object inside the nursery", Object);
    if (!InCollection && (Object->Flags & HeapObject::FlagForwarded))
      complain("forwarded nursery object outside a collection", Object);
    ++Walked;
    Offset += ClassCellSizes[classForSlots(Object->NumSlots)];
  }
  if (Offset != NurseryUsed)
    complain("nursery walk does not land exactly on the bump pointer",
             nullptr);
  else if (Walked != YoungObjects)
    complain("nursery object count disagrees with the walk", nullptr);

  // 2. Reachability from every root, without marking or moving.
  VerifyState State;
  State.H = this;
  for (RootProvider *Provider : RootProviders)
    Provider->visitRoots(
        [](Value &Slot, void *Ctx) {
          static_cast<VerifyState *>(Ctx)->visit(Slot);
        },
        &State);
  for (Value *Slot : TempRoots) {
    if (!Slot) {
      complain("null temp root", nullptr);
      continue;
    }
    State.visit(*Slot);
  }
  while (!State.Work.empty()) {
    const HeapObject *Object = State.Work.back();
    State.Work.pop_back();
    if (Object->Flags & HeapObject::FlagFree)
      complain("reachable object sits on a free list", Object);
    if (!InCollection && (Object->Flags & HeapObject::FlagForwarded))
      complain("reachable forwarded object outside a collection (dangling "
               "promoted pointer)",
               Object);
    if (isYoung(Object)) {
      const char *P = reinterpret_cast<const char *>(Object);
      if (P >= NurseryBase + NurseryUsed)
        complain("young pointer past the nursery bump pointer", Object);
    } else if (NurseryBase && !(Object->Flags & HeapObject::FlagInRemembered)) {
      // An old object outside the remembered set must have no young
      // edges: every old→young store goes through recordWrite.
      for (uint32_t I = 0; I != Object->NumSlots; ++I) {
        Value Slot = Object->SlotArray[I];
        if (Slot.isPointer() && isYoung(Slot.object())) {
          complain("unrecorded old→young edge (write-barrier miss)", Object);
          break;
        }
      }
    }
    for (uint32_t I = 0; I != Object->NumSlots; ++I)
      State.visit(Object->SlotArray[I]);
  }
  if (State.Seen.size() > LiveObjects)
    complain("reachable objects exceed the live-object count", nullptr);

  // 3. Remembered-set hygiene.
  for (const HeapObject *Owner : RememberedSet) {
    if (!Owner) {
      complain("null remembered-set entry", nullptr);
      continue;
    }
    if (isYoung(Owner))
      complain("young object in the remembered set", Owner);
    if (!(Owner->Flags & HeapObject::FlagInRemembered))
      complain("remembered-set entry without its InRemembered flag", Owner);
  }
  return Violations;
}

void Heap::maybeVerify() {
  bool Active = VerifyAfterGC;
#if GRIFT_ASAN
  Active = true;
#endif
  if (Injector &&
      (Injector->GCTorturePeriod || Injector->MinorGCTorturePeriod))
    Active = true;
  if (!Active)
    return;
  if (size_t N = verify()) {
    std::fprintf(stderr,
                 "Heap::verify: %zu invariant violation(s) after a "
                 "collection; aborting\n",
                 N);
    std::abort();
  }
}
