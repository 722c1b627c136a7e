//===----------------------------------------------------------------------===//
///
/// \file
/// Heap objects and the generational garbage collector.
///
/// Objects carry an 8-byte header (kind, flag byte, mark epoch, slot
/// count) followed by Value slots and up to four metadata pointer slots
/// (types, coercions, blame labels — all immortal, never traced).
///
/// Allocation is generational. Small objects (cell size ≤ 512 bytes)
/// are bump-allocated from a contiguous *nursery* region; when the
/// nursery fills, a minor collection evacuates the survivors into the
/// old generation's size-class segregated pool (per-class free lists
/// threaded through 64 KiB bump-allocated blocks) and resets the bump
/// pointer. Large objects (big vectors) are pre-tenured: one malloc
/// each on an intrusive list. With the nursery disabled
/// (setNurserySize(0)) small objects go straight to the pools and the
/// heap behaves exactly like the pre-generational collector, which is
/// the escape hatch `--gc-nursery=0` exposes.
///
/// Minor collections find old→young edges through a remembered set fed
/// by recordWrite(), the write barrier every mutating store into a
/// possibly-old object must pass through (the VM's set opcodes, the
/// runtime's box/vector writes, monotonic in-place strengthening, and
/// proxy installation — see docs/INTERNALS.md for the site table).
/// Promotion copies; published *old* references never move, preserving
/// the monotonic-reference non-moving requirement (DESIGN.md §5): only
/// objects that have never been visible to another thread and are still
/// nursery-resident are relocated, and every live reference to them is
/// a root or a remembered slot that the collector rewrites.
///
/// Major collections are precise stop-the-world mark *with evacuation*:
/// the mark phase visits every root and live slot by reference, so any
/// still-young object is promoted and its referencing slots rewritten
/// during the trace. Majors therefore never depend on the remembered
/// set — a missed barrier can only affect a minor, and Heap::verify()
/// exists to catch exactly that. Liveness is tracked by a 16-bit mark
/// *epoch* instead of a mark bit: an old object is live iff its
/// MarkEpoch equals the epoch of the last completed mark, which removes
/// the unmark pass from the pause and lets dead cells be reclaimed
/// *incrementally* — sweepSlice() releases a bounded number of cells at
/// a time (called after each minor, outside the pause timer), and
/// allocation sweeps on demand, so the old stop-the-world sweep finish
/// survives only as the pre-mark finishSweep() that keeps accounting
/// exact. The paper's Grift uses the Boehm-Demers-Weiser conservative
/// collector; we substitute a precise block-structured collector — both
/// keep published objects non-moving, which is what the experiments
/// depend on. Roots come from registered RootProviders (the VM stack,
/// globals) and from Rooted<> RAII handles used inside runtime helpers
/// that allocate; since allocation can now move young objects, any raw
/// Value held across an allocating call must be (re-)derived from a
/// root.
///
/// Under GRIFT_SANITIZE=address the slot payload of every swept-free
/// cell and the unused tail of the nursery are poisoned, so a
/// use-after-sweep or use-after-minor trips ASan even though the memory
/// is never returned to malloc.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_RUNTIME_HEAP_H
#define GRIFT_RUNTIME_HEAP_H

#include "runtime/FaultInjector.h"
#include "runtime/Value.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#ifndef GRIFT_ASAN
#if defined(__SANITIZE_ADDRESS__)
#define GRIFT_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GRIFT_ASAN 1
#endif
#endif
#endif
#ifndef GRIFT_ASAN
#define GRIFT_ASAN 0
#endif

#if GRIFT_ASAN
#include <sanitizer/asan_interface.h>
#define GRIFT_POISON(Addr, Size) ASAN_POISON_MEMORY_REGION(Addr, Size)
#define GRIFT_UNPOISON(Addr, Size) ASAN_UNPOISON_MEMORY_REGION(Addr, Size)
#else
#define GRIFT_POISON(Addr, Size) ((void)0)
#define GRIFT_UNPOISON(Addr, Size) ((void)0)
#endif

namespace grift {

class Type;
class Coercion;

/// What a heap object is. Proxy objects are referenced through
/// Proxy-tagged Values; everything else through Heap-tagged Values.
/// Floats are immediates (NaN-boxed in Value) and never hit the heap.
enum class ObjectKind : uint8_t {
  Tuple,        ///< Slots = elements
  Box,          ///< Slots = [content]
  Vector,       ///< Slots = elements
  Closure,      ///< Raw = function index; Slots = free variables
  ProxyClosure, ///< Slots = [wrapped]; Meta = coercion / (src,tgt,label)
  DynBox,       ///< Slots = [value]; Meta[0] = source type
  RefProxy,     ///< Slots = [wrapped ref]; Meta = coercion / (src,tgt,label)
};

/// Header + payload of every heap allocation.
class HeapObject {
public:
  ObjectKind kind() const { return Kind; }
  uint32_t slotCount() const { return NumSlots; }

  Value *slots() { return SlotArray; }
  const Value *slots() const { return SlotArray; }
  Value &slot(uint32_t Index) {
    assert(Index < NumSlots && "slot out of range");
    return SlotArray[Index];
  }

  /// Raw payload: function index for closures.
  uint64_t raw() const { return Raw; }
  void setRaw(uint64_t Value) { Raw = Value; }

  /// Immortal metadata (types, coercions, labels) — never traced.
  const void *meta(unsigned Index) const {
    assert(Index < 4 && "meta index out of range");
    return Meta[Index];
  }
  void setMeta(unsigned Index, const void *Pointer) {
    assert(Index < 4 && "meta index out of range");
    Meta[Index] = Pointer;
  }

private:
  friend class Heap;
  HeapObject() = default;

  /// Flag bits. Liveness is *not* a flag — it is MarkEpoch (below), so
  /// sweeping needs no unmark pass.
  static constexpr uint8_t FlagFree = 1; ///< on a free list, awaiting reuse
  static constexpr uint8_t FlagInRemembered = 2; ///< already in the RS
  static constexpr uint8_t FlagForwarded = 4; ///< evacuated; Next = copy

  ObjectKind Kind = ObjectKind::Tuple;
  uint8_t Flags = 0;
  /// Epoch of the mark phase that last reached this object. Live iff it
  /// equals the heap's epoch of the last *completed* mark; a uint16
  /// wraparound can only delay one dead object's reclaim by one cycle.
  uint16_t MarkEpoch = 0;
  uint32_t NumSlots = 0;
  uint64_t Raw = 0;
  const void *Meta[4] = {nullptr, nullptr, nullptr, nullptr};
  HeapObject *Next = nullptr; // free-list / large-list / forwarding link
  Value *SlotArray = nullptr; // points just past this header
};
static_assert(sizeof(HeapObject) == 64, "header must stay one cache line");

/// A 64 KiB bump-allocated block carved into equal-size cells of one
/// size class. Non-moving: a cell's address is stable for the lifetime
/// of the heap. The header is padded to 64 bytes so cells start
/// cache-line aligned.
struct alignas(64) PoolBlock {
  uint32_t CellSize = 0;   ///< bytes per cell (a size-class constant)
  uint32_t Capacity = 0;   ///< total cells in this block
  uint32_t Bump = 0;       ///< cells handed out by bump allocation
  uint32_t SweepBound = 0; ///< cells the pending lazy sweep must examine

  char *cells() { return reinterpret_cast<char *>(this + 1); }
  HeapObject *cell(uint32_t Index) {
    return reinterpret_cast<HeapObject *>(cells() +
                                          static_cast<size_t>(Index) *
                                              CellSize);
  }
};
static_assert(sizeof(PoolBlock) == 64, "block header must stay one line");

/// Enumerates GC roots; the VM implements this over its stack and globals.
class RootProvider {
public:
  virtual ~RootProvider() = default;
  /// Calls \p Visit on every root slot. Visited slots *are* updated:
  /// evacuation rewrites roots that point at moved nursery objects.
  virtual void visitRoots(void (*Visit)(Value &, void *), void *Ctx) = 0;
};

/// The garbage-collected heap.
class Heap {
public:
  /// Size classes by cell size (header + slots, 8-byte slots). 512 bytes
  /// covers 56 slots; anything bigger is a large object.
  static constexpr unsigned NumSizeClasses = 7;
  static constexpr uint32_t ClassCellSizes[NumSizeClasses] = {
      64, 96, 128, 192, 256, 384, 512};
  static constexpr uint32_t MaxSmallCell = 512;
  static constexpr uint32_t MaxSmallSlots =
      (MaxSmallCell - sizeof(HeapObject)) / sizeof(Value); // 56
  static constexpr size_t BlockBytes = 64u * 1024;

  /// Nursery sizing. The default is small enough that a minor pause
  /// (evacuate ≤ 256 KiB of survivors) stays in the tens of
  /// microseconds; the floor guarantees any small cell fits.
  static constexpr size_t DefaultNurseryBytes = 256u * 1024;
  static constexpr size_t MinNurseryBytes = 4096;

  /// Log2 pause-histogram buckets: bucket 0 is < 1 µs, each next bucket
  /// doubles, bucket 15 collects everything ≥ 16.4 ms.
  static constexpr unsigned PauseHistBuckets = 16;

  Heap();
  ~Heap();
  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  //===--------------------------------------------------------------------===//
  // Allocation
  //===--------------------------------------------------------------------===//

  Value allocTuple(uint32_t Size) {
    if (HeapObject *O = tryFastAlloc(ObjectKind::Tuple, Size))
      return Value::fromHeap(O);
    return Value::fromHeap(allocateObject(ObjectKind::Tuple, Size));
  }
  Value allocBox(Value Content) {
    if (HeapObject *O = tryFastAlloc(ObjectKind::Box, 1)) {
      O->slot(0) = Content;
      return Value::fromHeap(O);
    }
    return allocBoxSlow(Content);
  }
  Value allocVector(uint32_t Size, Value Fill) {
    if (HeapObject *O = tryFastAlloc(ObjectKind::Vector, Size)) {
      for (uint32_t I = 0; I != Size; ++I)
        O->slot(I) = Fill;
      return Value::fromHeap(O);
    }
    return allocVectorSlow(Size, Fill);
  }
  Value allocClosure(uint32_t FunctionIndex, uint32_t NumFree) {
    if (HeapObject *O = tryFastAlloc(ObjectKind::Closure, NumFree)) {
      O->Raw = FunctionIndex;
      return Value::fromHeap(O);
    }
    return allocClosureSlow(FunctionIndex, NumFree);
  }
  Value allocDynBox(Value Wrapped, const Type *SourceType);
  /// Proxy closure over \p Wrapped; metadata is mode-specific.
  Value allocProxyClosure(Value Wrapped, const void *M0, const void *M1,
                          const void *M2);
  Value allocRefProxy(Value Wrapped, const void *M0, const void *M1,
                      const void *M2);

  //===--------------------------------------------------------------------===//
  // Generations and the write barrier
  //===--------------------------------------------------------------------===//

  /// True when \p Object lives in the nursery (young generation).
  bool isYoung(const HeapObject *Object) const {
    const char *P = reinterpret_cast<const char *>(Object);
    return NurseryBase && P >= NurseryBase && P < NurseryBase + NurserySize;
  }

  /// The write barrier. Call after storing \p Stored into a slot of
  /// \p Owner whenever Owner may be old: records Owner in the remembered
  /// set the first time it acquires a young edge. Cheap no-op when the
  /// nursery is off, the stored value is unboxed/old, or Owner is young.
  void recordWrite(HeapObject *Owner, Value Stored) {
    if (!NurseryBase || !Stored.isPointer() || !isYoung(Stored.object()))
      return;
    if (isYoung(Owner) || (Owner->Flags & HeapObject::FlagInRemembered))
      return;
    Owner->Flags |= HeapObject::FlagInRemembered;
    RememberedSet.push_back(Owner);
  }
  void recordWrite(Value Owner, Value Stored) {
    if (Owner.isPointer())
      recordWrite(Owner.object(), Stored);
  }

  /// Reconfigures the nursery: 0 disables it (all allocation goes to the
  /// pools — the pre-generational behaviour), SIZE_MAX restores the
  /// default, anything else is a byte size (clamped up to
  /// MinNurseryBytes). Evacuates any current residents first, so it is
  /// safe to call mid-run.
  void setNurserySize(size_t Bytes);
  size_t nurseryBytes() const { return NurserySizeCfg; }

  //===--------------------------------------------------------------------===//
  // Roots and collection
  //===--------------------------------------------------------------------===//

  void addRootProvider(RootProvider *Provider);
  void removeRootProvider(RootProvider *Provider);

  void pushTempRoot(Value *Slot) {
    assert(Slot && "null temp root");
    TempRoots.push_back(Slot);
  }
  void popTempRoot() {
    assert(!TempRoots.empty() && "popTempRoot without a matching push");
    TempRoots.pop_back();
  }
  /// Current temp-root stack depth. Engines assert this returns to its
  /// entry value at the run() boundary, catching unbalanced manual
  /// push/pop pairs (prefer the RAII Rooted helper, which cannot leak).
  size_t tempRootDepth() const { return TempRoots.size(); }

  /// Forces a full (major) collection. Finishes any pending lazy sweep
  /// *before* accounting (an interleaved pending sweep must not see this
  /// cycle's epochs), marks with evacuation — promoting every reachable
  /// nursery object — then schedules the next incremental sweep. Live
  /// counts are exact when this returns.
  void collect();

  /// Evacuates nursery survivors into the old generation and resets the
  /// bump pointer. Chains a full collection when promotion pushed the
  /// old generation past the GC threshold; returns true exactly then.
  /// No-op (returns false) when the nursery is off or unmapped.
  bool minorCollect();

  /// Sweeps up to \p MaxCells pending old-generation cells (block
  /// granularity, but always at least one block when any are pending).
  /// This is the incremental replacement for the old stop-the-world
  /// sweep finish; minorCollect runs one slice after its pause.
  void sweepSlice(size_t MaxCells);

  /// Walks roots, the nursery, and the remembered set, checking the
  /// generational invariants: no reachable free/forwarded object, no
  /// reachable young object past the bump pointer, no old→young edge
  /// whose owner is missing from the remembered set, and sane nursery
  /// headers. Returns the number of violations (0 = clean) after
  /// describing each on stderr. Read-only: never marks or moves.
  size_t verify();

  /// When set, verify() runs after every collection and aborts on any
  /// violation. Forced on under ASan builds and whenever a GC-torture
  /// fault injector is attached.
  void setVerifyAfterGC(bool Enabled) { VerifyAfterGC = Enabled; }

  /// Torture hook for cast application: when the attached injector sets
  /// MinorGCTorturePeriod, every Nth call forces a minor collection.
  /// \p Pinned is rooted across the collection and updated in place, so
  /// callers may keep using it afterwards.
  void maybeCastTortureMinor(Value &Pinned) {
    if (Injector && Injector->MinorGCTorturePeriod) [[unlikely]]
      Pinned = castTortureSlow(Pinned);
  }

  size_t liveObjects() const { return LiveObjects; }
  size_t bytesAllocated() const { return BytesAllocated; }
  uint64_t collections() const { return Collections; }
  /// High-water mark of (estimated) live bytes: live-at-last-GC plus
  /// bytes allocated since (old generation + nursery occupancy). This is
  /// the space-efficiency observable — proxy chains show up here.
  size_t peakHeapBytes() const { return PeakHeapBytes; }

  //===--------------------------------------------------------------------===//
  // Allocation / GC observability (RuntimeStats, benchjson)
  //===--------------------------------------------------------------------===//

  /// Cumulative objects served from size class \p Class (never reset).
  /// Nursery allocations count here too — the class of an object is a
  /// function of its slot count, not of which generation served it, so
  /// these counters are identical with the nursery on or off.
  uint64_t objectsAllocatedInClass(unsigned Class) const {
    assert(Class < NumSizeClasses);
    return Classes[Class].ObjectsAllocated;
  }
  /// Cumulative large (malloc-backed, pre-tenured) objects.
  uint64_t largeObjectsAllocated() const { return LargeAllocated; }
  /// Pool blocks currently owned across all size classes (boundedness
  /// observable: an allocate–collect loop must hold this steady).
  size_t poolBlocks() const {
    size_t N = 0;
    for (const SizeClass &C : Classes)
      N += C.Blocks.size();
    return N;
  }
  uint64_t gcPauseTotalNs() const { return GCPauseTotalNs; }
  uint64_t gcPauseMaxNs() const { return GCPauseMaxNs; }
  uint64_t minorCollections() const { return MinorCollections; }
  uint64_t gcMinorPauseTotalNs() const { return GCMinorPauseTotalNs; }
  uint64_t gcMinorPauseMaxNs() const { return GCMinorPauseMaxNs; }
  uint64_t promotedBytes() const { return PromotedBytes; }
  uint64_t promotedObjects() const { return PromotedObjects; }
  /// Largest remembered-set population observed at a collection.
  size_t rememberedSetPeak() const { return RememberedSetPeak; }
  size_t rememberedSetSize() const { return RememberedSet.size(); }
  const uint64_t *minorPauseHistogram() const { return MinorPauseHist; }
  const uint64_t *majorPauseHistogram() const { return MajorPauseHist; }
  /// Back-to-back collect() calls skipped on the heap-limit path because
  /// nothing was allocated since the threshold-triggered collection.
  uint64_t doubleCollectionsAvoided() const {
    return DoubleCollectionsAvoided;
  }

  /// Sets the allocation threshold that triggers collection (tests use a
  /// tiny threshold to stress the collector).
  void setGCThreshold(size_t Bytes) { GCThreshold = Bytes; }

  /// Hard cap on live bytes (0 = unlimited). When an allocation would
  /// push the live estimate past the cap, the heap collects once; if
  /// still over, the allocation throws ErrorKind::OutOfMemory instead of
  /// aborting the process. Malloc failure degrades the same way.
  void setHeapLimit(size_t Bytes) {
    HeapLimit = Bytes;
    clampThresholdToLimit();
  }
  size_t heapLimit() const { return HeapLimit; }

  /// Attaches a caller-owned fault injector (nullptr detaches). See
  /// runtime/FaultInjector.h; injected failures throw OutOfMemory.
  /// While attached, every allocation takes the out-of-line slow path so
  /// the injector observes an exact per-allocation count.
  void setFaultInjector(FaultInjector *Injector) { this->Injector = Injector; }

  /// Frees this thread's cached pool blocks. Engine pools call this at
  /// epoch resets so block memory does not accumulate across jobs.
  static void purgeThreadBlockCache();

private:
  struct SizeClass {
    HeapObject *FreeList = nullptr;
    std::vector<PoolBlock *> Blocks;
    size_t SweepCursor = 0; ///< first block the lazy sweep has not visited
    uint64_t ObjectsAllocated = 0;
  };

  static constexpr unsigned classForSlots(uint32_t NumSlots) {
    uint32_t Bytes = sizeof(HeapObject) + NumSlots * sizeof(Value);
    if (Bytes <= 64)
      return 0;
    if (Bytes <= 96)
      return 1;
    if (Bytes <= 128)
      return 2;
    if (Bytes <= 192)
      return 3;
    if (Bytes <= 256)
      return 4;
    if (Bytes <= 384)
      return 5;
    return 6;
  }

  /// Accounting size of an object: its size-class cell, or the exact
  /// malloc size for large objects. Deterministic from the slot count.
  static constexpr size_t cellBytesFor(uint32_t NumSlots) {
    return NumSlots > MaxSmallSlots
               ? sizeof(HeapObject) + NumSlots * sizeof(Value)
               : ClassCellSizes[classForSlots(NumSlots)];
  }

  /// Rebuilds \p Old's pointer Value around \p Object, preserving the
  /// Heap vs Proxy tag (evacuation must not change how a value
  /// dispatches).
  static Value retag(Value Old, HeapObject *Object) {
    return Old.isProxy() ? Value::fromProxy(Object)
                         : Value::fromHeap(Object);
  }

  /// Live-bytes estimate the heap limit and peak tracking use: live at
  /// the last major plus old-generation growth plus nursery occupancy.
  /// With the nursery off the last term is 0, matching the
  /// pre-generational accounting exactly.
  size_t heapEstimate() const {
    return LiveBytesAtGC + BytesSinceGC + NurseryUsed;
  }

  /// Re-initializes a cell as a fresh object. Shared by the inline fast
  /// path and the out-of-line allocator. New objects carry the epoch of
  /// the last completed mark so a pending sweep can never confuse them
  /// with cells that were dead at that mark.
  HeapObject *initObject(void *Memory, ObjectKind Kind, uint32_t NumSlots) {
    HeapObject *Object = new (Memory) HeapObject();
    Object->Kind = Kind;
    Object->MarkEpoch = LiveEpoch;
    Object->NumSlots = NumSlots;
    Object->SlotArray =
        reinterpret_cast<Value *>(static_cast<char *>(Memory) +
                                  sizeof(HeapObject));
    for (uint32_t I = 0; I != NumSlots; ++I)
      Object->SlotArray[I] = Value::unit();
    return Object;
  }

  /// The inline allocation fast path. With the nursery mapped this is a
  /// pure pointer bump; otherwise it pops a ready old-generation free
  /// cell. Returns nullptr — deferring to allocateObject — whenever
  /// anything interesting must happen: fault injection, nursery full,
  /// GC threshold or heap limit reached, large object, or an empty free
  /// list (bump, lazy sweep and block refill are all out of line).
  HeapObject *tryFastAlloc(ObjectKind Kind, uint32_t NumSlots) {
    if (Injector || NumSlots > MaxSmallSlots)
      return nullptr;
    unsigned Class = classForSlots(NumSlots);
    SizeClass &C = Classes[Class];
    size_t Bytes = ClassCellSizes[Class];
    if (NurserySizeCfg) {
      if (!NurseryBase)
        return nullptr; // first touch maps the nursery out of line
      if (NurseryUsed + Bytes > NurserySize)
        return nullptr; // minor collection due
      if (HeapLimit && heapEstimate() + Bytes > HeapLimit)
        return nullptr;
      HeapObject *Object =
          reinterpret_cast<HeapObject *>(NurseryBase + NurseryUsed);
      GRIFT_UNPOISON(Object, Bytes);
      NurseryUsed += Bytes;
      ++YoungObjects;
      ++C.ObjectsAllocated;
      ++LiveObjects;
      BytesAllocated += Bytes;
      PeakHeapBytes = std::max(PeakHeapBytes, heapEstimate());
      return initObject(Object, Kind, NumSlots);
    } // NurserySizeCfg
    HeapObject *Object = C.FreeList;
    if (!Object)
      return nullptr;
    if (BytesSinceGC + Bytes >= GCThreshold)
      return nullptr;
    if (HeapLimit && heapEstimate() + Bytes > HeapLimit)
      return nullptr;
    C.FreeList = Object->Next;
    GRIFT_UNPOISON(reinterpret_cast<char *>(Object) + sizeof(HeapObject),
                   Bytes - sizeof(HeapObject));
    ++C.ObjectsAllocated;
    ++LiveObjects;
    BytesAllocated += Bytes;
    BytesSinceGC += Bytes;
    PeakHeapBytes = std::max(PeakHeapBytes, heapEstimate());
    return initObject(Object, Kind, NumSlots);
  }

  HeapObject *allocateObject(ObjectKind Kind, uint32_t NumSlots);
  Value allocBoxSlow(Value Content);
  Value allocVectorSlow(uint32_t Size, Value Fill);
  Value allocClosureSlow(uint32_t FunctionIndex, uint32_t NumFree);

  /// Obtains a raw small old-generation cell: free list, bump, lazy
  /// sweep, then block refill. Returns nullptr only when a new block
  /// cannot be mapped.
  HeapObject *acquireSmallCell(unsigned Class);
  /// Sweeps pending blocks of \p Class until its free list is non-empty
  /// or every block has been swept. Returns true if cells were found.
  bool sweepForFreeCells(SizeClass &C);
  void sweepBlock(PoolBlock *Block, SizeClass &C);
  /// Finishes every pending lazy sweep (all classes). Must run before a
  /// new mark phase — and before any exact-live-count accounting: a
  /// pending sweep still holds last cycle's view of SweepBound cells.
  void finishSweep();
  /// Installs a new (or thread-cached) block for \p Class.
  PoolBlock *refillBlock(unsigned Class);

  /// Maps the nursery region on first use (lazily, so heaps that never
  /// allocate never map it). Degrades to nursery-off if malloc fails.
  void ensureNursery();
  /// Poisons the whole nursery payload and resets the bump pointer.
  void resetNursery();
  /// Copies a nursery object into the old generation, installs the
  /// forwarding pointer, and returns the copy. Shared by minor
  /// collections and the evacuating major mark.
  HeapObject *promote(HeapObject *Object);
  /// Minor-GC slot visitor: promotes (or forwards) a young referent and
  /// rewrites \p Slot in place. Promoted copies are pushed for scanning.
  void evacuateSlot(Value &Slot);
  /// Major-GC slot visitor: epoch-marks old referents, evacuates young
  /// ones, rewrites \p Slot, pushes newly-visited objects for scanning.
  void markValue(Value &Slot);
  /// Drains the scan stack through the given per-slot visitor.
  void drainScanStack(void (Heap::*VisitSlot)(Value &));

  /// Clears the remembered set and every owner's InRemembered flag
  /// (minor collections empty the nursery, so no old→young edge can
  /// survive one).
  void flushRememberedSet();

  /// Takes and returns the value (rather than a reference) so the inline
  /// caller's value never has its address taken and stays in a register.
  Value castTortureSlow(Value Pinned);
  /// Runs verify() after a collection when torture/ASan/explicit opt-in
  /// demands it; aborts loudly on any violation.
  void maybeVerify();
  static void recordPause(uint64_t Nanos, uint64_t &TotalNs, uint64_t &MaxNs,
                          uint64_t *Hist);

  /// Keeps the amortized-collection threshold meaningful under a hard
  /// heap limit: without this, a limit below the threshold floor means
  /// maybeCollect never fires and every allocation near the limit pays a
  /// full collection on the hard-limit path in allocateObject. A quarter
  /// of the limit keeps several amortized collections between limit hits
  /// while the 64 KiB floor avoids degenerate per-allocation collections
  /// under tiny limits.
  void clampThresholdToLimit() {
    if (HeapLimit)
      GCThreshold = std::min(GCThreshold,
                             std::max<size_t>(HeapLimit / 4, 64u * 1024));
  }

  SizeClass Classes[NumSizeClasses];
  HeapObject *LargeObjects = nullptr; ///< intrusive list, swept eagerly

  /// Nursery state. NurserySizeCfg is the configured size (0 = off);
  /// NurseryBase/NurserySize describe the mapped region once first
  /// touched; NurseryUsed is the bump offset.
  size_t NurserySizeCfg = DefaultNurseryBytes;
  char *NurseryBase = nullptr;
  size_t NurserySize = 0;
  size_t NurseryUsed = 0;
  size_t YoungObjects = 0; ///< objects in the nursery right now

  size_t LiveObjects = 0;
  size_t BytesAllocated = 0;
  size_t BytesSinceGC = 0; ///< bytes into the *old* gen since last major
  size_t LiveBytesAtGC = 0;
  size_t PeakHeapBytes = 0;
  size_t GCThreshold = 8u << 20;
  size_t HeapLimit = 0;
  FaultInjector *Injector = nullptr;
  uint64_t Collections = 0; ///< major collections only
  uint64_t MinorCollections = 0;
  uint64_t LargeAllocated = 0;
  uint64_t GCPauseTotalNs = 0; ///< all pauses, minor + major
  uint64_t GCPauseMaxNs = 0;
  uint64_t GCMinorPauseTotalNs = 0;
  uint64_t GCMinorPauseMaxNs = 0;
  uint64_t MinorPauseHist[PauseHistBuckets] = {};
  uint64_t MajorPauseHist[PauseHistBuckets] = {};
  uint64_t PromotedBytes = 0;
  uint64_t PromotedObjects = 0;
  uint64_t DoubleCollectionsAvoided = 0;
  uint64_t CastTortureCount = 0;
  /// Current mark epoch (bumped when a mark starts) and the epoch of the
  /// last *completed* mark. An old object is live iff
  /// MarkEpoch == LiveEpoch; sweeps always test against LiveEpoch, so a
  /// sweep interleaved with promotion mid-mark can never free a cell the
  /// in-progress mark has visited.
  uint16_t Epoch = 0;
  uint16_t LiveEpoch = 0;
  bool InCollection = false;
  bool VerifyAfterGC = false;
  size_t MarkedObjects = 0; ///< live count taken during the mark phase
  size_t MarkedBytes = 0;
  std::vector<RootProvider *> RootProviders;
  std::vector<Value *> TempRoots;
  std::vector<HeapObject *> MarkStack;
  std::vector<HeapObject *> RememberedSet;
  size_t RememberedSetPeak = 0;
};

/// RAII temp root: keeps a Value alive across allocations inside runtime
/// helpers — and, now that minor collections move young objects, keeps
/// it *current*: evacuation rewrites the slot in place, so get() after a
/// potential collection returns the object's new address.
/// Exception-safe (blame unwinds pop roots correctly).
class Rooted {
public:
  Rooted(Heap &H, Value V) : H(H), Slot(V) { H.pushTempRoot(&Slot); }
  ~Rooted() { H.popTempRoot(); }
  Rooted(const Rooted &) = delete;
  Rooted &operator=(const Rooted &) = delete;

  Value get() const { return Slot; }
  void set(Value V) { Slot = V; }

private:
  Heap &H;
  Value Slot;
};

} // namespace grift

#endif // GRIFT_RUNTIME_HEAP_H
