//===----------------------------------------------------------------------===//
///
/// \file
/// The cast-backend interface: one object per CastMode owning the
/// mode-varying half of the runtime — cast application, runtime-typed
/// casts at Dyn elimination sites, reference-coercion semantics
/// (proxy-compose vs monotonic in-place strengthening), the proxied
/// reference slow paths, and the calling convention the VM uses for
/// proxy closures and pending return casts.
///
/// The Runtime keeps its public API and the mode-independent machinery
/// (coerce's non-reference branches, castTB, castMono, Dyn tagging, the
/// shared inline caches) and delegates every former `switch (Mode)` to
/// its backend. createCastBackend() is the single exhaustive map from
/// CastMode to behavior: adding a mode without extending it fails the
/// build via the static_assert on NumCastModes.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_RUNTIME_CASTBACKEND_H
#define GRIFT_RUNTIME_CASTBACKEND_H

#include "runtime/Mode.h"
#include "runtime/Value.h"

#include <cstdint>
#include <memory>
#include <string>

namespace grift {

class Coercion;
class Runtime;
class Type;
struct CastDescriptor;
struct CoercionCache;

class CastBackend {
public:
  explicit CastBackend(Runtime &RT) : RT(RT) {}
  virtual ~CastBackend() = default;
  CastBackend(const CastBackend &) = delete;
  CastBackend &operator=(const CastBackend &) = delete;

  virtual CastMode castMode() const = 0;

  //===--------------------------------------------------------------------===//
  // Cast application
  //===--------------------------------------------------------------------===//

  /// Applies a compiled cast site (the VM's Cast instruction).
  virtual Value applyCast(Value V, const CastDescriptor &Desc,
                          CoercionCache *IC) = 0;

  /// Casts between types only known at run time (Dyn elimination forms,
  /// monotonic view conversions, pending Dyn result casts).
  virtual Value castRuntime(Value V, const Type *S, const Type *T,
                            const std::string *Label, CoercionCache *IC) = 0;

  /// The RefC branch of coerce: what a reference coercion does to a
  /// reference value. Default: space-efficient proxy composition (at
  /// most one proxy per reference). Monotonic overrides this to
  /// strengthen the cell in place and never allocate a proxy.
  virtual Value coerceRef(Value V, const Coercion *C, CoercionCache *IC);

  //===--------------------------------------------------------------------===//
  // Proxied reference slow paths
  //
  // Runtime::boxRead and friends keep the bare-object fast path inline
  // and only delegate here once a value is proxied, so these virtuals
  // are never on the fully typed hot path.
  //===--------------------------------------------------------------------===//

  virtual Value proxyBoxRead(Value Box) = 0;
  virtual void proxyBoxWrite(Value Box, Value Content) = 0;
  virtual Value proxyVectorRef(Value Vect, int64_t Index) = 0;
  virtual void proxyVectorSet(Value Vect, int64_t Index, Value Content) = 0;

  //===--------------------------------------------------------------------===//
  // Dyn-site reference elimination (UnboxDyn / BoxSetDyn / VecRefDyn /
  // VecSetDyn). \p Inner is the untagged reference, \p Elem the DynBox's
  // view element type. Default: guarded read/write through the (possibly
  // proxied) reference plus a runtime cast to/from Dyn. Monotonic reads
  // and writes against the cell's own runtime type instead.
  //===--------------------------------------------------------------------===//

  virtual Value dynBoxRead(Value Inner, const Type *Elem,
                           const std::string *Label, CoercionCache *IC);
  virtual void dynBoxWrite(Value Inner, Value Content, const Type *Elem,
                           const std::string *Label, CoercionCache *IC);
  virtual Value dynVectorRef(Value Inner, int64_t Index, const Type *Elem,
                             const std::string *Label, CoercionCache *IC);
  virtual void dynVectorSet(Value Inner, int64_t Index, Value Content,
                            const Type *Elem, const std::string *Label,
                            CoercionCache *IC);

  //===--------------------------------------------------------------------===//
  // Call protocol
  //===--------------------------------------------------------------------===//

  /// True when proxy closures carry a Fun coercion in meta(0) (every
  /// mode but TypeBased, whose proxies carry the S/T/label triple).
  virtual bool coercionCallProtocol() const { return true; }

  /// True when casts take the default coercion path: applyCast applies
  /// the site's coercion (CastDescriptor::C), castRuntime applies the
  /// interned S => T coercion through the site's inline cache, and the
  /// Dyn-site reference hooks keep their defaults. The VM then calls
  /// Runtime::applyCoercionCast / castRuntimeCoercion and the inline
  /// reference paths directly instead of these virtuals.
  virtual bool castsAreCoercions() const { return false; }

  /// True when the VM must compose a frame's pending return coercions
  /// into a single per-frame coercion argument instead of stacking them
  /// (coercion-passing style). With this off, a chain of n proxied tail
  /// calls accumulates Θ(n) pending return casts on the reused frame;
  /// with it on, every frame carries at most one.
  virtual bool composesPendingReturns() const { return false; }

protected:
  Runtime &RT;

  // Forwarders into Runtime's private machinery (CastBackend is a
  // friend; protected so the concrete backends can reach them too).
  const Coercion *cachedCompose(CoercionCache *IC, const Coercion *Old,
                                const Coercion *New);
  const Coercion *cachedMake(CoercionCache *IC, const Type *S, const Type *T,
                             const std::string *Label);
  void strengthenCell(Value Ref, const Type *TargetElem,
                      const std::string *Label);
};

/// The exhaustive CastMode → backend map. Compile-time guarded: adding a
/// mode breaks the build here until a backend is registered.
std::unique_ptr<CastBackend> createCastBackend(CastMode Mode, Runtime &RT);

} // namespace grift

#endif // GRIFT_RUNTIME_CASTBACKEND_H
