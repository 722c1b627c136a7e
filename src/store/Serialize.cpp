#include "store/Serialize.h"

#include "ast/Prim.h"
#include "coercions/CoercionFactory.h"
#include "types/TypeContext.h"

#include <cstring>
#include <unordered_map>

using namespace grift;
using namespace grift::store;

// All multi-byte fields are little-endian; the serializer writes native
// byte order and the supported targets are little-endian (enforced
// loosely here — a big-endian port would bump FormatVersion anyway).

namespace {

/// Sentinel reference meaning "no entry" (null coercion, absent label).
constexpr uint32_t NoRef = 0xFFFFFFFFu;

//===----------------------------------------------------------------------===//
// Bounded little-endian cursors
//===----------------------------------------------------------------------===//

class Writer {
public:
  std::string Out;

  void bytes(const void *Data, size_t Size) {
    Out.append(static_cast<const char *>(Data), Size);
  }
  void u8(uint8_t V) { bytes(&V, 1); }
  void u32(uint32_t V) { bytes(&V, 4); }
  void u64(uint64_t V) { bytes(&V, 8); }
  void i32(int32_t V) { bytes(&V, 4); }
  void i64(int64_t V) { bytes(&V, 8); }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, 8);
    u64(Bits);
  }
  void str(std::string_view S) {
    u32(static_cast<uint32_t>(S.size()));
    bytes(S.data(), S.size());
  }
};

/// Bounds-checked reader: a read past the end sets a sticky failure flag
/// and returns zeros; callers check ok() at section granularity.
class Reader {
public:
  Reader(Span S) : P(S.Data), End(S.Data + S.Size) {}

  bool ok() const { return !Failed; }
  bool atEnd() const { return P == End && !Failed; }
  size_t remaining() const { return Failed ? 0 : size_t(End - P); }

  bool bytes(void *Dst, size_t Size) {
    if (Failed || size_t(End - P) < Size) {
      Failed = true;
      return false;
    }
    std::memcpy(Dst, P, Size);
    P += Size;
    return true;
  }
  uint8_t u8() {
    uint8_t V = 0;
    bytes(&V, 1);
    return V;
  }
  uint32_t u32() {
    uint32_t V = 0;
    bytes(&V, 4);
    return V;
  }
  uint64_t u64() {
    uint64_t V = 0;
    bytes(&V, 8);
    return V;
  }
  int32_t i32() {
    int32_t V = 0;
    bytes(&V, 4);
    return V;
  }
  int64_t i64() {
    int64_t V = 0;
    bytes(&V, 8);
    return V;
  }
  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, 8);
    return V;
  }
  /// Length-prefixed string view into the mapped image.
  std::string_view str() {
    uint32_t Len = u32();
    if (Failed || size_t(End - P) < Len) {
      Failed = true;
      return {};
    }
    std::string_view S(reinterpret_cast<const char *>(P), Len);
    P += Len;
    return S;
  }

private:
  const uint8_t *P;
  const uint8_t *End;
  bool Failed = false;
};

//===----------------------------------------------------------------------===//
// Shared-table collection (serialize side)
//===----------------------------------------------------------------------===//

/// Applies \p Fn to every part pointer of \p C, in serialization order.
template <typename Fn> void forEachPart(const Coercion *C, Fn &&Apply) {
  switch (C->kind()) {
  case CoercionKind::Id:
  case CoercionKind::Project:
  case CoercionKind::Inject:
  case CoercionKind::Fail:
    return;
  case CoercionKind::Sequence:
    Apply(C->first());
    Apply(C->second());
    return;
  case CoercionKind::Fun:
    for (size_t I = 0, E = C->arity() + 1; I != E; ++I)
      Apply(C->arg(I));
    return;
  case CoercionKind::RefC:
    Apply(C->writeCoercion());
    Apply(C->readCoercion());
    return;
  case CoercionKind::TupleC:
    for (size_t I = 0, E = C->tupleSize(); I != E; ++I)
      Apply(C->element(I));
    return;
  case CoercionKind::Rec:
    Apply(C->body());
    return;
  }
}

/// Deduplicated tables of everything a program references. Types are
/// numbered children-first (the type graph is a DAG), coercions are
/// numbered with μ nodes pre-order and everything else post-order, so on
/// load every non-μ part reference points at an already-built node and
/// only μ back edges point forward.
struct Tables {
  std::vector<const Type *> Types;
  std::unordered_map<const Type *, uint32_t> TypeIdx;
  std::vector<const std::string *> Strings;
  std::unordered_map<const std::string *, uint32_t> StringIdx;
  std::vector<const Coercion *> Coercions;
  std::unordered_map<const Coercion *, uint32_t> CoercionIdx;

  uint32_t addType(const Type *T) {
    auto It = TypeIdx.find(T);
    if (It != TypeIdx.end())
      return It->second;
    for (const Type *Child : T->children())
      addType(Child);
    uint32_t Idx = static_cast<uint32_t>(Types.size());
    Types.push_back(T);
    TypeIdx.emplace(T, Idx);
    return Idx;
  }

  uint32_t addString(const std::string *S) {
    auto It = StringIdx.find(S);
    if (It != StringIdx.end())
      return It->second;
    uint32_t Idx = static_cast<uint32_t>(Strings.size());
    Strings.push_back(S);
    StringIdx.emplace(S, Idx);
    return Idx;
  }

  uint32_t addCoercion(const Coercion *C) {
    auto It = CoercionIdx.find(C);
    if (It != CoercionIdx.end())
      return It->second;
    if (C->kind() == CoercionKind::Rec) {
      // Pre-order: the μ node gets its index before its body, so the
      // back edge inside the body resolves to an existing placeholder.
      uint32_t Idx = static_cast<uint32_t>(Coercions.size());
      Coercions.push_back(C);
      CoercionIdx.emplace(C, Idx);
      addCoercion(C->body());
      return Idx;
    }
    if (C->type())
      addType(C->type());
    if (C->labelPointer())
      addString(C->labelPointer());
    forEachPart(C, [&](const Coercion *Part) { addCoercion(Part); });
    uint32_t Idx = static_cast<uint32_t>(Coercions.size());
    Coercions.push_back(C);
    CoercionIdx.emplace(C, Idx);
    return Idx;
  }
};

void emitSection(Writer &W, std::vector<SectionEntry> &TableOut, SectionId Id,
                 const std::string &Payload) {
  SectionEntry E;
  E.Id = static_cast<uint32_t>(Id);
  E.CRC = crc32(Payload.data(), Payload.size());
  E.Offset = W.Out.size();
  E.Size = Payload.size();
  TableOut.push_back(E);
  W.bytes(Payload.data(), Payload.size());
}

} // namespace

//===----------------------------------------------------------------------===//
// Image validation
//===----------------------------------------------------------------------===//

LoadStatus store::validateImage(const uint8_t *Data, size_t Size,
                                uint64_t ExpectKeyHash, ImageSections &Out,
                                std::string &Reason) {
  auto Fail = [&](LoadStatus S, std::string Why) {
    Reason = std::move(Why);
    return S;
  };
  if (Size < sizeof(ImageHeader))
    return Fail(LoadStatus::TruncatedHeader,
                "file smaller than the fixed header");
  ImageHeader H;
  std::memcpy(&H, Data, sizeof H);
  if (H.Magic != ImageMagic)
    return Fail(LoadStatus::BadMagic, "bad magic");
  if (headerCRC(H) != H.HeaderCRC)
    return Fail(LoadStatus::BadHeaderCRC, "header checksum mismatch");
  // From here the header fields are trustworthy (modulo CRC collision).
  if (H.Version != FormatVersion)
    return Fail(LoadStatus::VersionSkew,
                "format version " + std::to_string(H.Version) +
                    " (expected " + std::to_string(FormatVersion) + ")");
  if (ExpectKeyHash != 0 && H.KeyHash != ExpectKeyHash)
    return Fail(LoadStatus::KeyMismatch, "content key mismatch");
  if (H.FileSize != Size)
    return Fail(LoadStatus::TruncatedFile,
                "declared size " + std::to_string(H.FileSize) + " but got " +
                    std::to_string(Size));
  if (H.SectionCount == 0 || H.SectionCount > MaxSections)
    return Fail(LoadStatus::BadSectionTable, "section count out of range");
  size_t TableBytes = size_t(H.SectionCount) * sizeof(SectionEntry);
  if (Size - sizeof(ImageHeader) < TableBytes)
    return Fail(LoadStatus::BadSectionTable, "section table out of bounds");
  const uint8_t *TableStart = Data + sizeof(ImageHeader);
  if (crc32(TableStart, TableBytes) != H.TableCRC)
    return Fail(LoadStatus::BadSectionTable, "section table checksum");

  size_t PayloadStart = sizeof(ImageHeader) + TableBytes;
  std::vector<SectionEntry> Entries(H.SectionCount);
  std::memcpy(Entries.data(), TableStart, TableBytes);

  Span *Slots[] = {&Out.Meta, &Out.Strings, &Out.Types, &Out.Coercions,
                   &Out.Code};
  bool Seen[5] = {};
  size_t Cursor = PayloadStart;
  for (const SectionEntry &E : Entries) {
    if (E.Id < 1 || E.Id > 5)
      return Fail(LoadStatus::BadSectionTable, "unknown section id");
    if (Seen[E.Id - 1])
      return Fail(LoadStatus::BadSectionTable, "duplicate section");
    Seen[E.Id - 1] = true;
    // Sections must tile the payload area in table order: no gaps, no
    // overlap, no reach past the declared file size.
    if (E.Offset != Cursor || E.Size > Size - Cursor)
      return Fail(LoadStatus::BadSectionTable, "section bounds");
    Cursor += E.Size;
    if (crc32(Data + E.Offset, E.Size) != E.CRC)
      return Fail(LoadStatus::BadSectionCRC,
                  "section " + std::to_string(E.Id) + " checksum");
    *Slots[E.Id - 1] = Span{Data + E.Offset, static_cast<size_t>(E.Size)};
  }
  if (Cursor != Size)
    return Fail(LoadStatus::BadSectionTable, "trailing bytes after sections");
  for (bool S : Seen)
    if (!S)
      return Fail(LoadStatus::BadSectionTable, "missing section");
  Reason.clear();
  return LoadStatus::Hit;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

std::string store::serializeProgram(const VMProgram &Prog, uint64_t KeyHash,
                                   std::string_view Source) {
  Tables T;
  // Collect in emission order so the tables are deterministic.
  for (const CastDescriptor &Cast : Prog.Casts) {
    T.addType(Cast.Src);
    T.addType(Cast.Tgt);
    if (Cast.Label)
      T.addString(Cast.Label);
    if (Cast.C)
      T.addCoercion(Cast.C);
  }
  for (const DynSite &Site : Prog.Sites)
    T.addString(Site.Label);
  for (const Type *Ty : Prog.TypePool)
    T.addType(Ty);

  Writer Meta;
  Meta.u8(static_cast<uint8_t>(Prog.Mode));
  Meta.u8(Prog.Optimized ? 1 : 0);
  Meta.u32(Prog.MainFunction);
  Meta.str(Source);

  Writer Strings;
  Strings.u32(static_cast<uint32_t>(T.Strings.size()));
  for (const std::string *S : T.Strings)
    Strings.str(*S);

  Writer Types;
  Types.u32(static_cast<uint32_t>(T.Types.size()));
  for (const Type *Ty : T.Types) {
    Types.u8(static_cast<uint8_t>(Ty->kind()));
    Types.u32(Ty->isVar() ? Ty->varIndex() : 0);
    Types.u32(static_cast<uint32_t>(Ty->children().size()));
    for (const Type *Child : Ty->children())
      Types.u32(T.TypeIdx.at(Child));
  }

  Writer Coercions;
  Coercions.u32(static_cast<uint32_t>(T.Coercions.size()));
  for (const Coercion *C : T.Coercions) {
    Coercions.u8(static_cast<uint8_t>(C->kind()));
    Coercions.u32(C->type() ? T.TypeIdx.at(C->type()) : NoRef);
    Coercions.u32(C->labelPointer() ? T.StringIdx.at(C->labelPointer())
                                    : NoRef);
    uint32_t NumParts = 0;
    forEachPart(C, [&](const Coercion *) { ++NumParts; });
    Coercions.u32(NumParts);
    forEachPart(C, [&](const Coercion *Part) {
      Coercions.u32(T.CoercionIdx.at(Part));
    });
  }

  Writer Code;
  Code.u32(static_cast<uint32_t>(Prog.Functions.size()));
  for (const VMFunction &Fn : Prog.Functions) {
    Code.str(Fn.Name);
    Code.u32(Fn.NumParams);
    Code.u32(Fn.NumLocals);
    Code.u32(static_cast<uint32_t>(Fn.Code.size()));
    for (const Instr &I : Fn.Code) {
      Code.u8(static_cast<uint8_t>(I.Code));
      Code.i32(I.A);
      Code.i32(I.B);
    }
  }
  Code.u32(static_cast<uint32_t>(Prog.Casts.size()));
  for (const CastDescriptor &Cast : Prog.Casts) {
    Code.u32(T.TypeIdx.at(Cast.Src));
    Code.u32(T.TypeIdx.at(Cast.Tgt));
    Code.u32(Cast.Label ? T.StringIdx.at(Cast.Label) : NoRef);
    Code.u32(Cast.C ? T.CoercionIdx.at(Cast.C) : NoRef);
  }
  Code.u32(static_cast<uint32_t>(Prog.Sites.size()));
  for (const DynSite &Site : Prog.Sites)
    Code.u32(T.StringIdx.at(Site.Label));
  Code.u32(static_cast<uint32_t>(Prog.TypePool.size()));
  for (const Type *Ty : Prog.TypePool)
    Code.u32(T.TypeIdx.at(Ty));
  Code.u32(static_cast<uint32_t>(Prog.FloatPool.size()));
  for (double F : Prog.FloatPool)
    Code.f64(F);
  Code.u32(static_cast<uint32_t>(Prog.IntPool.size()));
  for (int64_t I : Prog.IntPool)
    Code.i64(I);
  Code.u32(static_cast<uint32_t>(Prog.GlobalNames.size()));
  for (const std::string &Name : Prog.GlobalNames)
    Code.str(Name);

  // Assemble: header, table, payloads (in SectionId order, tiling the
  // payload area exactly — validateImage enforces this layout).
  ImageHeader H;
  H.KeyHash = KeyHash;
  H.SectionCount = 5;

  Writer Image;
  Image.Out.resize(sizeof(ImageHeader) + 5 * sizeof(SectionEntry));
  std::vector<SectionEntry> Table;
  emitSection(Image, Table, SectionId::Meta, Meta.Out);
  emitSection(Image, Table, SectionId::Strings, Strings.Out);
  emitSection(Image, Table, SectionId::Types, Types.Out);
  emitSection(Image, Table, SectionId::Coercions, Coercions.Out);
  emitSection(Image, Table, SectionId::Code, Code.Out);

  H.FileSize = Image.Out.size();
  H.TableCRC = crc32(Table.data(), Table.size() * sizeof(SectionEntry));
  H.HeaderCRC = headerCRC(H);
  std::memcpy(Image.Out.data(), &H, sizeof H);
  std::memcpy(Image.Out.data() + sizeof H, Table.data(),
              Table.size() * sizeof(SectionEntry));
  return std::move(Image.Out);
}

//===----------------------------------------------------------------------===//
// Deserialization
//===----------------------------------------------------------------------===//

namespace {

/// Validates every bytecode operand that indexes a program table against
/// the loaded table sizes, plus control-flow targets and function
/// termination — the "never UB even if CRC collides" layer.
bool validateCode(const VMProgram &Prog, std::string &Error) {
  auto Bad = [&](const VMFunction &Fn, size_t PC, const char *Why) {
    Error = "function '" + Fn.Name + "' pc " + std::to_string(PC) + ": " + Why;
    return false;
  };
  const size_t NumFns = Prog.Functions.size();
  const uint32_t Prims = numPrims();
  for (const VMFunction &Fn : Prog.Functions) {
    if (Fn.NumParams > Fn.NumLocals)
      return Bad(Fn, 0, "more parameters than locals");
    const size_t Len = Fn.Code.size();
    if (Len == 0)
      return Bad(Fn, 0, "empty code");
    for (size_t PC = 0; PC != Len; ++PC) {
      const Instr &I = Fn.Code[PC];
      auto InRange = [](int32_t V, size_t Bound) {
        return V >= 0 && size_t(V) < Bound;
      };
      switch (I.Code) {
      case Op::PushIntBig:
        if (!InRange(I.A, Prog.IntPool.size()))
          return Bad(Fn, PC, "int-pool index");
        break;
      case Op::PushFloat:
        if (!InRange(I.A, Prog.FloatPool.size()))
          return Bad(Fn, PC, "float-pool index");
        break;
      case Op::LocalGet:
      case Op::LocalSet:
        if (!InRange(I.A, Fn.NumLocals))
          return Bad(Fn, PC, "local slot");
        break;
      case Op::GlobalGet:
      case Op::GlobalSet:
        if (!InRange(I.A, Prog.GlobalNames.size()))
          return Bad(Fn, PC, "global index");
        break;
      case Op::Jump:
      case Op::JumpIfFalse:
        if (!InRange(I.A, Len))
          return Bad(Fn, PC, "jump target");
        break;
      case Op::MakeClosure:
        if (!InRange(I.A, NumFns) || I.B < 0)
          return Bad(Fn, PC, "closure function index");
        break;
      case Op::Cast:
        if (!InRange(I.A, Prog.Casts.size()))
          return Bad(Fn, PC, "cast-table index");
        break;
      case Op::Prim:
        if (!InRange(I.A, Prims))
          return Bad(Fn, PC, "primitive index");
        break;
      case Op::TupleProjDyn:
        if (I.A < 0 || !InRange(I.B, Prog.Sites.size()))
          return Bad(Fn, PC, "dyn-site index");
        break;
      case Op::UnboxDyn:
      case Op::BoxSetDyn:
      case Op::VecRefDyn:
      case Op::VecSetDyn:
      case Op::VecLenDyn:
        if (!InRange(I.A, Prog.Sites.size()))
          return Bad(Fn, PC, "dyn-site index");
        break;
      case Op::AppDyn:
        if (I.A < 0 || !InRange(I.B, Prog.Sites.size()))
          return Bad(Fn, PC, "dyn-site index");
        break;
      case Op::BoxNewMono:
      case Op::MakeVectorMono:
        if (!InRange(I.A, Prog.TypePool.size()))
          return Bad(Fn, PC, "type-pool index");
        break;
      case Op::BoxGetMono:
      case Op::BoxSetMono:
      case Op::VecRefMono:
      case Op::VecSetMono:
        if (!InRange(I.A, Prog.TypePool.size()) ||
            !InRange(I.B, Prog.Sites.size()))
          return Bad(Fn, PC, "mono type/site index");
        break;
      case Op::LocalGetGet:
        if (!InRange(I.A, Fn.NumLocals) || !InRange(I.B, Fn.NumLocals))
          return Bad(Fn, PC, "fused local slot");
        break;
      case Op::LocalGetCall:
      case Op::LocalGetTailCall:
        if (!InRange(I.A, Fn.NumLocals) || I.B < 0)
          return Bad(Fn, PC, "fused local slot");
        break;
      case Op::PushIntPrim:
        if (!InRange(I.B, Prims))
          return Bad(Fn, PC, "fused primitive index");
        break;
      case Op::PrimJumpIfFalse:
        if (!InRange(I.A, Prims) || !InRange(I.B, Len))
          return Bad(Fn, PC, "fused prim/jump target");
        break;
      case Op::PushFloatPrim:
        if (!InRange(I.A, Prog.FloatPool.size()) || !InRange(I.B, Prims))
          return Bad(Fn, PC, "fused float/prim index");
        break;
      case Op::LtIntJumpIfFalse:
      case Op::LeIntJumpIfFalse:
      case Op::EqIntJumpIfFalse:
      case Op::GeIntJumpIfFalse:
      case Op::GtIntJumpIfFalse:
        if (!InRange(I.A, Len))
          return Bad(Fn, PC, "fused compare/jump target");
        break;
      case Op::Call:
      case Op::TailCall:
      case Op::MakeTuple:
      case Op::TupleProj:
      case Op::FreeGet:
      case Op::ClosureInitFree:
        if (I.A < 0)
          return Bad(Fn, PC, "negative operand");
        break;
      default:
        break;
      }
      // Fused handlers skip the trailing placeholder with an extra ++IP,
      // so a fused opcode must never be the last instruction.
      if (static_cast<uint8_t>(I.Code) >= FirstFusedOp && PC + 1 == Len)
        return Bad(Fn, PC, "fused opcode at end of function");
    }
    // Execution must not fall off the end of the code array.
    switch (Fn.Code[Len - 1].Code) {
    case Op::Return:
    case Op::Halt:
    case Op::Jump:
    case Op::TailCall:
      break;
    default:
      return Bad(Fn, Len - 1, "function does not end in a terminator");
    }
  }
  if (Prog.MainFunction >= NumFns) {
    Error = "main-function index out of range";
    return false;
  }
  return true;
}

} // namespace

LoadStatus store::loadProgram(const ImageSections &S, const Expected &Want,
                              TypeContext &TypesCtx,
                              CoercionFactory &Coercions, VMProgram &Out,
                              std::string &Error) {
  auto Fail = [&](std::string Why) {
    Error = std::move(Why);
    return LoadStatus::BadPayload;
  };

  // Meta. The request checks come before anything is interned.
  Reader Meta(S.Meta);
  uint8_t ModeByte = Meta.u8();
  uint8_t OptimizeByte = Meta.u8();
  uint32_t Main = Meta.u32();
  std::string_view Recorded = Meta.str();
  if (!Meta.atEnd() || ModeByte >= NumCastModes || OptimizeByte > 1)
    return Fail("meta section malformed");
  if (Want.Source && *Want.Source != Recorded) {
    Error = "image was built from another source";
    return LoadStatus::SourceMismatch;
  }
  Out.Mode = static_cast<CastMode>(ModeByte);
  Out.Optimized = OptimizeByte == 1;
  if ((Want.Mode && *Want.Mode != Out.Mode) ||
      (Want.Optimize && *Want.Optimize != Out.Optimized)) {
    Error = std::string("image was built for mode ") + castModeName(Out.Mode) +
            (Out.Optimized ? " with" : " without") + " the optimizer";
    return LoadStatus::ModeMismatch;
  }
  Out.MainFunction = Main;

  // Strings: re-intern in the factory's label arena.
  Reader Str(S.Strings);
  uint32_t NumStrings = Str.u32();
  if (NumStrings > Str.remaining() / 4 + 1)
    return Fail("string count exceeds section");
  std::vector<const std::string *> Strings;
  Strings.reserve(NumStrings);
  for (uint32_t I = 0; I != NumStrings; ++I) {
    std::string_view V = Str.str();
    if (!Str.ok())
      return Fail("string table truncated");
    Strings.push_back(Coercions.internLabel(V));
  }
  if (!Str.atEnd())
    return Fail("trailing bytes in string section");
  auto stringAt = [&](uint32_t Ref) -> const std::string * {
    return Ref < Strings.size() ? Strings[Ref] : nullptr;
  };

  // Types: rebuild through the context's smart constructors; children
  // always precede parents, so one forward pass suffices.
  Reader Ty(S.Types);
  uint32_t NumTypes = Ty.u32();
  if (NumTypes > Ty.remaining() / 9 + 1)
    return Fail("type count exceeds section");
  std::vector<const Type *> Types;
  Types.reserve(NumTypes);
  for (uint32_t I = 0; I != NumTypes; ++I) {
    uint8_t Kind = Ty.u8();
    uint32_t VarIdx = Ty.u32();
    uint32_t NumChildren = Ty.u32();
    if (!Ty.ok() || NumChildren > Ty.remaining() / 4)
      return Fail("type record truncated");
    std::vector<const Type *> Children;
    Children.reserve(NumChildren);
    for (uint32_t C = 0; C != NumChildren; ++C) {
      uint32_t Ref = Ty.u32();
      if (Ref >= I)
        return Fail("type child reference out of order");
      Children.push_back(Types[Ref]);
    }
    const Type *Built = nullptr;
    switch (static_cast<TypeKind>(Kind)) {
    case TypeKind::Dyn:
      Built = NumChildren == 0 ? TypesCtx.dyn() : nullptr;
      break;
    case TypeKind::Unit:
      Built = NumChildren == 0 ? TypesCtx.unit() : nullptr;
      break;
    case TypeKind::Bool:
      Built = NumChildren == 0 ? TypesCtx.boolean() : nullptr;
      break;
    case TypeKind::Int:
      Built = NumChildren == 0 ? TypesCtx.integer() : nullptr;
      break;
    case TypeKind::Char:
      Built = NumChildren == 0 ? TypesCtx.character() : nullptr;
      break;
    case TypeKind::Float:
      Built = NumChildren == 0 ? TypesCtx.floating() : nullptr;
      break;
    case TypeKind::Function:
      if (NumChildren >= 1) {
        const Type *Result = Children.back();
        Children.pop_back();
        Built = TypesCtx.function(std::move(Children), Result);
      }
      break;
    case TypeKind::Tuple:
      if (NumChildren >= 1)
        Built = TypesCtx.tuple(std::move(Children));
      break;
    case TypeKind::Box:
      if (NumChildren == 1)
        Built = TypesCtx.box(Children[0]);
      break;
    case TypeKind::Vect:
      if (NumChildren == 1)
        Built = TypesCtx.vect(Children[0]);
      break;
    case TypeKind::Rec:
      if (NumChildren == 1)
        Built = TypesCtx.rec(Children[0]);
      break;
    case TypeKind::Var:
      if (NumChildren == 0)
        Built = TypesCtx.var(VarIdx);
      break;
    }
    if (!Built)
      return Fail("malformed type record " + std::to_string(I));
    Types.push_back(Built);
  }
  if (!Ty.atEnd())
    return Fail("trailing bytes in type section");
  auto typeAt = [&](uint32_t Ref) -> const Type * {
    return Ref < Types.size() ? Types[Ref] : nullptr;
  };

  // Coercions: three passes over the records — μ placeholders first so
  // back edges resolve, then the acyclic rest in topological order, then
  // μ body sealing.
  Reader Co(S.Coercions);
  uint32_t NumCoercions = Co.u32();
  if (NumCoercions > Co.remaining() / 13 + 1)
    return Fail("coercion count exceeds section");
  struct CoRecord {
    uint8_t Kind;
    uint32_t TyRef, LabelRef;
    std::vector<uint32_t> Parts;
  };
  std::vector<CoRecord> Records;
  Records.reserve(NumCoercions);
  for (uint32_t I = 0; I != NumCoercions; ++I) {
    CoRecord R;
    R.Kind = Co.u8();
    R.TyRef = Co.u32();
    R.LabelRef = Co.u32();
    uint32_t NumParts = Co.u32();
    if (!Co.ok() || NumParts > Co.remaining() / 4)
      return Fail("coercion record truncated");
    R.Parts.reserve(NumParts);
    for (uint32_t P = 0; P != NumParts; ++P)
      R.Parts.push_back(Co.u32());
    Records.push_back(std::move(R));
  }
  if (!Co.atEnd())
    return Fail("trailing bytes in coercion section");

  std::vector<const Coercion *> Nodes(NumCoercions, nullptr);
  std::vector<Coercion *> Placeholders(NumCoercions, nullptr);
  for (uint32_t I = 0; I != NumCoercions; ++I)
    if (Records[I].Kind == static_cast<uint8_t>(CoercionKind::Rec)) {
      if (Records[I].Parts.size() != 1 || Records[I].TyRef != NoRef ||
          Records[I].LabelRef != NoRef)
        return Fail("malformed μ record");
      Placeholders[I] = Coercions.newRecForLoad();
      Nodes[I] = Placeholders[I];
    }
  for (uint32_t I = 0; I != NumCoercions; ++I) {
    const CoRecord &R = Records[I];
    if (Placeholders[I])
      continue;
    std::vector<const Coercion *> Parts;
    Parts.reserve(R.Parts.size());
    for (uint32_t Ref : R.Parts) {
      // Non-μ parts must already exist: either built earlier in this
      // pass or a μ placeholder (the only legal forward reference).
      if (Ref >= NumCoercions || !Nodes[Ref] || (Ref >= I && !Placeholders[Ref]))
        return Fail("coercion part reference out of order");
      Parts.push_back(Nodes[Ref]);
    }
    const Type *NodeTy = R.TyRef == NoRef ? nullptr : typeAt(R.TyRef);
    if (R.TyRef != NoRef && !NodeTy)
      return Fail("coercion type reference out of range");
    const std::string *NodeLabel =
        R.LabelRef == NoRef ? nullptr : stringAt(R.LabelRef);
    if (R.LabelRef != NoRef && !NodeLabel)
      return Fail("coercion label reference out of range");
    std::string BuildError;
    const Coercion *Built = Coercions.buildForLoad(
        static_cast<CoercionKind>(R.Kind), NodeTy, NodeLabel, Parts,
        BuildError);
    if (!Built)
      return Fail("coercion record " + std::to_string(I) + ": " + BuildError);
    Nodes[I] = Built;
  }
  for (uint32_t I = 0; I != NumCoercions; ++I) {
    if (!Placeholders[I])
      continue;
    uint32_t BodyRef = Records[I].Parts[0];
    if (BodyRef >= NumCoercions || !Nodes[BodyRef])
      return Fail("μ body reference out of range");
    if (!Coercions.sealRecForLoad(Placeholders[I], Nodes[BodyRef]))
      return Fail("μ node sealed twice");
  }
  auto coercionAt = [&](uint32_t Ref) -> const Coercion * {
    return Ref < Nodes.size() ? Nodes[Ref] : nullptr;
  };

  // Code.
  Reader Code(S.Code);
  uint32_t NumFns = Code.u32();
  if (NumFns > Code.remaining() / 16 + 1)
    return Fail("function count exceeds section");
  for (uint32_t F = 0; F != NumFns; ++F) {
    VMFunction Fn;
    Fn.Name = std::string(Code.str());
    Fn.NumParams = Code.u32();
    Fn.NumLocals = Code.u32();
    uint32_t Len = Code.u32();
    if (!Code.ok() || Len > Code.remaining() / 9)
      return Fail("function record truncated");
    Fn.Code.reserve(Len);
    for (uint32_t I = 0; I != Len; ++I) {
      uint8_t OpByte = Code.u8();
      if (OpByte >= NumOpcodes)
        return Fail("unknown opcode " + std::to_string(OpByte));
      Instr Ins;
      Ins.Code = static_cast<Op>(OpByte);
      Ins.A = Code.i32();
      Ins.B = Code.i32();
      Fn.Code.push_back(Ins);
    }
    Out.Functions.push_back(std::move(Fn));
  }
  uint32_t NumCasts = Code.u32();
  if (NumCasts > Code.remaining() / 16 + 1)
    return Fail("cast count exceeds section");
  for (uint32_t I = 0; I != NumCasts; ++I) {
    CastDescriptor Cast;
    uint32_t SrcRef = Code.u32(), TgtRef = Code.u32();
    uint32_t LabelRef = Code.u32(), CoRef = Code.u32();
    if (!Code.ok())
      return Fail("cast table truncated");
    Cast.Src = typeAt(SrcRef);
    Cast.Tgt = typeAt(TgtRef);
    Cast.Label = LabelRef == NoRef ? nullptr : stringAt(LabelRef);
    if (!Cast.Src || !Cast.Tgt || (LabelRef != NoRef && !Cast.Label))
      return Fail("cast reference out of range");
    if (CoRef != NoRef) {
      Cast.C = coercionAt(CoRef);
      if (!Cast.C)
        return Fail("cast coercion reference out of range");
      if (!CoercionFactory::isNormalForm(Cast.C))
        return Fail("cast coercion not in normal form");
      // Seed the make() memo: re-making this cast must return the loaded
      // node with zero fresh allocations (the interning invariant).
      if (Cast.Label)
        Coercions.seedMakeCache(Cast.Src, Cast.Tgt, Cast.Label, Cast.C);
    }
    Out.Casts.push_back(Cast);
  }
  uint32_t NumSites = Code.u32();
  if (NumSites > Code.remaining() / 4 + 1)
    return Fail("site count exceeds section");
  for (uint32_t I = 0; I != NumSites; ++I) {
    const std::string *Label = stringAt(Code.u32());
    if (!Code.ok() || !Label)
      return Fail("dyn-site label reference out of range");
    Out.Sites.push_back(DynSite{Label});
  }
  uint32_t NumPoolTypes = Code.u32();
  if (NumPoolTypes > Code.remaining() / 4 + 1)
    return Fail("type-pool count exceeds section");
  for (uint32_t I = 0; I != NumPoolTypes; ++I) {
    const Type *PoolTy = typeAt(Code.u32());
    if (!Code.ok() || !PoolTy)
      return Fail("type-pool reference out of range");
    Out.TypePool.push_back(PoolTy);
  }
  uint32_t NumFloats = Code.u32();
  if (NumFloats > Code.remaining() / 8 + 1)
    return Fail("float-pool count exceeds section");
  for (uint32_t I = 0; I != NumFloats; ++I)
    Out.FloatPool.push_back(Code.f64());
  uint32_t NumInts = Code.u32();
  if (!Code.ok() || NumInts > Code.remaining() / 8 + 1)
    return Fail("int-pool count exceeds section");
  for (uint32_t I = 0; I != NumInts; ++I)
    Out.IntPool.push_back(Code.i64());
  uint32_t NumGlobals = Code.u32();
  if (!Code.ok() || NumGlobals > Code.remaining() / 4 + 1)
    return Fail("global count exceeds section");
  for (uint32_t I = 0; I != NumGlobals; ++I) {
    std::string_view Name = Code.str();
    if (!Code.ok())
      return Fail("global name truncated");
    Out.GlobalNames.emplace_back(Name);
  }
  if (!Code.atEnd())
    return Fail("trailing bytes in code section");

  return validateCode(Out, Error) ? LoadStatus::Hit : LoadStatus::BadPayload;
}
