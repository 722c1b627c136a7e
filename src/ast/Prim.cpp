#include "ast/Prim.h"

#include <cassert>

using namespace grift;

namespace {

struct PrimInfo {
  std::string_view Name;
  std::string_view Signature; // params before ':', result after
};

constexpr PrimInfo PrimTable[] = {
#define GRIFT_PRIM(ID, NAME, SIG) {NAME, SIG},
#include "ast/Prims.def"
#undef GRIFT_PRIM
};

constexpr unsigned NumPrimOps = sizeof(PrimTable) / sizeof(PrimTable[0]);

const PrimInfo &info(PrimOp Op) {
  unsigned Index = static_cast<unsigned>(Op);
  assert(Index < NumPrimOps && "bad primop");
  return PrimTable[Index];
}

const Type *letterType(TypeContext &Ctx, char Letter) {
  switch (Letter) {
  case 'i':
    return Ctx.integer();
  case 'f':
    return Ctx.floating();
  case 'b':
    return Ctx.boolean();
  case 'c':
    return Ctx.character();
  case 'u':
    return Ctx.unit();
  default:
    assert(false && "bad signature letter");
    return Ctx.dyn();
  }
}

} // namespace

unsigned grift::numPrims() { return NumPrimOps; }

std::string_view grift::primName(PrimOp Op) { return info(Op).Name; }

unsigned grift::primArity(PrimOp Op) {
  return static_cast<unsigned>(info(Op).Signature.find(':'));
}

const Type *grift::primParam(TypeContext &Ctx, PrimOp Op, unsigned Index) {
  assert(Index < primArity(Op) && "operand index out of range");
  return letterType(Ctx, info(Op).Signature[Index]);
}

const Type *grift::primResult(TypeContext &Ctx, PrimOp Op) {
  std::string_view Signature = info(Op).Signature;
  size_t Colon = Signature.find(':');
  assert(Colon != std::string_view::npos && Colon + 1 < Signature.size());
  return letterType(Ctx, Signature[Colon + 1]);
}
