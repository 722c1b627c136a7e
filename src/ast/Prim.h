//===----------------------------------------------------------------------===//
///
/// \file
/// The fixed table of GTLC+ primitive operators (paper Figure 5). Each
/// primitive has a fixed monomorphic signature; there is no numeric tower,
/// so integer and float arithmetic are distinct operators (`+` vs `fl+`).
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_AST_PRIM_H
#define GRIFT_AST_PRIM_H

#include "types/TypeContext.h"

#include <string_view>

namespace grift {

/// Every primitive operator. The X-macro in Prim.cpp carries the surface
/// name and signature; signatures use one letter per type:
/// i=Int, f=Float, b=Bool, c=Char, u=Unit.
enum class PrimOp : uint8_t {
#define GRIFT_PRIM(ID, NAME, SIG) ID,
#include "ast/Prims.def"
#undef GRIFT_PRIM
};

/// Number of primitive operators.
unsigned numPrims();

/// Surface syntax of \p Op, e.g. "fl+".
std::string_view primName(PrimOp Op);

/// Number of operands \p Op takes.
unsigned primArity(PrimOp Op);

/// The type of operand \p Index (< primArity(Op)) of \p Op,
/// materialized in \p Ctx.
const Type *primParam(TypeContext &Ctx, PrimOp Op, unsigned Index);

/// Result type of \p Op, materialized in \p Ctx.
const Type *primResult(TypeContext &Ctx, PrimOp Op);

} // namespace grift

#endif // GRIFT_AST_PRIM_H
