//===----------------------------------------------------------------------===//
///
/// \file
/// Optional general-purpose optimizations over the core IR. The paper's
/// Grift deliberately performs none of these (Section 3: "Grift does not
/// perform any other general-purpose or global optimizations"), and
/// Section 5 conjectures that adding them would "eliminate many
/// first-order checks, the main cause of slowdowns in dynamically typed
/// code". This pass implements the local subset so the conjecture can be
/// measured (the ablation/optimizer/ rows of bench/benchjson):
///
///   * constant folding of integer/float/boolean primitives;
///   * branch folding of `if` with a literal condition;
///   * `begin` flattening and elimination of effect-free statements;
///   * cast folding: a cast applied to a literal whose target is a
///     concrete base type reduces to the literal (the cast must be the
///     identity for the program to have type checked).
///
/// The pass is OFF by default everywhere so benchmark results keep the
/// paper's "no optimizations" baseline.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_FRONTEND_OPTIMIZER_H
#define GRIFT_FRONTEND_OPTIMIZER_H

#include "frontend/CoreIR.h"
#include "types/TypeContext.h"

namespace grift {

/// Rewrites \p Prog in place; returns the number of rewrites performed.
/// Idempotent once it returns 0.
unsigned optimizeCore(TypeContext &Types, core::CoreProgram &Prog);

} // namespace grift

#endif // GRIFT_FRONTEND_OPTIMIZER_H
