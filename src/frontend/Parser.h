//===----------------------------------------------------------------------===//
///
/// \file
/// Parses GTLC+ surface syntax (paper Figure 5) from s-expressions into
/// the AST. Also implements a few standard syntactic sugars found in the
/// Grift benchmarks: `and`, `or`, `when`, `unless`, `cond`.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_FRONTEND_PARSER_H
#define GRIFT_FRONTEND_PARSER_H

#include "ast/Ast.h"
#include "support/Diagnostics.h"
#include "types/TypeContext.h"

#include <optional>
#include <string_view>

namespace grift {

/// Parses a whole program from source text. Returns nullopt (with
/// diagnostics) on any syntax error.
std::optional<Program> parseProgram(TypeContext &Ctx, std::string_view Source,
                                    DiagnosticEngine &Diags);

} // namespace grift

#endif // GRIFT_FRONTEND_PARSER_H
