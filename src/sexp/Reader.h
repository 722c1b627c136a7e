//===----------------------------------------------------------------------===//
///
/// \file
/// The s-expression reader: turns GTLC+ source text into the top-level
/// Sexp data of one SexpArena. Handles `;` line comments, `#|...|#` block
/// comments, `[` / `]` as parenthesis synonyms (Grift style), and the
/// literal syntaxes of Figure 5. Numbers are decimal only: `[+-]?D+` is an
/// integer, `[+-]?(D+(.D*)?|.D+)([eE][+-]?D+)?` a float, and an integer
/// outside int64 or a float outside the double range is an error.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_SEXP_READER_H
#define GRIFT_SEXP_READER_H

#include "sexp/Sexp.h"
#include "support/Diagnostics.h"

#include <forward_list>
#include <string_view>
#include <vector>

namespace grift {

/// Every datum of one read. Lists are spans of Nodes, which holds each
/// list's elements contiguously and the top-level data last. Symbols view
/// the source text, so the source must outlive the arena; decoded string
/// literals live in the arena. Nothing that outlives the arena (the AST
/// included) may keep a view into either.
class SexpArena {
public:
  /// A move keeps Nodes' buffer, so every span stays valid; no copies.
  SexpArena(SexpArena &&) = default;

  /// The top-level data.
  const Sexp *begin() const { return Nodes.data() + Nodes.size() - Roots; }
  const Sexp *end() const { return Nodes.data() + Nodes.size(); }
  size_t size() const { return Roots; }
  bool empty() const { return Roots == 0; }
  const Sexp &operator[](size_t Index) const { return begin()[Index]; }

private:
  friend class SexpReader;
  SexpArena() = default;

  std::vector<Sexp> Nodes;
  std::forward_list<std::string> Strings;
  size_t Roots = 0;
};

/// Reads every top-level datum in \p Source. Errors are reported through
/// \p Diags; on error the arena holds the top-level data read so far.
SexpArena readSexps(std::string_view Source, DiagnosticEngine &Diags);

} // namespace grift

#endif // GRIFT_SEXP_READER_H
