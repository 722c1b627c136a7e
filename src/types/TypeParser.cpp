#include "types/TypeParser.h"

#include <vector>

using namespace grift;

namespace {

class TypeParser {
public:
  TypeParser(TypeContext &Ctx, DiagnosticEngine &Diags)
      : Ctx(Ctx), Diags(Diags) {}

  const Type *parse(const Sexp &Datum) {
    if (Datum.isSymbol())
      return parseName(Datum);
    if (Datum.isList())
      return parseList(Datum);
    Diags.error(Datum.loc(), "expected a type, found '" + Datum.str() + "'");
    return nullptr;
  }

private:
  TypeContext &Ctx;
  DiagnosticEngine &Diags;
  std::vector<std::string_view> RecVars; // innermost binder last

  const Type *parseName(const Sexp &Datum) {
    // The atomic names come first in TypeName, in this order.
    if (Datum.symbolClass() == Sexp::Class::TypeName &&
        Datum.id() <= uint8_t(TypeName::Float)) {
      const Type *Atomic[] = {Ctx.dyn(),     Ctx.unit(),      Ctx.boolean(),
                              Ctx.integer(), Ctx.character(), Ctx.floating()};
      return Atomic[Datum.id()];
    }
    // A Rec-bound variable: innermost binder has de Bruijn index 0.
    std::string_view Name = Datum.symbol();
    for (size_t I = RecVars.size(); I-- > 0;)
      if (RecVars[I] == Name)
        return Ctx.var(static_cast<uint32_t>(RecVars.size() - 1 - I));
    Diags.error(Datum.loc(), "unknown type name '" + std::string(Name) + "'");
    return nullptr;
  }

  const Type *parseList(const Sexp &Datum) {
    size_t Size = Datum.size();
    if (Size == 0)
      return Ctx.unit(); // `()` — the Unit type, as in `-> ()`.
    // Function types contain a `->` in the second-to-last position.
    if (Size >= 2 && Datum[Size - 2].is(TypeName::Arrow))
      return parseFunction(Datum);
    const Sexp &Head = Datum[0];
    if (Head.symbolClass() == Sexp::Class::TypeName) {
      switch (TypeName(Head.id())) {
      case TypeName::Tuple: {
        std::vector<const Type *> Members;
        if (!parseEach(Datum, 1, Size, Members))
          return nullptr;
        if (Members.empty()) {
          Diags.error(Datum.loc(), "tuple type needs at least one element");
          return nullptr;
        }
        return Ctx.tuple(std::move(Members));
      }
      case TypeName::Ref:
      case TypeName::Vect: {
        if (Size != 2) {
          Diags.error(Datum.loc(), Head.str() +
                                       " type takes exactly one element type");
          return nullptr;
        }
        const Type *Element = parse(Datum[1]);
        if (!Element)
          return nullptr;
        return Head.is(TypeName::Ref) ? Ctx.box(Element) : Ctx.vect(Element);
      }
      case TypeName::Rec: {
        if (Size != 3 || !Datum[1].isSymbol()) {
          Diags.error(Datum.loc(), "expected (Rec x T)");
          return nullptr;
        }
        RecVars.push_back(Datum[1].symbol());
        const Type *Body = parse(Datum[2]);
        RecVars.pop_back();
        if (!Body)
          return nullptr;
        return Ctx.rec(Body);
      }
      default:
        break;
      }
    }
    Diags.error(Datum.loc(), "malformed type '" + Datum.str() + "'");
    return nullptr;
  }

  /// Parses List[First..Last) into \p Out; false on an error.
  bool parseEach(const Sexp &List, size_t First, size_t Last,
                 std::vector<const Type *> &Out) {
    Out.reserve(Last - First);
    for (size_t I = First; I != Last; ++I)
      if (!Out.emplace_back(parse(List[I])))
        return false;
    return true;
  }

  const Type *parseFunction(const Sexp &Datum) {
    std::vector<const Type *> Params;
    if (!parseEach(Datum, 0, Datum.size() - 2, Params))
      return nullptr;
    const Type *Result = parse(Datum[Datum.size() - 1]);
    if (!Result)
      return nullptr;
    return Ctx.function(std::move(Params), Result);
  }
};

} // namespace

const Type *grift::parseType(TypeContext &Ctx, const Sexp &Datum,
                             DiagnosticEngine &Diags) {
  return TypeParser(Ctx, Diags).parse(Datum);
}
