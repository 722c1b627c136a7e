#include "frontend/Parser.h"

#include "runtime/Value.h"
#include "sexp/Reader.h"
#include "types/TypeParser.h"

#include <cassert>

using namespace grift;

namespace {

class Parser {
public:
  Parser(TypeContext &Ctx, DiagnosticEngine &Diags) : Ctx(Ctx), Diags(Diags) {}

  std::optional<Program> parseProgram(const SexpArena &Data) {
    Program Prog;
    for (const Sexp &Datum : Data) {
      if (Datum.isList() && Datum.size() >= 1 && Datum[0].is(Keyword::Define)) {
        std::optional<Define> D = parseDefine(Datum);
        if (!D)
          return std::nullopt;
        Prog.Defines.push_back(std::move(*D));
        continue;
      }
      Define Stmt;
      Stmt.Body = parse(Datum);
      if (!Stmt.Body)
        return std::nullopt;
      Stmt.Loc = Datum.loc();
      Prog.Defines.push_back(std::move(Stmt));
    }
    return Prog;
  }

  ExprPtr parse(const Sexp &Datum) {
    switch (Datum.kind()) {
    case Sexp::Kind::Int:
      // Fixnums are 48-bit payloads under NaN-boxing; reject literals the
      // runtime cannot represent rather than silently truncating them.
      if (Datum.intValue() > Value::FixnumMax ||
          Datum.intValue() < Value::FixnumMin)
        return error(Datum.loc(),
                     "integer literal " + std::to_string(Datum.intValue()) +
                         " is outside the fixnum range [-2^47, 2^47)");
      return makeLitInt(Datum.intValue(), Datum.loc());
    case Sexp::Kind::Float:
      return makeLitFloat(Datum.floatValue(), Datum.loc());
    case Sexp::Kind::Bool:
      return makeLitBool(Datum.boolValue(), Datum.loc());
    case Sexp::Kind::Char:
      return makeLitChar(Datum.charValue(), Datum.loc());
    case Sexp::Kind::String:
      return error(Datum.loc(), "string literals are not GTLC+ expressions");
    case Sexp::Kind::Symbol: {
      std::string Name(Datum.symbol());
      if (Datum.symbolClass() == Sexp::Class::Keyword ||
          Datum.symbolClass() == Sexp::Class::Prim)
        return error(Datum.loc(), "'" + Name + "' used as a variable");
      return makeVar(std::move(Name), Datum.loc());
    }
    case Sexp::Kind::List:
      if (Datum.isEmptyList())
        return makeLitUnit(Datum.loc());
      return parseForm(Datum);
    }
    return nullptr;
  }

private:
  TypeContext &Ctx;
  DiagnosticEngine &Diags;

  ExprPtr error(SourceLoc Loc, std::string Message) {
    Diags.error(Loc, std::move(Message));
    return nullptr;
  }

  const Type *parseTypeAt(const Sexp &Datum) {
    return parseType(Ctx, Datum, Diags);
  }

  /// Parses `elems[I] == ':'` followed by a type; on success advances \p I
  /// past both and returns the type. Returns nullptr without error if no
  /// colon is present; sets \p Bad on malformed annotation.
  const Type *parseOptionalAnnot(const Sexp &List, size_t &I, bool &Bad) {
    if (I >= List.size() || !List[I].is(Keyword::Colon))
      return nullptr;
    if (I + 1 >= List.size()) {
      Diags.error(List.loc(), "':' must be followed by a type");
      Bad = true;
      return nullptr;
    }
    const Type *T = parseTypeAt(List[I + 1]);
    if (!T) {
      Bad = true;
      return nullptr;
    }
    I += 2;
    return T;
  }

  /// Parses `(: T)? E` at List[I...] into \p Annot and the returned E;
  /// \p Extra is the error when more follows E.
  ExprPtr parseAnnotated(const Sexp &List, size_t I, const Type *&Annot,
                         const char *Extra) {
    bool Bad = false;
    Annot = parseOptionalAnnot(List, I, Bad);
    if (Bad)
      return nullptr;
    if (I + 1 != List.size())
      return error(List.loc(), Extra);
    return parse(List[I]);
  }

  std::optional<Param> parseParam(const Sexp &Datum) {
    if (Datum.isSymbol()) {
      if (Datum.symbolClass() == Sexp::Class::Keyword)
        Diags.error(Datum.loc(), "keyword used as parameter name");
      return Param{Datum.str(), nullptr, Datum.loc()};
    }
    // [x : T]
    if (Datum.isList() && Datum.size() == 3 && Datum[0].isSymbol() &&
        Datum[1].is(Keyword::Colon)) {
      const Type *T = parseTypeAt(Datum[2]);
      if (!T)
        return std::nullopt;
      return Param{Datum[0].str(), T, Datum.loc()};
    }
    Diags.error(Datum.loc(), "malformed parameter, expected x or [x : T]");
    return std::nullopt;
  }

  /// Parses a body sequence starting at \p Start; wraps multiple
  /// expressions in an implicit begin.
  ExprPtr parseBody(const Sexp &List, size_t Start) {
    if (Start >= List.size())
      return error(List.loc(), "empty body");
    if (Start + 1 == List.size())
      return parse(List[Start]);
    return parseNode(List, Start, ExprKind::Begin);
  }

  /// Parses List[Start...] as the sub-expressions of a \p Kind node.
  ExprPtr parseNode(const Sexp &List, size_t Start, ExprKind Kind) {
    std::vector<ExprPtr> Subs;
    Subs.reserve(List.size() - Start);
    for (size_t I = Start; I != List.size(); ++I)
      if (!Subs.emplace_back(parse(List[I])))
        return nullptr;
    return makeNode(Kind, std::move(Subs), List.loc());
  }

  static ExprPtr makeIf(ExprPtr Cond, ExprPtr Then, ExprPtr Else,
                        SourceLoc Loc) {
    std::vector<ExprPtr> Subs;
    Subs.reserve(3);
    Subs.push_back(std::move(Cond));
    Subs.push_back(std::move(Then));
    Subs.push_back(std::move(Else));
    return makeNode(ExprKind::If, std::move(Subs), Loc);
  }

  std::optional<Define> parseDefine(const Sexp &Datum) {
    // (define x : T E) | (define x E) | (define (f P...) (: T)? E...)
    if (Datum.size() < 3) {
      Diags.error(Datum.loc(), "malformed define");
      return std::nullopt;
    }
    Define D;
    D.Loc = Datum.loc();
    if (Datum[1].isSymbol()) {
      D.Name = Datum[1].symbol();
      D.Body = parseAnnotated(Datum, 2, D.Annot,
                              "define takes exactly one body expression");
      if (!D.Body)
        return std::nullopt;
      return D;
    }
    if (!Datum[1].isList() || Datum[1].size() < 1 || !Datum[1][0].isSymbol()) {
      Diags.error(Datum.loc(), "malformed define header");
      return std::nullopt;
    }
    // Function form: desugar to a lambda.
    const Sexp &Header = Datum[1];
    D.Name = Header[0].symbol();
    D.Body = parseLambdaRest(Datum, Header, 1);
    if (!D.Body)
      return std::nullopt;
    return D;
  }

  ExprPtr parseForm(const Sexp &Datum) {
    const Sexp &Head = Datum[0];
    if (Head.symbolClass() == Sexp::Class::Prim)
      return parsePrim(Datum, PrimOp(Head.id()));
    if (Head.symbolClass() != Sexp::Class::Keyword)
      return parseApp(Datum);
    switch (Keyword(Head.id())) {
    case Keyword::If:
      if (Datum.size() != 4)
        return error(Datum.loc(), "if takes exactly three sub-expressions");
      return parseNary(Datum, ExprKind::If, 3);
    case Keyword::Lambda:
      return parseLambda(Datum);
    case Keyword::Let:
    case Keyword::Letrec:
      return parseLet(Datum, Head.is(Keyword::Letrec));
    case Keyword::Begin:
      return parseBegin(Datum);
    case Keyword::Repeat:
      return parseRepeat(Datum);
    case Keyword::Time:
      return parseNary(Datum, ExprKind::Time, 1);
    case Keyword::Tuple:
      return parseTuple(Datum);
    case Keyword::TupleProj:
      return parseTupleProj(Datum);
    case Keyword::Box:
      return parseNary(Datum, ExprKind::BoxE, 1);
    case Keyword::Unbox:
      return parseNary(Datum, ExprKind::Unbox, 1);
    case Keyword::BoxSet:
      return parseNary(Datum, ExprKind::BoxSet, 2);
    case Keyword::MakeVector:
      return parseNary(Datum, ExprKind::MakeVect, 2);
    case Keyword::VectorRef:
      return parseNary(Datum, ExprKind::VectRef, 2);
    case Keyword::VectorSet:
      return parseNary(Datum, ExprKind::VectSet, 3);
    case Keyword::VectorLength:
      return parseNary(Datum, ExprKind::VectLen, 1);
    case Keyword::Ann:
      return parseAnn(Datum);
    case Keyword::And:
    case Keyword::Or:
      return parseAndOr(Datum, Head.is(Keyword::And));
    case Keyword::When:
    case Keyword::Unless:
      return parseWhen(Datum, Head.is(Keyword::Unless));
    case Keyword::Cond:
      return parseCond(Datum);
    case Keyword::Define:
      return error(Datum.loc(), "define is only allowed at the top level");
    case Keyword::Else:
    case Keyword::Colon:
      break;
    }
    return parseApp(Datum);
  }

  ExprPtr parseApp(const Sexp &Datum) {
    return parseNode(Datum, 0, ExprKind::App);
  }

  ExprPtr parsePrim(const Sexp &Datum, PrimOp Op) {
    unsigned Arity = primArity(Op);
    if (Datum.size() != Arity + 1)
      return error(Datum.loc(), std::string(primName(Op)) + " expects " +
                                    std::to_string(Arity) + " arguments, got " +
                                    std::to_string(Datum.size() - 1));
    ExprPtr Node = parseNode(Datum, 1, ExprKind::PrimApp);
    if (Node)
      Node->Prim = Op;
    return Node;
  }

  ExprPtr parseNary(const Sexp &Datum, ExprKind Kind, size_t Arity) {
    if (Datum.size() != Arity + 1)
      return error(Datum.loc(), "form expects " + std::to_string(Arity) +
                                    " sub-expressions");
    return parseNode(Datum, 1, Kind);
  }

  ExprPtr parseLambda(const Sexp &Datum) {
    if (Datum.size() < 3 || !Datum[1].isList())
      return error(Datum.loc(), "malformed lambda");
    return parseLambdaRest(Datum, Datum[1], 0);
  }

  /// A lambda with the parameters Params[First...] and the optional
  /// return annotation and body that follow Datum[1].
  ExprPtr parseLambdaRest(const Sexp &Datum, const Sexp &Params,
                          size_t First) {
    auto Lambda = std::make_unique<Expr>();
    Lambda->Kind = ExprKind::Lambda;
    Lambda->Loc = Datum.loc();
    Lambda->Params.reserve(Params.size() - First);
    for (size_t I = First; I != Params.size(); ++I) {
      std::optional<Param> Parsed = parseParam(Params[I]);
      if (!Parsed)
        return nullptr;
      Lambda->Params.push_back(std::move(*Parsed));
    }
    size_t I = 2;
    bool Bad = false;
    Lambda->ReturnAnnot = parseOptionalAnnot(Datum, I, Bad);
    if (Bad)
      return nullptr;
    ExprPtr Body = parseBody(Datum, I);
    if (!Body)
      return nullptr;
    Lambda->SubExprs.push_back(std::move(Body));
    return Lambda;
  }

  ExprPtr parseLet(const Sexp &Datum, bool IsRec) {
    if (Datum.size() < 3 || !Datum[1].isList())
      return error(Datum.loc(), "malformed let");
    auto Node = std::make_unique<Expr>();
    Node->Kind = IsRec ? ExprKind::Letrec : ExprKind::Let;
    Node->Loc = Datum.loc();
    Node->Bindings.reserve(Datum[1].size());
    for (const Sexp &BindDatum : Datum[1]) {
      if (!BindDatum.isList() || BindDatum.size() < 2 ||
          !BindDatum[0].isSymbol())
        return error(BindDatum.loc(), "malformed binding, expected [x (: T)? E]");
      Binding B;
      B.Name = BindDatum[0].symbol();
      B.Loc = BindDatum.loc();
      B.Init = parseAnnotated(BindDatum, 1, B.Annot,
                              "binding takes exactly one initializer");
      if (!B.Init)
        return nullptr;
      Node->Bindings.push_back(std::move(B));
    }
    ExprPtr Body = parseBody(Datum, 2);
    if (!Body)
      return nullptr;
    Node->SubExprs.push_back(std::move(Body));
    return Node;
  }

  ExprPtr parseBegin(const Sexp &Datum) {
    if (Datum.size() < 2)
      return error(Datum.loc(), "begin needs at least one expression");
    return parseNode(Datum, 1, ExprKind::Begin);
  }

  ExprPtr parseRepeat(const Sexp &Datum) {
    // (repeat (x lo hi) [(acc (: T)? init)] body)
    if (Datum.size() < 3 || Datum.size() > 4 || !Datum[1].isList() ||
        Datum[1].size() != 3 || !Datum[1][0].isSymbol())
      return error(Datum.loc(), "malformed repeat, expected "
                                "(repeat (x lo hi) [(acc init)] body)");
    auto Node = std::make_unique<Expr>();
    Node->Kind = ExprKind::Repeat;
    Node->Loc = Datum.loc();
    Node->Name = Datum[1][0].symbol();
    ExprPtr Lo = parse(Datum[1][1]);
    ExprPtr Hi = parse(Datum[1][2]);
    if (!Lo || !Hi)
      return nullptr;
    Node->SubExprs.push_back(std::move(Lo));
    Node->SubExprs.push_back(std::move(Hi));
    size_t BodyIndex = 2;
    if (Datum.size() == 4) {
      const Sexp &AccDatum = Datum[2];
      if (!AccDatum.isList() || AccDatum.size() < 2 || !AccDatum[0].isSymbol())
        return error(AccDatum.loc(), "malformed repeat accumulator");
      Node->HasAcc = true;
      Node->AccName = AccDatum[0].symbol();
      ExprPtr Init = parseAnnotated(AccDatum, 1, Node->AccAnnot,
                                    "repeat accumulator takes one initializer");
      if (!Init)
        return nullptr;
      Node->SubExprs.push_back(std::move(Init));
      BodyIndex = 3;
    }
    ExprPtr Body = parse(Datum[BodyIndex]);
    if (!Body)
      return nullptr;
    Node->SubExprs.push_back(std::move(Body));
    return Node;
  }

  ExprPtr parseTuple(const Sexp &Datum) {
    if (Datum.size() < 2)
      return error(Datum.loc(), "tuple needs at least one element");
    return parseNode(Datum, 1, ExprKind::Tuple);
  }

  ExprPtr parseTupleProj(const Sexp &Datum) {
    if (Datum.size() != 3 || Datum[2].kind() != Sexp::Kind::Int)
      return error(Datum.loc(), "expected (tuple-proj E i) with literal index");
    ExprPtr Target = parse(Datum[1]);
    if (!Target)
      return nullptr;
    int64_t Index = Datum[2].intValue();
    if (Index < 0)
      return error(Datum.loc(), "tuple index must be non-negative");
    std::vector<ExprPtr> Subs;
    Subs.push_back(std::move(Target));
    ExprPtr Node = makeNode(ExprKind::TupleProj, std::move(Subs), Datum.loc());
    Node->Index = static_cast<uint32_t>(Index);
    return Node;
  }

  ExprPtr parseAnn(const Sexp &Datum) {
    if (Datum.size() != 3)
      return error(Datum.loc(), "expected (ann E T)");
    ExprPtr Body = parse(Datum[1]);
    if (!Body)
      return nullptr;
    const Type *T = parseTypeAt(Datum[2]);
    if (!T)
      return nullptr;
    std::vector<ExprPtr> Subs;
    Subs.push_back(std::move(Body));
    ExprPtr Node = makeNode(ExprKind::Ascribe, std::move(Subs), Datum.loc());
    Node->Annot = T;
    return Node;
  }

  /// (and a b ...) => (if a (and b ...) #f); (or a b ...) dually.
  ExprPtr parseAndOr(const Sexp &Datum, bool IsAnd) {
    if (Datum.size() < 3)
      return error(Datum.loc(), "and/or need at least two operands");
    return buildAndOr(Datum, 1, IsAnd);
  }

  ExprPtr buildAndOr(const Sexp &Datum, size_t Index, bool IsAnd) {
    ExprPtr First = parse(Datum[Index]);
    if (!First)
      return nullptr;
    if (Index + 1 == Datum.size())
      return First;
    ExprPtr Rest = buildAndOr(Datum, Index + 1, IsAnd);
    if (!Rest)
      return nullptr;
    ExprPtr Short = makeLitBool(!IsAnd, Datum.loc());
    if (IsAnd)
      return makeIf(std::move(First), std::move(Rest), std::move(Short),
                    Datum.loc());
    return makeIf(std::move(First), std::move(Short), std::move(Rest),
                  Datum.loc());
  }

  /// (when c e...) => (if c (begin e...) ()); unless negates.
  ExprPtr parseWhen(const Sexp &Datum, bool Negate) {
    if (Datum.size() < 3)
      return error(Datum.loc(), "when/unless need a condition and a body");
    ExprPtr Cond = parse(Datum[1]);
    if (!Cond)
      return nullptr;
    ExprPtr Body = parseBody(Datum, 2);
    if (!Body)
      return nullptr;
    ExprPtr Unit = makeLitUnit(Datum.loc());
    if (Negate)
      return makeIf(std::move(Cond), std::move(Unit), std::move(Body),
                    Datum.loc());
    return makeIf(std::move(Cond), std::move(Body), std::move(Unit),
                  Datum.loc());
  }

  /// (cond [c e...] ... [else e...]) => nested ifs; a missing else arm
  /// defaults to ().
  ExprPtr parseCond(const Sexp &Datum) {
    if (Datum.size() < 2)
      return error(Datum.loc(), "cond needs at least one clause");
    return buildCond(Datum, 1);
  }

  ExprPtr buildCond(const Sexp &Datum, size_t Index) {
    if (Index == Datum.size())
      return makeLitUnit(Datum.loc());
    const Sexp &Clause = Datum[Index];
    if (!Clause.isList() || Clause.size() < 2)
      return error(Clause.loc(), "malformed cond clause");
    if (Clause[0].is(Keyword::Else)) {
      if (Index + 1 != Datum.size())
        return error(Clause.loc(), "else must be the last cond clause");
      return parseBody(Clause, 1);
    }
    ExprPtr Cond = parse(Clause[0]);
    if (!Cond)
      return nullptr;
    ExprPtr Then = parseBody(Clause, 1);
    if (!Then)
      return nullptr;
    ExprPtr Else = buildCond(Datum, Index + 1);
    if (!Else)
      return nullptr;
    return makeIf(std::move(Cond), std::move(Then), std::move(Else),
                  Clause.loc());
  }
};

} // namespace

std::optional<Program> grift::parseProgram(TypeContext &Ctx,
                                           std::string_view Source,
                                           DiagnosticEngine &Diags) {
  SexpArena Data = readSexps(Source, Diags);
  if (Diags.hasErrors())
    return std::nullopt;
  return Parser(Ctx, Diags).parseProgram(Data);
}

ExprPtr grift::parseExpr(TypeContext &Ctx, std::string_view Source,
                         DiagnosticEngine &Diags) {
  SexpArena Data = readSexps(Source, Diags);
  if (Diags.hasErrors())
    return nullptr;
  if (Data.size() != 1) {
    Diags.error(SourceLoc(), "expected exactly one expression");
    return nullptr;
  }
  return Parser(Ctx, Diags).parse(Data[0]);
}
