#include "frontend/Parser.h"

#include "runtime/Value.h"
#include "sexp/Reader.h"
#include "types/TypeParser.h"

#include <cassert>

using namespace grift;

namespace {

class Parser {
public:
  Parser(TypeContext &Ctx, DiagnosticEngine &Diags, Program &Prog)
      : Ctx(Ctx), Diags(Diags), Prog(Prog), A(Prog.arena()) {}

  bool parseProgram(const SexpArena &Data) {
    Prog.Defines.reserve(Data.size());
    for (const Sexp &Datum : Data) {
      if (Datum.isList() && Datum.size() >= 1 && Datum[0].is(Keyword::Define)) {
        std::optional<Define> D = parseDefine(Datum);
        if (!D)
          return false;
        Prog.Defines.push_back(*D);
        continue;
      }
      Define Stmt;
      Stmt.Body = parse(Datum);
      if (!Stmt.Body)
        return false;
      Stmt.Loc = Datum.loc();
      Prog.Defines.push_back(Stmt);
    }
    return true;
  }

private:
  TypeContext &Ctx;
  DiagnosticEngine &Diags;
  Program &Prog;
  /// The arena of Prog, which every node, list and name goes to.
  Arena &A;
  /// Scratch stacks the lists under construction gather on; a finished
  /// list is copied into the arena and popped, so nested lists share
  /// them and no list allocates on the heap.
  std::vector<Expr *> SubScratch;
  std::vector<Param> ParamScratch;
  std::vector<Binding> BindingScratch;

  /// Copies Scratch[Mark...] into the arena and pops it.
  template <typename T>
  std::span<T> finish(std::vector<T> &Scratch, size_t Mark) {
    std::span<T> List = A.copy<T>(std::span(Scratch).subspan(Mark));
    Scratch.resize(Mark);
    return List;
  }

  Expr *makeNode(ExprKind Kind, std::span<Expr *const> Subs, SourceLoc Loc) {
    Expr *E = makeExpr(A, Kind, Loc);
    E->SubExprs = A.copy<Expr *>(Subs);
    return E;
  }

  Expr *parse(const Sexp &Datum) {
    switch (Datum.kind()) {
    case Sexp::Kind::Int:
      // Fixnums are 48-bit payloads under NaN-boxing; reject literals the
      // runtime cannot represent rather than silently truncating them.
      if (Datum.intValue() > Value::FixnumMax ||
          Datum.intValue() < Value::FixnumMin)
        return error(Datum.loc(),
                     "integer literal " + std::to_string(Datum.intValue()) +
                         " is outside the fixnum range [-2^47, 2^47)");
      return makeLitInt(A, Datum.intValue(), Datum.loc());
    case Sexp::Kind::Float:
      return makeLitFloat(A, Datum.floatValue(), Datum.loc());
    case Sexp::Kind::Bool:
      return makeLitBool(A, Datum.boolValue(), Datum.loc());
    case Sexp::Kind::Char: {
      Expr *E = makeExpr(A, ExprKind::LitChar, Datum.loc());
      E->CharVal = Datum.charValue();
      return E;
    }
    case Sexp::Kind::String:
      return error(Datum.loc(), "string literals are not GTLC+ expressions");
    case Sexp::Kind::Symbol: {
      if (Datum.symbolClass() == Sexp::Class::Keyword ||
          Datum.symbolClass() == Sexp::Class::Prim) {
        std::string Name(Datum.symbol());
        return error(Datum.loc(), "'" + Name + "' used as a variable");
      }
      Expr *E = makeExpr(A, ExprKind::Var, Datum.loc());
      E->Name = A.copy(Datum.symbol());
      return E;
    }
    case Sexp::Kind::List:
      if (Datum.isEmptyList())
        return makeLitUnit(A, Datum.loc());
      return parseForm(Datum);
    }
    return nullptr;
  }

  Expr *error(SourceLoc Loc, std::string Message) {
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
  Expr *parseAnnotated(const Sexp &List, size_t I, const Type *&Annot,
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
      return Param{A.copy(Datum.symbol()), nullptr, Datum.loc()};
    }
    // [x : T]
    if (Datum.isList() && Datum.size() == 3 && Datum[0].isSymbol() &&
        Datum[1].is(Keyword::Colon)) {
      const Type *T = parseTypeAt(Datum[2]);
      if (!T)
        return std::nullopt;
      return Param{A.copy(Datum[0].symbol()), T, Datum.loc()};
    }
    Diags.error(Datum.loc(), "malformed parameter, expected x or [x : T]");
    return std::nullopt;
  }

  /// Parses a body sequence starting at \p Start; wraps multiple
  /// expressions in an implicit begin.
  Expr *parseBody(const Sexp &List, size_t Start) {
    if (Start >= List.size())
      return error(List.loc(), "empty body");
    if (Start + 1 == List.size())
      return parse(List[Start]);
    return parseNode(List, Start, ExprKind::Begin);
  }

  /// Parses List[Start...] as the sub-expressions of a \p Kind node.
  Expr *parseNode(const Sexp &List, size_t Start, ExprKind Kind) {
    size_t Mark = SubScratch.size();
    for (size_t I = Start; I != List.size(); ++I) {
      Expr *Sub = parse(List[I]);
      if (!Sub)
        return nullptr;
      SubScratch.push_back(Sub);
    }
    Expr *E = makeExpr(A, Kind, List.loc());
    E->SubExprs = finish(SubScratch, Mark);
    return E;
  }

  Expr *makeIf(Expr *Cond, Expr *Then, Expr *Else, SourceLoc Loc) {
    return makeNode(ExprKind::If, {{Cond, Then, Else}}, Loc);
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
      D.Name = A.copy(Datum[1].symbol());
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
    D.Name = A.copy(Header[0].symbol());
    D.Body = parseLambdaRest(Datum, Header, 1);
    if (!D.Body)
      return std::nullopt;
    return D;
  }

  Expr *parseForm(const Sexp &Datum) {
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

  Expr *parseApp(const Sexp &Datum) {
    return parseNode(Datum, 0, ExprKind::App);
  }

  Expr *parsePrim(const Sexp &Datum, PrimOp Op) {
    unsigned Arity = primArity(Op);
    if (Datum.size() != Arity + 1)
      return error(Datum.loc(), std::string(primName(Op)) + " expects " +
                                    std::to_string(Arity) + " arguments, got " +
                                    std::to_string(Datum.size() - 1));
    Expr *Node = parseNode(Datum, 1, ExprKind::PrimApp);
    if (Node)
      Node->Prim = Op;
    return Node;
  }

  Expr *parseNary(const Sexp &Datum, ExprKind Kind, size_t Arity) {
    if (Datum.size() != Arity + 1)
      return error(Datum.loc(), "form expects " + std::to_string(Arity) +
                                    " sub-expressions");
    return parseNode(Datum, 1, Kind);
  }

  Expr *parseLambda(const Sexp &Datum) {
    if (Datum.size() < 3 || !Datum[1].isList())
      return error(Datum.loc(), "malformed lambda");
    return parseLambdaRest(Datum, Datum[1], 0);
  }

  /// A lambda with the parameters Params[First...] and the optional
  /// return annotation and body that follow Datum[1].
  Expr *parseLambdaRest(const Sexp &Datum, const Sexp &Params,
                        size_t First) {
    Expr *Lambda = makeExpr(A, ExprKind::Lambda, Datum.loc());
    size_t Mark = ParamScratch.size();
    for (size_t I = First; I != Params.size(); ++I) {
      std::optional<Param> Parsed = parseParam(Params[I]);
      if (!Parsed)
        return nullptr;
      ParamScratch.push_back(*Parsed);
    }
    Lambda->Params = finish(ParamScratch, Mark);
    size_t I = 2;
    bool Bad = false;
    Lambda->ReturnAnnot = parseOptionalAnnot(Datum, I, Bad);
    if (Bad)
      return nullptr;
    Expr *Body = parseBody(Datum, I);
    if (!Body)
      return nullptr;
    Lambda->SubExprs = A.copy<Expr *>({{Body}});
    return Lambda;
  }

  Expr *parseLet(const Sexp &Datum, bool IsRec) {
    if (Datum.size() < 3 || !Datum[1].isList())
      return error(Datum.loc(), "malformed let");
    Expr *Node =
        makeExpr(A, IsRec ? ExprKind::Letrec : ExprKind::Let, Datum.loc());
    size_t Mark = BindingScratch.size();
    for (const Sexp &BindDatum : Datum[1]) {
      if (!BindDatum.isList() || BindDatum.size() < 2 ||
          !BindDatum[0].isSymbol())
        return error(BindDatum.loc(), "malformed binding, expected [x (: T)? E]");
      Binding B;
      B.Name = A.copy(BindDatum[0].symbol());
      B.Loc = BindDatum.loc();
      B.Init = parseAnnotated(BindDatum, 1, B.Annot,
                              "binding takes exactly one initializer");
      if (!B.Init)
        return nullptr;
      BindingScratch.push_back(B);
    }
    Node->Bindings = finish(BindingScratch, Mark);
    Expr *Body = parseBody(Datum, 2);
    if (!Body)
      return nullptr;
    Node->SubExprs = A.copy<Expr *>({{Body}});
    return Node;
  }

  Expr *parseBegin(const Sexp &Datum) {
    if (Datum.size() < 2)
      return error(Datum.loc(), "begin needs at least one expression");
    return parseNode(Datum, 1, ExprKind::Begin);
  }

  Expr *parseRepeat(const Sexp &Datum) {
    // (repeat (x lo hi) [(acc (: T)? init)] body)
    if (Datum.size() < 3 || Datum.size() > 4 || !Datum[1].isList() ||
        Datum[1].size() != 3 || !Datum[1][0].isSymbol())
      return error(Datum.loc(), "malformed repeat, expected "
                                "(repeat (x lo hi) [(acc init)] body)");
    Expr *Node = makeExpr(A, ExprKind::Repeat, Datum.loc());
    Node->Name = A.copy(Datum[1][0].symbol());
    // Sub = [lo, hi, (accInit)?, body]
    Expr *Subs[4];
    Subs[0] = parse(Datum[1][1]);
    Subs[1] = parse(Datum[1][2]);
    if (!Subs[0] || !Subs[1])
      return nullptr;
    size_t BodyIndex = 2;
    if (Datum.size() == 4) {
      const Sexp &AccDatum = Datum[2];
      if (!AccDatum.isList() || AccDatum.size() < 2 || !AccDatum[0].isSymbol())
        return error(AccDatum.loc(), "malformed repeat accumulator");
      Node->HasAcc = true;
      Node->AccName = A.copy(AccDatum[0].symbol());
      Subs[2] = parseAnnotated(AccDatum, 1, Node->AccAnnot,
                               "repeat accumulator takes one initializer");
      if (!Subs[2])
        return nullptr;
      BodyIndex = 3;
    }
    Subs[BodyIndex] = parse(Datum[BodyIndex]);
    if (!Subs[BodyIndex])
      return nullptr;
    Node->SubExprs = A.copy<Expr *>(std::span(Subs, BodyIndex + 1));
    return Node;
  }

  Expr *parseTuple(const Sexp &Datum) {
    if (Datum.size() < 2)
      return error(Datum.loc(), "tuple needs at least one element");
    return parseNode(Datum, 1, ExprKind::Tuple);
  }

  Expr *parseTupleProj(const Sexp &Datum) {
    if (Datum.size() != 3 || Datum[2].kind() != Sexp::Kind::Int)
      return error(Datum.loc(), "expected (tuple-proj E i) with literal index");
    Expr *Target = parse(Datum[1]);
    if (!Target)
      return nullptr;
    int64_t Index = Datum[2].intValue();
    if (Index < 0)
      return error(Datum.loc(), "tuple index must be non-negative");
    Expr *Node = makeNode(ExprKind::TupleProj, {{Target}}, Datum.loc());
    Node->Index = static_cast<uint32_t>(Index);
    return Node;
  }

  Expr *parseAnn(const Sexp &Datum) {
    if (Datum.size() != 3)
      return error(Datum.loc(), "expected (ann E T)");
    Expr *Body = parse(Datum[1]);
    if (!Body)
      return nullptr;
    const Type *T = parseTypeAt(Datum[2]);
    if (!T)
      return nullptr;
    Expr *Node = makeNode(ExprKind::Ascribe, {{Body}}, Datum.loc());
    Node->Annot = T;
    return Node;
  }

  /// (and a b ...) => (if a (and b ...) #f); (or a b ...) dually.
  Expr *parseAndOr(const Sexp &Datum, bool IsAnd) {
    if (Datum.size() < 3)
      return error(Datum.loc(), "and/or need at least two operands");
    return buildAndOr(Datum, 1, IsAnd);
  }

  Expr *buildAndOr(const Sexp &Datum, size_t Index, bool IsAnd) {
    Expr *First = parse(Datum[Index]);
    if (!First)
      return nullptr;
    if (Index + 1 == Datum.size())
      return First;
    Expr *Rest = buildAndOr(Datum, Index + 1, IsAnd);
    if (!Rest)
      return nullptr;
    Expr *Short = makeLitBool(A, !IsAnd, Datum.loc());
    if (IsAnd)
      return makeIf(First, Rest, Short, Datum.loc());
    return makeIf(First, Short, Rest, Datum.loc());
  }

  /// (when c e...) => (if c (begin e...) ()); unless negates.
  Expr *parseWhen(const Sexp &Datum, bool Negate) {
    if (Datum.size() < 3)
      return error(Datum.loc(), "when/unless need a condition and a body");
    Expr *Cond = parse(Datum[1]);
    if (!Cond)
      return nullptr;
    Expr *Body = parseBody(Datum, 2);
    if (!Body)
      return nullptr;
    Expr *Unit = makeLitUnit(A, Datum.loc());
    if (Negate)
      return makeIf(Cond, Unit, Body, Datum.loc());
    return makeIf(Cond, Body, Unit, Datum.loc());
  }

  /// (cond [c e...] ... [else e...]) => nested ifs; a missing else arm
  /// defaults to ().
  Expr *parseCond(const Sexp &Datum) {
    if (Datum.size() < 2)
      return error(Datum.loc(), "cond needs at least one clause");
    return buildCond(Datum, 1);
  }

  Expr *buildCond(const Sexp &Datum, size_t Index) {
    if (Index == Datum.size())
      return makeLitUnit(A, Datum.loc());
    const Sexp &Clause = Datum[Index];
    if (!Clause.isList() || Clause.size() < 2)
      return error(Clause.loc(), "malformed cond clause");
    if (Clause[0].is(Keyword::Else)) {
      if (Index + 1 != Datum.size())
        return error(Clause.loc(), "else must be the last cond clause");
      return parseBody(Clause, 1);
    }
    Expr *Cond = parse(Clause[0]);
    if (!Cond)
      return nullptr;
    Expr *Then = parseBody(Clause, 1);
    if (!Then)
      return nullptr;
    Expr *Else = buildCond(Datum, Index + 1);
    if (!Else)
      return nullptr;
    return makeIf(Cond, Then, Else, Clause.loc());
  }
};

} // namespace

std::optional<Program> grift::parseProgram(TypeContext &Ctx,
                                           std::string_view Source,
                                           DiagnosticEngine &Diags) {
  SexpArena Data = readSexps(Source, Diags);
  if (Diags.hasErrors())
    return std::nullopt;
  Program Prog;
  if (!Parser(Ctx, Diags, Prog).parseProgram(Data))
    return std::nullopt;
  return Prog;
}
