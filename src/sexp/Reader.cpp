#include "sexp/Reader.h"

#include "support/StringUtil.h"

#include <array>

using namespace grift;

namespace {

/// Per byte: 2 for whitespace, 1 for the other bytes that end an atom.
constexpr auto CharClass = [] {
  std::array<uint8_t, 256> Class{};
  for (uint8_t C : std::string_view(" \t\n\v\f\r"))
    Class[C] = 2;
  for (uint8_t C : std::string_view("()[]\";"))
    Class[C] = 1;
  return Class;
}();

bool isSpace(char C) { return CharClass[static_cast<uint8_t>(C)] == 2; }
bool isDelimiter(char C) { return CharClass[static_cast<uint8_t>(C)] != 0; }

/// The class of every keyword, primitive and type name, open-addressed;
/// the empty slot a probe ends on answers Plain for any other name.
struct SymbolTable {
  struct Entry {
    std::string_view Name;
    Sexp::Class Class = Sexp::Class::Plain;
    uint8_t Id = 0;
  } Slots[256];

  /// The slot of \p Name, or the empty slot it would take.
  const Entry &find(std::string_view Name) const {
    uint32_t Hash = 2166136261u; // FNV-1a
    for (char C : Name)
      Hash = (Hash ^ static_cast<uint8_t>(C)) * 16777619u;
    size_t I = Hash % 256;
    while (!Slots[I].Name.empty() && Slots[I].Name != Name)
      I = (I + 1) % 256;
    return Slots[I];
  }

  void add(std::string_view Name, Sexp::Class Class, uint8_t Id) {
    Entry &Slot = Slots[&find(Name) - Slots];
    assert(Slot.Name.empty() && "name classified twice");
    Slot = {Name, Class, Id};
  }
};

const SymbolTable &symbolTable() {
  static const SymbolTable Table = [] {
    SymbolTable T;
    using C = Sexp::Class;
#define GRIFT_ADD(ID, NAME) T.add(NAME, C::Keyword, uint8_t(Keyword::ID));
    GRIFT_KEYWORDS(GRIFT_ADD)
#undef GRIFT_ADD
#define GRIFT_ADD(ID, NAME) T.add(NAME, C::TypeName, uint8_t(TypeName::ID));
    GRIFT_TYPE_NAMES(GRIFT_ADD)
#undef GRIFT_ADD
    uint8_t Prim = 0; // in PrimOp order: both follow Prims.def
#define GRIFT_PRIM(ID, NAME, SIG) T.add(NAME, C::Prim, Prim++);
#include "ast/Prims.def"
#undef GRIFT_PRIM
    return T;
  }();
  return Table;
}

/// The literal an atom spells (see Reader.h): Int, Float, or a Symbol
/// for anything else, hex and `inf` included.
Sexp::Kind literalKind(std::string_view Text) {
  using K = Sexp::Kind;
  size_t I = Text[0] == '+' || Text[0] == '-';
  auto Digits = [&] { // skips a run of decimal digits; returns its length
    size_t Start = I;
    while (I < Text.size() && Text[I] >= '0' && Text[I] <= '9')
      ++I;
    return I - Start;
  };
  size_t Whole = Digits();
  if (I == Text.size())
    return Whole ? K::Int : K::Symbol;
  size_t Fraction = Text[I] == '.' ? (++I, Digits()) : 0;
  if (Whole + Fraction == 0)
    return K::Symbol;
  if (I < Text.size() && (Text[I] == 'e' || Text[I] == 'E')) {
    ++I;
    I += I < Text.size() && (Text[I] == '+' || Text[I] == '-');
    if (Digits() == 0)
      return K::Symbol;
  }
  return I == Text.size() ? K::Float : K::Symbol;
}

} // namespace

namespace grift {

/// Recursive-descent s-expression reader over a text buffer. A list's
/// elements gather on Stack and move to the arena as one span when the
/// list closes; the top-level data move last, and then every list's
/// index becomes a pointer.
class SexpReader {
public:
  SexpReader(std::string_view Source, DiagnosticEngine &Diags)
      : Source(Source), Diags(Diags) {
    Out.Nodes.reserve(Source.size() / 4);
  }

  SexpArena readAll() {
    for (;;) {
      skipTrivia();
      if (atEnd())
        break;
      Sexp Datum = readDatum();
      if (Failed)
        break;
      Stack.push_back(Datum);
    }
    Out.Roots = Stack.size();
    Out.Nodes.insert(Out.Nodes.end(), Stack.begin(), Stack.end());
    for (Sexp &Node : Out.Nodes)
      if (Node.isList())
        Node.Kids = Out.Nodes.data() + Node.First;
    return std::move(Out);
  }

private:
  std::string_view Source;
  DiagnosticEngine &Diags;
  SexpArena Out;
  std::vector<Sexp> Stack;
  size_t Pos = 0;
  size_t LineStart = 0;
  uint32_t Line = 1;
  bool Failed = false;

  bool atEnd() const { return Pos >= Source.size(); }
  char peek() const { return Source[Pos]; }

  char advance() {
    char C = Source[Pos++];
    if (C == '\n') {
      ++Line;
      LineStart = Pos;
    }
    return C;
  }

  SourceLoc here() const {
    return SourceLoc(Line, static_cast<uint32_t>(Pos - LineStart + 1));
  }

  void fail(SourceLoc Loc, std::string Message) {
    if (!Failed)
      Diags.error(Loc, std::move(Message));
    Failed = true;
  }

  static Sexp make(Sexp::Kind Kind, SourceLoc Loc, int64_t Value = 0) {
    Sexp S;
    S.TheKind = Kind;
    S.Loc = Loc;
    S.IntVal = Value;
    return S;
  }

  void skipTrivia() {
    while (!atEnd()) {
      char C = peek();
      if (isSpace(C)) {
        advance();
      } else if (C == ';') {
        while (!atEnd() && peek() != '\n')
          ++Pos;
      } else if (C == '#' && Pos + 1 < Source.size() &&
                 Source[Pos + 1] == '|') {
        SourceLoc Start = here();
        Pos += 2;
        int Depth = 1;
        while (!atEnd() && Depth != 0) {
          char D = advance();
          if ((D == '#' || D == '|') && !atEnd() &&
              peek() == (D == '#' ? '|' : '#')) {
            ++Pos;
            Depth += D == '#' ? 1 : -1;
          }
        }
        if (Depth != 0)
          fail(Start, "unterminated block comment");
      } else {
        return;
      }
    }
  }

  Sexp readDatum() {
    SourceLoc Loc = here();
    char C = peek();
    if (C == '(' || C == '[')
      return readList(C == '(' ? ')' : ']');
    if (C == ')' || C == ']') {
      fail(Loc, "unexpected closing parenthesis");
      ++Pos;
      return make(Sexp::Kind::List, Loc);
    }
    if (C == '"')
      return readString();
    if (C == '#')
      return readHash();
    return readAtom();
  }

  Sexp readList(char Close) {
    Sexp List = make(Sexp::Kind::List, here());
    ++Pos; // consume the opener
    size_t Mark = Stack.size();
    for (;;) {
      skipTrivia();
      if (atEnd()) {
        fail(List.Loc, "unterminated list");
        break;
      }
      char C = peek();
      if (C == ')' || C == ']') {
        if (C != Close)
          fail(here(), "mismatched closing parenthesis");
        ++Pos;
        break;
      }
      Sexp Datum = readDatum();
      if (Failed)
        break;
      Stack.push_back(Datum);
    }
    List.Len = static_cast<uint32_t>(Stack.size() - Mark);
    List.First = Out.Nodes.size();
    Out.Nodes.insert(Out.Nodes.end(), Stack.begin() + Mark, Stack.end());
    Stack.resize(Mark);
    return List;
  }

  Sexp readString() {
    Sexp S = make(Sexp::Kind::String, here());
    ++Pos; // consume the quote
    std::string &Text = Out.Strings.emplace_front();
    for (;;) {
      if (atEnd()) {
        fail(S.Loc, "unterminated string literal");
        break;
      }
      char C = advance();
      if (C == '"')
        break;
      if (C != '\\') {
        Text += C;
      } else if (atEnd()) {
        fail(S.Loc, "unterminated string escape");
        break;
      } else if (char E = advance(); E == 'n' || E == 't') {
        Text += E == 'n' ? '\n' : '\t';
      } else if (E == '\\' || E == '"') {
        Text += E;
      } else {
        fail(S.Loc, std::string("unknown string escape '\\") + E + "'");
      }
    }
    S.Text = Text.data();
    S.Len = static_cast<uint32_t>(Text.size());
    return S;
  }

  Sexp readHash() {
    SourceLoc Loc = here();
    ++Pos; // consume '#'
    if (atEnd()) {
      fail(Loc, "dangling '#'");
      return make(Sexp::Kind::List, Loc);
    }
    char C = advance();
    if (C == 't' || C == 'f') {
      if (!atEnd() && !isDelimiter(peek()))
        fail(Loc, "junk after boolean literal");
      return make(Sexp::Kind::Bool, Loc, C == 't');
    }
    if (C != '\\') {
      fail(Loc, std::string("unknown '#' syntax '#") + C + "'");
      return make(Sexp::Kind::List, Loc);
    }
    if (atEnd()) {
      fail(Loc, "dangling character literal");
      return make(Sexp::Kind::Char, Loc, '?');
    }
    size_t Start = Pos;
    advance();
    while (!atEnd() && !isDelimiter(peek()))
      ++Pos;
    std::string_view Name = Source.substr(Start, Pos - Start);
    if (Name.size() == 1)
      return make(Sexp::Kind::Char, Loc, static_cast<unsigned char>(Name[0]));
    static constexpr std::pair<std::string_view, char> Named[] = {
        {"newline", '\n'}, {"space", ' '}, {"tab", '\t'}, {"nul", '\0'}};
    for (auto [Spelling, Char] : Named)
      if (Name == Spelling)
        return make(Sexp::Kind::Char, Loc, Char);
    fail(Loc, "unknown character name '#\\" + std::string(Name) + "'");
    return make(Sexp::Kind::Char, Loc, '?');
  }

  Sexp readAtom() {
    Sexp S = make(Sexp::Kind::Symbol, here());
    size_t Start = Pos;
    while (!atEnd() && !isDelimiter(peek()))
      ++Pos;
    std::string_view Text = Source.substr(Start, Pos - Start);
    S.TheKind = literalKind(Text);
    if (S.TheKind == Sexp::Kind::Int && !parseInt64(Text, S.IntVal))
      fail(S.Loc, "integer literal " + std::string(Text) +
                      " is outside the fixnum range [-2^47, 2^47)");
    if (S.TheKind == Sexp::Kind::Float && !parseDouble(Text, S.FloatVal))
      fail(S.Loc, "float literal " + std::string(Text) +
                      " is outside the Float range");
    if (S.TheKind != Sexp::Kind::Symbol)
      return S;
    const SymbolTable::Entry &Class = symbolTable().find(Text);
    S.TheClass = Class.Class;
    S.Id = Class.Id;
    S.Text = Text.data();
    S.Len = static_cast<uint32_t>(Text.size());
    return S;
  }
};

} // namespace grift

SexpArena grift::readSexps(std::string_view Source, DiagnosticEngine &Diags) {
  return SexpReader(Source, Diags).readAll();
}
