#include "sexp/Sexp.h"

#include "support/StringUtil.h"

using namespace grift;

std::string Sexp::str() const {
  switch (TheKind) {
  case Kind::Symbol:
    return std::string(symbol());
  case Kind::Int:
    return std::to_string(IntVal);
  case Kind::Float:
    return formatDouble(FloatVal);
  case Kind::Bool:
    return IntVal ? "#t" : "#f";
  case Kind::Char: {
    char C = static_cast<char>(IntVal);
    if (C == '\n')
      return "#\\newline";
    if (C == ' ')
      return "#\\space";
    if (C == '\t')
      return "#\\tab";
    return std::string("#\\") + C;
  }
  case Kind::String: {
    std::string Out = "\"";
    for (char C : string()) {
      if (C == '"' || C == '\\')
        Out += '\\';
      Out += C;
    }
    Out += '"';
    return Out;
  }
  case Kind::List: {
    std::string Out = "(";
    for (const Sexp &Element : *this) {
      if (&Element != begin())
        Out += ' ';
      Out += Element.str();
    }
    Out += ')';
    return Out;
  }
  }
  return "<?>";
}
