#include "support/StringUtil.h"

#include <charconv>
#include <cmath>
#include <cstdio>

using namespace grift;

/// Skips a leading '+', which strtoll and strtod take and from_chars
/// does not, unless a second sign follows it.
static const char *skipPlus(std::string_view Text) {
  const char *First = Text.data();
  if (Text.size() > 1 && Text[0] == '+' && Text[1] != '-')
    ++First;
  return First;
}

bool grift::parseInt64(std::string_view Text, int64_t &Out) {
  const char *Last = Text.data() + Text.size();
  int64_t Value = 0;
  auto [End, Error] = std::from_chars(skipPlus(Text), Last, Value);
  if (Error != std::errc() || End != Last)
    return false;
  Out = Value;
  return true;
}

/// The decimal exponent of a decimal literal's leading significant digit
/// plus one: positive when its magnitude is at least 1.
static long decimalMagnitude(const char *P, const char *Last) {
  long Magnitude = 0;
  bool Significant = false, Point = false;
  for (P += *P == '-'; P != Last && *P != 'e' && *P != 'E'; ++P) {
    if (*P == '.') {
      Point = true;
    } else if (*P == '0' && !Significant) {
      Magnitude -= Point; // a zero between the point and the first digit
    } else {
      Significant = true;
      Magnitude += !Point;
    }
  }
  long Exponent = 0;
  bool Negative = P != Last && P + 1 != Last && P[1] == '-';
  for (P += P != Last; P != Last && Exponent < 100000; ++P)
    if (*P >= '0' && *P <= '9')
      Exponent = Exponent * 10 + (*P - '0');
  return Magnitude + (Negative ? -Exponent : Exponent);
}

bool grift::parseDouble(std::string_view Text, double &Out) {
  const char *First = skipPlus(Text), *Last = Text.data() + Text.size();
  double Value = 0;
  auto [End, Error] = std::from_chars(First, Last, Value);
  if (End != Last || First == Last)
    return false;
  if (Error == std::errc::result_out_of_range) {
    // Like strtod: an underflow rounds to a signed zero, an overflow fails.
    if (decimalMagnitude(First, Last) > 0)
      return false;
    Value = *First == '-' ? -0.0 : 0.0;
  } else if (Error != std::errc()) {
    return false;
  }
  Out = Value;
  return true;
}

std::string grift::formatDouble(double Value) {
  if (std::isnan(Value))
    return "+nan.0";
  if (std::isinf(Value))
    return Value > 0 ? "+inf.0" : "-inf.0";
  char Buf[64];
  // %.17g round-trips; try shorter representations first for readability.
  for (int Precision = 1; Precision <= 17; ++Precision) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Precision, Value);
    double Back = 0;
    if (parseDouble(Buf, Back) && Back == Value)
      break;
  }
  std::string Out(Buf);
  if (Out.find('.') == std::string::npos &&
      Out.find('e') == std::string::npos &&
      Out.find("inf") == std::string::npos &&
      Out.find("nan") == std::string::npos)
    Out += ".0";
  return Out;
}

std::string grift::join(const std::vector<std::string> &Parts,
                        std::string_view Sep) {
  std::string Out;
  for (size_t I = 0; I != Parts.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

uint64_t grift::hashBytes(const void *Data, size_t Size, uint64_t Seed) {
  const unsigned char *Bytes = static_cast<const unsigned char *>(Data);
  uint64_t Hash = Seed;
  for (size_t I = 0; I != Size; ++I) {
    Hash ^= Bytes[I];
    Hash *= 1099511628211ULL;
  }
  return Hash;
}
