#include "src/util/units.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/util/error.h"

namespace ape::units {
namespace {

bool iequal_prefix(std::string_view text, std::string_view word) {
  if (text.size() < word.size()) return false;
  for (size_t i = 0; i < word.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(text[i])) !=
        std::tolower(static_cast<unsigned char>(word[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<double> parse(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  if (text.empty()) return std::nullopt;

  // strtod needs a terminated string: copy the token to the stack (the
  // heap only for a token longer than any SPICE number).
  char stack[64];
  std::string heap;
  const char* buf = stack;
  if (text.size() < sizeof stack) {
    std::memcpy(stack, text.data(), text.size());
    stack[text.size()] = '\0';
  } else {
    heap.assign(text);
    buf = heap.c_str();
  }
  char* end = nullptr;
  const double mantissa = std::strtod(buf, &end);
  if (end == buf) return std::nullopt;

  std::string_view rest(end);
  double scale = 1.0;
  if (!rest.empty()) {
    // Order matters: "meg" and "mil" must be tested before 'm'.
    if (iequal_prefix(rest, "meg")) {
      scale = 1e6;
    } else if (iequal_prefix(rest, "mil")) {
      scale = 25.4e-6;
    } else {
      switch (std::tolower(static_cast<unsigned char>(rest.front()))) {
        case 't': scale = 1e12; break;
        case 'g': scale = 1e9; break;
        case 'k': scale = 1e3; break;
        case 'm': scale = 1e-3; break;
        case 'u': scale = 1e-6; break;
        case 'n': scale = 1e-9; break;
        case 'p': scale = 1e-12; break;
        case 'f': scale = 1e-15; break;
        default:
          // Unknown suffix: accept only if it is purely alphabetic (a unit
          // name such as "V" or "Hz"); otherwise malformed.
          break;
      }
    }
    for (char c : rest) {
      if (!std::isalpha(static_cast<unsigned char>(c))) return std::nullopt;
    }
  }
  return mantissa * scale;
}

double parse_or_throw(std::string_view text, std::string_view context) {
  if (auto v = parse(text)) return *v;
  throw ParseError("cannot parse number '" + std::string(text) + "' in " +
                   std::string(context));
}

std::string format_eng(double value, int digits) {
  if (value == 0.0 || !std::isfinite(value)) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*g", digits, value);
    return buf;
  }
  static constexpr struct { double scale; const char* suffix; } kPrefixes[] = {
      {1e12, "T"}, {1e9, "G"}, {1e6, "Meg"}, {1e3, "k"}, {1.0, ""},
      {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
  };
  const double mag = std::fabs(value);
  for (const auto& p : kPrefixes) {
    if (mag >= p.scale * 0.99999999) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.*g%s", digits, value / p.scale,
                    p.suffix);
      return buf;
    }
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, value);
  return buf;
}

}  // namespace ape::units
