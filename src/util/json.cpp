#include "src/util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "src/util/error.h"

namespace ape::json {
namespace {

[[noreturn]] void fail(size_t pos, const std::string& what) {
  throw ParseError("json: " + what + " at byte " + std::to_string(pos));
}

/// Recursive-descent parser over the whole document string.
class Parser {
public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value document() {
    Value v = value();
    skip_ws();
    if (pos_ != s_.size()) fail(pos_, "trailing garbage");
    return v;
  }

private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail(pos_, "unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(pos_, std::string("expected '") + c + "', got '" + peek() + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        Value v;
        v.kind = Value::Kind::String;
        v.str = string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail(pos_, "bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail(pos_, "bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail(pos_, "bad literal");
        return Value{};
      default: return number();
    }
  }

  static Value make_bool(bool b) {
    Value v;
    v.kind = Value::Kind::Bool;
    v.boolean = b;
    return v;
  }

  Value object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail(pos_, "unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail(pos_, "unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail(pos_, "truncated \\u escape");
          const std::string hex = s_.substr(pos_, 4);
          pos_ += 4;
          const long cp = std::strtol(hex.c_str(), nullptr, 16);
          // Checkpoints only escape control bytes; anything else would
          // need full UTF-16 handling this reader does not promise.
          if (cp < 0 || cp > 0x7f) fail(pos_, "non-ASCII \\u escape");
          out += static_cast<char>(cp);
          break;
        }
        default: fail(pos_ - 1, "bad escape");
      }
    }
  }

  Value number() {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail(pos_, "expected a value");
    const std::string tok = s_.substr(start, pos_ - start);
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') fail(start, "bad number '" + tok + "'");
    Value v;
    v.kind = Value::Kind::Number;
    v.number = d;
    return v;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool Value::as_bool() const {
  if (kind != Kind::Bool) throw ParseError("json: expected a bool");
  return boolean;
}

double Value::as_number() const {
  if (kind != Kind::Number) throw ParseError("json: expected a number");
  return number;
}

long Value::as_long() const {
  const double d = as_number();
  // long holds [-2^63, 2^63); both bounds are exact doubles.
  constexpr double kBound = -static_cast<double>(std::numeric_limits<long>::min());
  if (!(d >= -kBound && d < kBound) || d != std::trunc(d)) {
    throw ParseError("json: expected an integer in the range of long");
  }
  return static_cast<long>(d);
}

const std::string& Value::as_string() const {
  if (kind != Kind::String) throw ParseError("json: expected a string");
  return str;
}

double Value::as_hex_double() const { return parse_hex_double(as_string()); }

Value parse(const std::string& text) { return Parser(text).document(); }

Writer& Writer::token(std::string_view text) {
  if (need_comma_) out_ += ',';
  out_ += text;
  need_comma_ = true;
  return *this;
}

Writer& Writer::open(char bracket) {
  token(std::string_view(&bracket, 1));
  need_comma_ = false;
  return *this;
}

Writer& Writer::close(char bracket) {
  out_ += bracket;
  need_comma_ = true;
  return *this;
}

Writer& Writer::key(std::string_view k) {
  value(k);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

Writer& Writer::value(double v) {
  if (!std::isfinite(v)) return token("null");
  // The digits of "%.17g", without printf's format parsing and locale.
  char buf[32];
  const char* end =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17)
          .ptr;
  return token(std::string_view(buf, static_cast<size_t>(end - buf)));
}

Writer& Writer::value(bool v) { return token(v ? "true" : "false"); }

Writer& Writer::value(std::string_view s) {
  token("\"");
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
  return *this;
}

std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

double parse_hex_double(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || end == s.c_str() || *end != '\0') {
    throw ParseError("json: bad hex-float '" + s + "'");
  }
  return v;
}

}  // namespace ape::json
