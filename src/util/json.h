#pragma once
/// \file json.h
/// Minimal JSON reader and writer: the one place JSON syntax is parsed or
/// produced (DESIGN.md section 7, "JSON output").
///
/// Reading: parse a complete document into a Value tree (objects,
/// arrays, strings, numbers, bools, null). Malformed input throws
/// ape::ParseError with the offending byte offset.
///
/// Writing: json::Writer appends one compact document to a string. It
/// owns the commas, the nesting, string escaping and the number rule:
/// doubles print as "%.17g", which round-trips bit-exactly through
/// parse(); integers print exactly; non-finite doubles print as null.
/// A struct serialized in more than one place has one
/// `void to_json(json::Writer&) const` writing its members into the open
/// object. The checkpoint stores doubles as hex-float strings instead.

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ape::json {

/// One parsed JSON value. A tagged struct rather than a variant: the
/// readers walk a handful of small documents, so simplicity beats
/// compactness.
struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> items;                          ///< Kind::Array
  std::vector<std::pair<std::string, Value>> members; ///< Kind::Object

  /// Member lookup on an object (nullptr when absent or not an object).
  const Value* find(const std::string& key) const;

  /// Typed accessors; each throws ape::ParseError on a kind mismatch so
  /// a malformed document fails loudly instead of defaulting silently.
  bool as_bool() const;
  double as_number() const;
  /// The number as a long; throws unless it is finite, integral and in
  /// the range of long (casting any other double is undefined).
  long as_long() const;
  const std::string& as_string() const;

  /// as_string() parsed as a hex-float (see file comment).
  double as_hex_double() const;
};

/// Deepest object / array nesting parse() accepts. The readers' own
/// documents nest a few levels; a frame of a million '[' would otherwise
/// overflow the stack of whoever parses it (ape_serve, the checkpoint
/// reader).
constexpr int kMaxDepth = 256;

/// Parse one complete JSON document (trailing whitespace allowed,
/// trailing garbage is an error). Throws ape::ParseError, naming the
/// byte, on malformed input or nesting deeper than kMaxDepth.
Value parse(const std::string& text);

/// Builds one compact JSON document; calls chain:
///
///   json::Writer w;
///   w.begin_object().field("id", id).field("ok", true);
///   w.field("kernel", stats.kernel);  // "kernel":{...KernelStats...}
///   w.end_object();
///   send(w.str());
class Writer {
public:
  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }
  /// Object key; the next value is its value.
  Writer& key(std::string_view k);

  Writer& value(double v);  ///< "%.17g"; NaN and +-inf become null
  Writer& value(bool v);
  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  template <std::integral T>
  Writer& value(T v) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    return token(std::string_view(buf, static_cast<size_t>(end - buf)));
  }
  /// A struct's `to_json(Writer&) const` members, wrapped in braces.
  template <class T>
    requires requires(const T& t, Writer& w) { t.to_json(w); }
  Writer& value(const T& v) {
    begin_object();
    v.to_json(*this);
    return end_object();
  }
  template <class T>
  Writer& value(const std::vector<T>& items) {
    begin_array();
    for (const T& item : items) value(item);
    return end_array();
  }
  template <class A, class B>
  Writer& value(const std::pair<A, B>& p) {
    return begin_array().value(p.first).value(p.second).end_array();
  }

  /// key(k).value(v)
  template <class T>
  Writer& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  const std::string& str() const { return out_; }

private:
  Writer& open(char bracket);
  Writer& close(char bracket);
  /// Append \p text after the comma a preceding element needs.
  Writer& token(std::string_view text);

  std::string out_;
  bool need_comma_ = false;
};

/// \p v rendered as one JSON document.
template <class T>
std::string dump(const T& v) {
  Writer w;
  w.value(v);
  return w.str();
}

/// Lossless hex-float formatting ("%a") for bit-exact round-trips.
std::string hex_double(double v);

/// Inverse of hex_double (accepts any strtod-parsable spelling).
double parse_hex_double(const std::string& s);

}  // namespace ape::json
