// Minimal JSON value model, streaming writer, and parser — enough for HAR
// files.
//
// Supports the JSON subset HAR 1.2 uses: objects, arrays, strings (with
// escape handling), doubles/integers, booleans, null. JsonWriter owns every
// byte rule of the printed form; Json::dump walks its DOM through it, and
// web::write_har prints a page load through it with no DOM at all.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/result.h"

namespace origin::util {

// Saturating double → int64 conversion; the raw static_cast is UB when the
// value is out of range (fuzzed documents carry 1e308 and NaN).
std::int64_t clamp_to_int64(double d);

// Streaming JSON printer over a byte sink: anything with
// `append(std::string_view)` and `push_back(char)`. std::string prints;
// util::Fnv1a64 hashes the same bytes without holding them. The writer owns
// the indent and separator layout, string escapes, int64 decimals and
// `%.15g` doubles (std::to_chars general/15 is that format by definition),
// and allocates nothing beyond what the sink does.
//
// Members print in the order the caller emits them. Json::dump walks a
// std::map, so a hand-written document that must match a dumped DOM byte
// for byte has to emit its keys in byte order.
template <typename Sink>
class JsonWriter {
 public:
  // `indent` > 0 pretty-prints with that many spaces per level.
  explicit JsonWriter(Sink& sink, int indent = 0)
      : sink_(sink), indent_(indent) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  // Starts an object member; the next value or begin_* call is its value.
  void key(std::string_view name) {
    element();
    put_string(name);
    sink_.push_back(':');
    if (indent_ > 0) sink_.push_back(' ');
    after_key_ = true;
  }

  void null() {
    element();
    sink_.append("null");
  }
  void value(bool b) {
    element();
    sink_.append(b ? "true" : "false");
  }
  void value(std::int64_t i) {
    element();
    char buf[24];
    const auto end = std::to_chars(buf, buf + sizeof(buf), i).ptr;
    sink_.append(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  }
  void value(double d) {
    if (!std::isfinite(d)) return null();  // JSON has no Inf/NaN
    element();
    char buf[32];
    const auto end =
        std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general, 15)
            .ptr;
    sink_.append(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  }
  void value(std::string_view s) {
    element();
    put_string(s);
  }
  // A string literal would otherwise pick value(bool), a standard
  // conversion that outranks the one to std::string_view.
  void value(const char* s) { value(std::string_view(s)); }
  // One string value printed from consecutive pieces (a URL from scheme,
  // host and path) without joining them first.
  void value_parts(std::initializer_list<std::string_view> parts) {
    element();
    sink_.push_back('"');
    for (std::string_view part : parts) put_escaped(part);
    sink_.push_back('"');
  }

  template <typename T>
  void field(std::string_view name, const T& v) {
    key(name);
    value(v);
  }

 private:
  // Separator and line break before an array element or object member; a
  // member's value follows its key directly.
  void element() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (depth_ == 0) return;
    if (!empty_) sink_.push_back(',');
    empty_ = false;
    newline(depth_);
  }
  void open(char bracket) {
    element();
    sink_.push_back(bracket);
    ++depth_;
    empty_ = true;
  }
  // Empty containers print as `{}` / `[]`; the enclosing container is
  // non-empty from here on, whatever this one held.
  void close(char bracket) {
    --depth_;
    if (!empty_) newline(depth_);
    sink_.push_back(bracket);
    empty_ = false;
  }
  void newline(int depth) {
    if (indent_ <= 0) return;
    static constexpr std::string_view kSpaces =
        "                                                                ";
    sink_.push_back('\n');
    for (std::size_t n = static_cast<std::size_t>(indent_) *
                         static_cast<std::size_t>(depth);
         n > 0;) {
      const std::size_t chunk = n < kSpaces.size() ? n : kSpaces.size();
      sink_.append(kSpaces.substr(0, chunk));
      n -= chunk;
    }
  }
  void put_string(std::string_view s) {
    sink_.push_back('"');
    put_escaped(s);
    sink_.push_back('"');
  }
  // Copies runs of plain bytes in one append; escapes `"`, `\` and
  // control bytes (named escapes where JSON has them, else \u00XX).
  void put_escaped(std::string_view s) {
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto c = static_cast<unsigned char>(s[i]);
      if (c >= 0x20 && c != '"' && c != '\\') continue;
      sink_.append(s.substr(run, i - run));
      run = i + 1;
      switch (c) {
        case '"': sink_.append("\\\""); break;
        case '\\': sink_.append("\\\\"); break;
        case '\n': sink_.append("\\n"); break;
        case '\r': sink_.append("\\r"); break;
        case '\t': sink_.append("\\t"); break;
        case '\b': sink_.append("\\b"); break;
        case '\f': sink_.append("\\f"); break;
        default: {
          static constexpr char kHex[] = "0123456789abcdef";
          const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
          sink_.append(std::string_view(code, sizeof(code)));
        }
      }
    }
    sink_.append(s.substr(run));
  }

  Sink& sink_;
  int indent_;
  int depth_ = 0;
  bool empty_ = true;       // the innermost open container has no element yet
  bool after_key_ = false;  // a key was written; its value comes next
};

class Json {
 public:
  using Array = std::vector<Json>;
  // std::map keeps key order deterministic (alphabetical) for stable
  // golden-file comparisons.
  using Object = std::map<std::string, Json>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}          // NOLINT
  Json(bool b) : value_(b) {}                        // NOLINT
  Json(double d) : value_(d) {}                      // NOLINT
  Json(std::int64_t i) : value_(i) {}                // NOLINT
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}  // NOLINT
  Json(std::uint64_t u) : value_(static_cast<std::int64_t>(u)) {}  // NOLINT
  Json(const char* s) : value_(std::string(s)) {}    // NOLINT
  Json(std::string s) : value_(std::move(s)) {}      // NOLINT
  Json(Array a) : value_(std::move(a)) {}            // NOLINT
  Json(Object o) : value_(std::move(o)) {}           // NOLINT

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const {
    return std::holds_alternative<double>(value_) ||
           std::holds_alternative<std::int64_t>(value_);
  }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  bool as_bool() const { return std::get<bool>(value_); }
  double as_double() const {
    if (const auto* i = std::get_if<std::int64_t>(&value_)) {
      return static_cast<double>(*i);
    }
    return std::get<double>(value_);
  }
  std::int64_t as_int() const;
  const std::string& as_string() const { return std::get<std::string>(value_); }

  // Total accessors: wrong-typed or missing values yield the fallback
  // instead of throwing, so readers of externally-produced documents
  // (HAR imports) stay crash-free on arbitrary shapes.
  bool bool_or(bool fallback) const {
    return is_bool() ? as_bool() : fallback;
  }
  double double_or(double fallback) const {
    return is_number() ? as_double() : fallback;
  }
  std::int64_t int_or(std::int64_t fallback) const {
    return is_number() ? as_int() : fallback;
  }
  std::string string_or(std::string fallback) const {
    return is_string() ? as_string() : std::move(fallback);
  }
  const Array& as_array() const { return std::get<Array>(value_); }
  Array& as_array() { return std::get<Array>(value_); }
  const Object& as_object() const { return std::get<Object>(value_); }
  Object& as_object() { return std::get<Object>(value_); }

  // Object member access; returns a shared null for missing keys.
  const Json& operator[](const std::string& key) const;
  Json& operator[](const std::string& key) {
    return std::get<Object>(value_)[key];
  }
  bool contains(const std::string& key) const {
    return is_object() && as_object().count(key) > 0;
  }

  // Serializes compactly; `indent` > 0 pretty-prints.
  std::string dump(int indent = 0) const;

  // Rejects documents nested deeper than this (stack-overflow guard; HAR
  // files are ~4 levels deep, so the bound is generous).
  static constexpr int kMaxParseDepth = 96;

  [[nodiscard]] static Result<Json> parse(std::string_view text);

 private:
  void write(JsonWriter<std::string>& writer) const;

  std::variant<std::nullptr_t, bool, double, std::int64_t, std::string, Array,
               Object>
      value_;
};

}  // namespace origin::util
