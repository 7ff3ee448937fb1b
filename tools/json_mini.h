// Minimal recursive-descent JSON parser for the repo's own tooling.
//
// Parses the full JSON grammar (objects, arrays, strings with the common
// escapes, numbers, booleans, null) into a plain value tree; object key
// order is preserved. No external dependencies — this is what lets the
// tools/ binaries read servescope-telemetry-v1 files without a JSON library
// in the container. Not a validator of everything (e.g. \uXXXX escapes are
// passed through verbatim), but strict enough to reject malformed input
// with a useful message. Input may be untrusted: nesting deeper than
// kMaxDepth is a parse error (not a stack overflow), and numbers must match
// the JSON grammar (no nan, inf, hex or leading '+', which strtod accepts).
#pragma once

#include <cctype>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jsonmini {

/// Deepest array/object nesting the parser accepts.
inline constexpr int kMaxDepth = 256;

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  ///< insertion order

  [[nodiscard]] bool is_object() const noexcept { return type == Type::kObject; }
  [[nodiscard]] bool is_array() const noexcept { return type == Type::kArray; }
  [[nodiscard]] bool is_number() const noexcept { return type == Type::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return type == Type::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept {
    if (type != Type::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// Convenience accessors with defaults.
  [[nodiscard]] double num_or(std::string_view key, double dflt) const noexcept {
    const Value* v = find(key);
    return v != nullptr && v->is_number() ? v->number : dflt;
  }
  [[nodiscard]] std::string str_or(std::string_view key, std::string dflt) const {
    const Value* v = find(key);
    return v != nullptr && v->is_string() ? v->str : dflt;
  }
};

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  /// Parses one JSON document; std::nullopt on malformed input (error() then
  /// describes the failure and its byte offset).
  std::optional<Value> parse() {
    Value v;
    if (!parse_value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing garbage after document");
      return std::nullopt;
    }
    return v;
  }

  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  void fail(const std::string& what) {
    if (error_.empty()) error_ = what + " at byte " + std::to_string(pos_);
  }

  bool expect(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    fail(std::string("expected '") + c + "'");
    return false;
  }

  bool parse_string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case '"': case '\\': case '/': out.push_back(esc); break;
          case 'u':  // passed through verbatim; the tools never need it
            out.push_back('\\');
            out.push_back('u');
            break;
          default:
            fail("bad escape");
            return false;
        }
      } else {
        out.push_back(c);
      }
    }
    fail("unterminated string");
    return false;
  }

  bool parse_value(Value& out) {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return false;
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      // Recursion is bounded so hostile nesting fails instead of
      // overflowing the stack.
      if (depth_ >= kMaxDepth) {
        fail("nesting deeper than " + std::to_string(kMaxDepth));
        return false;
      }
      ++depth_;
      const bool ok = c == '{' ? parse_object(out) : parse_array(out);
      --depth_;
      return ok;
    }
    if (c == '"') {
      out.type = Value::Type::kString;
      return parse_string(out.str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out.type = Value::Type::kBool;
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.type = Value::Type::kBool;
      out.boolean = false;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out.type = Value::Type::kNull;
      pos_ += 4;
      return true;
    }
    const std::size_t len = number_length();
    if (len == 0) {
      fail("expected a JSON value");
      return false;
    }
    // strtod needs a terminated buffer; the token is known to be a valid
    // JSON number, so it converts in full.
    out.type = Value::Type::kNumber;
    out.number = std::strtod(std::string(text_.substr(pos_, len)).c_str(), nullptr);
    pos_ += len;
    return true;
  }

  /// Length of the JSON number token at pos_ (0 if there is none):
  /// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  [[nodiscard]] std::size_t number_length() const noexcept {
    std::size_t i = pos_;
    const auto digit = [this](std::size_t at) {
      return at < text_.size() && text_[at] >= '0' && text_[at] <= '9';
    };
    const auto digits = [&](std::size_t at) {
      while (digit(at)) ++at;
      return at;
    };
    if (i < text_.size() && text_[i] == '-') ++i;
    if (!digit(i)) return 0;
    i = text_[i] == '0' ? i + 1 : digits(i);
    if (i < text_.size() && text_[i] == '.') {
      if (!digit(i + 1)) return 0;
      i = digits(i + 1);
    }
    if (i < text_.size() && (text_[i] == 'e' || text_[i] == 'E')) {
      std::size_t e = i + 1;
      if (e < text_.size() && (text_[e] == '+' || text_[e] == '-')) ++e;
      if (!digit(e)) return 0;
      i = digits(e);
    }
    return i - pos_;
  }

  bool parse_array(Value& out) {
    out.type = Value::Type::kArray;
    if (!expect('[')) return false;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      Value item;
      if (!parse_value(item)) return false;
      out.array.push_back(std::move(item));
      skip_ws();
      if (pos_ >= text_.size()) {
        fail("unterminated array");
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return expect(']');
    }
  }

  bool parse_object(Value& out) {
    out.type = Value::Type::kObject;
    if (!expect('{')) return false;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      Value item;
      if (!parse_value(item)) return false;
      out.object.emplace_back(std::move(key), std::move(item));
      skip_ws();
      if (pos_ >= text_.size()) {
        fail("unterminated object");
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return expect('}');
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace jsonmini
