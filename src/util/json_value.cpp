#include "util/json_value.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>

#include "util/errors.hpp"

namespace lamps {

namespace {

[[noreturn]] void fail(std::size_t offset, const std::string& what) {
  throw InputError(ErrorCode::kJsonParse, what, "byte " + std::to_string(offset));
}

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue run() {
    skip_ws();
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing characters after JSON document");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of document");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // Each level recurses once; the cap bounds the stack.  A throw
        // abandons the parser, so depth_ needs no unwinding.
        if (depth_ == JsonValue::kMaxDepth)
          fail(pos_, "nesting deeper than " + std::to_string(JsonValue::kMaxDepth) + " levels");
        ++depth_;
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind_ = JsonValue::Kind::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail(pos_, "invalid literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail(pos_, "invalid literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail(pos_, "invalid literal");
        return JsonValue{};
      default:
        return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::kBool;
    v.bool_ = b;
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      v.object_.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail(pos_ - 1, "expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      v.array_.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail(pos_ - 1, "expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail(pos_ - 1, "bare control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: the low half must follow as \uXXXX.
            if (!consume_literal("\\u")) fail(pos_, "unpaired surrogate");
            const std::uint32_t lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail(pos_ - 4, "invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail(pos_ - 4, "unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail(pos_ - 1, "invalid escape character");
      }
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
    std::uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9')
        cp |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        cp |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        cp |= static_cast<std::uint32_t>(c - 'A' + 10);
      else
        fail(pos_ - 1, "invalid hex digit in \\u escape");
    }
    return cp;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        ++n;
      }
      return n;
    };
    const std::size_t int_digits = digits();
    if (int_digits == 0) fail(pos_, "invalid number");
    if (int_digits > 1 && text_[start + (text_[start] == '-' ? 1u : 0u)] == '0')
      fail(start, "leading zero in number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail(pos_, "digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (digits() == 0) fail(pos_, "digits required in exponent");
    }
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    const std::string_view token = text_.substr(start, pos_ - start);
    const char* const last = token.data() + token.size();
    const auto [end, ec] = std::from_chars(token.data(), last, v.number_);
    if (ec != std::errc{} || end != last) fail(start, "unrepresentable number");
    // A token of bare digits (no sign, fraction or exponent) keeps its exact
    // value too; past 2^64 it stays a double only.
    if (token.size() == int_digits) {
      const auto [u_end, u_ec] = std::from_chars(token.data(), last, v.u64_);
      v.is_u64_ = u_ec == std::errc{} && u_end == last;
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_{0};
  std::size_t depth_{0};  ///< arrays/objects currently open
};

JsonValue JsonValue::parse(std::string_view text) { return JsonParser(text).run(); }

bool JsonValue::as_bool() const {
  if (!is_bool()) throw InputError(ErrorCode::kJsonParse, "expected a boolean");
  return bool_;
}

double JsonValue::as_number() const {
  if (!is_number()) throw InputError(ErrorCode::kJsonParse, "expected a number");
  return number_;
}

std::uint64_t JsonValue::as_u64() const {
  if (!is_u64_) throw InputError(ErrorCode::kJsonParse, "expected an integer in [0, 2^64)");
  return u64_;
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) throw InputError(ErrorCode::kJsonParse, "expected a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (!is_array()) throw InputError(ErrorCode::kJsonParse, "expected an array");
  return array_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  if (!is_object()) throw InputError(ErrorCode::kJsonParse, "expected an object");
  return object_;
}

const JsonValue* JsonValue::get(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

double JsonValue::get_number(std::string_view key, double fallback) const {
  const JsonValue* v = get(key);
  if (v == nullptr) return fallback;
  return v->as_number();
}

std::string JsonValue::get_string(std::string_view key, const std::string& fallback) const {
  const JsonValue* v = get(key);
  if (v == nullptr) return fallback;
  return v->as_string();
}

}  // namespace lamps
