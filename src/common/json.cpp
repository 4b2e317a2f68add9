#include "common/json.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace ritas {

void JsonWriter::comma() {
  if (need_comma_) out_.push_back(',');
  need_comma_ = true;
}

void JsonWriter::escaped(std::string_view s) {
  out_.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out_ += buf;
        } else {
          out_.push_back(c);
        }
    }
  }
  out_.push_back('"');
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_.push_back('{');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_.push_back('}');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_.push_back('[');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_.push_back(']');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  comma();
  escaped(name);
  out_.push_back(':');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  comma();
  escaped(s);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

// --- parser ---------------------------------------------------------------

const JsonValue* JsonValue::get(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<bool> JsonValue::as_bool() const {
  if (kind != Kind::kBool) return std::nullopt;
  return boolean;
}

std::optional<std::uint64_t> JsonValue::as_u64() const {
  if (kind != Kind::kNumber || !is_unsigned) return std::nullopt;
  return unsigned_num;
}

std::optional<std::string_view> JsonValue::as_string() const {
  if (kind != Kind::kString) return std::nullopt;
  return std::string_view(string);
}

std::optional<bool> JsonValue::bool_at(std::string_view key) const {
  const JsonValue* v = get(key);
  return v ? v->as_bool() : std::nullopt;
}

std::optional<std::uint64_t> JsonValue::u64_at(std::string_view key) const {
  const JsonValue* v = get(key);
  return v ? v->as_u64() : std::nullopt;
}

std::optional<std::string_view> JsonValue::string_at(std::string_view key) const {
  const JsonValue* v = get(key);
  return v ? v->as_string() : std::nullopt;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    return pos_ == text_.size();  // no trailing garbage
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            // Our writer only emits \u00XX control escapes; encode the
            // general case as UTF-8 anyway.
            if (cp < 0x80) {
              out.push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
              out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
            } else {
              out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
              out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
            }
            break;
          }
          default:
            return false;
        }
      } else {
        out.push_back(c);
      }
    }
    return false;  // unterminated
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return false;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.kind = JsonValue::Kind::kNumber;
    (void)std::strtod(token.c_str(), &end);  // validation only
    if (end != token.c_str() + token.size()) return false;
    if (integral && token[0] != '-') {
      errno = 0;
      const std::uint64_t u = std::strtoull(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        out.unsigned_num = u;
        out.is_unsigned = true;
      }
    }
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth || pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out.kind = JsonValue::Kind::kObject;
      skip_ws();
      if (eat('}')) return true;
      for (;;) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (!eat(':')) return false;
        skip_ws();
        JsonValue v;
        if (!parse_value(v, depth + 1)) return false;
        out.object.emplace_back(std::move(key), std::move(v));
        skip_ws();
        if (eat('}')) return true;
        if (!eat(',')) return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out.kind = JsonValue::Kind::kArray;
      skip_ws();
      if (eat(']')) return true;
      for (;;) {
        skip_ws();
        JsonValue v;
        if (!parse_value(v, depth + 1)) return false;
        out.array.push_back(std::move(v));
        skip_ws();
        if (eat(']')) return true;
        if (!eat(',')) return false;
      }
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.string);
    }
    if (c == 't') {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      return literal("false");
    }
    if (c == 'n') {
      out.kind = JsonValue::Kind::kNull;
      return literal("null");
    }
    return parse_number(out);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text) {
  JsonValue v;
  if (!JsonParser(text).parse(v)) return std::nullopt;
  return v;
}

}  // namespace ritas
