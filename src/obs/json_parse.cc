#include "obs/json_parse.h"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <utility>

namespace supa::obs {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

// Not in an anonymous namespace: JsonValue names this exact class as its
// friend.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* root) {
    if (!Value(root, 0)) return false;
    SkipWs();
    return pos_ == text_.size() || Error("trailing content");
  }

  const std::string& error() const { return error_; }

 private:
  static constexpr int kMaxDepth = 64;

  /// Records `what` at the current offset; always returns false.
  bool Error(const char* what) {
    error_ = std::string("JSON: ") + what + " at offset " +
             std::to_string(pos_);
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return Error("bad literal");
    pos_ += word.size();
    return true;
  }

  /// Appends `cp` to `out` as UTF-8.
  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool HexEscape(uint32_t* out) {
    uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) return Error("truncated \\u escape");
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        cp |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        cp |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("bad \\u escape");
      }
    }
    *out = cp;
    return true;
  }

  bool String(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return Error("raw control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return Error("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t code = 0;
          if (!HexEscape(&code)) return false;
          // Surrogate pair: \uD800-\uDBFF must chain a low surrogate.
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (!Consume('\\') || !Consume('u')) {
              return Error("unpaired surrogate");
            }
            uint32_t lo = 0;
            if (!HexEscape(&lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF) return Error("bad low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("unpaired surrogate");
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
    return Error("unterminated string");
  }

  bool Number(double* out) {
    const size_t start = pos_;
    Consume('-');
    auto digits = [&]() -> bool {
      const size_t before = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      return pos_ > before;
    };
    if (!digits()) return Error("expected digit");
    if (Consume('.') && !digits()) return Error("expected fraction digits");
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) return Error("expected exponent digits");
    }
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    *out = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("bad number");
    return true;
  }

  bool Value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{': {
        ++pos_;
        out->type_ = JsonValue::Type::kObject;
        SkipWs();
        if (Consume('}')) return true;
        for (;;) {
          SkipWs();
          std::string key;
          if (!String(&key)) return false;
          SkipWs();
          if (!Consume(':')) return Error("expected ':'");
          JsonValue member;
          if (!Value(&member, depth + 1)) return false;
          out->object_[std::move(key)] = std::move(member);
          SkipWs();
          if (Consume(',')) continue;
          if (Consume('}')) return true;
          return Error("expected ',' or '}'");
        }
      }
      case '[': {
        ++pos_;
        out->type_ = JsonValue::Type::kArray;
        SkipWs();
        if (Consume(']')) return true;
        for (;;) {
          JsonValue element;
          if (!Value(&element, depth + 1)) return false;
          out->array_.push_back(std::move(element));
          SkipWs();
          if (Consume(',')) continue;
          if (Consume(']')) return true;
          return Error("expected ',' or ']'");
        }
      }
      case '"':
        out->type_ = JsonValue::Type::kString;
        return String(&out->string_);
      case 't':
        out->type_ = JsonValue::Type::kBool;
        out->bool_ = true;
        return Literal("true");
      case 'f':
        out->type_ = JsonValue::Type::kBool;
        out->bool_ = false;
        return Literal("false");
      case 'n':
        out->type_ = JsonValue::Type::kNull;
        return Literal("null");
      default:
        out->type_ = JsonValue::Type::kNumber;
        return Number(&out->number_);
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  JsonParser parser(text);
  JsonValue root;
  if (!parser.Parse(&root)) {
    if (error != nullptr) *error = parser.error();
    return false;
  }
  *out = std::move(root);
  return true;
}

}  // namespace supa::obs
