#include "util/json_parse.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace supa {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

const JsonValue* JsonValue::FindPath(std::string_view dotted_path) const {
  const JsonValue* node = this;
  while (!dotted_path.empty()) {
    const size_t dot = dotted_path.find('.');
    const std::string_view hop = dotted_path.substr(0, dot);
    node = node->Find(hop);
    if (node == nullptr) return nullptr;
    if (dot == std::string_view::npos) break;
    dotted_path.remove_prefix(dot + 1);
  }
  return node;
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value() : fallback;
}

// Not in an anonymous namespace: JsonValue names this exact class as its
// friend.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue root;
    SUPA_RETURN_NOT_OK(Value(&root, 0));
    SkipWs();
    if (pos_ != text_.size()) return Error("trailing content");
    return root;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const char* what) const {
    return Status::InvalidArgument(std::string("JSON: ") + what +
                                   " at offset " + std::to_string(pos_));
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

  Status Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return Error("bad literal");
    pos_ += word.size();
    return Status::OK();
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

  Result<uint32_t> HexEscape() {
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
    return cp;
  }

  Status String(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
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
          auto cp = HexEscape();
          SUPA_RETURN_NOT_OK(cp.status());
          uint32_t code = cp.value();
          // Surrogate pair: \uD800-\uDBFF must chain a low surrogate.
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (!Consume('\\') || !Consume('u')) {
              return Error("unpaired surrogate");
            }
            auto lo = HexEscape();
            SUPA_RETURN_NOT_OK(lo.status());
            if (lo.value() < 0xDC00 || lo.value() > 0xDFFF) {
              return Error("bad low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (lo.value() - 0xDC00);
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

  Status Number(double* out) {
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
    return Status::OK();
  }

  Status Value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{': {
        ++pos_;
        out->type_ = JsonValue::Type::kObject;
        SkipWs();
        if (Consume('}')) return Status::OK();
        for (;;) {
          SkipWs();
          std::string key;
          SUPA_RETURN_NOT_OK(String(&key));
          SkipWs();
          if (!Consume(':')) return Error("expected ':'");
          JsonValue member;
          SUPA_RETURN_NOT_OK(Value(&member, depth + 1));
          out->object_[std::move(key)] = std::move(member);
          SkipWs();
          if (Consume(',')) continue;
          if (Consume('}')) return Status::OK();
          return Error("expected ',' or '}'");
        }
      }
      case '[': {
        ++pos_;
        out->type_ = JsonValue::Type::kArray;
        SkipWs();
        if (Consume(']')) return Status::OK();
        for (;;) {
          JsonValue element;
          SUPA_RETURN_NOT_OK(Value(&element, depth + 1));
          out->array_.push_back(std::move(element));
          SkipWs();
          if (Consume(',')) continue;
          if (Consume(']')) return Status::OK();
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
};

Result<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

}  // namespace supa
