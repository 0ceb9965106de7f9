#include "llmms/common/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace llmms {
namespace {

const Json& NullJson() {
  static const Json* kNull = new Json();
  return *kNull;
}

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(raw);
        }
    }
  }
  out->push_back('"');
}

// Every parse error names the byte offset it refers to, so a malformed
// request body yields a precise 400.
Status ErrorAt(const std::string& what, size_t offset) {
  return Status::InvalidArgument(what + " at offset " + std::to_string(offset));
}

// Recursive-descent parser over a string_view with an explicit cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<Json> ParseDocument() {
    LLMMS_ASSIGN_OR_RETURN(Json value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return ErrorAt("trailing characters after JSON value", pos_);
    }
    return value;
  }

 private:
  StatusOr<Json> ParseValue() {
    if (depth_ > kMaxDepth) {
      return ErrorAt("JSON nesting too deep", pos_);
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return ErrorAt("unexpected end of JSON input", pos_);
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        LLMMS_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Json(std::move(s));
      }
      case 't':
        return ParseLiteral("true", Json(true));
      case 'f':
        return ParseLiteral("false", Json(false));
      case 'n':
        return ParseLiteral("null", Json(nullptr));
      default:
        return ParseNumber();
    }
  }

  StatusOr<Json> ParseLiteral(std::string_view literal, Json value) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return ErrorAt("invalid JSON literal", pos_);
    }
    pos_ += literal.size();
    return value;
  }

  StatusOr<Json> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_integer = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_integer = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      return ErrorAt("invalid JSON number", start);
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return ErrorAt("invalid JSON number: " + token, start);
    }
    if (is_integer) return Json(static_cast<int64_t>(value));
    return Json(value);
  }

  StatusOr<std::string> ParseString() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return ErrorAt("expected string", pos_);
    }
    const size_t start = pos_++;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        const size_t escape = pos_++;
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
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
            if (pos_ + 4 > text_.size()) {
              return ErrorAt("truncated \\u escape", escape);
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return ErrorAt("invalid \\u escape", escape);
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs are rare in
            // our payloads; encode each half independently if present).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return ErrorAt("invalid escape character", escape);
        }
      } else {
        out += c;
        ++pos_;
      }
    }
    return ErrorAt("unterminated JSON string", start);
  }

  StatusOr<Json> ParseArray() {
    const size_t start = pos_++;  // consume '['
    ++depth_;
    Json::Array items;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      --depth_;
      return Json(std::move(items));
    }
    for (;;) {
      LLMMS_ASSIGN_OR_RETURN(Json item, ParseValue());
      items.push_back(std::move(item));
      SkipWhitespace();
      if (pos_ >= text_.size()) {
        return ErrorAt("unterminated JSON array", start);
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        --depth_;
        return Json(std::move(items));
      }
      return ErrorAt("expected ',' or ']'", pos_);
    }
  }

  StatusOr<Json> ParseObject() {
    const size_t start = pos_++;  // consume '{'
    ++depth_;
    Json::Object fields;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      --depth_;
      return Json(std::move(fields));
    }
    for (;;) {
      SkipWhitespace();
      LLMMS_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return ErrorAt("expected ':'", pos_);
      }
      ++pos_;
      LLMMS_ASSIGN_OR_RETURN(Json value, ParseValue());
      fields[std::move(key)] = std::move(value);
      SkipWhitespace();
      if (pos_ >= text_.size()) {
        return ErrorAt("unterminated JSON object", start);
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        --depth_;
        return Json(std::move(fields));
      }
      return ErrorAt("expected ',' or '}'", pos_);
    }
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const Json& Json::operator[](std::string_view key) const {
  if (type_ == Type::kObject) {
    auto it = object_.find(std::string(key));
    if (it != object_.end()) return it->second;
  }
  return NullJson();
}

bool Json::Contains(std::string_view key) const {
  return type_ == Type::kObject &&
         object_.find(std::string(key)) != object_.end();
}

void Json::DumpTo(std::string* out, int indent, int depth) const {
  const std::string pad =
      indent > 0 ? std::string(static_cast<size_t>(indent * (depth + 1)), ' ')
                 : "";
  const std::string closing_pad =
      indent > 0 ? std::string(static_cast<size_t>(indent * depth), ' ') : "";
  const char* nl = indent > 0 ? "\n" : "";
  switch (type_) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Type::kNumber: {
      if (is_integer_ && std::abs(number_) < 9.0e15) {
        *out += std::to_string(static_cast<int64_t>(number_));
      } else {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", number_);
        *out += buf;
      }
      break;
    }
    case Type::kString:
      AppendEscaped(out, string_);
      break;
    case Type::kArray: {
      if (array_.empty()) {
        *out += "[]";
        break;
      }
      *out += "[";
      *out += nl;
      for (size_t i = 0; i < array_.size(); ++i) {
        *out += pad;
        array_[i].DumpTo(out, indent, depth + 1);
        if (i + 1 < array_.size()) *out += ",";
        *out += nl;
      }
      *out += closing_pad;
      *out += "]";
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        *out += "{}";
        break;
      }
      *out += "{";
      *out += nl;
      size_t i = 0;
      for (const auto& [key, value] : object_) {
        *out += pad;
        AppendEscaped(out, key);
        *out += indent > 0 ? ": " : ":";
        value.DumpTo(out, indent, depth + 1);
        if (++i < object_.size()) *out += ",";
        *out += nl;
      }
      *out += closing_pad;
      *out += "}";
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

StatusOr<Json> Json::Parse(std::string_view text) {
  Parser parser(text);
  return parser.ParseDocument();
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Json::Type::kNull:
      return true;
    case Json::Type::kBool:
      return a.bool_ == b.bool_;
    case Json::Type::kNumber:
      return a.number_ == b.number_;
    case Json::Type::kString:
      return a.string_ == b.string_;
    case Json::Type::kArray:
      return a.array_ == b.array_;
    case Json::Type::kObject:
      return a.object_ == b.object_;
  }
  return false;
}

}  // namespace llmms
