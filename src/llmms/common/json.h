#ifndef LLMMS_COMMON_JSON_H_
#define LLMMS_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "llmms/common/result.h"
#include "llmms/common/status.h"

namespace llmms {

// Minimal JSON document model used by the app layer (request/response
// payloads) and the eval module (frontier rows). Supports the full JSON
// grammar; numbers are stored as double plus an integer flag.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  // std::map keeps object keys ordered for deterministic serialization.
  using Object = std::map<std::string, Json>;

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}  // NOLINT
  Json(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT
  Json(int v) : type_(Type::kNumber), number_(v), is_integer_(true) {}  // NOLINT
  Json(int64_t v)  // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(v)), is_integer_(true) {}
  Json(size_t v)  // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(v)), is_integer_(true) {}
  Json(double v) : type_(Type::kNumber), number_(v) {}  // NOLINT
  Json(const char* s) : type_(Type::kString), string_(s) {}  // NOLINT
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  Json(Array a) : type_(Type::kArray), array_(std::move(a)) {}  // NOLINT
  Json(Object o) : type_(Type::kObject), object_(std::move(o)) {}  // NOLINT

  static Json MakeArray() { return Json(Array{}); }
  static Json MakeObject() { return Json(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_integer() const { return type_ == Type::kNumber && is_integer_; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Typed accessors; preconditions: matching type (checked accessors below
  // return defaults on mismatch for lenient consumption).
  bool AsBool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double AsDouble(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }
  int64_t AsInt(int64_t fallback = 0) const {
    return is_number() ? static_cast<int64_t>(number_) : fallback;
  }
  const std::string& AsString() const { return string_; }
  const Array& AsArray() const { return array_; }
  const Object& AsObject() const { return object_; }
  Array& MutableArray() { return array_; }
  Object& MutableObject() { return object_; }

  // Object access; returns a shared null singleton when the key is absent or
  // this is not an object.
  const Json& operator[](std::string_view key) const;
  bool Contains(std::string_view key) const;

  // Array access; preconditions: is_array() and i < size().
  const Json& At(size_t i) const { return array_[i]; }
  size_t Size() const {
    if (is_array()) return array_.size();
    if (is_object()) return object_.size();
    return 0;
  }

  // Mutating helpers.
  void Set(std::string key, Json value) {
    type_ = Type::kObject;
    object_[std::move(key)] = std::move(value);
  }
  void Append(Json value) {
    type_ = Type::kArray;
    array_.push_back(std::move(value));
  }

  // Serializes to compact JSON; `indent > 0` pretty-prints.
  std::string Dump(int indent = 0) const;

  // Parses a complete JSON document. Trailing garbage is an error.
  static StatusOr<Json> Parse(std::string_view text);

  friend bool operator==(const Json& a, const Json& b);

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  bool is_integer_ = false;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace llmms

#endif  // LLMMS_COMMON_JSON_H_
