// Minimal JSON value tree — just enough for Chrome trace files, the lint
// report and disco_bench results: parse, navigate, and dump objects/
// arrays/strings/numbers/bools. Written from scratch (no third-party dependency); not a
// general-purpose JSON library — no \uXXXX escapes beyond pass-through,
// no streaming, numbers are doubles.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace disco::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  static Value Null() { return Value(); }
  static Value Bool(bool b);
  static Value Number(double n);
  static Value Str(std::string s);
  static Value Array();
  static Value Object();

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const std::vector<Value>& Items() const { return items_; }
  const std::vector<std::pair<std::string, Value>>& Members() const {
    return members_;
  }

  /// Object member by key, or nullptr (also when not an object).
  const Value* Find(const std::string& key) const;
  /// Find(key)->AsNumber() with a default for missing/non-number.
  double NumberOr(const std::string& key, double def) const;
  /// Find(key)->AsString() with a default for missing/non-string.
  std::string StringOr(const std::string& key, std::string def) const;

  /// Appends to an array.
  void Push(Value v) { items_.push_back(std::move(v)); }
  /// Appends an object member (insertion order is preserved on dump).
  void Set(std::string key, Value v) {
    members_.emplace_back(std::move(key), std::move(v));
  }

  /// Pretty-prints with 2-space indentation and a trailing newline at the
  /// top level — stable output for committed baselines.
  std::string Dump() const;

 private:
  void DumpTo(std::string* out, int indent) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Parses `text` into `*out`. Returns false and sets `*error` (with a
/// byte offset) on malformed input. Trailing whitespace is allowed,
/// trailing garbage is not, and nesting deeper than 512 arrays/objects is
/// rejected ("nesting too deep") rather than recursed into.
bool Parse(const std::string& text, Value* out, std::string* error);

}  // namespace disco::json
