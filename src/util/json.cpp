#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace disco::json {
namespace {

class Parser {
 public:
  static constexpr int kMaxDepth = 512;

  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Run(Value* out) {
    SkipWs();
    if (!ParseValue(out, 0)) return false;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing garbage");
    return true;
  }

 private:
  bool Fail(const char* what) {
    if (error_ != nullptr) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "%s at byte %zu", what, pos_);
      *error_ = buf;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
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

  bool ConsumeWord(const char* word) {
    const std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected string");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          default: return Fail("unsupported escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  // `depth` counts the arrays and objects enclosing this value. Parsing
  // recurses once per level, so hostile input like 200000 '[' would
  // otherwise overflow the stack.
  bool ParseValue(Value* out, int depth) {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if ((c == '{' || c == '[') && depth >= kMaxDepth) {
      return Fail("nesting too deep");
    }
    if (c == '{') {
      ++pos_;
      *out = Value::Object();
      SkipWs();
      if (Consume('}')) return true;
      for (;;) {
        SkipWs();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipWs();
        if (!Consume(':')) return Fail("expected ':'");
        SkipWs();
        Value member;
        if (!ParseValue(&member, depth + 1)) return false;
        out->Set(std::move(key), std::move(member));
        SkipWs();
        if (Consume(',')) continue;
        if (Consume('}')) return true;
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos_;
      *out = Value::Array();
      SkipWs();
      if (Consume(']')) return true;
      for (;;) {
        SkipWs();
        Value item;
        if (!ParseValue(&item, depth + 1)) return false;
        out->Push(std::move(item));
        SkipWs();
        if (Consume(',')) continue;
        if (Consume(']')) return true;
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      std::string s;
      if (!ParseString(&s)) return false;
      *out = Value::Str(std::move(s));
      return true;
    }
    if (ConsumeWord("true")) {
      *out = Value::Bool(true);
      return true;
    }
    if (ConsumeWord("false")) {
      *out = Value::Bool(false);
      return true;
    }
    if (ConsumeWord("null")) {
      *out = Value::Null();
      return true;
    }
    // Number.
    char* end = nullptr;
    const double n = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_ || !std::isfinite(n)) {
      return Fail("expected a JSON value");
    }
    pos_ = static_cast<std::size_t>(end - text_.c_str());
    *out = Value::Number(n);
    return true;
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default: out->push_back(c);
    }
  }
  out->push_back('"');
}

void AppendNumber(std::string* out, double n) {
  char buf[40];
  // Integers (the common case: counts, node ids) print without a decimal
  // point; everything else gets enough digits to round-trip a measurement.
  if (n == std::floor(n) && std::fabs(n) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", n);
  } else {
    std::snprintf(buf, sizeof buf, "%.10g", n);
  }
  *out += buf;
}

}  // namespace

Value Value::Bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::Number(double n) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

Value Value::Str(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::Array() {
  Value v;
  v.kind_ = Kind::kArray;
  return v;
}

Value Value::Object() {
  Value v;
  v.kind_ = Kind::kObject;
  return v;
}

const Value* Value::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Value::NumberOr(const std::string& key, double def) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : def;
}

std::string Value::StringOr(const std::string& key, std::string def) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : std::move(def);
}

void Value::DumpTo(std::string* out, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string inner_pad(static_cast<std::size_t>(indent + 1) * 2,
                              ' ');
  switch (kind_) {
    case Kind::kNull: *out += "null"; break;
    case Kind::kBool: *out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: AppendNumber(out, number_); break;
    case Kind::kString: AppendEscaped(out, string_); break;
    case Kind::kArray: {
      if (items_.empty()) {
        *out += "[]";
        break;
      }
      *out += "[\n";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        *out += inner_pad;
        items_[i].DumpTo(out, indent + 1);
        if (i + 1 < items_.size()) *out += ",";
        *out += "\n";
      }
      *out += pad + "]";
      break;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        *out += "{}";
        break;
      }
      *out += "{\n";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        *out += inner_pad;
        AppendEscaped(out, members_[i].first);
        *out += ": ";
        members_[i].second.DumpTo(out, indent + 1);
        if (i + 1 < members_.size()) *out += ",";
        *out += "\n";
      }
      *out += pad + "}";
      break;
    }
  }
}

std::string Value::Dump() const {
  std::string out;
  DumpTo(&out, 0);
  out += "\n";
  return out;
}

bool Parse(const std::string& text, Value* out, std::string* error) {
  Parser parser(text, error);
  return parser.Run(out);
}

}  // namespace disco::json
