#include "common/json.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace recpriv {

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double d) { return Number(JsonNumber::Double(d)); }

JsonValue JsonValue::Int(int64_t i) { return Number(JsonNumber::Int(i)); }

JsonValue JsonValue::Uint(uint64_t u) { return Number(JsonNumber::Uint(u)); }

JsonValue JsonValue::Number(JsonNumber n) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

Result<bool> JsonValue::AsBool() const {
  if (!is_bool()) return Status::InvalidArgument("JSON value is not a bool");
  return bool_;
}

Result<double> JsonValue::AsDouble() const {
  if (!is_number()) {
    return Status::InvalidArgument("JSON value is not a number");
  }
  return number_.AsDouble();
}

Result<int64_t> JsonValue::AsInt() const {
  if (!is_number()) {
    return Status::InvalidArgument("JSON value is not a number");
  }
  return number_.AsInt();
}

Result<uint64_t> JsonValue::AsUint64() const {
  if (!is_number()) {
    return Status::InvalidArgument("JSON value is not a number");
  }
  return number_.AsUint64();
}

Result<std::string> JsonValue::AsString() const {
  if (!is_string()) {
    return Status::InvalidArgument("JSON value is not a string");
  }
  return string_;
}

Result<std::string_view> JsonValue::AsStringView() const {
  if (!is_string()) {
    return Status::InvalidArgument("JSON value is not a string");
  }
  return std::string_view(string_);
}

JsonValue& JsonValue::Append(JsonValue v) {
  RECPRIV_CHECK(is_array()) << "Append on non-array JSON value";
  array_.push_back(std::move(v));
  return array_.back();
}

size_t JsonValue::size() const {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  return 0;
}

Result<const JsonValue*> JsonValue::At(size_t i) const {
  if (!is_array()) return Status::InvalidArgument("JSON value is not array");
  if (i >= array_.size()) return Status::OutOfRange("JSON array index");
  return &array_[i];
}

JsonValue& JsonValue::Set(const std::string& key, JsonValue v) {
  RECPRIV_CHECK(is_object()) << "Set on non-object JSON value";
  return object_[key] = std::move(v);
}

bool JsonValue::Has(const std::string& key) const {
  return is_object() && object_.count(key) > 0;
}

Result<const JsonValue*> JsonValue::Get(const std::string& key) const {
  if (!is_object()) {
    return Status::InvalidArgument("JSON value is not an object");
  }
  auto it = object_.find(key);
  if (it == object_.end()) return Status::NotFound("JSON key: " + key);
  return &it->second;
}

std::vector<std::string> JsonValue::Keys() const {
  std::vector<std::string> keys;
  if (!is_object()) return keys;
  keys.reserve(object_.size());
  for (const auto& [key, value] : object_) keys.push_back(key);
  return keys;
}

namespace json {

namespace {

void EscapeCharInto(char c, std::string& out) {
  switch (c) {
    case '"':
      out += "\\\"";
      break;
    case '\\':
      out += "\\\\";
      break;
    case '\n':
      out += "\\n";
      break;
    case '\r':
      out += "\\r";
      break;
    case '\t':
      out += "\\t";
      break;
    case '\b':
      out += "\\b";
      break;
    case '\f':
      out += "\\f";
      break;
    default:
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
  }
}

}  // namespace

void EscapeInto(std::string_view s, std::string& out) {
  out += '"';
  // Bulk path: copy maximal runs needing no escape in one append. Large
  // payload strings (base64 snapshot chunks) are all-clean, so this is one
  // memcpy; the per-char switch above only ever sees the rare dirty byte.
  // A lookup table keeps the scan at one load per byte, branch-free.
  static constexpr auto kDirty = [] {
    std::array<bool, 256> t{};
    for (int c = 0; c < 0x20; ++c) t[size_t(c)] = true;
    t[size_t('"')] = true;
    t[size_t('\\')] = true;
    return t;
  }();
  size_t start = 0;
  size_t i = 0;
  auto flush = [&](size_t end) {
    if (end > start) out.append(s.data() + start, end - start);
  };
  for (; i < s.size(); ++i) {
    if (!kDirty[static_cast<unsigned char>(s[i])]) continue;
    flush(i);
    start = i + 1;
    EscapeCharInto(s[i], out);
  }
  flush(i);
  out += '"';
}

void NumberInto(double v, std::string& out) {
  // std::to_chars prints exactly what printf's "%lld" / "%.17g" print in
  // the C locale (the standard specifies it so), without printf's cost.
  char buf[40];
  char* end;
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    end = std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(v)).ptr;
  } else {
    end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                        17)
              .ptr;
  }
  out.append(buf, size_t(end - buf));
}

}  // namespace json

JsonNumber JsonNumber::Double(double v) {
  JsonNumber n;
  n.value_ = v;
  return n;
}

JsonNumber JsonNumber::Int(int64_t i) {
  JsonNumber n;
  n.value_ = static_cast<double>(i);
  n.exact_int_ = true;
  n.negative_ = i < 0;
  n.magnitude_ = i < 0 ? uint64_t(-(i + 1)) + 1 : uint64_t(i);
  return n;
}

JsonNumber JsonNumber::Uint(uint64_t u) {
  JsonNumber n;
  n.value_ = static_cast<double>(u);
  n.exact_int_ = true;
  n.magnitude_ = u;
  return n;
}

Result<int64_t> JsonNumber::AsInt() const {
  if (exact_int_) {
    if (negative_) {
      // INT64_MIN's magnitude (2^63) is representable; anything larger
      // is not.
      if (magnitude_ > uint64_t(INT64_MAX) + 1) {
        return Status::InvalidArgument("JSON integer out of int64 range");
      }
      return magnitude_ == uint64_t(INT64_MAX) + 1
                 ? INT64_MIN
                 : -int64_t(magnitude_);
    }
    if (magnitude_ > uint64_t(INT64_MAX)) {
      return Status::InvalidArgument("JSON integer out of int64 range");
    }
    return int64_t(magnitude_);
  }
  if (value_ != std::floor(value_)) {
    return Status::InvalidArgument("JSON number is not an integer");
  }
  return static_cast<int64_t>(value_);
}

Result<uint64_t> JsonNumber::AsUint64() const {
  if (exact_int_) {
    if (negative_ && magnitude_ > 0) {
      return Status::InvalidArgument("JSON integer is negative");
    }
    return magnitude_;
  }
  // A non-exact number came from a double (programmatic Number(), or float
  // syntax like 1e3 on the wire). Integral values up to 2^53 are exactly
  // representable and safe; past that the double has already rounded, so
  // trusting it would silently corrupt 64-bit epochs/offsets/counters.
  if (value_ != std::floor(value_)) {
    return Status::InvalidArgument("JSON number is not an integer");
  }
  if (value_ < 0) {
    return Status::InvalidArgument("JSON integer is negative");
  }
  if (value_ > 9007199254740992.0) {  // 2^53
    return Status::InvalidArgument(
        "JSON number exceeds the integer-exact range of a double");
  }
  return static_cast<uint64_t>(value_);
}

void JsonNumber::AppendTo(std::string& out) const {
  if (!exact_int_) {
    json::NumberInto(value_, out);
    return;
  }
  char buf[24];
  char* p = buf;
  if (negative_ && magnitude_ > 0) *p++ = '-';
  p = std::to_chars(p, buf + sizeof(buf), magnitude_).ptr;
  out.append(buf, size_t(p - buf));
}

void JsonValue::WriteTo(std::string& out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<size_t>(indent * d), ' ');
    }
  };
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      number_.AppendTo(out);
      break;
    case Type::kString:
      json::EscapeInto(string_, out);
      break;
    case Type::kArray: {
      out += '[';
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        array_[i].WriteTo(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      size_t i = 0;
      for (const auto& [key, value] : object_) {
        if (i++ > 0) out += ',';
        newline(depth + 1);
        json::EscapeInto(key, out);
        out += indent > 0 ? ": " : ":";
        value.WriteTo(out, indent, depth + 1);
      }
      if (!object_.empty()) newline(depth);
      out += '}';
      break;
    }
  }
}

std::string JsonValue::ToString(int indent) const {
  std::string out;
  WriteTo(out, indent, 0);
  return out;
}

void JsonValue::AppendTo(std::string& out) const { WriteTo(out, 0, 0); }

Result<JsonValue> JsonValue::Read(JsonReader& reader) {
  Type type;
  if (!reader.Peek(&type)) return reader.status();
  switch (type) {
    case Type::kNull:
      if (!reader.ReadNull()) return reader.status();
      return Null();
    case Type::kBool: {
      bool b = false;
      if (!reader.ReadBool(&b)) return reader.status();
      return Bool(b);
    }
    case Type::kNumber: {
      JsonNumber n;
      if (!reader.ReadNumber(&n)) return reader.status();
      return Number(n);
    }
    case Type::kString: {
      std::string scratch;
      std::string_view s;
      if (!reader.ReadString(&s, &scratch)) return reader.status();
      return String(std::string(s));
    }
    case Type::kArray: {
      JsonValue arr = Array();
      reader.BeginArray();
      bool more = false;
      while (reader.NextElement(&more) && more) {
        RECPRIV_ASSIGN_OR_RETURN(JsonValue value, Read(reader));
        arr.Append(std::move(value));
      }
      if (!reader.ok()) return reader.status();
      return arr;
    }
    case Type::kObject: {
      JsonValue obj = Object();
      reader.BeginObject();
      std::string scratch;
      std::string_view key_view;
      bool more = false;
      while (reader.NextMember(&key_view, &scratch, &more) && more) {
        std::string key(key_view);
        RECPRIV_ASSIGN_OR_RETURN(JsonValue value, Read(reader));
        obj.Set(key, std::move(value));
      }
      if (!reader.ok()) return reader.status();
      return obj;
    }
  }
  return Status::Internal("unreachable JSON type");
}

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  JsonReader reader(text);
  RECPRIV_ASSIGN_OR_RETURN(JsonValue v, Read(reader));
  if (!reader.End()) return reader.status();
  return v;
}

// --- JsonReader --------------------------------------------------------------

Status JsonReader::status() const {
  if (ok()) return Status::OK();
  return Status::IOError("JSON parse error at offset " +
                         std::to_string(error_offset_) + ": " + error_);
}

bool JsonReader::Fail(std::string what) {
  if (ok()) {
    error_ = std::move(what);
    error_offset_ = pos_;
  }
  return false;
}

void JsonReader::SkipWhitespace() {
  // The six bytes std::isspace accepts in the C locale.
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && (c < '\t' || c > '\r')) break;
    ++pos_;
  }
}

bool JsonReader::Consume(char c) {
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

bool JsonReader::Peek(JsonValue::Type* type) {
  if (!ok()) return false;
  SkipWhitespace();
  if (pos_ >= text_.size()) return Fail("unexpected end of input");
  switch (text_[pos_]) {
    case '{':
      *type = JsonValue::Type::kObject;
      break;
    case '[':
      *type = JsonValue::Type::kArray;
      break;
    case '"':
      *type = JsonValue::Type::kString;
      break;
    case 't':
    case 'f':
      *type = JsonValue::Type::kBool;
      break;
    case 'n':
      *type = JsonValue::Type::kNull;
      break;
    default:
      *type = JsonValue::Type::kNumber;
  }
  return true;
}

bool JsonReader::ReadLiteral(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) {
    return Fail("bad literal");
  }
  pos_ += literal.size();
  return true;
}

bool JsonReader::ReadNull() {
  if (!ok()) return false;
  SkipWhitespace();
  return ReadLiteral("null");
}

bool JsonReader::ReadBool(bool* out) {
  if (!ok()) return false;
  SkipWhitespace();
  if (pos_ < text_.size() && text_[pos_] == 't') {
    *out = true;
    return ReadLiteral("true");
  }
  *out = false;
  return ReadLiteral("false");
}

bool JsonReader::ReadNumber(JsonNumber* out) {
  if (!ok()) return false;
  SkipWhitespace();
  const size_t start = pos_;
  Consume('-');
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (!((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-')) {
      break;
    }
    ++pos_;
  }
  if (pos_ == start) return Fail("expected a value");
  const std::string_view token = text_.substr(start, pos_ - start);
  // Pure integer syntax (optional sign, digits only) is kept exact when
  // it fits 64 bits, so epochs/offsets/counters above 2^53 survive the
  // wire bit-for-bit instead of rounding through a double.
  const bool neg = token[0] == '-';
  const std::string_view digits = token.substr(neg ? 1 : 0);
  const bool integer_syntax =
      !digits.empty() &&
      digits.find_first_not_of("0123456789") == std::string_view::npos;
  if (integer_syntax) {
    uint64_t mag = 0;
    const auto [end, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), mag);
    if (ec == std::errc() && end == digits.data() + digits.size() &&
        (!neg || mag <= 9223372036854775808ULL)) {
      *out = JsonNumber::Uint(mag);
      if (neg && mag > 0) {
        *out = JsonNumber::Int(mag == 9223372036854775808ULL ? INT64_MIN
                                                             : -int64_t(mag));
      }
      return true;
    }
    // Out of 64-bit range: fall through to the double path below.
  }
  // std::from_chars reads the common token exactly as strtod would (both
  // round correctly); anything it does not take whole — a leading '+', a
  // value out of range, a malformed token — goes to strtod, which decides.
  double v = 0.0;
  const auto [fast_end, fast_ec] =
      std::from_chars(token.data(), token.data() + token.size(), v);
  if (fast_ec != std::errc() || fast_end != token.data() + token.size()) {
    // strtod needs a terminated string; a number token is short.
    const std::string copy(token);
    char* end = nullptr;
    v = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size()) {
      return Fail("malformed number '" + copy + "'");
    }
    // A magnitude past the double range would read as inf, which no JSON
    // writer can print back (a server echoing such an id wrote "inf").
    if (!std::isfinite(v)) return Fail("number out of range '" + copy + "'");
  }
  *out = JsonNumber::Double(v);
  return true;
}

bool JsonReader::ReadString(std::string_view* out, std::string* scratch) {
  if (!ok()) return false;
  SkipWhitespace();
  if (!Consume('"')) return Fail("expected a string");
  // Clean run to the closing quote (the common case): a view, no copy.
  const char* base = text_.data();
  const size_t left = text_.size() - pos_;
  const char* quote =
      static_cast<const char*>(std::memchr(base + pos_, '"', left));
  if (quote != nullptr &&
      std::memchr(base + pos_, '\\', size_t(quote - (base + pos_))) ==
          nullptr) {
    *out = text_.substr(pos_, size_t(quote - (base + pos_)));
    pos_ = size_t(quote - base) + 1;
    return true;
  }
  return DecodeString(out, scratch);
}

bool JsonReader::DecodeString(std::string_view* out, std::string* scratch) {
  std::string& s = *scratch;
  s.clear();
  while (pos_ < text_.size()) {
    // Bulk path: a large payload string (a base64 snapshot chunk) is one
    // clean run to the closing quote — memchr to the next quote, then
    // check the run for a backslash, and copy it in one append instead
    // of a char at a time. (find_first_of walks per char; memchr is the
    // difference between ~200 MB/s and memory bandwidth on this path.)
    const char* base = text_.data();
    const char* quote = static_cast<const char*>(
        std::memchr(base + pos_, '"', text_.size() - pos_));
    if (quote == nullptr) break;
    size_t stop = size_t(quote - base);
    if (const char* esc = static_cast<const char*>(
            std::memchr(base + pos_, '\\', stop - pos_));
        esc != nullptr) {
      stop = size_t(esc - base);
    }
    if (stop > pos_) {
      s.append(base + pos_, stop - pos_);
      pos_ = stop;
    }
    const char c = text_[pos_++];
    if (c == '"') {
      *out = s;
      return true;
    }
    if (pos_ >= text_.size()) return Fail("dangling escape");
    const char esc = text_[pos_++];
    switch (esc) {
      case '"':
        s += '"';
        break;
      case '\\':
        s += '\\';
        break;
      case '/':
        s += '/';
        break;
      case 'n':
        s += '\n';
        break;
      case 'r':
        s += '\r';
        break;
      case 't':
        s += '\t';
        break;
      case 'b':
        s += '\b';
        break;
      case 'f':
        s += '\f';
        break;
      case 'u': {
        if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= unsigned(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= unsigned(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= unsigned(h - 'A' + 10);
          } else {
            return Fail("bad hex digit in \\u escape");
          }
        }
        if (code >= 0xD800 && code <= 0xDFFF) {
          return Fail("surrogate-pair escapes are not supported");
        }
        // UTF-8 encode the BMP code point.
        if (code < 0x80) {
          s += char(code);
        } else if (code < 0x800) {
          s += char(0xC0 | (code >> 6));
          s += char(0x80 | (code & 0x3F));
        } else {
          s += char(0xE0 | (code >> 12));
          s += char(0x80 | ((code >> 6) & 0x3F));
          s += char(0x80 | (code & 0x3F));
        }
        break;
      }
      default:
        return Fail("unknown escape character");
    }
  }
  return Fail("unterminated string");
}

bool JsonReader::BeginObject() {
  if (!ok()) return false;
  SkipWhitespace();
  if (!Consume('{')) return Fail("expected '{'");
  fresh_ = true;
  return true;
}

bool JsonReader::BeginArray() {
  if (!ok()) return false;
  SkipWhitespace();
  if (!Consume('[')) return Fail("expected '['");
  fresh_ = true;
  return true;
}

bool JsonReader::NextMember(std::string_view* key, std::string* scratch,
                            bool* more) {
  if (!ok()) return false;
  const bool first = fresh_;
  fresh_ = false;
  SkipWhitespace();
  if (first) {
    if (Consume('}')) {
      *more = false;
      return true;
    }
  } else if (Consume('}')) {
    *more = false;
    return true;
  } else if (!Consume(',')) {
    return Fail("expected ',' or '}' in object");
  }
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return Fail("expected object key string");
  }
  if (!ReadString(key, scratch)) return false;
  SkipWhitespace();
  if (!Consume(':')) return Fail("expected ':' after key");
  *more = true;
  return true;
}

bool JsonReader::NextElement(bool* more) {
  if (!ok()) return false;
  const bool first = fresh_;
  fresh_ = false;
  SkipWhitespace();
  if (first) {
    if (Consume(']')) {
      *more = false;
      return true;
    }
  } else if (Consume(']')) {
    *more = false;
    return true;
  } else if (!Consume(',')) {
    return Fail("expected ',' or ']' in array");
  }
  *more = true;
  return true;
}

bool JsonReader::End() {
  if (!ok()) return false;
  SkipWhitespace();
  if (pos_ != text_.size()) {
    return Fail("trailing characters after JSON document");
  }
  return true;
}

Result<const JsonValue*> RequireField(const JsonValue& obj,
                                      const std::string& key) {
  if (!obj.is_object() || !obj.Has(key)) {
    return Status::InvalidArgument("missing required field '" + key + "'");
  }
  return obj.Get(key);
}

Result<std::string> RequireString(const JsonValue& obj,
                                  const std::string& key) {
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* node, RequireField(obj, key));
  if (!node->is_string()) {
    return Status::InvalidArgument("'" + key + "' must be a string");
  }
  return node->AsString();
}

Result<int64_t> RequireInt(const JsonValue& obj, const std::string& key) {
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* node, RequireField(obj, key));
  auto value = node->AsInt();
  if (!value.ok()) {
    return Status::InvalidArgument("'" + key + "' must be an integer");
  }
  return *value;
}

Result<uint64_t> RequireUint64(const JsonValue& obj, const std::string& key) {
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* node, RequireField(obj, key));
  auto value = node->AsUint64();
  if (!value.ok()) {
    return Status::InvalidArgument("'" + key + "' must be a non-negative " +
                                   "64-bit integer (" +
                                   value.status().message() + ")");
  }
  return *value;
}

Result<double> RequireDouble(const JsonValue& obj, const std::string& key) {
  RECPRIV_ASSIGN_OR_RETURN(const JsonValue* node, RequireField(obj, key));
  auto value = node->AsDouble();
  if (!value.ok()) {
    return Status::InvalidArgument("'" + key + "' must be a number");
  }
  return *value;
}

}  // namespace recpriv
