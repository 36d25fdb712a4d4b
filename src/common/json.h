// Minimal JSON value model, writer, and pull reader — used by the release
// manifest (analysis/release.h) so published data is self-describing, and
// by the wire protocol (serve/wire.h). Supports the full JSON grammar
// except surrogate-pair \u escapes (non-BMP characters), which are
// rejected on parse.
//
// JsonReader is the one grammar in the tree: JsonValue::Parse builds its
// tree on top of it, and a codec that knows its document's shape (the wire
// protocol's query op) can read the same grammar straight into its own
// structs, with no tree in between. The writer side is shared the same
// way: json::EscapeInto / json::NumberInto are exactly what
// JsonValue::ToString prints for a string and for a non-integer number.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace recpriv {

class JsonReader;

/// A JSON number: the nearest double, plus the exact integer when the
/// number was built from one or read from pure integer syntax that fits 64
/// bits. The full int64/uint64 value then survives write -> read ->
/// accessor round trips bit-exactly, even above 2^53 where a double would
/// silently round.
class JsonNumber {
 public:
  JsonNumber() = default;
  static JsonNumber Double(double v);
  static JsonNumber Int(int64_t v);
  static JsonNumber Uint(uint64_t v);

  double AsDouble() const { return value_; }
  /// Error when the value is not an integer in int64 range.
  Result<int64_t> AsInt() const;
  /// Integer-exact accessor for unsigned wire fields (epochs, offsets,
  /// byte counts, counters): INVALID_ARGUMENT on non-integral, negative,
  /// or out-of-range values — including integral doubles above 2^53,
  /// which are not exact and must not be silently trusted.
  Result<uint64_t> AsUint64() const;

  /// Appends the number as JsonValue::ToString prints it: exact integers
  /// as their digits, anything else through json::NumberInto.
  void AppendTo(std::string& out) const;

 private:
  double value_ = 0.0;
  bool exact_int_ = false;
  bool negative_ = false;
  uint64_t magnitude_ = 0;  ///< |value| when exact_int_
};

namespace json {

/// Appends `s` as a quoted JSON string literal, escaping '"', '\\' and
/// control characters; every other byte (UTF-8 included) is copied as is.
void EscapeInto(std::string_view s, std::string& out);

/// Appends a double: integral values below 1e15 in magnitude as integers,
/// everything else with %.17g (the shortest format that round-trips).
void NumberInto(double v, std::string& out);

}  // namespace json

/// A JSON document node: null, bool, number (double), string, array, or
/// object (string-keyed, sorted for deterministic output).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double v);
  /// Integer-exact number nodes (see JsonNumber). `AsDouble` still works
  /// (nearest double) for consumers that do arithmetic.
  static JsonValue Int(int64_t v);
  static JsonValue Uint(uint64_t v);
  static JsonValue Number(JsonNumber n);
  static JsonValue String(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; error when the node has a different type.
  Result<bool> AsBool() const;
  Result<double> AsDouble() const;
  Result<int64_t> AsInt() const;
  /// See JsonNumber::AsUint64.
  Result<uint64_t> AsUint64() const;
  Result<std::string> AsString() const;
  /// Zero-copy view of a string node — for payload-sized strings (wire
  /// chunk data) where AsString's copy would be a measurable pass. The
  /// view is valid only while this node is alive and unmodified.
  Result<std::string_view> AsStringView() const;

  /// Array operations.
  JsonValue& Append(JsonValue v);        ///< requires is_array()
  size_t size() const;                   ///< array/object element count
  Result<const JsonValue*> At(size_t i) const;  ///< array index

  /// Object operations.
  JsonValue& Set(const std::string& key, JsonValue v);  ///< requires object
  bool Has(const std::string& key) const;
  Result<const JsonValue*> Get(const std::string& key) const;
  /// Keys of an object in sorted order; empty for non-objects.
  std::vector<std::string> Keys() const;

  /// Serializes; `indent` > 0 pretty-prints with that many spaces.
  std::string ToString(int indent = 0) const;
  /// Appends the compact serialization (ToString() with no indent).
  void AppendTo(std::string& out) const;

  /// Parses a complete JSON document (trailing garbage is an error).
  static Result<JsonValue> Parse(const std::string& text);
  /// Reads the reader's next value into a tree.
  static Result<JsonValue> Read(JsonReader& reader);

 private:
  Type type_;
  bool bool_ = false;
  JsonNumber number_;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;

  void WriteTo(std::string& out, int indent, int depth) const;
};

/// Pull reader over one JSON text. Each call consumes one token or value
/// and returns false on the first grammar error; the reader then stays
/// failed and status() says where and why ("JSON parse error at offset N:
/// ..."). Strings come back as views: into the text when they hold no
/// escape, else into the caller's scratch string, so a view is valid until
/// the text goes away or the scratch is reused.
///
/// Containers are read with a loop:
///
///   if (!r.BeginObject()) return r.status();
///   std::string_view key;
///   bool more;
///   while (r.NextMember(&key, &scratch, &more) && more) { ...read value... }
///   if (!r.ok()) return r.status();
///
/// Every value must be read (JsonValue::Read takes any) before the next
/// member or element.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Skips whitespace and classifies the next value by its first byte:
  /// '{' object, '[' array, '"' string, 't'/'f' bool, 'n' null, anything
  /// else a number (the number read reports a malformed one). False at the
  /// end of the input.
  bool Peek(JsonValue::Type* type);

  bool ReadNull();
  bool ReadBool(bool* out);
  bool ReadNumber(JsonNumber* out);
  bool ReadString(std::string_view* out, std::string* scratch);

  /// Consumes '{' / '['.
  bool BeginObject();
  bool BeginArray();
  /// Moves to the next member of the innermost open object: `*more` is
  /// true with `*key` set (the value comes next), or false once the
  /// object's '}' is consumed.
  bool NextMember(std::string_view* key, std::string* scratch, bool* more);
  /// Moves to the next element of the innermost open array; `*more` is
  /// false once its ']' is consumed.
  bool NextElement(bool* more);

  /// Checks that only whitespace is left.
  bool End();

  bool ok() const { return error_.empty(); }
  /// IO_ERROR "JSON parse error at offset N: <what>" after a failed call;
  /// OK otherwise.
  Status status() const;

 private:
  bool Fail(std::string what);
  void SkipWhitespace();
  bool Consume(char c);
  bool ReadLiteral(std::string_view literal);
  bool DecodeString(std::string_view* out, std::string* scratch);

  std::string_view text_;
  size_t pos_ = 0;
  /// A container was just opened: its first NextMember/NextElement may
  /// see the closing bracket but no separator.
  bool fresh_ = false;
  std::string error_;  ///< empty while the reader is ok
  size_t error_offset_ = 0;
};

/// Required-field accessors with uniform, user-facing error messages —
/// shared by every JSON codec in the tree (the wire protocol, scenario
/// files, manifests), so "missing field" and "wrong type" always read the
/// same and never drift between decoders.
Result<const JsonValue*> RequireField(const JsonValue& obj,
                                      const std::string& key);
Result<std::string> RequireString(const JsonValue& obj,
                                  const std::string& key);
Result<int64_t> RequireInt(const JsonValue& obj, const std::string& key);
/// Integer-exact required accessor for unsigned wire fields; rejects
/// non-integral, negative, and beyond-exact-range values.
Result<uint64_t> RequireUint64(const JsonValue& obj, const std::string& key);
Result<double> RequireDouble(const JsonValue& obj, const std::string& key);

}  // namespace recpriv
