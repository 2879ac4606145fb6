// Minimal dependency-free JSON: a strict RFC 8259 parser and a round-trip
// emitter, sized for scenario files and bench reports (kilobytes, not
// gigabytes).
//
// dump() is the only code that writes JSON text: every artifact (bench
// reports, metrics sidecars, timeline/attribution/INT JSONL, Chrome traces)
// is built as Values. The large ones stay within that size by dumping one
// Value per line or per trace event instead of one tree for the whole file.
//
// Design constraints, in order:
//   * Strict. No comments, no trailing commas, no NaN/Inf, no unpaired
//     surrogates, exactly one top-level value. A scenario file that parses
//     here parses everywhere.
//   * Diagnosable. Every parse error carries the 1-based line and column of
//     the offending byte; the scenario loader then prefixes the JSON path.
//   * Deterministic. Objects preserve insertion order (no hashing), duplicate
//     keys are a parse error (silent last-wins would make a fuzzed scenario
//     differ from its re-emitted form), and `dump()` of a parsed value
//     re-parses to an equal value — the json_test fuzz loop holds
//     parse(dump(v)) == v for 2000 random documents.
//   * Bounded. Nesting depth is capped (default 64) so a "[[[[..." depth bomb
//     fails with an error instead of a stack overflow.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace switchml::json {

class Value;

enum class Kind : std::uint8_t { Null, Bool, Int, Double, String, Array, Object };

[[nodiscard]] const char* to_string(Kind k);

using Array = std::vector<Value>;
// Insertion-ordered; parse rejects duplicate keys so lookup is unambiguous.
using Object = std::vector<std::pair<std::string, Value>>;

class Value {
public:
  Value() = default; // null
  Value(std::nullptr_t) {}
  Value(bool b) : kind_(Kind::Bool), bool_(b) {}
  Value(std::int64_t i) : kind_(Kind::Int), int_(i) {}
  Value(int i) : Value(static_cast<std::int64_t>(i)) {}
  Value(double d) : kind_(Kind::Double), double_(d) {}
  Value(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
  Value(const char* s) : Value(std::string(s)) {}
  Value(Array a) : kind_(Kind::Array), array_(std::move(a)) {}
  Value(Object o) : kind_(Kind::Object), object_(std::move(o)) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::Bool; }
  [[nodiscard]] bool is_int() const { return kind_ == Kind::Int; }
  [[nodiscard]] bool is_double() const { return kind_ == Kind::Double; }
  // Any JSON number: an integer literal or a double literal.
  [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }

  // Checked accessors: throw std::runtime_error naming expected vs actual
  // kind. Callers wanting path-qualified messages (the scenario loader) catch
  // and re-throw with their own context.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;      // Int only (doubles don't narrow)
  [[nodiscard]] double as_double() const;          // Int or Double
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Array& as_array();
  [[nodiscard]] Object& as_object();

  // Object lookup; null when `key` is absent or *this is not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  // Appends to an object under construction (no duplicate check; the emitter
  // is trusted, the parser is not).
  void set(std::string key, Value v);

  [[nodiscard]] bool operator==(const Value& rhs) const;

  // Compact (single-line) serialization; `pretty` indents with two spaces.
  // Doubles emit the shortest decimal form that round-trips bit-exactly.
  [[nodiscard]] std::string dump(bool pretty = false) const;

private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

struct ParseError : std::runtime_error {
  // what(): "[file: ]line L, col C: message"
  ParseError(int line, int column, const std::string& message, const std::string& file = "");
  int line;   // 1-based
  int column; // 1-based, in bytes
};

// Parses exactly one JSON document (trailing whitespace allowed, anything
// else is an error). Throws ParseError.
[[nodiscard]] Value parse(std::string_view text, int max_depth = 64);

// Reads and parses a whole file; throws std::runtime_error (unreadable file)
// or ParseError with the message prefixed by `path`.
[[nodiscard]] Value parse_file(const std::string& path, int max_depth = 64);

} // namespace switchml::json
