#include "common/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace switchml::json {

const char* to_string(Kind k) {
  switch (k) {
  case Kind::Null: return "null";
  case Kind::Bool: return "bool";
  case Kind::Int: return "int";
  case Kind::Double: return "double";
  case Kind::String: return "string";
  case Kind::Array: return "array";
  case Kind::Object: return "object";
  }
  return "?";
}

namespace {
[[noreturn]] void kind_mismatch(const char* want, Kind got) {
  throw std::runtime_error(std::string("json: expected ") + want + ", got " + to_string(got));
}
} // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::Bool) kind_mismatch("bool", kind_);
  return bool_;
}

std::int64_t Value::as_int() const {
  if (kind_ != Kind::Int) kind_mismatch("int", kind_);
  return int_;
}

double Value::as_double() const {
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  if (kind_ != Kind::Double) kind_mismatch("number", kind_);
  return double_;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::String) kind_mismatch("string", kind_);
  return string_;
}

const Array& Value::as_array() const {
  if (kind_ != Kind::Array) kind_mismatch("array", kind_);
  return array_;
}

const Object& Value::as_object() const {
  if (kind_ != Kind::Object) kind_mismatch("object", kind_);
  return object_;
}

Array& Value::as_array() {
  if (kind_ != Kind::Array) kind_mismatch("array", kind_);
  return array_;
}

Object& Value::as_object() {
  if (kind_ != Kind::Object) kind_mismatch("object", kind_);
  return object_;
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

void Value::set(std::string key, Value v) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  if (kind_ != Kind::Object) kind_mismatch("object", kind_);
  object_.emplace_back(std::move(key), std::move(v));
}

bool Value::operator==(const Value& rhs) const {
  if (kind_ != rhs.kind_) return false;
  switch (kind_) {
  case Kind::Null: return true;
  case Kind::Bool: return bool_ == rhs.bool_;
  case Kind::Int: return int_ == rhs.int_;
  // Bit comparison (0.0 == -0.0 would be true under ==, but dump() preserves
  // the sign, so round-trip equality wants bit equality; NaN never parses).
  case Kind::Double: return double_ == rhs.double_ && std::signbit(double_) == std::signbit(rhs.double_);
  case Kind::String: return string_ == rhs.string_;
  case Kind::Array: return array_ == rhs.array_;
  case Kind::Object: return object_ == rhs.object_;
  }
  return false;
}

// --- emitter -----------------------------------------------------------------

namespace {

void emit_string(std::string_view s, std::string& out) {
  out += '"';
  std::size_t run = 0; // start of the pending run of bytes that need no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
    case '"': out += "\\\""; break;
    case '\\': out += "\\\\"; break;
    case '\b': out += "\\b"; break;
    case '\f': out += "\\f"; break;
    case '\n': out += "\\n"; break;
    case '\r': out += "\\r"; break;
    case '\t': out += "\\t"; break;
    default: {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    }
    }
  }
  out.append(s, run, s.size() - run);
  out += '"';
}

void emit_double(double d, std::string& out) {
  if (!std::isfinite(d))
    throw std::runtime_error("json: NaN/Inf cannot be serialized (not valid JSON)");
  // Shortest decimal that round-trips: try increasing precision. %.17g always
  // suffices for IEEE-754 doubles. to_chars with a precision prints exactly
  // what printf's %.*g prints, minus the locale lookups.
  char buf[40];
  char* end = buf;
  for (int prec = 15; prec <= 17; ++prec) {
    end = std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, prec).ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == d) break;
  }
  const std::string_view digits(buf, static_cast<std::size_t>(end - buf));
  out += digits;
  // Keep the number recognizably a double so parse(dump(x)) preserves kind.
  if (digits.find_first_of(".eE") == std::string_view::npos) out += ".0";
}

void emit(const Value& v, std::string& out, bool pretty, int indent) {
  const auto pad = [&](int n) {
    if (pretty) out.append(static_cast<std::size_t>(n) * 2, ' ');
  };
  switch (v.kind()) {
  case Kind::Null: out += "null"; break;
  case Kind::Bool: out += v.as_bool() ? "true" : "false"; break;
  case Kind::Int: out += std::to_string(v.as_int()); break;
  case Kind::Double: emit_double(v.as_double(), out); break;
  case Kind::String: emit_string(v.as_string(), out); break;
  case Kind::Array: {
    const Array& a = v.as_array();
    if (a.empty()) { out += "[]"; break; }
    out += '[';
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i > 0) out += ',';
      if (pretty) out += '\n';
      pad(indent + 1);
      emit(a[i], out, pretty, indent + 1);
    }
    if (pretty) { out += '\n'; pad(indent); }
    out += ']';
    break;
  }
  case Kind::Object: {
    const Object& o = v.as_object();
    if (o.empty()) { out += "{}"; break; }
    out += '{';
    for (std::size_t i = 0; i < o.size(); ++i) {
      if (i > 0) out += ',';
      if (pretty) out += '\n';
      pad(indent + 1);
      emit_string(o[i].first, out);
      out += pretty ? ": " : ":";
      emit(o[i].second, out, pretty, indent + 1);
    }
    if (pretty) { out += '\n'; pad(indent); }
    out += '}';
    break;
  }
  }
}

} // namespace

std::string Value::dump(bool pretty) const {
  std::string out;
  emit(*this, out, pretty, 0);
  if (pretty) out += '\n';
  return out;
}

// --- parser ------------------------------------------------------------------

ParseError::ParseError(int line_, int column_, const std::string& message, const std::string& file)
    : std::runtime_error((file.empty() ? "" : file + ": ") + "line " + std::to_string(line_) +
                         ", col " + std::to_string(column_) + ": " + message),
      line(line_), column(column_) {}

namespace {

class Parser {
public:
  Parser(std::string_view text, int max_depth, std::string file)
      : text_(text), file_(std::move(file)), max_depth_(max_depth) {}

  Value run() {
    skip_ws();
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after the JSON document");
    return v;
  }

private:
  [[noreturn]] void fail(const std::string& why) const {
    // Recompute line/column from the byte offset: errors are rare, documents
    // are small, and this keeps the hot path free of position bookkeeping.
    int line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') { ++line; col = 1; }
      else ++col;
    }
    throw ParseError(line, col, why, file_);
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  char get() { return text_[pos_++]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  void expect(char c) {
    if (eof() || peek() != c)
      fail(std::string("expected '") + c + "'" +
           (eof() ? " but the document ended" : std::string(", got '") + peek() + "'"));
    ++pos_;
  }

  void expect_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word)
      fail("invalid literal (expected '" + std::string(word) + "')");
    pos_ += word.size();
  }

  Value parse_value() {
    if (eof()) fail("unexpected end of document (expected a value)");
    switch (peek()) {
    case 'n': expect_word("null"); return Value();
    case 't': expect_word("true"); return Value(true);
    case 'f': expect_word("false"); return Value(false);
    case '"': return Value(parse_string());
    case '[': return parse_array();
    case '{': return parse_object();
    default: return parse_number();
    }
  }

  Value parse_array() {
    if (++depth_ > max_depth_) fail("nesting deeper than " + std::to_string(max_depth_));
    expect('[');
    Array a;
    skip_ws();
    if (!eof() && peek() == ']') { ++pos_; --depth_; return Value(std::move(a)); }
    while (true) {
      skip_ws();
      a.push_back(parse_value());
      skip_ws();
      if (eof()) fail("unterminated array");
      const char c = get();
      if (c == ']') break;
      if (c != ',') { --pos_; fail("expected ',' or ']' in array"); }
    }
    --depth_;
    return Value(std::move(a));
  }

  Value parse_object() {
    if (++depth_ > max_depth_) fail("nesting deeper than " + std::to_string(max_depth_));
    expect('{');
    Object o;
    skip_ws();
    if (!eof() && peek() == '}') { ++pos_; --depth_; return Value(std::move(o)); }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected a '\"'-quoted object key");
      std::string key = parse_string();
      for (const auto& [k, unused] : o) {
        (void)unused;
        if (k == key) fail("duplicate object key \"" + key + "\"");
      }
      skip_ws();
      expect(':');
      skip_ws();
      o.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (eof()) fail("unterminated object");
      const char c = get();
      if (c == '}') break;
      if (c != ',') { --pos_; fail("expected ',' or '}' in object"); }
    }
    --depth_;
    return Value(std::move(o));
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (eof()) fail("unterminated \\u escape");
      const char c = get();
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else { --pos_; fail("invalid hex digit in \\u escape"); }
    }
    return code;
  }

  void append_utf8(unsigned cp, std::string& out) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(get());
      if (c == '"') return out;
      if (c < 0x20) { --pos_; fail("raw control character in string (use \\u escapes)"); }
      if (c != '\\') { out += static_cast<char>(c); continue; }
      if (eof()) fail("unterminated escape sequence");
      const char e = get();
      switch (e) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        unsigned cp = parse_hex4();
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          // High surrogate: the low half must follow immediately.
          if (text_.substr(pos_, 2) != "\\u") fail("unpaired surrogate in \\u escape");
          pos_ += 2;
          const unsigned lo = parse_hex4();
          if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate in \\u escape");
          cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          fail("unpaired low surrogate in \\u escape");
        }
        append_utf8(cp, out);
        break;
      }
      default: --pos_; fail(std::string("invalid escape '\\") + e + "'");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
    // Leading zeros are forbidden: "0" is fine, "01" is not.
    if (peek() == '0') {
      ++pos_;
      if (!eof() && peek() >= '0' && peek() <= '9') fail("leading zero in number");
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    bool is_double = false;
    if (!eof() && peek() == '.') {
      is_double = true;
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("digit required after decimal point");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      is_double = true;
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("digit required in exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      const long long i = std::strtoll(token.c_str(), &end, 10);
      if (errno != ERANGE && end == token.c_str() + token.size())
        return Value(static_cast<std::int64_t>(i));
      // Integer literal outside int64: keep the value as a double.
    }
    errno = 0;
    const double d = std::strtod(token.c_str(), nullptr);
    if (errno == ERANGE && (d == HUGE_VAL || d == -HUGE_VAL))
      fail("number out of double range");
    return Value(d);
  }

  std::string_view text_;
  std::string file_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  const int max_depth_;
};

} // namespace

Value parse(std::string_view text, int max_depth) { return Parser(text, max_depth, "").run(); }

Value parse_file(const std::string& path, int max_depth) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(path + ": cannot open file");
  std::ostringstream buf;
  buf << in.rdbuf();
  return Parser(buf.str(), max_depth, path).run();
}

} // namespace switchml::json
