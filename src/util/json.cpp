#include "util/json.h"

#include <charconv>
#include <cstdio>
#include <limits>
#include <utility>

namespace syrwatch::util::json {

namespace {

void append_quoted(std::string& out, std::string_view text) {
  constexpr std::string_view kNamed = "\"\\\n\r\t";
  out += '"';
  for (const char c : text) {
    if (const auto named = kNamed.find(c); named != std::string_view::npos) {
      out += '\\';
      out += "\"\\nrt"[named];
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", static_cast<unsigned>(c));
      out += buffer;
    } else {
      out += c;
    }
  }
  out += '"';
}

[[noreturn]] void fail(const std::string& message, std::size_t offset) {
  throw Error("json: " + message + " (offset " + std::to_string(offset) + ")",
              offset);
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value document() {
    if (text_.size() > kMaxBytes)
      json::fail("document of " + std::to_string(text_.size()) +
                     " bytes is over the " + std::to_string(kMaxBytes) +
                     "-byte limit",
                 kMaxBytes);
    Value value = parse_value(0);
    skip_ws();
    if (cursor_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    json::fail(message, cursor_);
  }

  void skip_ws() {
    while (cursor_ < text_.size() &&
           std::string_view{" \t\n\r"}.find(text_[cursor_]) !=
               std::string_view::npos)
      ++cursor_;
  }

  char peek() const {
    if (cursor_ >= text_.size()) fail("unexpected end of document");
    return text_[cursor_];
  }

  void expect(char c) {
    if (peek() != c)
      fail(std::string("expected '") + c + "', got '" + peek() + "'");
    ++cursor_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(cursor_, literal.size()) != literal) return false;
    cursor_ += literal.size();
    return true;
  }

  Value parse_value(std::size_t depth) {
    skip_ws();
    const char c = peek();
    Value value;
    value.offset = cursor_;
    if (c == '{' || c == '[') {
      if (depth == kMaxDepth)
        fail("containers nested deeper than " + std::to_string(kMaxDepth));
      value.kind = c == '{' ? Value::Kind::kObject : Value::Kind::kArray;
      parse_members(value, depth + 1, c == '{' ? '}' : ']');
    } else if (c == '"') {
      value.kind = Value::Kind::kString;
      value.string = parse_string();
    } else if (consume_literal("true")) {
      value.kind = Value::Kind::kBool;
      value.boolean = true;
    } else if (consume_literal("false")) {
      value.kind = Value::Kind::kBool;
    } else if (consume_literal("null")) {
      // Value::Kind::kNull is the default.
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      parse_number(value);
    } else {
      fail("unexpected character");
    }
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (cursor_ >= text_.size()) fail("unterminated string");
      const char c = text_[cursor_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (cursor_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[cursor_++];
      constexpr std::string_view kEscapes = "\"\\/bfnrt";
      constexpr std::string_view kEscaped = "\"\\/\b\f\n\r\t";
      if (const auto at = kEscapes.find(escape);
          at != std::string_view::npos) {
        out += kEscaped[at];
        continue;
      }
      if (escape != 'u') fail("unknown escape");
      const char* digits = text_.data() + cursor_;
      unsigned code = 0;
      if (cursor_ + 4 > text_.size() ||
          std::from_chars(digits, digits + 4, code, 16).ptr != digits + 4)
        fail("bad \\u escape");
      cursor_ += 4;
      // The writer emits \u only for control bytes; decode ASCII exactly
      // and substitute anything wider.
      out += code < 0x80 ? static_cast<char>(code) : '?';
    }
  }

  void parse_number(Value& value) {
    const std::size_t start = cursor_;
    if (peek() == '-') ++cursor_;
    while (cursor_ < text_.size() &&
           std::string_view{"0123456789.eE+-"}.find(text_[cursor_]) !=
               std::string_view::npos)
      ++cursor_;
    const std::string_view token = text_.substr(start, cursor_ - start);
    value.kind = Value::Kind::kNumber;
    const bool minus = token.front() == '-';
    const char* first = token.data() + (minus ? 1 : 0);
    const char* last = token.data() + token.size();
    const auto [end, error] = std::from_chars(first, last, value.magnitude);
    if (error == std::errc::result_out_of_range)
      json::fail("number out of range " + std::string(token), start);
    if (error != std::errc{})
      json::fail("bad number " + std::string(token), start);
    if (end != last)
      json::fail("non-integer number " + std::string(token), start);
    value.negative = minus && value.magnitude != 0;
  }

  /// The members of the array or object whose opening bracket is next,
  /// up to its `close` bracket.
  void parse_members(Value& value, std::size_t depth, char close) {
    ++cursor_;
    skip_ws();
    if (peek() == close) {
      ++cursor_;
      return;
    }
    for (;;) {
      if (value.kind == Value::Kind::kArray) {
        value.array.push_back(parse_value(depth));
      } else {
        skip_ws();
        const std::size_t key_offset = cursor_;
        std::string key = parse_string();
        skip_ws();
        expect(':');
        Value member = parse_value(depth);
        if (!value.object.emplace(key, std::move(member)).second)
          json::fail("duplicate key \"" + key + "\"", key_offset);
      }
      skip_ws();
      const char c = peek();
      ++cursor_;
      if (c == close) return;
      if (c != ',') fail(std::string("expected ',' or '") + close + "'");
    }
  }

  std::string_view text_;
  std::size_t cursor_ = 0;
};

[[noreturn]] void field_error(std::string_view key, const char* problem,
                              std::size_t offset) {
  fail("field \"" + std::string(key) + "\" " + problem, offset);
}

/// Member `key` of `object`, refused with `problem` unless it is a `kind`.
const Value& typed(const Value& object, std::string_view key,
                   Value::Kind kind, const char* problem) {
  const Value& member = object.at(key);
  if (member.kind != kind) field_error(key, problem, member.offset);
  return member;
}

}  // namespace

Writer::Writer(Layout layout, int significant_digits)
    : pretty_(layout == Layout::kPretty), digits_(significant_digits) {}

void Writer::next_item() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (open_.empty()) return;
  Container& container = open_.back();
  if (!container.empty) out_ += ',';
  if (container.lines) {
    out_ += '\n';
    out_.append(2 * open_.size(), ' ');
  } else if (pretty_ && !container.empty) {
    out_ += ' ';
  }
  container.empty = false;
}

Writer& Writer::open(char bracket, Wrap wrap) {
  next_item();
  // Only the top level and, unless asked inline, the level below it are
  // written one member per line.
  const bool lines = pretty_ && (open_.empty() ||
                                 (open_.size() == 1 && wrap == Wrap::kLines));
  open_.push_back({lines, true});
  out_ += bracket;
  return *this;
}

Writer& Writer::close(char bracket) {
  const Container container = open_.back();
  open_.pop_back();
  if (container.lines && !container.empty) {
    out_ += '\n';
    out_.append(2 * open_.size(), ' ');
  }
  out_ += bracket;
  return *this;
}

Writer& Writer::begin_object() { return open('{', Wrap::kLines); }
Writer& Writer::end_object() { return close('}'); }
Writer& Writer::begin_array(Wrap wrap) { return open('[', wrap); }
Writer& Writer::end_array() { return close(']'); }

Writer& Writer::key(std::string_view name) {
  next_item();
  append_quoted(out_, name);
  out_ += pretty_ ? ": " : ":";
  after_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view text) {
  next_item();
  append_quoted(out_, text);
  return *this;
}

Writer& Writer::value(std::uint64_t number) {
  return raw(std::to_string(number));
}

Writer& Writer::value(std::int64_t number) {
  return raw(std::to_string(number));
}

Writer& Writer::value(double number) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.*g", digits_, number);
  return raw(buffer);
}

Writer& Writer::value(bool flag) { return raw(flag ? "true" : "false"); }

Writer& Writer::raw(std::string_view token) {
  next_item();
  out_ += token;
  return *this;
}

std::string Writer::finish() {
  if (pretty_) out_ += '\n';
  return std::move(out_);
}

const Value* Value::find(std::string_view key) const {
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

const Value& Value::at(std::string_view key) const {
  const Value* member = find(key);
  if (member == nullptr)
    fail("missing field \"" + std::string(key) + "\"", offset);
  return *member;
}

const std::string& Value::string_at(std::string_view key) const {
  return typed(*this, key, Kind::kString, "is not a string").string;
}

std::uint64_t Value::u64_at(std::string_view key) const {
  constexpr const char* kProblem = "is not a non-negative integer";
  const Value& member = typed(*this, key, Kind::kNumber, kProblem);
  if (member.negative) field_error(key, kProblem, member.offset);
  return member.magnitude;
}

std::int64_t Value::i64_at(std::string_view key) const {
  const Value& member = typed(*this, key, Kind::kNumber, "is not an integer");
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (member.magnitude > kMax + (member.negative ? 1 : 0))
    field_error(key, "is out of range", member.offset);
  return member.negative ? static_cast<std::int64_t>(0 - member.magnitude)
                         : static_cast<std::int64_t>(member.magnitude);
}

bool Value::bool_at(std::string_view key) const {
  return typed(*this, key, Kind::kBool, "is not a boolean").boolean;
}

Value parse(std::string_view text) { return Parser{text}.document(); }

}  // namespace syrwatch::util::json
