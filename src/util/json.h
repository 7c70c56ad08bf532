#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace syrwatch::util::json {

/// The one JSON module: the writer of the metrics, manifest and stream
/// documents (syrwatch.{metrics,manifest,stream}.v1) and the reader that
/// loads manifests back. Other tools read these documents with readers of
/// their own, so the writer's bytes are a contract (tests/test_json.cpp).

/// Builds one document in call order, adding only separators and
/// whitespace. kPretty is the metrics and manifest layout: the top-level
/// object has one member per line indented two spaces, ": " after each
/// key, and a final "}\n"; a container directly inside it is one member
/// per line too, indented four spaces (`{}` / `[]` when empty), unless
/// opened with Wrap::kInline; deeper containers are inline with ", "
/// between members. kCompact writes no whitespace and no final newline.
/// In strings ", \, \n, \r and \t get their named escapes, other bytes
/// below 0x20 become \u00xx, and bytes from 0x80 up pass through raw, so
/// UTF-8 stays UTF-8.
class Writer {
 public:
  enum class Layout { kPretty, kCompact };
  enum class Wrap { kLines, kInline };

  /// Doubles are printed with `%.<significant_digits>g`.
  Writer(Layout layout, int significant_digits);

  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array(Wrap wrap = Wrap::kLines);
  Writer& end_array();

  /// The next member's key; its value follows with one of the calls below.
  Writer& key(std::string_view name);

  Writer& value(std::string_view text);
  Writer& value(const char* text) { return value(std::string_view{text}); }
  Writer& value(std::uint64_t number);
  Writer& value(std::int64_t number);
  Writer& value(double number);
  Writer& value(bool flag);

  /// The finished document. The writer is spent afterwards.
  std::string finish();

 private:
  struct Container {
    bool lines = false;
    bool empty = true;
  };

  Writer& open(char bracket, Wrap wrap);
  Writer& close(char bracket);
  /// A number or a literal, as is.
  Writer& raw(std::string_view token);
  /// The separator and indentation before a key or an array element.
  void next_item();

  bool pretty_;
  int digits_;
  bool after_key_ = false;
  std::vector<Container> open_;
  std::string out_;
};

/// The reader's limits: a longer document is refused before it is parsed,
/// and deeper nesting (the manifest needs 3 levels) instead of recursing.
inline constexpr std::size_t kMaxBytes = std::size_t{1} << 20;
inline constexpr std::size_t kMaxDepth = 64;

/// Every reading failure: malformed text, a limit, a missing or mistyped
/// field. offset() is the byte where it was found.
class Error : public std::runtime_error {
 public:
  Error(const std::string& what, std::size_t offset)
      : std::runtime_error(what), offset_(offset) {}
  std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// A parsed value. Numbers are integers kept as sign + 64-bit magnitude,
/// so every uint64_t and every int64_t round-trips; a fraction or an
/// exponent is refused.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::uint64_t magnitude = 0;
  bool negative = false;
  std::string string;
  std::vector<Value> array;
  /// Keys are unique: a document that repeats one is refused.
  std::map<std::string, Value, std::less<>> object;
  /// Byte offset of the value's first character.
  std::size_t offset = 0;

  /// Member `key` of an object, or nullptr when it is absent.
  const Value* find(std::string_view key) const;

  /// Typed members of an object. Each throws Error naming `key` when the
  /// member is missing or holds something else.
  const Value& at(std::string_view key) const;
  const std::string& string_at(std::string_view key) const;
  std::uint64_t u64_at(std::string_view key) const;
  std::int64_t i64_at(std::string_view key) const;
  bool bool_at(std::string_view key) const;
};

/// Parses one document: whitespace, then a value, then only whitespace.
/// Throws Error on malformed text and on input over kMaxBytes or nested
/// deeper than kMaxDepth.
Value parse(std::string_view text);

}  // namespace syrwatch::util::json
