#include "json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace bench_e2e {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json document() {
    Json value = parse_value(0);
    skip_space();
    if (pos_ != text_.size()) fail("trailing bytes");
    return value;
  }

 private:
  // Deep enough for every document the harness reads; bounds recursion on
  // hostile input.
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json: " + std::string(what) + " at byte " +
                             std::to_string(pos_));
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t'))
      ++pos_;
  }

  bool consume(char c) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail("unexpected character");
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_space();
    if (pos_ >= text_.size()) fail("unexpected end");
    Json value;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      value.kind = Json::Kind::kObject;
      if (consume('}')) return value;
      do {
        skip_space();
        std::string key = parse_string();
        expect(':');
        value.object.insert_or_assign(std::move(key), parse_value(depth + 1));
      } while (consume(','));
      expect('}');
    } else if (c == '[') {
      ++pos_;
      value.kind = Json::Kind::kArray;
      if (consume(']')) return value;
      do {
        value.array.push_back(parse_value(depth + 1));
      } while (consume(','));
      expect(']');
    } else if (c == '"') {
      value.kind = Json::Kind::kString;
      value.string = parse_string();
    } else if (literal("true")) {
      value.kind = Json::Kind::kBool;
      value.boolean = true;
    } else if (literal("false")) {
      value.kind = Json::Kind::kBool;
    } else if (literal("null")) {
      value.kind = Json::Kind::kNull;
    } else {
      value.kind = Json::Kind::kNumber;
      value.number = parse_number();
    }
    return value;
  }

  double parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::string_view{"+-.0123456789eE"}.find(text_[pos_]) !=
               std::string_view::npos)
      ++pos_;
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || end != text_.data() + pos_ || pos_ == start)
      fail("bad number");
    return value;
  }

  std::string parse_string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out += e; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // The harness's documents are ASCII; keep BMP code points as
          // UTF-8 and do not pair surrogates.
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          unsigned code = 0;
          const auto [end, ec] = std::from_chars(
              text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
          if (ec != std::errc{} || end != text_.data() + pos_ + 4)
            fail("bad \\u escape");
          pos_ += 4;
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
        default: fail("bad escape");
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const Json* Json::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

double Json::number_at(std::string_view key, double fallback) const {
  const Json* value = find(key);
  return value != nullptr && value->kind == Kind::kNumber ? value->number
                                                          : fallback;
}

Json parse_json(std::string_view text) { return Parser{text}.document(); }

Json load_json(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  try {
    return parse_json(bytes.str());
  } catch (const std::runtime_error& error) {
    throw std::runtime_error(path + ": " + error.what());
  }
}

std::string quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc{} ? std::string(buf, end) : "0";
}

}  // namespace bench_e2e
