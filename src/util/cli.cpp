#include "util/cli.h"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace syrwatch::util {

void CliFlags::value_flag(std::string name) {
  flags_.push_back({std::move(name), /*takes_value=*/true});
}

void CliFlags::bool_flag(std::string name) {
  flags_.push_back({std::move(name), /*takes_value=*/false});
}

CliFlags::Flag* CliFlags::find(std::string_view name) noexcept {
  for (Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

const CliFlags::Flag* CliFlags::find(std::string_view name) const noexcept {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

bool CliFlags::parse(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string_view token{argv[i]};
    if (token.size() < 3 || token.substr(0, 2) != "--") {
      positional_.emplace_back(token);
      continue;
    }
    // Both standard spellings work: `--flag value` and `--flag=value`.
    // Splitting on the first '=' keeps values containing '=' intact
    // (--keyword a=b). The flag is looked up by its bare name, so the two
    // spellings share one `seen` slot and `--x v --x=w` is a duplicate.
    const auto equals = token.find('=');
    const std::string_view name =
        equals == std::string_view::npos ? token : token.substr(0, equals);
    Flag* flag = find(name);
    if (flag == nullptr) {
      error_ = "unknown flag " + std::string(name);
      return false;
    }
    if (flag->seen) {
      error_ = "duplicate flag " + flag->name;
      return false;
    }
    flag->seen = true;
    if (!flag->takes_value) {
      if (equals != std::string_view::npos) {
        error_ = "flag " + flag->name + " does not take a value";
        return false;
      }
      continue;
    }
    if (equals != std::string_view::npos) {
      flag->value = std::string(token.substr(equals + 1));
    } else {
      if (i + 1 >= argc) {
        error_ = "flag " + flag->name + " expects a value";
        return false;
      }
      flag->value = argv[++i];
    }
  }
  return true;
}

bool CliFlags::has(std::string_view name) const noexcept {
  const Flag* flag = find(name);
  return flag != nullptr && flag->seen;
}

std::optional<std::string_view> CliFlags::get(std::string_view name) const {
  const Flag* flag = find(name);
  if (flag == nullptr || !flag->takes_value || !flag->seen)
    return std::nullopt;
  return std::string_view{flag->value};
}

namespace {

template <typename T>
T parse_number(std::string_view name, std::string_view text, T fallback,
               bool present) {
  if (!present) return fallback;
  T value{};
  const auto [rest, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || rest != text.data() + text.size() ||
      !std::isfinite(static_cast<double>(value))) {
    throw std::invalid_argument("flag " + std::string(name) +
                                " expects a number, got \"" +
                                std::string(text) + "\"");
  }
  return value;
}

}  // namespace

std::uint64_t CliFlags::get_u64(std::string_view name,
                                std::uint64_t fallback) const {
  const auto text = get(name);
  return parse_number<std::uint64_t>(name, text.value_or(""), fallback,
                                     text.has_value());
}

std::int64_t CliFlags::get_i64(std::string_view name,
                               std::int64_t fallback) const {
  const auto text = get(name);
  return parse_number<std::int64_t>(name, text.value_or(""), fallback,
                                    text.has_value());
}

double CliFlags::get_double(std::string_view name, double fallback) const {
  const auto text = get(name);
  return parse_number<double>(name, text.value_or(""), fallback,
                              text.has_value());
}

}  // namespace syrwatch::util
