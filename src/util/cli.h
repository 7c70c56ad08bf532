#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace syrwatch::util {

/// Declarative flag scanner shared by the CLI subcommands. A command
/// declares its flags up front, parse() walks argv once, and anything
/// unexpected — an undeclared flag, a value flag at the end of the line, a
/// flag given twice — fails with a message naming the offender instead of
/// being silently ignored.
///
/// Grammar: tokens starting with "--" are flags; a value flag either
/// consumes the following token verbatim (so negative numbers and paths
/// work) or takes everything after the first '=' in its own token
/// (`--out=FILE`, values containing '=' stay intact). Both spellings are
/// the same flag — `--x v --x=w` is a duplicate. Every other token is
/// positional, in order.
class CliFlags {
 public:
  /// Declares a flag that takes one value, e.g. `--out FILE`.
  void value_flag(std::string name);
  /// Declares a presence-only flag, e.g. `--no-leak-filter`.
  void bool_flag(std::string name);

  /// Parses argv[first, argc). Returns false and records error() on the
  /// first violation; the flag/positional state is then unspecified.
  /// `first` defaults past `syrwatchctl <subcommand>`.
  bool parse(int argc, char** argv, int first = 2);

  /// Empty until a parse() fails.
  const std::string& error() const noexcept { return error_; }

  /// True when the flag (either kind) appeared.
  bool has(std::string_view name) const noexcept;

  /// The value of a value flag, or nullopt when it did not appear.
  std::optional<std::string_view> get(std::string_view name) const;

  /// Parsed numeric value, or `fallback` when the flag did not appear.
  /// Throws std::invalid_argument (naming the flag) on non-numeric text.
  std::uint64_t get_u64(std::string_view name, std::uint64_t fallback) const;
  std::int64_t get_i64(std::string_view name, std::int64_t fallback) const;
  /// Also refuses inf and nan.
  double get_double(std::string_view name, double fallback) const;

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  struct Flag {
    std::string name;
    bool takes_value = false;
    bool seen = false;
    std::string value;
  };

  Flag* find(std::string_view name) noexcept;
  const Flag* find(std::string_view name) const noexcept;

  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
  std::string error_;
};

}  // namespace syrwatch::util
