#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace bench_e2e {

/// The JSON subset the harness reads back: BENCHMARK.json, the CLI's
/// syrwatch.metrics.v1 and syrwatch.stream.v1 documents, and its own
/// result files. Numbers are doubles; object keys keep sorted order.
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json, std::less<>> object;

  /// Member `key` of an object, or nullptr (also for non-objects).
  const Json* find(std::string_view key) const;
  /// Numeric member `key`, or `fallback` when absent or not a number.
  double number_at(std::string_view key, double fallback = 0.0) const;
};

/// Parses a whole document. Throws std::runtime_error naming the byte
/// offset of the first syntax error.
Json parse_json(std::string_view text);
/// parse_json over a file's contents; the error names the path.
Json load_json(const std::string& path);

/// `text` as a JSON string literal, quotes included.
std::string quote(std::string_view text);
/// Shortest decimal that reads back as exactly `value` (JSON has no NaN
/// or infinity; those render as 0).
std::string number(double value);

}  // namespace bench_e2e
