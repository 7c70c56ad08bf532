// The normalized CLI surface: the shared flag parser used by every
// syrwatchctl subcommand.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.h"

namespace {

using namespace syrwatch;

// --- util::CliFlags --------------------------------------------------------

std::vector<char*> argv_of(std::vector<std::string>& tokens) {
  std::vector<char*> argv;
  for (auto& token : tokens) argv.push_back(token.data());
  return argv;
}

TEST(CliFlags, ParsesDeclaredFlagsAndPositionals) {
  util::CliFlags cli;
  cli.value_flag("--out");
  cli.value_flag("--requests");
  cli.bool_flag("--no-leak-filter");
  std::vector<std::string> tokens{"syrwatchctl", "generate",
                                  "--out",       "sg.log",
                                  "first.log",   "--no-leak-filter",
                                  "--requests",  "5000",
                                  "second.log"};
  auto argv = argv_of(tokens);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(cli.error().empty());
  EXPECT_TRUE(cli.has("--out"));
  EXPECT_TRUE(cli.has("--no-leak-filter"));
  EXPECT_EQ(cli.get("--out"), "sg.log");
  EXPECT_EQ(cli.get_u64("--requests", 0), 5000u);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "first.log");
  EXPECT_EQ(cli.positional()[1], "second.log");
}

TEST(CliFlags, AbsentFlagsFallBack) {
  util::CliFlags cli;
  cli.value_flag("--requests");
  cli.bool_flag("--metrics");
  std::vector<std::string> tokens{"syrwatchctl", "stats", "input.log"};
  auto argv = argv_of(tokens);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_FALSE(cli.has("--metrics"));
  EXPECT_EQ(cli.get("--requests"), std::nullopt);
  EXPECT_EQ(cli.get_u64("--requests", 42), 42u);
  EXPECT_EQ(cli.get_i64("--requests", -7), -7);
}

TEST(CliFlags, RejectsUnknownFlagByName) {
  util::CliFlags cli;
  cli.value_flag("--out");
  std::vector<std::string> tokens{"syrwatchctl", "generate", "--typo", "x"};
  auto argv = argv_of(tokens);
  EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_NE(cli.error().find("unknown flag"), std::string::npos);
  EXPECT_NE(cli.error().find("--typo"), std::string::npos);
}

TEST(CliFlags, RejectsValueFlagWithoutValue) {
  util::CliFlags cli;
  cli.value_flag("--out");
  std::vector<std::string> tokens{"syrwatchctl", "generate", "--out"};
  auto argv = argv_of(tokens);
  EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_NE(cli.error().find("expects a value"), std::string::npos);
  EXPECT_NE(cli.error().find("--out"), std::string::npos);
}

TEST(CliFlags, RejectsDuplicateFlag) {
  util::CliFlags cli;
  cli.value_flag("--seed");
  std::vector<std::string> tokens{"syrwatchctl", "generate", "--seed", "1",
                                  "--seed", "2"};
  auto argv = argv_of(tokens);
  EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_NE(cli.error().find("duplicate flag"), std::string::npos);
  EXPECT_NE(cli.error().find("--seed"), std::string::npos);
}

TEST(CliFlags, AcceptsEqualsSpelling) {
  util::CliFlags cli;
  cli.value_flag("--out");
  cli.value_flag("--keyword");
  cli.value_flag("--requests");
  std::vector<std::string> tokens{"syrwatchctl", "generate",
                                  "--out=sg.log", "--keyword=a=b",
                                  "--requests", "5000"};
  auto argv = argv_of(tokens);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()))
      << cli.error();
  EXPECT_EQ(cli.get("--out"), "sg.log");
  // Only the first '=' splits: values containing '=' stay intact.
  EXPECT_EQ(cli.get("--keyword"), "a=b");
  EXPECT_EQ(cli.get_u64("--requests", 0), 5000u);
}

TEST(CliFlags, EqualsAndSpacedSpellingAreTheSameFlag) {
  util::CliFlags cli;
  cli.value_flag("--out");
  std::vector<std::string> tokens{"syrwatchctl", "generate", "--out", "a",
                                  "--out=b"};
  auto argv = argv_of(tokens);
  EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.error(), "duplicate flag --out");
}

TEST(CliFlags, BoolFlagRejectsValue) {
  util::CliFlags cli;
  cli.bool_flag("--resume");
  std::vector<std::string> tokens{"syrwatchctl", "generate", "--resume=yes"};
  auto argv = argv_of(tokens);
  EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.error(), "flag --resume does not take a value");
}

TEST(CliFlags, ValueFlagConsumesNegativeNumbersVerbatim) {
  util::CliFlags cli;
  cli.value_flag("--offset");
  std::vector<std::string> tokens{"syrwatchctl", "stats", "--offset", "-300"};
  auto argv = argv_of(tokens);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.get_i64("--offset", 0), -300);
}

TEST(CliFlags, NumericAccessorsNameTheFlagOnBadInput) {
  util::CliFlags cli;
  cli.value_flag("--requests");
  std::vector<std::string> tokens{"syrwatchctl", "profile", "--requests",
                                  "lots"};
  auto argv = argv_of(tokens);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  try {
    cli.get_u64("--requests", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--requests"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("lots"), std::string::npos);
  }
}

TEST(CliFlags, DoubleAccessorTakesWholeFiniteNumbersOnly) {
  // --deadline used to go through std::stod, which read "5abc" as 5 and
  // failed on "abc" with a bare "stod".
  for (const char* text : {"abc", "5abc", "inf", "nan", ""}) {
    util::CliFlags cli;
    cli.value_flag("--deadline");
    std::vector<std::string> tokens{"syrwatchctl", "watch", "--deadline",
                                    text};
    auto argv = argv_of(tokens);
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_THROW(cli.get_double("--deadline", 0.0), std::invalid_argument)
        << text;
  }
  util::CliFlags cli;
  cli.value_flag("--deadline");
  std::vector<std::string> tokens{"syrwatchctl", "watch", "--deadline=2.5"};
  auto argv = argv_of(tokens);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.get_double("--deadline", 0.0), 2.5);
  EXPECT_EQ(cli.get_double("--absent", 7.0), 7.0);
}


}  // namespace
