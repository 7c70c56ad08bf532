// String utilities: the case-insensitive substring matcher the keyword
// rules rely on, domain-suffix matching, splitting/joining, and the
// numeric renderers used by the report tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "util/csv.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/substring_matcher.h"

namespace {

using namespace syrwatch::util;

// --- csv_split correctness on externally produced lines --------------------

/// The fields csv_split finds on `line`, copied out; an error fails the
/// calling test.
std::vector<std::string> split_fields(std::string_view line) {
  std::array<std::string_view, 32> views;
  std::string scratch;
  const CsvSplit split = csv_split(line, views, scratch);
  EXPECT_EQ(split.error, CsvError::kNone) << line;
  return {views.begin(), views.begin() + split.count};
}

CsvError split_error(std::string_view line) {
  std::array<std::string_view, 32> views;
  std::string scratch;
  return csv_split(line, views, scratch).error;
}

TEST(CsvSplit, StripsCrlfTailFromLastField) {
  // A line reader leaves the '\r' of a CRLF-terminated line in place; the
  // splitter must not hand it to the last field.
  EXPECT_EQ(split_fields("a,b,c\r"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_fields("a\r"), (std::vector<std::string>{"a"}));
  EXPECT_EQ(split_fields("\r"), (std::vector<std::string>{""}));
  // A quoted carriage return is field data, not a terminator.
  EXPECT_EQ(split_fields("a,\"b\r\""),
            (std::vector<std::string>{"a", "b\r"}));
  // Only one terminator CR is stripped; an inner bare CR stays.
  EXPECT_EQ(split_fields("a\rb,c\r"),
            (std::vector<std::string>{"a\rb", "c"}));
}

TEST(CsvSplit, RejectsGarbageAfterClosingQuote) {
  EXPECT_EQ(split_error("\"ab\"x"), CsvError::kMalformedQuote);
  EXPECT_EQ(split_error("a,\"b\"c,d"), CsvError::kMalformedQuote);
  // The well-formed spellings around it keep parsing.
  EXPECT_EQ(split_fields("\"ab\",x"), (std::vector<std::string>{"ab", "x"}));
  EXPECT_EQ(split_fields("\"a\"\"b\""), (std::vector<std::string>{"a\"b"}));
}

TEST(CsvSplit, ClassifiesQuoteDamage) {
  EXPECT_EQ(split_error("\"never closed"), CsvError::kUnbalancedQuote);
  EXPECT_EQ(split_error("a\"b"), CsvError::kMalformedQuote);
}

TEST(ToLower, AsciiOnly) {
  EXPECT_EQ(to_lower("FaceBook.COM"), "facebook.com");
  EXPECT_EQ(to_lower(""), "");
  EXPECT_EQ(to_lower("123-abc"), "123-abc");
}

TEST(Contains, Basic) {
  EXPECT_TRUE(contains("hello world", "lo wo"));
  EXPECT_FALSE(contains("hello", "Hello"));
  EXPECT_TRUE(contains("abc", ""));
}

TEST(IContains, CaseInsensitive) {
  EXPECT_TRUE(icontains("GoogleToolbar/tbPROXY/af", "proxy"));
  EXPECT_TRUE(icontains("www.ISRAEL-news.com", "israel"));
  EXPECT_FALSE(icontains("short", "longer needle"));
  EXPECT_TRUE(icontains("anything", ""));
  EXPECT_FALSE(icontains("prox", "proxy"));
}

TEST(IContains, MatchAtBoundaries) {
  EXPECT_TRUE(icontains("proxy", "proxy"));
  EXPECT_TRUE(icontains("proxy.org/x", "proxy"));
  EXPECT_TRUE(icontains("x/ultrasurf", "ultrasurf"));
}

TEST(StartsEndsWith, Basic) {
  EXPECT_TRUE(starts_with("/tor/server", "/tor/"));
  EXPECT_FALSE(starts_with("/to", "/tor/"));
  EXPECT_TRUE(ends_with("panet.co.il", ".il"));
  EXPECT_FALSE(ends_with("il", ".il"));
}

// --- host_matches_domain: DomainRule semantics (".il" is a TLD rule) -------

struct DomainCase {
  const char* host;
  const char* domain;
  bool expected;
};

class HostMatchSweep : public ::testing::TestWithParam<DomainCase> {};

TEST_P(HostMatchSweep, Matches) {
  const auto& c = GetParam();
  EXPECT_EQ(host_matches_domain(c.host, c.domain), c.expected)
      << c.host << " vs " << c.domain;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, HostMatchSweep,
    ::testing::Values(
        DomainCase{"facebook.com", "facebook.com", true},
        DomainCase{"www.facebook.com", "facebook.com", true},
        DomainCase{"ar-ar.facebook.com", "facebook.com", true},
        DomainCase{"FACEBOOK.COM", "facebook.com", true},
        DomainCase{"notfacebook.com", "facebook.com", false},
        DomainCase{"facebook.com.evil.net", "facebook.com", false},
        DomainCase{"panet.co.il", ".il", true},
        DomainCase{"www.walla.co.il", ".il", true},
        DomainCase{"evil.com", ".il", false},
        DomainCase{"il", ".il", false},
        DomainCase{"mail.skype.com", "skype.com", true},
        DomainCase{"skype.com", "kype.com", false},
        DomainCase{"x.com", "", false}));

TEST(Split, KeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Join, RoundTripsWithSplit) {
  const std::vector<std::string> parts{"2011", "08", "03"};
  EXPECT_EQ(join(parts, "-"), "2011-08-03");
  EXPECT_EQ(split(join(parts, "-"), '-'), parts);
}

TEST(Percent, Rendering) {
  EXPECT_EQ(percent(0.2191), "21.91%");
  EXPECT_EQ(percent(0.0), "0.00%");
  EXPECT_EQ(percent(1.0), "100.00%");
  EXPECT_EQ(percent(0.12345, 1), "12.3%");
}

TEST(WithCommas, Grouping) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(751295830), "751,295,830");
}

TEST(CompactCount, MillionsSuffix) {
  EXPECT_EQ(compact_count(50'360'000), "50.36M");
  EXPECT_EQ(compact_count(1'620'000), "1.62M");
  EXPECT_EQ(compact_count(503'932), "503,932");
}

// --- SubstringMatcher ------------------------------------------------------

using Hit = std::pair<std::size_t, std::uint32_t>;  // (end offset, pattern id)

/// Every (offset of the last byte, id) a case-folded std::string::find
/// loop finds; empty patterns report nothing, as documented.
std::vector<Hit> naive_hits(std::string_view text,
                            const std::vector<std::string>& patterns) {
  const std::string folded = to_lower(text);
  std::vector<Hit> hits;
  for (std::uint32_t id = 0; id < patterns.size(); ++id) {
    const std::string pattern = to_lower(patterns[id]);
    if (pattern.empty()) continue;
    for (auto at = folded.find(pattern); at != std::string::npos;
         at = folded.find(pattern, at + 1))
      hits.push_back({at + pattern.size() - 1, id});
  }
  std::sort(hits.begin(), hits.end());
  return hits;
}

/// The matcher's hits, fed one byte per feed() call so every match spans
/// calls and each report carries its offset.
std::vector<Hit> matcher_hits(const SubstringMatcher& matcher,
                              std::string_view text) {
  std::vector<Hit> hits;
  std::uint32_t state = SubstringMatcher::kStart;
  for (std::size_t i = 0; i < text.size(); ++i)
    state = matcher.feed(state, text.substr(i, 1),
                         [&](std::uint32_t id) { hits.push_back({i, id}); });
  std::sort(hits.begin(), hits.end());
  return hits;
}

TEST(SubstringMatcher, OverlappingPatterns) {
  const std::vector<std::string> patterns{"he", "she", "his", "hers"};
  const SubstringMatcher matcher{patterns};
  // "ushers": she and he end at offset 3, hers at 5.
  const std::vector<Hit> expected{{3, 0}, {3, 1}, {5, 3}};
  EXPECT_EQ(matcher_hits(matcher, "ushers"), expected);
  EXPECT_EQ(naive_hits("ushers", patterns), expected);
  EXPECT_EQ(matcher_hits(matcher, "UsHeRs"), expected);
}

TEST(SubstringMatcher, PatternThatIsASuffixOfAnother) {
  const std::vector<std::string> patterns{"abcd", "cd", "d", "bc"};
  const SubstringMatcher matcher{patterns};
  const std::vector<Hit> expected{{3, 3}, {4, 0}, {4, 1}, {4, 2}};
  EXPECT_EQ(matcher_hits(matcher, "xabcd"), expected);
  EXPECT_EQ(naive_hits("xabcd", patterns), expected);
}

TEST(SubstringMatcher, MatchSpansTwoFeeds) {
  const std::vector<std::string> patterns{"proxy", "x?y"};
  const SubstringMatcher matcher{patterns};
  std::vector<std::uint32_t> ids;
  const auto hit = [&](std::uint32_t id) { ids.push_back(id); };
  auto state = matcher.feed(SubstringMatcher::kStart, "host.net/pro", hit);
  EXPECT_TRUE(ids.empty());
  state = matcher.feed(state, "XY", hit);
  EXPECT_EQ(ids, std::vector<std::uint32_t>{0});
  // "x" + "?" + "y" across three calls, as the policy feeds a query.
  ids.clear();
  state = matcher.feed(SubstringMatcher::kStart, "/x", hit);
  state = matcher.feed(state, "?", hit);
  matcher.feed(state, "y=1", hit);
  EXPECT_EQ(ids, std::vector<std::uint32_t>{1});
}

TEST(SubstringMatcher, BytesOutsideTheAlphabetReset) {
  const std::vector<std::string> patterns{"ab", "caf\xc3\xa9"};
  const SubstringMatcher matcher{patterns};
  for (const char* miss : {"a\xff" "b", "a?b", "A\xc3" "B", "a b", "caf\xc3"})
    EXPECT_TRUE(matcher_hits(matcher, miss).empty()) << miss;
  EXPECT_EQ(matcher_hits(matcher, "xAB"), (std::vector<Hit>{{2, 0}}));
  // UTF-8 bytes are compared exactly; only ASCII letters fold.
  EXPECT_EQ(matcher_hits(matcher, "CAF\xc3\xa9"), (std::vector<Hit>{{4, 1}}));
  EXPECT_TRUE(matcher_hits(matcher, "CAF\xc3\x89").empty());
}

TEST(SubstringMatcher, EmptyAndDuplicatePatterns) {
  const SubstringMatcher none;
  EXPECT_TRUE(matcher_hits(none, "anything").empty());
  const std::vector<std::string> patterns{"", "ab", "AB"};
  const SubstringMatcher matcher{patterns};
  EXPECT_EQ(matcher_hits(matcher, "ab"), (std::vector<Hit>{{1, 1}, {1, 2}}));
}

TEST(SubstringMatcher, AgreesWithNaiveFindOnRandomInputs) {
  // A small alphabet makes overlaps, shared prefixes and suffix patterns
  // common; '?', '/', a UTF-8 lead byte and a byte no pattern uses cover
  // separators and resets.
  static constexpr std::string_view kBytes = "abAB?/\xc3.";
  Rng rng{16};
  const auto random_text = [&](std::size_t max_length, std::size_t alphabet) {
    std::string text(rng.uniform(max_length + 1), ' ');
    for (char& c : text) c = kBytes[rng.uniform(alphabet)];
    return text;
  };
  for (int round = 0; round < 500; ++round) {
    std::vector<std::string> patterns(1 + rng.uniform(6));
    for (auto& pattern : patterns) pattern = random_text(4, kBytes.size() - 1);
    const SubstringMatcher matcher{patterns};
    for (int t = 0; t < 20; ++t) {
      const std::string text = random_text(30, kBytes.size());
      ASSERT_EQ(matcher_hits(matcher, text), naive_hits(text, patterns))
          << "round " << round << " text " << text;
    }
  }
}

}  // namespace
