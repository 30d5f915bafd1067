#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "claims.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

namespace witag::util {
namespace {

Args parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), argv.begin(), argv.end());
  return Args(static_cast<int>(v.size()), v.data());
}

TEST(Args, ParsesTypedOptions) {
  const Args args = parse({"--rounds", "40", "--seed", "1234",
                           "--strength", "7.5", "--out", "data.csv"});
  EXPECT_EQ(args.get_int("rounds", 0), 40);
  EXPECT_EQ(args.get_u64("seed", 0), 1234u);
  EXPECT_DOUBLE_EQ(args.get_double("strength", 0.0), 7.5);
  EXPECT_EQ(args.get_string("out", ""), "data.csv");
}

TEST(Args, DefaultsWhenAbsent) {
  const Args args = parse({});
  EXPECT_EQ(args.get_int("rounds", 17), 17);
  EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
  EXPECT_EQ(args.get_string("out", "fallback"), "fallback");
  EXPECT_FALSE(args.has("csv"));
}

TEST(Args, BareFlags) {
  const Args args = parse({"--verbose", "--n", "3"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get_int("n", 0), 3);
}

TEST(Args, RejectsPositional) {
  EXPECT_THROW(parse({"positional"}), std::invalid_argument);
}

TEST(Args, RejectsPartialParses) {
  const Args args = parse({"--runs", "12abc", "--seed", "1e3", "--pos", "2m",
                           "--n", "3 ", "--x", "0x1F"});
  EXPECT_THROW(args.get_int("runs", 0), std::invalid_argument);
  EXPECT_THROW(args.get_u64("seed", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double("pos", 0.0), std::invalid_argument);
  EXPECT_THROW(args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(args.get_int("x", 0), std::invalid_argument);
}

TEST(Args, RejectsSignOnUnsignedAndOutOfRange) {
  const Args args = parse({"--seed", "-1", "--big", "18446744073709551616",
                           "--n", "-1"});
  EXPECT_THROW(args.get_u64("seed", 0), std::invalid_argument);
  EXPECT_THROW(args.get_u64("big", 0), std::invalid_argument);
  EXPECT_EQ(args.get_int("n", 0), -1);
}

TEST(Args, ErrorNamesOptionAndValue) {
  const Args args = parse({"--epochs", "3x"});
  try {
    args.get_int("epochs", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "--epochs: '3x' is not an integer");
  }
}

TEST(Args, ParsesWholeTokens) {
  const Args args = parse({"--faults", "31", "--x", "-2.5e-3", "--n", "-7",
                           "--seed", "18446744073709551615"});
  EXPECT_EQ(args.get_int("faults", 0), 31);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), -2.5e-3);
  EXPECT_EQ(args.get_int("n", 0), -7);
  EXPECT_EQ(args.get_u64("seed", 0), 18446744073709551615u);
}

TEST(ClaimsSeedBase, ParsesWholeDecimalTokens) {
  EXPECT_EQ(claims::parse_seed_base("90000"), 90000u);
  EXPECT_EQ(claims::parse_seed_base("18446744073709551615"),
            18446744073709551615u);
  for (const char* bad : {"12abc", "-1", "+1", "18446744073709551616", "0x10",
                          " 7", "7 ", ""}) {
    EXPECT_THROW(claims::parse_seed_base(bad), std::invalid_argument) << bad;
  }
  try {
    claims::parse_seed_base("12abc");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "WITAG_CLAIMS_SEED_BASE: '12abc' is not a non-negative integer");
  }
}

TEST(Args, TracksUnusedOptions) {
  const Args args = parse({"--used", "1", "--typo", "2"});
  args.get_int("used", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_TRUE(unused.contains("typo"));
}

TEST(Csv, WritesEscapedRows) {
  const std::string path = "/tmp/witag_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.header({"a", "b"});
    csv.row({"1", "plain"});
    csv.row({"2", "with,comma"});
    csv.row({"3", "with\"quote"});
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string content = ss.str();
  EXPECT_NE(content.find("a,b\n"), std::string::npos);
  EXPECT_NE(content.find("2,\"with,comma\"\n"), std::string::npos);
  EXPECT_NE(content.find("3,\"with\"\"quote\"\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, EnforcesArity) {
  const std::string path = "/tmp/witag_csv_test2.csv";
  CsvWriter csv(path);
  EXPECT_THROW(csv.row({"too", "early"}), std::logic_error);
  csv.header({"x", "y"});
  EXPECT_THROW(csv.row({"only-one"}), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Csv, ArityErrorNamesCountsAndHeader) {
  const std::string path = "/tmp/witag_csv_test3.csv";
  CsvWriter csv(path);
  csv.header({"clock_hz", "guard_us", "ber"});
  try {
    csv.row({"1e6"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 values"), std::string::npos) << what;
    EXPECT_NE(what.find("3-column"), std::string::npos) << what;
    EXPECT_NE(what.find("clock_hz"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

namespace csv_roundtrip {

/// Minimal RFC 4180 reader for the round-trip test: splits one CSV
/// document into rows of unescaped fields.
std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c == '"' && i + 1 < text.size() && text[i + 1] == '"') {
        field += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      row.push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      row.push_back(std::move(field));
      field.clear();
      rows.push_back(std::move(row));
      row.clear();
    } else {
      field += c;
    }
  }
  return rows;
}

}  // namespace csv_roundtrip

TEST(Csv, EscapingRoundTrip) {
  const std::string path = "/tmp/witag_csv_roundtrip.csv";
  const std::vector<std::string> tricky{
      "plain", "comma,inside", "quote\"inside", "both,\"of,them\"",
      "newline\ninside"};
  {
    CsvWriter csv(path);
    csv.header({"a", "b", "c", "d", "e"});
    csv.row(tricky);
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const auto rows = csv_roundtrip::parse_csv(ss.str());
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(rows[1].size(), tricky.size());
  for (std::size_t i = 0; i < tricky.size(); ++i) {
    EXPECT_EQ(rows[1][i], tricky[i]) << "column " << i;
  }
  std::remove(path.c_str());
}

TEST(Args, CheckRejectsAnOptionNothingRead) {
  const Args args = parse({"--runs", "2", "--rnus", "64"});
  args.get_int("runs", 4);
  try {
    args.check();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "unknown option --rnus");
  }
  const Args two = parse({"--b", "--a", "1"});
  try {
    two.check();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "unknown option --a, --b");
  }
  const Args clean = parse({"--runs", "2", "--verbose"});
  clean.get_int("runs", 4);
  static_cast<void>(clean.has("verbose"));
  EXPECT_NO_THROW(clean.check());
}

TEST(Args, HelpListsEveryReadOptionWithItsDefault) {
  // --help wins over an unknown option, and lists the options in the
  // order the binary first read them, each once.
  const Args args = parse({"--help", "--rnus", "64"});
  args.get_int("runs", 4);
  args.get_double("pos", 2.5);
  args.get_u64("seed", 1000);
  args.get_string("csv", "");
  static_cast<void>(args.has("supervised"));
  args.get_string("out", "a.json");
  args.get_int("runs", 4);
  try {
    args.check();
    FAIL() << "expected HelpRequested";
  } catch (const HelpRequested& help) {
    EXPECT_EQ(help.options,
              "  --runs VALUE                  (default: 4)\n"
              "  --pos VALUE                   (default: 2.5)\n"
              "  --seed VALUE                  (default: 1000)\n"
              "  --csv VALUE                   (default: none)\n"
              "  --supervised\n"
              "  --out VALUE                   (default: a.json)\n"
              "  --help\n");
  }
}

int help_body(const Args& args) {
  args.get_int("runs", 4);
  args.check();
  std::cout << "ran\n";
  return 7;
}

TEST(Args, RunMainAnswersHelpAndUnknownOptions) {
  const std::vector<const char*> help{"prog", "--help"};
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_main("prog", 2, help.data(), help_body), 0);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "usage: prog [options]\n"
            "  --runs VALUE                  (default: 4)\n"
            "  --help\n");

  const std::vector<const char*> typo{"prog", "--rnus", "64"};
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_main("prog", 3, typo.data(), help_body), 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "prog: unknown option --rnus\n");
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");

  const std::vector<const char*> good{"prog", "--runs", "3"};
  testing::internal::CaptureStdout();
  EXPECT_EQ(run_main("prog", 3, good.data(), help_body), 7);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "ran\n");
}

TEST(Csv, RejectsUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/file.csv"), std::runtime_error);
}

TEST(Csv, NumFormatting) {
  EXPECT_EQ(CsvWriter::num(0.5), "0.5");
  EXPECT_EQ(CsvWriter::num(1e-3), "0.001");
}

}  // namespace
}  // namespace witag::util
