// Unit tests for util/cli.h.
#include "util/cli.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace axiomcc {
namespace {

ArgParser parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, KeyValuePairs) {
  const auto args = parse({"--mbps=30", "--name=reno"});
  EXPECT_EQ(args.get_or("mbps", ""), "30");
  EXPECT_EQ(args.get_or("name", ""), "reno");
  EXPECT_FALSE(args.get("missing").has_value());
  EXPECT_EQ(args.get_or("missing", "fallback"), "fallback");
}

TEST(ArgParser, BareFlags) {
  const auto args = parse({"--verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get_or("verbose", "x"), "");
  EXPECT_FALSE(args.has("quiet"));
}

TEST(ArgParser, NumericParsing) {
  const auto args = parse({"--rate=2.5", "--count=7"});
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 2.5);
  EXPECT_EQ(args.get_int("count", 0), 7);
  EXPECT_DOUBLE_EQ(args.get_double("absent", 1.5), 1.5);
  EXPECT_EQ(args.get_int("absent", 9), 9);
}

TEST(ArgParser, MalformedNumbersThrow) {
  const auto args = parse({"--rate=fast", "--count=7x"});
  EXPECT_THROW((void)args.get_double("rate", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_int("count", 0), std::invalid_argument);
}

TEST(ArgParser, MalformedNumberMessagesNameFlagAndValue) {
  // Empty and fully non-numeric values used to escape as bare stod/stol
  // exceptions ("stod"); every numeric failure must name the flag.
  const auto args = parse({"--rate=", "--count=banana"});
  try {
    (void)args.get_double("rate", 0.0);
    FAIL() << "empty --rate should throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--rate"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("real number"), std::string::npos)
        << e.what();
  }
  try {
    (void)args.get_int("count", 0);
    FAIL() << "--count=banana should throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--count"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("integer"), std::string::npos)
        << e.what();
  }
}

TEST(ArgParser, OutOfRangeNumbersThrowNamedErrors) {
  const auto args = parse({"--rate=1e999", "--count=99999999999999999999"});
  try {
    (void)args.get_double("rate", 0.0);
    FAIL() << "overflowing --rate should throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("--rate"), std::string::npos)
        << e.what();
  }
  try {
    (void)args.get_int("count", 0);
    FAIL() << "overflowing --count should throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
  }
}

TEST(ArgParser, PositionalArguments) {
  const auto args = parse({"alpha", "--k=v", "beta"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "alpha");
  EXPECT_EQ(args.positional()[1], "beta");
}

TEST(ArgParser, ValueContainingEquals) {
  const auto args = parse({"--spec=aimd(a=1,b=0.5)"});
  EXPECT_EQ(args.get_or("spec", ""), "aimd(a=1,b=0.5)");
}

TEST(ArgParser, FlagsListsEveryKeyWithItsValue) {
  const auto args = parse({"--steps=4", "--csv", "pos"});
  ASSERT_EQ(args.flags().size(), 2u);
  EXPECT_EQ(args.flags().at("steps"), "4");
  EXPECT_EQ(args.flags().at("csv"), "");
}

}  // namespace
}  // namespace axiomcc
