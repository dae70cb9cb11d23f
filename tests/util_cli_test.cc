// Unit tests for util/cli.h.
#include "util/cli.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace axiomcc {
namespace {

/// An ArgParser over `args` that reads every flag ("*") and takes
/// positional arguments.
ArgParser parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data(), {"*"},
                   ArgParser::Positionals::kAccepted);
}

/// An ArgParser over `args` that reads only `flags`.
ArgParser strict(std::initializer_list<const char*> args,
                 std::vector<std::string> flags) {
  std::vector<const char*> argv{"build/examples/prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data(),
                   std::move(flags));
}

/// The UsageError message `args` raises under `flags` ("" if none).
std::string usage_error(std::initializer_list<const char*> args,
                        std::vector<std::string> flags) {
  try {
    (void)strict(args, std::move(flags));
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
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
  // A bad value exits 2 through run_cli, like an unknown flag.
  const auto args = parse({"--rate=fast", "--count=7x"});
  EXPECT_THROW((void)args.get_double("rate", 0.0), UsageError);
  EXPECT_THROW((void)args.get_int("count", 0), UsageError);
}

TEST(ArgParser, GetIntAcceptsAnySignUnlessAsked) {
  const auto args = parse({"--offset=-3", "--steps=-5", "--hops=0"});
  EXPECT_EQ(args.get_int("offset", 0), -3);
  EXPECT_EQ(args.get_int("hops", 1, Sign::kNonNegative), 0);
  EXPECT_EQ(args.get_int("absent", -1, Sign::kPositive), -1);
  EXPECT_THROW((void)args.get_int("hops", 1, Sign::kPositive), UsageError);
  try {
    (void)args.get_int("steps", 1, Sign::kNonNegative);
    FAIL() << "--steps=-5 is not non-negative";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()),
              "invalid value for --steps: '-5' (expected a non-negative "
              "integer)");
  }
}

TEST(ArgParser, SignedDoublesRejectZeroNegativesAndNonFinite) {
  const auto args = parse({"--a=0", "--b=-0.5", "--c=inf", "--d=nan"});
  EXPECT_EQ(args.get_double("a", 1.0, Sign::kNonNegative), 0.0);
  EXPECT_THROW((void)args.get_double("a", 1.0, Sign::kPositive), UsageError);
  EXPECT_THROW((void)args.get_double("b", 1.0, Sign::kNonNegative),
               UsageError);
  EXPECT_THROW((void)args.get_double("c", 1.0, Sign::kPositive), UsageError);
  EXPECT_THROW((void)args.get_double("d", 1.0, Sign::kNonNegative),
               UsageError);
  EXPECT_EQ(args.get_double("b", 1.0), -0.5);
}

TEST(ArgParser, GetDoublesParsesEveryItemStrictly) {
  EXPECT_EQ(parse({"--bw=20,30.5,1e2"}).get_doubles("bw", ""),
            (std::vector<double>{20.0, 30.5, 100.0}));
  EXPECT_EQ(parse({}).get_doubles("bw", "1,60"),
            (std::vector<double>{1.0, 60.0}));
  // Each item parses whole, and a failure names the flag: "20x" is not
  // read as its prefix 20.
  try {
    (void)parse({"--bandwidths=20x"}).get_doubles("bandwidths", "");
    FAIL() << "20x is not a number";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()),
              "malformed number for --bandwidths: '20x' (expected a real "
              "number, e.g. --bandwidths=2.5)");
  }
  EXPECT_THROW((void)parse({"--bw=abc"}).get_doubles("bw", ""), UsageError);
  EXPECT_THROW(
      (void)parse({"--bw=20,0"}).get_doubles("bw", "", Sign::kPositive),
      UsageError);
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

TEST(ArgParser, StrictAcceptsTheFlagsItReads) {
  const auto args = strict({"--steps=4", "--csv"}, {"steps", "csv", "mbps"});
  EXPECT_EQ(args.get_int("steps", 0), 4);
  EXPECT_TRUE(args.has("csv"));
  EXPECT_FALSE(args.has("mbps"));
  EXPECT_TRUE(args.reads("mbps"));
  EXPECT_FALSE(args.reads("protocol"));
}

TEST(ArgParser, StrictRejectsAnUnknownFlagNamingItAndTheProgram) {
  EXPECT_EQ(usage_error({"--steps=4", "--protcol=aimd(2,0.5)"},
                        {"protocol", "steps"}),
            "unknown flag --protcol (prog reads --protocol --steps)");
  // A bare switch is a flag like any other.
  EXPECT_NE(usage_error({"--verbose"}, {"steps"}).find("--verbose "),
            std::string::npos);
  // No flag list reads nothing; a UsageError is an invalid_argument.
  EXPECT_THROW((void)strict({"--steps=1"}, {}), std::invalid_argument);
}

TEST(ArgParser, StrictRejectsPositionalsUnlessAccepted) {
  EXPECT_EQ(usage_error({"--steps", "4"}, {"steps"}),
            "unexpected argument '4' (flags are --key=value)");
  const char* argv[] = {"prog", "a.jsonl", "b.jsonl"};
  const ArgParser args(3, argv, {}, ArgParser::Positionals::kAccepted);
  EXPECT_EQ(args.positional().size(), 2u);
}

TEST(ArgParser, StarSuffixReadsAPrefix) {
  EXPECT_EQ(usage_error({"--benchmark_filter=BM_x"}, {"benchmark_*"}), "");
  EXPECT_NE(usage_error({"--benchmarks"}, {"benchmark_*"}), "");
}

TEST(ArgParser, GetListSplitsOnlyOutsideParentheses) {
  const auto args = parse({"--protocols=aimd(1,0.5),vegas(2,4)"});
  EXPECT_EQ(args.get_list("protocols", ""),
            (std::vector<std::string>{"aimd(1,0.5)", "vegas(2,4)"}));
  EXPECT_EQ(args.get_list("absent", "reno,bin(1,1,0.5,0.5)"),
            (std::vector<std::string>{"reno", "bin(1,1,0.5,0.5)"}));
  EXPECT_EQ(parse({"--p=f(g(1,2),3),h"}).get_list("p", ""),
            (std::vector<std::string>{"f(g(1,2),3)", "h"}));
}

TEST(ArgParser, GetListDropsEmptyItems) {
  EXPECT_EQ(parse({"--p=,reno,,cubic,"}).get_list("p", ""),
            (std::vector<std::string>{"reno", "cubic"}));
  EXPECT_TRUE(parse({"--p="}).get_list("p", "reno").empty());
  EXPECT_TRUE(parse({}).get_list("p", "").empty());
}

TEST(ArgParser, GetListStrayCloseParenKeepsDepthAtZero) {
  // A stray ')' does not take the depth negative, so the commas after it
  // still split.
  EXPECT_EQ(parse({"--p=a),b,c"}).get_list("p", ""),
            (std::vector<std::string>{"a)", "b", "c"}));
  // An unclosed '(' keeps the rest of the list in one item.
  EXPECT_EQ(parse({"--p=a(1,b,c"}).get_list("p", ""),
            (std::vector<std::string>{"a(1,b,c"}));
}

TEST(RunCli, ExitCodesAndTheErrorLine) {
  EXPECT_EQ(run_cli([] { return 0; }), 0);
  EXPECT_EQ(run_cli([] { return 3; }), 3);
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli([]() -> int { throw UsageError("unknown flag --x"); }), 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "error: unknown flag --x\n");
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli([]() -> int { throw std::runtime_error("boom"); }), 1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "error: boom\n");
}

}  // namespace
}  // namespace axiomcc
