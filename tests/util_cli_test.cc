// Unit tests for util/cli.h.
#include "util/cli.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/check.h"

namespace axiomcc {
namespace {

/// An ArgParser over `args` declaring `flags`, taking positional arguments.
ArgParser parse(std::initializer_list<const char*> args,
                std::vector<Flag> flags) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data(),
                   std::move(flags), ArgParser::Positionals::kAccepted);
}

/// An ArgParser over `args` declaring `flags`, rejecting positionals.
ArgParser strict(std::initializer_list<const char*> args,
                 std::vector<Flag> flags) {
  std::vector<const char*> argv{"build/examples/prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data(),
                   std::move(flags));
}

/// The UsageError message `args` raises under `flags` ("" if none).
std::string usage_error(std::initializer_list<const char*> args,
                        std::vector<Flag> flags) {
  try {
    (void)strict(args, std::move(flags));
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

/// The items of `--p=<text>` read as a list.
std::vector<std::string> list_of(const char* arg) {
  return parse({arg}, {{"p", Flag::kList}}).get_list("p");
}

TEST(ArgParser, KeyValuePairs) {
  const auto args = parse({"--mbps=30", "--name=reno"},
                          {{"mbps", Flag::kText}, {"name", Flag::kText},
                           {"missing", Flag::kText, "fallback"}});
  EXPECT_EQ(args.get_text("mbps"), "30");
  EXPECT_EQ(args.get_text("name"), "reno");
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get_text("missing"), "fallback");
}

TEST(ArgParser, BareFlags) {
  const auto args = parse({"--verbose", "--name", "--count"},
                          {{"verbose"}, {"quiet"},
                           {"name", Flag::kText, "x"},
                           {"count", Flag::kInt, "3"}});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("quiet"));
  // A value flag given alone takes its default.
  EXPECT_TRUE(args.has("name"));
  EXPECT_EQ(args.get_text("name"), "x");
  EXPECT_EQ(args.get_int("count"), 3);
  // A switch takes no value.
  EXPECT_EQ(usage_error({"--verbose=yes"}, {{"verbose"}}),
            "--verbose is a switch and takes no value, got '--verbose=yes'");
  // A numeric flag with no default needs a value.
  EXPECT_NE(usage_error({"--rate"}, {{"rate", Flag::kReal, ""}}).find("--rate"),
            std::string::npos);
}

TEST(ArgParser, NumericParsing) {
  const auto args =
      parse({"--rate=2.5", "--count=7"},
            {{"rate", Flag::kReal, "0"}, {"count", Flag::kInt, "0"},
             {"absent", Flag::kReal, "1.5"}, {"absent-int", Flag::kInt, "9"}});
  EXPECT_DOUBLE_EQ(args.get_double("rate"), 2.5);
  EXPECT_EQ(args.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(args.get_double("absent"), 1.5);
  EXPECT_EQ(args.get_int("absent-int"), 9);
}

TEST(ArgParser, MalformedNumbersThrow) {
  // A bad value exits 2 through run_cli, like an unknown flag.
  EXPECT_THROW((void)parse({"--rate=fast"}, {{"rate", Flag::kReal, "0"}}),
               UsageError);
  EXPECT_THROW((void)parse({"--count=7x"}, {{"count", Flag::kInt, "0"}}),
               UsageError);
}

TEST(ArgParser, GetIntAcceptsAnySignUnlessAsked) {
  const auto args = parse({"--offset=-3", "--hops=0"},
                          {{"offset", Flag::kInt, "0"},
                           {"hops", Flag::kInt, "1", Bound::kNonNegative},
                           {"absent", Flag::kInt, "", Bound::kPositive}});
  EXPECT_EQ(args.get_int("offset"), -3);
  EXPECT_EQ(args.get_int("hops"), 0);
  EXPECT_FALSE(args.has("absent"));
  EXPECT_THROW((void)parse({"--hops=0"},
                           {{"hops", Flag::kInt, "1", Bound::kPositive}}),
               UsageError);
  EXPECT_EQ(usage_error({"--steps=-5"},
                        {{"steps", Flag::kInt, "1", Bound::kNonNegative}}),
            "invalid value for --steps: '-5' (expected a non-negative "
            "integer)");
}

TEST(ArgParser, SignedDoublesRejectZeroNegativesAndNonFinite) {
  const auto real = [](const char* arg, Bound bound) {
    return usage_error({arg}, {{"a", Flag::kReal, "", bound}});
  };
  EXPECT_EQ(parse({"--a=0"}, {{"a", Flag::kReal, "1", Bound::kNonNegative}})
                .get_double("a"),
            0.0);
  EXPECT_NE(real("--a=0", Bound::kPositive), "");
  EXPECT_NE(real("--a=-0.5", Bound::kNonNegative), "");
  EXPECT_NE(real("--a=inf", Bound::kPositive), "");
  EXPECT_NE(real("--a=nan", Bound::kNonNegative), "");
  // Every bound is finite: even kAny rejects inf and NaN.
  EXPECT_NE(real("--a=inf", Bound::kAny), "");
  EXPECT_NE(real("--a=nan", Bound::kAny), "");
  EXPECT_EQ(parse({"--a=-0.5"}, {{"a", Flag::kReal, "1"}}).get_double("a"),
            -0.5);
  // kFraction is [0, 1).
  EXPECT_EQ(real("--a=0", Bound::kFraction), "");
  EXPECT_EQ(real("--a=0.99", Bound::kFraction), "");
  EXPECT_EQ(real("--a=1", Bound::kFraction),
            "invalid value for --a: '1' (expected a real number in [0, 1))");
  EXPECT_NE(real("--a=-0.01", Bound::kFraction), "");
}

TEST(ArgParser, GetDoublesParsesEveryItemStrictly) {
  const auto reals = [](const char* arg, const char* fallback,
                        Bound bound = Bound::kAny) {
    return parse({arg}, {{"bw", Flag::kReals, fallback, bound}})
        .get_doubles("bw");
  };
  EXPECT_EQ(reals("--bw=20,30.5,1e2", ""),
            (std::vector<double>{20.0, 30.5, 100.0}));
  EXPECT_EQ(parse({}, {{"bw", Flag::kReals, "1,60"}}).get_doubles("bw"),
            (std::vector<double>{1.0, 60.0}));
  // Each item parses whole, and a failure names the flag: "20x" is not
  // read as its prefix 20.
  EXPECT_EQ(usage_error({"--bandwidths=20x"},
                        {{"bandwidths", Flag::kReals, ""}}),
            "malformed number for --bandwidths: '20x' (expected a real "
            "number, e.g. --bandwidths=2.5)");
  EXPECT_THROW((void)reals("--bw=abc", ""), UsageError);
  EXPECT_THROW((void)reals("--bw=20,0", "", Bound::kPositive), UsageError);
  // A list of reals holds at least one value.
  EXPECT_EQ(usage_error({"--bw="}, {{"bw", Flag::kReals, ""}}),
            "--bw lists no value");
}

TEST(ArgParser, MalformedNumberMessagesNameFlagAndValue) {
  // Empty and fully non-numeric values used to escape as bare stod/stol
  // exceptions ("stod"); every numeric failure must name the flag.
  const std::string rate =
      usage_error({"--rate="}, {{"rate", Flag::kReal, "0"}});
  EXPECT_NE(rate.find("--rate"), std::string::npos) << rate;
  EXPECT_NE(rate.find("real number"), std::string::npos) << rate;
  const std::string count =
      usage_error({"--count=banana"}, {{"count", Flag::kInt, "0"}});
  EXPECT_NE(count.find("--count"), std::string::npos) << count;
  EXPECT_NE(count.find("integer"), std::string::npos) << count;
}

TEST(ArgParser, OutOfRangeNumbersThrowNamedErrors) {
  const std::string rate =
      usage_error({"--rate=1e999"}, {{"rate", Flag::kReal, "0"}});
  EXPECT_NE(rate.find("out of range"), std::string::npos) << rate;
  EXPECT_NE(rate.find("--rate"), std::string::npos) << rate;
  const std::string count = usage_error({"--count=99999999999999999999"},
                                        {{"count", Flag::kInt, "0"}});
  EXPECT_NE(count.find("out of range"), std::string::npos) << count;
  // --jobs stops at the 1024 workers a TaskPool takes; only parsed here,
  // so no pool is started.
  EXPECT_EQ(parse({"--jobs=1024"}, {Flag::jobs()}).get_int("jobs"), 1024);
  EXPECT_EQ(parse({}, {Flag::jobs()}).get_int("jobs"), 0);
  EXPECT_EQ(usage_error({"--jobs=1025"}, {Flag::jobs()}),
            "invalid value for --jobs: '1025' (expected an integer in "
            "[0, 1024])");
  EXPECT_NE(usage_error({"--jobs=-1"}, {Flag::jobs()}), "");
  EXPECT_EQ(parse({"--jobs=3"}, {Flag::jobs()}).get_jobs(), 3);
}

TEST(ArgParser, PositionalArguments) {
  const auto args =
      parse({"alpha", "--k=v", "beta"}, {{"k", Flag::kText}});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "alpha");
  EXPECT_EQ(args.positional()[1], "beta");
}

TEST(ArgParser, ValueContainingEquals) {
  const auto args = parse({"--spec=aimd(a=1,b=0.5)"}, {{"spec", Flag::kText}});
  EXPECT_EQ(args.get_text("spec"), "aimd(a=1,b=0.5)");
}

TEST(ArgParser, StrictAcceptsTheFlagsItReads) {
  const auto args =
      strict({"--steps=4", "--csv"},
             {{"steps", Flag::kInt, "1"}, {"csv"},
              {"mbps", Flag::kReal, "30"}});
  EXPECT_EQ(args.get_int("steps"), 4);
  EXPECT_TRUE(args.has("csv"));
  EXPECT_FALSE(args.has("mbps"));
  EXPECT_EQ(args.get_double("mbps"), 30.0);
}

TEST(ArgParser, StrictRejectsAnUnknownFlagNamingItAndTheProgram) {
  EXPECT_EQ(usage_error({"--steps=4", "--protcol=aimd(2,0.5)"},
                        {{"protocol", Flag::kText},
                         {"steps", Flag::kInt, "1"}}),
            "unknown flag --protcol (prog reads --protocol --steps)");
  // A bare switch is a flag like any other.
  EXPECT_NE(usage_error({"--verbose"}, {{"steps", Flag::kInt, "1"}})
                .find("--verbose "),
            std::string::npos);
  // No declaration reads nothing; a UsageError is an invalid_argument.
  EXPECT_THROW((void)strict({"--steps=1"}, {}), std::invalid_argument);
}

TEST(ArgParser, StrictRejectsPositionalsUnlessAccepted) {
  EXPECT_EQ(usage_error({"--steps", "4"}, {{"steps", Flag::kInt, "1"}}),
            "unexpected argument '4' (flags are --key=value)");
  const char* argv[] = {"prog", "a.jsonl", "b.jsonl"};
  const ArgParser args(3, argv, {}, ArgParser::Positionals::kAccepted);
  EXPECT_EQ(args.positional().size(), 2u);
}

TEST(ArgParser, GetListSplitsOnlyOutsideParentheses) {
  EXPECT_EQ(list_of("--p=aimd(1,0.5),vegas(2,4)"),
            (std::vector<std::string>{"aimd(1,0.5)", "vegas(2,4)"}));
  EXPECT_EQ(parse({}, {{"p", Flag::kList, "reno,bin(1,1,0.5,0.5)"}})
                .get_list("p"),
            (std::vector<std::string>{"reno", "bin(1,1,0.5,0.5)"}));
  EXPECT_EQ(list_of("--p=f(g(1,2),3),h"),
            (std::vector<std::string>{"f(g(1,2),3)", "h"}));
}

TEST(ArgParser, GetListDropsEmptyItems) {
  EXPECT_EQ(list_of("--p=,reno,,cubic,"),
            (std::vector<std::string>{"reno", "cubic"}));
  EXPECT_TRUE(
      parse({"--p="}, {{"p", Flag::kList, "reno"}}).get_list("p").empty());
  EXPECT_TRUE(parse({}, {{"p", Flag::kList}}).get_list("p").empty());
}

TEST(ArgParser, GetListStrayCloseParenKeepsDepthAtZero) {
  // A stray ')' does not take the depth negative, so the commas after it
  // still split.
  EXPECT_EQ(list_of("--p=a),b,c"),
            (std::vector<std::string>{"a)", "b", "c"}));
  // An unclosed '(' keeps the rest of the list in one item.
  EXPECT_EQ(list_of("--p=a(1,b,c"), (std::vector<std::string>{"a(1,b,c"}));
}

TEST(ArgParser, ChoiceTakesOneOfItsValuesFirstByDefault) {
  const Flag backend{"backend", Flag::kChoice, "fluid", Bound::kAny,
                     {"fluid", "packet"}};
  EXPECT_EQ(parse({}, {backend}).get_text("backend"), "fluid");
  EXPECT_EQ(parse({"--backend=packet"}, {backend}).get_text("backend"),
            "packet");
  EXPECT_EQ(usage_error({"--backend=pakcet"}, {backend}),
            "invalid value for --backend: 'pakcet' (expected fluid|packet)");
}

TEST(ArgParser, BadValueOfAFlagTheRunNeverReadsIsStillAnError) {
  // Every declared flag is parsed at construction, so a value the run
  // would read only in another mode cannot slip through.
  EXPECT_EQ(usage_error({"--duration=abc"},
                        {{"steps", Flag::kInt, "4000", Bound::kPositive},
                         {"duration", Flag::kReal, "30", Bound::kPositive}}),
            "malformed number for --duration: 'abc' (expected a positive "
            "real number, e.g. --duration=2.5)");
}

TEST(ArgParser, MalformedDefaultIsAContractFailure) {
  EXPECT_THROW((void)parse({}, {{"steps", Flag::kInt, "-5", Bound::kPositive}}),
               ContractViolation);
  EXPECT_THROW((void)parse({}, {{"rate", Flag::kReal, "fast"}}),
               ContractViolation);
  // Even when the flag is given: a declaration is checked on every run.
  EXPECT_THROW((void)parse({"--steps=5"},
                           {{"steps", Flag::kInt, "-5", Bound::kPositive}}),
               ContractViolation);
}

TEST(ArgParser, ReadingAnUndeclaredFlagOrAnotherKindIsAContractFailure) {
  const auto args = parse({"--steps=4"}, {{"steps", Flag::kInt, "1"},
                                          {"rate", Flag::kReal, ""}});
  EXPECT_THROW((void)args.get_int("stpes"), ContractViolation);
  EXPECT_THROW((void)args.has("stpes"), ContractViolation);
  EXPECT_THROW((void)args.get_double("steps"), ContractViolation);
  EXPECT_THROW((void)args.get_text("steps"), ContractViolation);
  // A flag with no default reads only when given.
  EXPECT_THROW((void)args.get_double("rate"), ContractViolation);
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
