// Unit tests for the protocol spec parser (cc/registry.h).
#include "cc/registry.h"

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "util/check.h"

namespace axiomcc::cc {
namespace {

TEST(Registry, ParsesEveryFamily) {
  EXPECT_EQ(make_protocol("aimd(1,0.5)")->name(), "AIMD(1,0.5)");
  EXPECT_EQ(make_protocol("mimd(1.01,0.875)")->name(), "MIMD(1.01,0.875)");
  EXPECT_EQ(make_protocol("bin(1,0.5,1,0)")->name(), "BIN(1,0.5,1,0)");
  EXPECT_EQ(make_protocol("cubic(0.4,0.8)")->name(), "CUBIC(0.4,0.8)");
  EXPECT_EQ(make_protocol("robust_aimd(1,0.8,0.01)")->name(),
            "Robust-AIMD(1,0.8,0.01)");
  EXPECT_EQ(make_protocol("vegas(2,4)")->name(), "Vegas(2,4)");
}

TEST(Registry, ParsesPresets) {
  EXPECT_EQ(make_protocol("reno")->name(), "AIMD(1,0.5)");
  EXPECT_EQ(make_protocol("scalable")->name(), "MIMD(1.01,0.875)");
  EXPECT_EQ(make_protocol("cubic-linux")->name(), "CUBIC(0.4,0.8)");
}

TEST(Registry, DefaultArgumentForms) {
  EXPECT_NE(make_protocol("pcc"), nullptr);
  EXPECT_NE(make_protocol("pcc(0.01,0.05)"), nullptr);
  EXPECT_NE(make_protocol("cautious"), nullptr);
  EXPECT_NE(make_protocol("cautious(2,0.8)"), nullptr);
}

TEST(Registry, IsCaseInsensitiveAndTrimsSpaces) {
  EXPECT_EQ(make_protocol("AIMD(1, 0.5)")->name(), "AIMD(1,0.5)");
  EXPECT_EQ(make_protocol("  Reno  ")->name(), "AIMD(1,0.5)");
  EXPECT_EQ(make_protocol("Robust-AIMD(1,0.8,0.01)")->name(),
            "Robust-AIMD(1,0.8,0.01)");
}

TEST(Registry, RejectsUnknownNames) {
  EXPECT_THROW((void)make_protocol("sprout"), std::invalid_argument);
  EXPECT_THROW((void)make_protocol(""), std::invalid_argument);
}

TEST(Registry, RejectsWrongArity) {
  EXPECT_THROW((void)make_protocol("aimd(1)"), std::invalid_argument);
  EXPECT_THROW((void)make_protocol("aimd(1,0.5,3)"), std::invalid_argument);
  EXPECT_THROW((void)make_protocol("reno(1)"), std::invalid_argument);
  EXPECT_THROW((void)make_protocol("bin(1,0.5)"), std::invalid_argument);
}

TEST(Registry, RejectsMalformedSyntax) {
  EXPECT_THROW((void)make_protocol("aimd(1,0.5"), std::invalid_argument);
  EXPECT_THROW((void)make_protocol("aimd(1,,0.5)"), std::invalid_argument);
  EXPECT_THROW((void)make_protocol("aimd(one,0.5)"), std::invalid_argument);
  EXPECT_THROW((void)make_protocol("aimd(1,0.5x)"), std::invalid_argument);
}

TEST(Registry, RejectsHostileInputsWithInvalidArgument) {
  // Table-driven hardening test: every entry must raise std::invalid_argument
  // (never crash, never a bare ContractViolation from deep inside).
  const std::string overlong = "aimd(" + std::string(300, '1') + ",0.5)";
  std::string too_many_args = "aimd(1";
  for (int i = 0; i < 20; ++i) too_many_args += ",1";
  too_many_args += ")";

  const std::string cases[] = {
      overlong,            // longer than the 256-char cap
      too_many_args,       // more than the 16-arg cap
      "aimd(nan,0.5)",     // stod accepts "nan"; the parser must not
      "aimd(inf,0.5)",     // likewise "inf"
      "aimd(-inf,0.5)",    //
      "aimd(1e999,0.5)",   // overflows stod → out_of_range internally
      "aimd((1),0.5)",     // nested '('
      "aimd(1,0.5))",      // trailing ')'
      "aimd(1))((",        // garbage after the close
      "reno)",             // ')' with no '('
      ")(",                //
      "aimd(1,0.5)x",      // trailing junk
      "(1,0.5)",           // missing name
      "   ",               // whitespace only
  };
  for (const std::string& spec : cases) {
    EXPECT_THROW((void)make_protocol(spec), std::invalid_argument)
        << "spec: " << spec;
  }
}

TEST(Registry, BbrWindowsMustBeWholeNumbersFromOne) {
  // Negative (a wrapping size_t conversion), fractional (silent
  // truncation), below one and beyond the cap: each is a spec error that
  // names the argument.
  const std::pair<std::string, std::string> cases[] = {
      {"bbr(-1,10)", "bw_window"},
      {"bbr(2.7,10)", "bw_window"},
      {"bbr(0.5,10)", "bw_window"},
      {"bbr(1e30,10)", "bw_window"},
      {"bbr(10,0)", "rtt_window"},
      {"bbr(10,7.5)", "rtt_window"},
  };
  for (const auto& [spec, arg] : cases) {
    try {
      (void)make_protocol(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(arg), std::string::npos)
          << spec << ": " << e.what();
    } catch (...) {
      ADD_FAILURE() << spec << " threw something other than invalid_argument";
    }
  }
  const auto bbr = make_protocol("bbr(1,1e6)");
  EXPECT_EQ(bbr->name(), "BBR-like(bw_win=1,rtt_win=1000000)");
  EXPECT_EQ(make_protocol("bbr(3,7)")->name(), "BBR-like(bw_win=3,rtt_win=7)");
}

TEST(Registry, DomainErrorsPropagateFromConstructors) {
  EXPECT_THROW((void)make_protocol("aimd(-1,0.5)"), ContractViolation);
  EXPECT_THROW((void)make_protocol("mimd(0.5,0.5)"), ContractViolation);
}

TEST(Registry, KnownNamesListIsComplete) {
  const auto names = known_protocol_names();
  EXPECT_GE(names.size(), 10u);
  for (const auto& name : names) {
    // Every listed name must parse with SOME canonical arguments.
    if (name == "aimd") EXPECT_NO_THROW((void)make_protocol("aimd(1,0.5)"));
    else if (name == "mimd") EXPECT_NO_THROW((void)make_protocol("mimd(1.01,0.9)"));
    else if (name == "bin") EXPECT_NO_THROW((void)make_protocol("bin(1,0.5,1,0)"));
    else if (name == "cubic") EXPECT_NO_THROW((void)make_protocol("cubic(0.4,0.8)"));
    else if (name == "robust_aimd")
      EXPECT_NO_THROW((void)make_protocol("robust_aimd(1,0.8,0.01)"));
    else if (name == "vegas") EXPECT_NO_THROW((void)make_protocol("vegas(2,4)"));
    else EXPECT_NO_THROW((void)make_protocol(name));
  }
}

}  // namespace
}  // namespace axiomcc::cc
