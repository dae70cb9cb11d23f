// Tests for the BBR-like model-based protocol: estimator filters, startup
// exit, the ProbeBW gain cycle, and its metric signature on the fluid model.
#include "cc/bbr_like.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <random>

#include <gtest/gtest.h>

#include "cc/aimd.h"
#include "core/evaluator.h"
#include "core/metrics.h"
#include "util/check.h"

namespace axiomcc::cc {
namespace {

Observation obs(double window, double loss, double rtt) {
  return Observation{window, loss, rtt};
}

TEST(BbrLike, StartupDoublesWhileDeliveryRateGrows) {
  BbrLike bbr;
  EXPECT_TRUE(bbr.in_startup());
  // Delivery rate doubles along with the window: stay in startup.
  EXPECT_DOUBLE_EQ(bbr.next_window(obs(4.0, 0.0, 0.04)), 8.0);
  EXPECT_DOUBLE_EQ(bbr.next_window(obs(8.0, 0.0, 0.04)), 16.0);
  EXPECT_TRUE(bbr.in_startup());
}

TEST(BbrLike, ExitsStartupWhenRatePlateaus) {
  BbrLike bbr;
  (void)bbr.next_window(obs(16.0, 0.0, 0.04));
  (void)bbr.next_window(obs(32.0, 0.0, 0.04));
  // The window doubled but the RTT doubled too (queue): rate plateaued.
  (void)bbr.next_window(obs(64.0, 0.0, 0.16));
  EXPECT_FALSE(bbr.in_startup());
}

TEST(BbrLike, TracksBandwidthAndRttEstimates) {
  BbrLike bbr;
  (void)bbr.next_window(obs(40.0, 0.0, 0.05));
  // 40 MSS per 50 ms = 800 MSS/s.
  EXPECT_NEAR(bbr.bandwidth_estimate(), 800.0, 1e-9);
  EXPECT_NEAR(bbr.min_rtt_estimate(), 0.05, 1e-12);
  // A slower, lossier sample must not lower the max-filter nor raise the
  // min-filter.
  (void)bbr.next_window(obs(30.0, 0.5, 0.08));
  EXPECT_NEAR(bbr.bandwidth_estimate(), 800.0, 1e-9);
  EXPECT_NEAR(bbr.min_rtt_estimate(), 0.05, 1e-12);
}

TEST(BbrLike, BandwidthFilterForgetsOldSamples) {
  BbrLike bbr(/*bw_window=*/3, /*rtt_window=*/100);
  (void)bbr.next_window(obs(40.0, 0.0, 0.05));  // 800 MSS/s
  for (int i = 0; i < 3; ++i) {
    (void)bbr.next_window(obs(10.0, 0.0, 0.05));  // 200 MSS/s
  }
  EXPECT_NEAR(bbr.bandwidth_estimate(), 200.0, 1e-9);
}

TEST(BbrLike, ProbeBwCyclesAroundTheBdp) {
  BbrLike bbr;
  // Drive into ProbeBW: growing, then plateau.
  (void)bbr.next_window(obs(16.0, 0.0, 0.04));
  (void)bbr.next_window(obs(32.0, 0.0, 0.04));
  (void)bbr.next_window(obs(64.0, 0.0, 0.16));
  ASSERT_FALSE(bbr.in_startup());

  // Feed a capacity-limited operating point (1000 MSS/s: beyond 40 MSS the
  // RTT inflates); the returned windows must cycle around the true BDP of
  // 1000 × 0.04 = 40 MSS within the ProbeBW gain band.
  const double bdp = 40.0;
  double lo = 1e18;
  double hi = 0.0;
  double w = bdp;
  for (int i = 0; i < 16; ++i) {
    const double rtt = std::max(0.04, w / 1000.0);
    w = bbr.next_window(obs(w, 0.0, rtt));
    lo = std::min(lo, w);
    hi = std::max(hi, w);
  }
  EXPECT_GE(lo, 0.5 * bdp);
  EXPECT_LE(hi, 1.35 * bdp);
  EXPECT_LT(lo, hi);  // it does probe and drain
}

TEST(BbrLike, IsNotLossBasedAndIgnoresModerateLoss) {
  BbrLike bbr;
  EXPECT_FALSE(bbr.loss_based());
}

TEST(BbrLike, ResetRestartsStartup) {
  BbrLike bbr;
  (void)bbr.next_window(obs(16.0, 0.0, 0.04));
  (void)bbr.next_window(obs(32.0, 0.0, 0.16));
  (void)bbr.next_window(obs(32.0, 0.0, 0.16));
  bbr.reset();
  EXPECT_TRUE(bbr.in_startup());
  EXPECT_DOUBLE_EQ(bbr.bandwidth_estimate(), 0.0);
}

TEST(BbrLike, ConstructionContracts) {
  EXPECT_THROW(BbrLike(0, 10), ContractViolation);
  EXPECT_THROW(BbrLike(10, 0), ContractViolation);
}

TEST(BbrLike, RejectsNaNSamples) {
  // A rescan's answer over a window holding a NaN depends on where the NaN
  // sits; no order-keeping filter can reproduce that, so NaN is refused.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  BbrLike bbr;
  EXPECT_THROW((void)bbr.next_window(obs(10.0, 0.0, kNaN)), ContractViolation);
  EXPECT_THROW((void)bbr.next_window(obs(kNaN, 0.0, 0.05)), ContractViolation);
  EXPECT_THROW((void)bbr.next_window(obs(10.0, kNaN, 0.05)), ContractViolation);
  // inf / inf: a NaN delivery rate from finite-looking code paths.
  EXPECT_THROW((void)bbr.next_window(obs(kInf, 0.0, kInf)), ContractViolation);
  // A refused sample leaves no trace in the filters.
  EXPECT_DOUBLE_EQ(bbr.bandwidth_estimate(), 0.0);
  EXPECT_DOUBLE_EQ(bbr.min_rtt_estimate(), 0.0);
  (void)bbr.next_window(obs(40.0, 0.0, 0.05));
  EXPECT_NEAR(bbr.bandwidth_estimate(), 800.0, 1e-9);
  EXPECT_DOUBLE_EQ(bbr.min_rtt_estimate(), 0.05);
}

// --- differential check against the full-rescan filter -------------------

/// The estimator as a plain rescan: every sample is kept in a deque of the
/// window's length and the estimates are std::max_element/std::min_element
/// over it. Same startup and gain-cycle logic as BbrLike.
class RescanBbr {
 public:
  RescanBbr(std::size_t bw_window, std::size_t rtt_window)
      : bw_window_(bw_window), rtt_window_(rtt_window) {}

  double next_window(const Observation& o) {
    if (o.rtt_seconds <= 0.0) return std::max(o.window * 2.0, 4.0);
    const double rate = o.window * (1.0 - o.loss_rate) / o.rtt_seconds;
    push(bw_, rate, bw_window_);
    push(rtt_, o.rtt_seconds, rtt_window_);
    if (startup_) {
      const bool growing = last_rate_ <= 0.0 || rate >= last_rate_ * 1.10;
      last_rate_ = rate;
      if (growing) return std::max(o.window * 2.0, 4.0);
      startup_ = false;
      cycle_ = 1;
    }
    constexpr double kGain[] = {1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
    const double gain = kGain[cycle_ % 8];
    cycle_ = (cycle_ + 1) % 8;
    const double bdp = bandwidth_estimate() * min_rtt_estimate();
    return std::max(gain * bdp, 4.0);
  }
  double bandwidth_estimate() const {
    return bw_.empty() ? 0.0 : *std::max_element(bw_.begin(), bw_.end());
  }
  double min_rtt_estimate() const {
    return rtt_.empty() ? 0.0 : *std::min_element(rtt_.begin(), rtt_.end());
  }
  bool in_startup() const { return startup_; }

 private:
  static void push(std::deque<double>& d, double v, std::size_t cap) {
    d.push_back(v);
    while (d.size() > cap) d.pop_front();
  }
  std::size_t bw_window_;
  std::size_t rtt_window_;
  std::deque<double> bw_;
  std::deque<double> rtt_;
  bool startup_ = true;
  double last_rate_ = 0.0;
  std::size_t cycle_ = 0;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Drives `bbr` and a fresh rescan reference through one seeded stream of
/// 3000 observations drawn from small value sets (so samples repeat and
/// the filters see ties, +0 against -0 among them), with runs of constant
/// RTT and an occasional zero RTT (no sample). At step 1000 both are
/// reset; at step 2000 `bbr` is replaced by its clone and the reference by
/// a fresh one.
void expect_same_as_rescan(std::size_t bw_window, std::size_t rtt_window,
                           std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "bw_window=" << bw_window
                                  << " rtt_window=" << rtt_window
                                  << " seed=" << seed);
  std::unique_ptr<Protocol> bbr =
      std::make_unique<BbrLike>(bw_window, rtt_window);
  auto ref = std::make_unique<RescanBbr>(bw_window, rtt_window);
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](std::initializer_list<double> xs) {
    return *(xs.begin() + rng() % xs.size());
  };
  double window = 10.0;
  double rtt = 0.05;
  for (int step = 0; step < 3000; ++step) {
    if (step == 1000) {
      bbr->reset();
      ref = std::make_unique<RescanBbr>(bw_window, rtt_window);
    }
    if (step == 2000) {
      bbr = bbr->clone();
      ref = std::make_unique<RescanBbr>(bw_window, rtt_window);
    }
    // Signed zeros make ties visible in the bits: both filters must keep
    // the oldest of equal samples, as max_element/min_element return it.
    if (rng() % 4 == 0) {
      window = pick({-0.0, 0.0, 1.0, 4.0, 10.0, 10.0, 40.0, 250.0});
    }
    if (rng() % 5 == 0) rtt = pick({0.0, 0.04, 0.05, 0.05, 0.08, 0.2});
    const double loss = pick({0.0, 0.0, 0.0, 0.01, 0.5, 1.0});
    const Observation o{window, loss, rtt};
    const double got = bbr->next_window(o);
    const double want = ref->next_window(o);
    ASSERT_EQ(bits(got), bits(want)) << "step " << step;
    const auto& fast = static_cast<const BbrLike&>(*bbr);
    ASSERT_EQ(bits(fast.bandwidth_estimate()), bits(ref->bandwidth_estimate()))
        << "step " << step;
    ASSERT_EQ(bits(fast.min_rtt_estimate()), bits(ref->min_rtt_estimate()))
        << "step " << step;
    ASSERT_EQ(fast.in_startup(), ref->in_startup()) << "step " << step;
    // Half the time, feed the protocol its own answer back.
    if (rng() % 2 == 0) window = got;
  }
}

TEST(BbrLike, FilterMatchesFullRescanBitForBit) {
  const std::size_t lengths[] = {1, 3, 10, 100};
  std::uint64_t seed = 1;
  for (const std::size_t bw : lengths) {
    for (const std::size_t rtt : lengths) {
      expect_same_as_rescan(bw, rtt, seed++);
    }
  }
}

TEST(BbrLike, FilterStorageDoesNotScaleWithTheWindowLength) {
  // Any window >= 1 is valid; one this long must cost only what the
  // samples seen so far need.
  constexpr std::size_t kHuge = std::numeric_limits<std::size_t>::max();
  BbrLike bbr(kHuge, kHuge);
  for (int i = 0; i < 50; ++i) (void)bbr.next_window(obs(40.0, 0.0, 0.05));
  EXPECT_NEAR(bbr.bandwidth_estimate(), 800.0, 1e-9);
  EXPECT_DOUBLE_EQ(bbr.min_rtt_estimate(), 0.05);
}

// --- fluid-model signature -----------------------------------------------

core::EvalConfig eval_config() {
  core::EvalConfig cfg;
  cfg.steps = 3000;
  return cfg;
}

TEST(BbrLike, KeepsLatencyFarBelowLossBasedProtocols) {
  const core::EvalConfig cfg = eval_config();
  const fluid::Trace bbr = core::run_shared_link(BbrLike(), cfg);
  const fluid::Trace reno = core::run_shared_link(Aimd(1.0, 0.5), cfg);
  EXPECT_LT(core::measure_latency_avoidance(bbr, cfg.estimator()),
            core::measure_latency_avoidance(reno, cfg.estimator()) * 0.6);
}

TEST(BbrLike, IsRobustToNonCongestionLoss) {
  // Not loss-based: random loss barely moves its bandwidth estimate, so it
  // keeps utilizing — unlike every loss-based protocol (0-robust).
  const double robustness =
      core::measure_robustness_score(BbrLike(), eval_config());
  EXPECT_GT(robustness, 0.05);
}

TEST(BbrLike, UtilizesTheLinkWell) {
  const core::EvalConfig cfg = eval_config();
  const fluid::Trace t = core::run_shared_link(BbrLike(), cfg);
  EXPECT_GT(core::measure_efficiency(t, cfg.estimator()), 0.6);
}

}  // namespace
}  // namespace axiomcc::cc
