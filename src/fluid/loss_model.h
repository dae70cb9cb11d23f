// loss_model.h — non-congestion ("random") loss injection.
//
// Metric VI (robustness) studies a sender on an infinite-capacity link that
// experiences a constant random packet-loss rate. The injectors here model
// that loss: the observed per-step loss rate is combined with congestion loss
// as  1 − (1−L_cong)(1−L_inj)  (independent loss processes).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "util/check.h"
#include "util/rng.h"

namespace axiomcc::fluid {

/// Per-sender, per-step non-congestion loss source.
class LossInjector {
 public:
  virtual ~LossInjector() = default;
  /// The injected loss rate observed by `sender` during step `step`.
  [[nodiscard]] virtual double sample(long step, int sender) = 0;
  [[nodiscard]] virtual std::unique_ptr<LossInjector> clone() const = 0;
  /// True when sample() is a pure function of the step — every sender sees
  /// the same value and no internal RNG or channel state advances per call.
  /// The simulator uses this to sample once per step and broadcast the
  /// value (and to keep homogeneous cohorts provably uniform); stateful
  /// injectors see every active sender, ascending, every step.
  [[nodiscard]] virtual bool stateless() const { return false; }
};

/// No injected loss (the default).
class NoLoss final : public LossInjector {
 public:
  double sample(long /*step*/, int /*sender*/) override { return 0.0; }
  [[nodiscard]] std::unique_ptr<LossInjector> clone() const override {
    return std::make_unique<NoLoss>();
  }
  [[nodiscard]] bool stateless() const override { return true; }
};

/// Constant injected loss rate — the paper's Metric VI setting.
class ConstantLoss final : public LossInjector {
 public:
  explicit ConstantLoss(double rate) : rate_(rate) {
    AXIOMCC_EXPECTS(rate >= 0.0 && rate < 1.0);
  }
  double sample(long /*step*/, int /*sender*/) override { return rate_; }
  [[nodiscard]] std::unique_ptr<LossInjector> clone() const override {
    return std::make_unique<ConstantLoss>(rate_);
  }
  [[nodiscard]] bool stateless() const override { return true; }

 private:
  double rate_;
};

/// Bernoulli loss episodes: in each step, with probability `episode_prob`,
/// the sender observes loss rate `episode_rate`; otherwise no injected loss.
/// Models bursty non-congestion loss (e.g. wireless corruption episodes).
class BernoulliLoss final : public LossInjector {
 public:
  BernoulliLoss(double episode_prob, double episode_rate, std::uint64_t seed)
      : prob_(episode_prob), rate_(episode_rate), seed_(seed), rng_(seed) {
    AXIOMCC_EXPECTS(episode_prob >= 0.0 && episode_prob <= 1.0);
    AXIOMCC_EXPECTS(episode_rate >= 0.0 && episode_rate < 1.0);
  }

  double sample(long /*step*/, int /*sender*/) override {
    return rng_.bernoulli(prob_) ? rate_ : 0.0;
  }

  /// Copies the full RNG state: a mid-run clone continues the original's
  /// loss sequence instead of silently replaying from the seed.
  [[nodiscard]] std::unique_ptr<LossInjector> clone() const override {
    return std::make_unique<BernoulliLoss>(*this);
  }

 private:
  double prob_;
  double rate_;
  std::uint64_t seed_;
  Rng rng_;
};

/// Gilbert-Elliott two-state channel: a "good" state with low loss and a
/// "bad" state with high loss, with geometric dwell times. An extension
/// beyond the paper used by the ablation benches.
class GilbertElliottLoss final : public LossInjector {
 public:
  GilbertElliottLoss(double p_good_to_bad, double p_bad_to_good,
                     double good_rate, double bad_rate, std::uint64_t seed)
      : p_gb_(p_good_to_bad),
        p_bg_(p_bad_to_good),
        good_rate_(good_rate),
        bad_rate_(bad_rate),
        seed_(seed),
        rng_(seed) {
    AXIOMCC_EXPECTS(p_good_to_bad >= 0.0 && p_good_to_bad <= 1.0);
    AXIOMCC_EXPECTS(p_bad_to_good >= 0.0 && p_bad_to_good <= 1.0);
    AXIOMCC_EXPECTS(good_rate >= 0.0 && good_rate < 1.0);
    AXIOMCC_EXPECTS(bad_rate >= 0.0 && bad_rate < 1.0);
  }

  double sample(long /*step*/, int /*sender*/) override {
    if (in_bad_state_) {
      if (rng_.bernoulli(p_bg_)) in_bad_state_ = false;
    } else {
      if (rng_.bernoulli(p_gb_)) in_bad_state_ = true;
    }
    return in_bad_state_ ? bad_rate_ : good_rate_;
  }

  /// Copies the full RNG *and* channel state (`in_bad_state_`): a clone
  /// taken mid-episode stays mid-episode rather than resetting to "good".
  [[nodiscard]] std::unique_ptr<LossInjector> clone() const override {
    return std::make_unique<GilbertElliottLoss>(*this);
  }

 private:
  double p_gb_;
  double p_bg_;
  double good_rate_;
  double bad_rate_;
  std::uint64_t seed_;
  Rng rng_;
  bool in_bad_state_ = false;
};

/// Time-windowed Gilbert-Elliott loss (the gauntlet's loss storm): the
/// two-state channel runs only on steps in [start, end); outside the window
/// no loss is injected and no randomness is consumed, so storms compose
/// deterministically.
class LossStorm final : public LossInjector {
 public:
  LossStorm(long start_step, long end_step, double p_good_to_bad,
            double p_bad_to_good, double good_rate, double bad_rate,
            std::uint64_t seed);

  double sample(long step, int sender) override;

  /// Full-state copy (RNG and channel state), like the base injectors.
  [[nodiscard]] std::unique_ptr<LossInjector> clone() const override {
    return std::make_unique<LossStorm>(*this);
  }

 private:
  long start_;
  long end_;
  double p_gb_;
  double p_bg_;
  double good_rate_;
  double bad_rate_;
  Rng rng_;
  bool in_bad_state_ = false;
};

/// A non-congestion loss process as plain data: which injector, with which
/// parameters. Scenarios carry a LossSpec rather than an injector so every
/// run (and each backend) builds a fresh, independently seeded process.
/// Only the active kind's fields are meaningful; engine::validate_loss
/// checks their domains.
struct LossSpec {
  enum class Kind : int {
    kNone = 0,
    kConstant,        ///< rate
    kBernoulli,       ///< prob, rate
    kGilbertElliott,  ///< p_gb, p_bg, good_rate, bad_rate
    kStorm,           ///< window [start, end) + the Gilbert-Elliott fields
  };

  Kind kind = Kind::kNone;
  double rate = 0.0;  ///< kConstant rate / kBernoulli episode rate.
  double prob = 0.0;  ///< kBernoulli episode probability.
  double p_gb = 0.0;  ///< Gilbert-Elliott / storm good→bad transition.
  double p_bg = 0.0;  ///< Gilbert-Elliott / storm bad→good transition.
  double good_rate = 0.0;
  double bad_rate = 0.0;
  long start = 0;  ///< storm window.
  long end = 0;

  [[nodiscard]] bool empty() const { return kind == Kind::kNone; }

  /// Builds the injector this spec describes, seeded with `seed` (the
  /// deterministic kinds ignore it).
  [[nodiscard]] std::unique_ptr<LossInjector> make_injector(
      std::uint64_t seed) const;

  friend bool operator==(const LossSpec&, const LossSpec&) = default;
};

/// Combines independent congestion and injected loss rates.
[[nodiscard]] inline double combine_loss(double congestion, double injected) {
  const double combined = 1.0 - (1.0 - congestion) * (1.0 - injected);
  return std::clamp(combined, 0.0, 1.0);
}

}  // namespace axiomcc::fluid
