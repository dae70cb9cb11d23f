#include "fluid/loss_model.h"

#include "telemetry/telemetry.h"

namespace axiomcc::fluid {

LossStorm::LossStorm(long start_step, long end_step, double p_good_to_bad,
                     double p_bad_to_good, double good_rate, double bad_rate,
                     std::uint64_t seed)
    : start_(start_step),
      end_(end_step),
      p_gb_(p_good_to_bad),
      p_bg_(p_bad_to_good),
      good_rate_(good_rate),
      bad_rate_(bad_rate),
      rng_(seed) {
  AXIOMCC_EXPECTS(start_step >= 0);
  AXIOMCC_EXPECTS(end_step > start_step);
  AXIOMCC_EXPECTS(p_good_to_bad >= 0.0 && p_good_to_bad <= 1.0);
  AXIOMCC_EXPECTS(p_bad_to_good >= 0.0 && p_bad_to_good <= 1.0);
  AXIOMCC_EXPECTS(good_rate >= 0.0 && good_rate < 1.0);
  AXIOMCC_EXPECTS(bad_rate >= 0.0 && bad_rate < 1.0);
}

double LossStorm::sample(long step, int /*sender*/) {
  if (step < start_ || step >= end_) return 0.0;
  if (in_bad_state_) {
    if (rng_.bernoulli(p_bg_)) in_bad_state_ = false;
  } else {
    if (rng_.bernoulli(p_gb_)) {
      in_bad_state_ = true;
      // Burst count is a function of (seed, steps) only — deterministic.
      TELEMETRY_COUNT("stress.storm_bursts", 1);
    }
  }
  return in_bad_state_ ? bad_rate_ : good_rate_;
}

std::unique_ptr<LossInjector> LossSpec::make_injector(
    std::uint64_t seed) const {
  switch (kind) {
    case Kind::kNone:
      break;
    case Kind::kConstant:
      return std::make_unique<ConstantLoss>(rate);
    case Kind::kBernoulli:
      return std::make_unique<BernoulliLoss>(prob, rate, seed);
    case Kind::kGilbertElliott:
      return std::make_unique<GilbertElliottLoss>(p_gb, p_bg, good_rate,
                                                  bad_rate, seed);
    case Kind::kStorm:
      return std::make_unique<LossStorm>(start, end, p_gb, p_bg, good_rate,
                                         bad_rate, seed);
  }
  return std::make_unique<NoLoss>();
}

}  // namespace axiomcc::fluid
