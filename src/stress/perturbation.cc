#include "stress/perturbation.h"

#include "util/check.h"

namespace axiomcc::stress {

namespace {

/// Breakpoints of `scale` over steps [0, steps): one at step 0 and one at
/// every step whose value differs from the step before. Each value is the
/// shape's own expression evaluated at that step, so the schedule matches
/// the formula bit for bit on the whole horizon.
template <typename Shape>
fluid::Schedule sample_schedule(long steps, Shape scale) {
  AXIOMCC_EXPECTS(steps > 0);
  fluid::Schedule out;
  for (long step = 0; step < steps; ++step) {
    const double value = scale(step);
    if (out.points.empty() || value != out.points.back().scale) {
      out.points.push_back({step, value});
    }
  }
  return out;
}

}  // namespace

fluid::Schedule outage_schedule(long start, long duration, double residual) {
  AXIOMCC_EXPECTS(start >= 0);
  AXIOMCC_EXPECTS(duration > 0);
  AXIOMCC_EXPECTS(residual > 0.0 && residual <= 1.0);
  return fluid::Schedule{{{start, residual}, {start + duration, 1.0}}};
}

fluid::Schedule square_wave_schedule(long steps, long period, double high,
                                     double low, long phase) {
  AXIOMCC_EXPECTS(period >= 2);
  AXIOMCC_EXPECTS(high > 0.0 && low > 0.0);
  AXIOMCC_EXPECTS(phase >= 0);
  return sample_schedule(steps, [period, high, low, phase](long step) {
    const long pos = (step + phase) % period;
    return pos < period / 2 ? high : low;
  });
}

fluid::Schedule sawtooth_schedule(long steps, long period, double low,
                                  double high) {
  AXIOMCC_EXPECTS(period >= 2);
  AXIOMCC_EXPECTS(low > 0.0 && high >= low);
  return sample_schedule(steps, [period, low, high](long step) {
    const long pos = step % period;
    return low + (high - low) * static_cast<double>(pos) /
                     static_cast<double>(period - 1);
  });
}

fluid::Schedule step_change_schedule(long at, double before, double after) {
  AXIOMCC_EXPECTS(at >= 0);
  AXIOMCC_EXPECTS(before > 0.0 && after > 0.0);
  if (at == 0) return fluid::Schedule{{{0, after}}};
  return fluid::Schedule{{{0, before}, {at, after}}};
}

}  // namespace axiomcc::stress
