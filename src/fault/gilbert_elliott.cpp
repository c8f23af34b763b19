#include "fault/gilbert_elliott.hpp"

#include <stdexcept>

namespace blam {

GilbertElliott::GilbertElliott(const Params& params, Rng rng)
    : params_{params}, rng_{rng} {
  if (params.loss_good < 0.0 || params.loss_good > 1.0 || params.loss_bad < 0.0 ||
      params.loss_bad > 1.0) {
    throw std::invalid_argument{"GilbertElliott: loss probabilities must be in [0,1]"};
  }
  if (params.good_mean <= Time::zero() || params.bad_mean <= Time::zero()) {
    throw std::invalid_argument{"GilbertElliott: sojourn means must be positive"};
  }
  state_until_ = Time::from_seconds(rng_.exponential(params_.good_mean.seconds()));
}

void GilbertElliott::advance(Time now) {
  while (state_until_ <= now) {
    bad_ = !bad_;
    const Time mean = bad_ ? params_.bad_mean : params_.good_mean;
    state_until_ += Time::from_seconds(rng_.exponential(mean.seconds()));
  }
}

bool GilbertElliott::lost(Time now) {
  advance(now);
  return rng_.bernoulli(bad_ ? params_.loss_bad : params_.loss_good);
}

}  // namespace blam
