#include "degradation/model.hpp"

#include <cmath>
#include <stdexcept>

namespace blam {

DegradationModel::DegradationModel(const DegradationParams& params) : params_{params} {
  if (params.k1 < 0.0 || params.k6 < 0.0) {
    throw std::invalid_argument{"DegradationModel: aging rates must be non-negative"};
  }
  if (params.alpha_sei < 0.0 || params.alpha_sei >= 1.0) {
    throw std::invalid_argument{"DegradationModel: alpha_sei must be in [0,1)"};
  }
  if (params.eol_threshold <= 0.0 || params.eol_threshold >= 1.0) {
    throw std::invalid_argument{"DegradationModel: eol_threshold must be in (0,1)"};
  }
}

double DegradationModel::temperature_stress(double temperature_c) const {
  const double& k4 = params_.k4;
  const double& k5 = params_.k5;
  return std::exp(k4 * (temperature_c - k5) * (273.0 + k5) / (273.0 + temperature_c));
}

double DegradationModel::calendar_aging(Time age, double phi_bar, double temperature_c) const {
  if (age < Time::zero()) throw std::invalid_argument{"calendar_aging: negative age"};
  return params_.k1 * age.seconds() * std::exp(params_.k2 * (phi_bar - params_.k3)) *
         temperature_stress(temperature_c);
}

double DegradationModel::cycle_aging_term(const RainflowCycle& cycle,
                                          double temperature_c) const {
  return cycle.weight * cycle.range * cycle.mean * params_.k6 * temperature_stress(temperature_c);
}

double DegradationModel::nonlinear(double linear_sum) const {
  if (linear_sum < 0.0) linear_sum = 0.0;
  const double a = params_.alpha_sei;
  return 1.0 - a * std::exp(-params_.k_sei * linear_sum) - (1.0 - a) * std::exp(-linear_sum);
}

}  // namespace blam
