// Battery degradation model: paper Eqs. (1)-(4), after Xu et al. 2016
// ("Modeling of lithium-ion battery degradation for cell life assessment").
//
// Degradation D in [0, 1] is the fraction of original capacity lost.
//   calendar (Eq. 1): D_cal = k1 * zeta * e^{k2 (phi_bar - k3)} * S_T
//   cycle    (Eq. 2): D_cyc = sum_i eta_i * delta_i * phi_i * k6 * S_T
//   linear   (Eq. 3): D_L = D_cal + D_cyc
//   SEI wrap (Eq. 4): D = 1 - a_sei e^{-k_sei D_L} - (1 - a_sei) e^{-D_L}
// with the shared temperature stress
//   S_T = e^{k4 (T - k5)(273 + k5) / (273 + T)},  T in deg C.
//
// Default constants are Xu et al.'s LMO cell fit; with them a battery held
// at mean SoC ~0.9 and 25 C reaches 20% fade (EoL) after ~8.2 years, and one
// held below SoC 0.5 after ~13-14 years — matching the paper's Fig. 8.
#pragma once

#include "common/units.hpp"
#include "degradation/rainflow.hpp"

namespace blam {

struct DegradationParams {
  /// Calendar aging rate per second (Xu: k_t = 4.14e-10 1/s).
  double k1{4.14e-10};
  /// SoC stress exponent (Xu: k_sigma = 1.04).
  double k2{1.04};
  /// Reference SoC (Xu: sigma_ref = 0.5).
  double k3{0.5};
  /// Temperature stress coefficient (Xu: k_T = 6.93e-2 1/K).
  double k4{6.93e-2};
  /// Reference temperature, deg C (Xu: 25 C).
  double k5{25.0};
  /// Per-cycle aging coefficient (paper's linearized DoD stress). Chosen so
  /// cycle aging stays well below calendar aging for LoRa duty cycles
  /// (paper Fig. 2) while still rewarding shallow discharges.
  double k6{2.0e-5};
  /// SEI film parameters (Xu: alpha_sei = 5.75e-2, k_sei = 121).
  double alpha_sei{5.75e-2};
  double k_sei{121.0};
  /// Degradation at which the battery is end-of-life.
  double eol_threshold{0.2};

  /// Xu et al.'s LMO cell fit — the defaults above.
  [[nodiscard]] static DegradationParams lmo() { return DegradationParams{}; }

  /// NMC-like chemistry: somewhat slower calendar aging but a steeper SoC
  /// stress and more cycle-sensitive. Illustrative literature-informed
  /// preset; the paper's protocol claims hold under any such model
  /// ("our formulation does not depend on any specific battery degradation
  /// model", Sec. III).
  [[nodiscard]] static DegradationParams nmc() {
    DegradationParams p;
    p.k1 = 3.0e-10;
    p.k2 = 1.3;
    p.k6 = 4.0e-5;
    return p;
  }

  /// LFP-like chemistry: very cycle-tolerant and slow calendar aging with a
  /// flatter SoC stress.
  [[nodiscard]] static DegradationParams lfp() {
    DegradationParams p;
    p.k1 = 1.6e-10;
    p.k2 = 0.8;
    p.k6 = 1.0e-5;
    return p;
  }
};

class DegradationModel {
 public:
  explicit DegradationModel(const DegradationParams& params = {});

  [[nodiscard]] const DegradationParams& params() const { return params_; }

  /// Shared temperature stress S_T at `temperature_c`.
  [[nodiscard]] double temperature_stress(double temperature_c) const;

  /// Eq. (1): calendar aging for `age` elapsed, mean SoC `phi_bar`, at
  /// `temperature_c`. DegradationTracker::calendar_linear() inlines it over the
  /// stress-time integral.
  // blam-analyze: allow(N1) -- reference; TrackerTest.CalendarUsesMeanSocAndExtendsToNow
  [[nodiscard]] double calendar_aging(Time age, double phi_bar, double temperature_c) const;

  /// Eq. (2) single-cycle term: eta * delta * phi * k6 * S_T. The tracker's
  /// rainflow callback inlines it with the cached stress.
  // blam-analyze: allow(N1) -- reference; TrackerTest.CyclesAccumulate
  [[nodiscard]] double cycle_aging_term(const RainflowCycle& cycle, double temperature_c) const;

  /// Eq. (4): non-linear (SEI) degradation from the linear sum D_L.
  [[nodiscard]] double nonlinear(double linear_sum) const;

 private:
  // blam-ckpt: skip -- model constants; rebuilt from ScenarioConfig::degradation
  DegradationParams params_;
};

}  // namespace blam
