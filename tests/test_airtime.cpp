#include "lora/airtime.hpp"

#include <gtest/gtest.h>

namespace blam {
namespace {

TxParams params(SpreadingFactor sf, int payload, double bw = 125e3) {
  TxParams p;
  p.sf = sf;
  p.bandwidth_hz = bw;
  p.payload_bytes = payload;
  return p.with_auto_ldro();
}

TEST(Airtime, SymbolTimeMatchesFormula) {
  // time_on_air = symbols * 2^SF / BW (to the microsecond it is stored in).
  const auto symbol_s = [](const TxParams& p) {
    return time_on_air(p).seconds() / packet_symbols(p);
  };
  EXPECT_NEAR(symbol_s(params(SpreadingFactor::kSF7, 10)), 128.0 / 125e3, 1e-8);
  EXPECT_NEAR(symbol_s(params(SpreadingFactor::kSF12, 10)), 4096.0 / 125e3, 1e-8);
  EXPECT_NEAR(symbol_s(params(SpreadingFactor::kSF12, 10, 500e3)), 4096.0 / 500e3, 1e-8);
}

TEST(Airtime, LdroAutoEnableRule) {
  // Symbol time >= 16 ms: SF11 and SF12 at 125 kHz only.
  EXPECT_FALSE(params(SpreadingFactor::kSF10, 10).low_data_rate_optimize);
  EXPECT_TRUE(params(SpreadingFactor::kSF11, 10).low_data_rate_optimize);
  EXPECT_TRUE(params(SpreadingFactor::kSF12, 10).low_data_rate_optimize);
  EXPECT_FALSE(params(SpreadingFactor::kSF12, 10, 500e3).low_data_rate_optimize);
}

// Reference airtimes cross-checked against the Semtech LoRa calculator
// (explicit header, CRC on, preamble 8).
TEST(Airtime, ReferenceValuesSf7) {
  // SF7, 125 kHz, CR 4/5, 10-byte payload: 12.25 + 8 + 5*5 symbols = 45.25
  // symbols; wait: payload symbols = 8 + max(ceil((80-28+28)/ (4*7))*5,0)
  //   numerator = 8*10 - 4*7 + 28 + 16 = 96; 96/(28) -> ceil = 4; 4*5 = 20.
  // total = 12.25 + 8 + 20 = 40.25 symbols; t = 40.25 * 1.024 ms = 41.2 ms.
  EXPECT_NEAR(time_on_air(params(SpreadingFactor::kSF7, 10)).seconds(), 0.041216, 1e-6);
}

TEST(Airtime, ReferenceValuesSf10) {
  // SF10, 125 kHz, CR 4/5, 10 bytes: numerator = 80 - 40 + 44 = 84;
  // denom = 40 -> ceil(2.1) = 3 -> 15 symbols; total = 12.25 + 8 + 15 = 35.25;
  // t = 35.25 * 8.192 ms = 288.8 ms.
  EXPECT_NEAR(time_on_air(params(SpreadingFactor::kSF10, 10)).seconds(), 0.288768, 1e-6);
}

TEST(Airtime, ReferenceValuesSf12Ldro) {
  // SF12, 125 kHz, CR 4/5, 10 bytes, DE=1: denom = 4*(12-2)=40;
  // numerator = 80 - 48 + 44 = 76 -> ceil(1.9) = 2 -> 10 symbols;
  // total = 12.25 + 8 + 10 = 30.25; t = 30.25 * 32.768 ms = 991.2 ms.
  EXPECT_NEAR(time_on_air(params(SpreadingFactor::kSF12, 10)).seconds(), 0.991232, 1e-5);
}

TEST(Airtime, MonotoneInPayload) {
  for (SpreadingFactor sf : kAllSpreadingFactors) {
    Time prev = Time::zero();
    for (int payload = 1; payload <= 64; ++payload) {
      const Time t = time_on_air(params(sf, payload));
      EXPECT_GE(t, prev) << to_string(sf) << " payload " << payload;
      prev = t;
    }
  }
}

TEST(Airtime, MonotoneInSpreadingFactor) {
  Time prev = Time::zero();
  for (SpreadingFactor sf : kAllSpreadingFactors) {
    const Time t = time_on_air(params(sf, 10));
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Airtime, PaperClaimTenBytePacketAboutOneSecondAtMax) {
  // Paper Sec. III-B: "maximum transmission time for a 10-byte packet in
  // LoRa is around 1.2 seconds" (SF12, 125 kHz).
  const Time t = time_on_air(params(SpreadingFactor::kSF12, 10));
  EXPECT_GT(t.seconds(), 0.9);
  EXPECT_LT(t.seconds(), 1.3);
}

TEST(TxEnergy, MatchesPowerTimesAirtime) {
  RadioEnergyModel radio;
  const TxParams p = params(SpreadingFactor::kSF10, 10);
  const Energy e = tx_energy(p, radio);
  EXPECT_NEAR(e.joules(), radio.tx_power(p.tx_power_dbm).watts() * time_on_air(p).seconds(),
              1e-12);
}

TEST(TxEnergy, GrowsWithTxPower) {
  RadioEnergyModel radio;
  TxParams lo = params(SpreadingFactor::kSF10, 10);
  lo.tx_power_dbm = 7.0;
  TxParams hi = lo;
  hi.tx_power_dbm = 20.0;
  EXPECT_GT(tx_energy(hi, radio).joules(), tx_energy(lo, radio).joules());
}

TEST(RadioEnergyModel, SupplyCurrentInterpolation) {
  RadioEnergyModel radio;
  // Datasheet anchor points.
  EXPECT_NEAR(radio.tx_power(7.0).watts(), 0.020 * 3.3, 1e-9);
  EXPECT_NEAR(radio.tx_power(13.0).watts(), 0.029 * 3.3, 1e-9);
  EXPECT_NEAR(radio.tx_power(20.0).watts(), 0.120 * 3.3, 1e-9);
  // Clamped outside the table.
  EXPECT_NEAR(radio.tx_power(0.0).watts(), 0.020 * 3.3, 1e-9);
  EXPECT_NEAR(radio.tx_power(25.0).watts(), 0.120 * 3.3, 1e-9);
  // Interpolated between 13 and 17 dBm.
  const double w15 = radio.tx_power(15.0).watts();
  EXPECT_GT(w15, 0.029 * 3.3);
  EXPECT_LT(w15, 0.090 * 3.3);
}

TEST(RxEnergy, ScalesWithDuration) {
  // A receive window costs rx_power() (11.2 mA, LnaBoost on) for its length.
  RadioEnergyModel radio;
  EXPECT_NEAR(radio.rx_power().watts(), 0.0112 * 3.3, 1e-12);
  const Energy e1 = radio.rx_power() * Time::from_ms(60);
  const Energy e2 = radio.rx_power() * Time::from_ms(120);
  EXPECT_NEAR(e2.joules(), 2.0 * e1.joules(), 1e-12);
}

TEST(Airtime, RejectsInvalidInput) {
  TxParams p = params(SpreadingFactor::kSF10, 10);
  p.payload_bytes = -1;
  EXPECT_THROW((void)packet_symbols(p), std::invalid_argument);
}

TEST(Params, SfHelpers) {
  EXPECT_EQ(sf_value(SpreadingFactor::kSF9), 9);
  EXPECT_EQ(sf_index(SpreadingFactor::kSF7), 0u);
  EXPECT_EQ(sf_index(SpreadingFactor::kSF12), 5u);
  EXPECT_EQ(sf_from_value(11), SpreadingFactor::kSF11);
  EXPECT_THROW((void)sf_from_value(6), std::invalid_argument);
  EXPECT_THROW((void)sf_from_value(13), std::invalid_argument);
  EXPECT_EQ(to_string(SpreadingFactor::kSF8), "SF8");
}

TEST(Params, SensitivityMonotoneInSf) {
  double prev_gw = 0.0;
  double prev_dev = 0.0;
  for (SpreadingFactor sf : kAllSpreadingFactors) {
    if (sf != SpreadingFactor::kSF7) {
      EXPECT_LT(gateway_sensitivity_dbm(sf), prev_gw);
      EXPECT_LT(device_sensitivity_dbm(sf), prev_dev);
    }
    prev_gw = gateway_sensitivity_dbm(sf);
    prev_dev = device_sensitivity_dbm(sf);
    // The gateway (SX1301) hears better than the device (SX1276).
    EXPECT_LT(gateway_sensitivity_dbm(sf), device_sensitivity_dbm(sf));
  }
}

}  // namespace
}  // namespace blam
