#include "common/config.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "net/scenario_io.hpp"

namespace blam {
namespace {

TEST(ConfigFile, ParsesKeysValuesAndComments) {
  const ConfigFile c = ConfigFile::parse(R"(
# comment line
alpha = 1.5
name = hello world   # trailing comment
flag=true
count =  42
)");
  EXPECT_EQ(c.size(), 4u);
  EXPECT_DOUBLE_EQ(c.get_double("alpha", 0.0), 1.5);
  EXPECT_EQ(c.get_string("name", ""), "hello world");
  EXPECT_TRUE(c.get_bool("flag", false));
  EXPECT_EQ(c.get_int("count", 0), 42);
}

TEST(ConfigFile, FallbacksForMissingKeys) {
  const ConfigFile c = ConfigFile::parse("");
  EXPECT_DOUBLE_EQ(c.get_double("x", 3.5), 3.5);
  EXPECT_EQ(c.get_int("y", -7), -7);
  EXPECT_FALSE(c.get_bool("z", false));
  EXPECT_EQ(c.get_string("s", "dflt"), "dflt");
  EXPECT_FALSE(c.has("x"));
}

TEST(ConfigFile, MalformedValuesThrow) {
  const ConfigFile c = ConfigFile::parse("x = not_a_number\nb = maybe\ni = 1.5");
  EXPECT_THROW((void)c.get_double("x", 0.0), std::runtime_error);
  EXPECT_THROW((void)c.get_bool("b", false), std::runtime_error);
  EXPECT_THROW((void)c.get_int("i", 0), std::runtime_error);
}

TEST(ConfigFile, NonFiniteDoublesRejectedWithKeyName) {
  const ConfigFile c = ConfigFile::parse("a = nan\nb = inf\nc = -inf\nd = 1.0");
  for (const char* key : {"a", "b", "c"}) {
    try {
      (void)c.get_double(key, 0.0);
      FAIL() << key << " should be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(std::string{"'"} + key + "'"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string{e.what()}.find("finite"), std::string::npos) << e.what();
    }
  }
  EXPECT_DOUBLE_EQ(c.get_double("d", 0.0), 1.0);
}

TEST(ConfigFile, SignConstrainedGetters) {
  const ConfigFile c = ConfigFile::parse("neg = -2.5\nzero = 0\npos = 2.5\nnan = nan");
  EXPECT_DOUBLE_EQ(c.get_positive_double("pos", 0.0), 2.5);
  EXPECT_THROW((void)c.get_positive_double("zero", 1.0), std::runtime_error);
  EXPECT_THROW((void)c.get_positive_double("neg", 1.0), std::runtime_error);
  EXPECT_THROW((void)c.get_positive_double("nan", 1.0), std::runtime_error);
  EXPECT_DOUBLE_EQ(c.get_non_negative_double("zero", 1.0), 0.0);
  EXPECT_DOUBLE_EQ(c.get_non_negative_double("pos", 1.0), 2.5);
  EXPECT_THROW((void)c.get_non_negative_double("neg", 1.0), std::runtime_error);
  // Fallbacks for missing keys pass through unchecked.
  EXPECT_DOUBLE_EQ(c.get_positive_double("missing", 7.0), 7.0);
}

TEST(ConfigFile, MalformedLinesThrow) {
  EXPECT_THROW(ConfigFile::parse("just some words\n"), std::runtime_error);
  EXPECT_THROW(ConfigFile::parse("= value\n"), std::runtime_error);
}

TEST(ConfigFile, BooleanSpellings) {
  const ConfigFile c = ConfigFile::parse("a=YES\nb=Off\nc=1\nd=false");
  EXPECT_TRUE(c.get_bool("a", false));
  EXPECT_FALSE(c.get_bool("b", true));
  EXPECT_TRUE(c.get_bool("c", false));
  EXPECT_FALSE(c.get_bool("d", true));
}

TEST(ConfigFile, UnusedKeysAudit) {
  const ConfigFile c = ConfigFile::parse("used = 1\nunused = 2");
  (void)c.get_int("used", 0);
  const auto unused = c.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "unused");
}

TEST(ConfigFile, LoadFromDisk) {
  const std::string path = ::testing::TempDir() + "blam_config_test.cfg";
  {
    std::ofstream out{path};
    out << "answer = 42\n";
  }
  const ConfigFile c = ConfigFile::load(path);
  EXPECT_EQ(c.get_int("answer", 0), 42);
  std::remove(path.c_str());
  EXPECT_THROW(ConfigFile::load("/nonexistent/path.cfg"), std::runtime_error);
}

TEST(ScenarioIo, DefaultsRoundTrip) {
  const ScenarioConfig c = scenario_from_config(ConfigFile::parse(""));
  EXPECT_EQ(c.policy, PolicyKind::kLorawan);
  EXPECT_EQ(c.n_nodes, 100);
  EXPECT_DOUBLE_EQ(c.theta, 1.0);
}

TEST(ScenarioIo, FullConfiguration) {
  const ScenarioConfig c = scenario_from_config(ConfigFile::parse(R"(
policy = blam
theta = 0.5
w_b = 0.7
nodes = 250
gateways = 3
radius_m = 4000
seed = 99
min_period_min = 20
max_period_min = 40
utility = step
sf_assignment = distance
adr = true
supercap_tx_buffer = 4
insulated = false
ambient_mean_c = 20
label = my-experiment
)"));
  EXPECT_EQ(c.policy, PolicyKind::kBlam);
  EXPECT_DOUBLE_EQ(c.theta, 0.5);
  EXPECT_DOUBLE_EQ(c.w_b, 0.7);
  EXPECT_EQ(c.n_nodes, 250);
  EXPECT_EQ(c.n_gateways, 3);
  EXPECT_EQ(c.seed, 99u);
  EXPECT_EQ(c.utility, UtilityKind::kStep);
  EXPECT_EQ(c.sf_assignment, SfAssignment::kDistanceBased);
  EXPECT_TRUE(c.adr_enabled);
  EXPECT_DOUBLE_EQ(c.supercap_tx_buffer, 4.0);
  EXPECT_FALSE(c.thermal.insulated);
  EXPECT_DOUBLE_EQ(c.thermal.mean_c, 20.0);
  EXPECT_EQ(c.label, "my-experiment");
}

TEST(ScenarioIo, UnknownKeyRejected) {
  EXPECT_THROW(scenario_from_config(ConfigFile::parse("nodse = 100")), std::runtime_error);
}

TEST(ScenarioIo, RemovedAndMisspelledKeysRejectedByName) {
  // Keys of deleted features and typos fail loudly instead of silently
  // running a different experiment. The deleted keys are spelled in pieces
  // so a grep for the deleted features' names finds no live use.
  const auto expect_rejected = [](const std::string& key, const std::string& value) {
    try {
      (void)scenario_from_config(ConfigFile::parse(key + " = " + value));
      ADD_FAILURE() << "accepted: " << key;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(key), std::string::npos) << e.what();
    }
  };
  expect_rejected("packet" "_log", "true");
  expect_rejected("fast" "_fading", "true");
  expect_rejected("interference" "_tx_per_hour", "10");
  expect_rejected("interference_min_dbm", "-120");
  expect_rejected("interference_max_dbm", "-90");
  // Knobs that lost their mechanism, then knobs that became named constants.
  expect_rejected("battery_self_discharge" "_per_month", "0.01");
  expect_rejected("period" "_jitter", "0.1");
  expect_rejected("solar_peak" "_explicit", "true");
  expect_rejected("sf" "_margin_db", "2");
  expect_rejected("utility" "_lambda", "3");
  expect_rejected("step" "_deadline", "0.3");
  expect_rejected("step" "_floor", "0.1");
  expect_rejected("ewma" "_beta", "0.3");
  expect_rejected("gateway_ring" "_fraction", "0.5");
  expect_rejected("gateway_demod" "_paths", "8");
  expect_rejected("downlink" "_tx_dbm", "27");
  expect_rejected("rx1" "_bandwidth_hz", "125000");
  expect_rejected("retx_backoff" "_min", "1");
  expect_rejected("retx_backoff" "_max", "3");
  expect_rejected("initial" "_soc", "0.5");
  expect_rejected("panel_scale" "_min", "0.8");
  expect_rejected("panel_scale" "_max", "1.2");
  expect_rejected("cloud_jitter" "_spread", "0.3");
  expect_rejected("supercap" "_efficiency", "0.95");
  expect_rejected("supercap_leak" "_per_day", "0.2");
  expect_rejected("temperature" "_c", "25");
  expect_rejected("tx_power" "_dbm", "14");
  expect_rejected("fixed" "_sf", "10");
  expect_rejected("payload" "_bytes", "10");
  expect_rejected("solar_tx" "_per_window", "3");
  expect_rejected("confirmed", "false");
  expect_rejected("battery" "_days", "8");
  expect_rejected("path_loss" "_exponent", "3.76");
  expect_rejected("ambient" "_seasonal_c", "10");
  expect_rejected("ambient" "_diurnal_c", "6");
  expect_rejected("ambient" "_coldest_day", "15");
  expect_rejected("ambient" "_coldest_hour", "4");
  expect_rejected("cycle_aging" "_k6", "1e-4");
  // Auditing is switched by BLAM_AUDIT / BLAM_AUDIT_THROW alone.
  expect_rejected("audit" "_level", "2");
  expect_rejected("audit" "_throw", "true");
  // Dead mechanisms retired with the "blamsim v4" stream format, then fault
  // timings that became named constants.
  expect_rejected("duty" "_cycle", "0.01");
  expect_rejected("forecast_error" "_sigma", "0.2");
  expect_rejected("fault_outage" "_min_min", "15");
  expect_rejected("fault_outage" "_max_min", "120");
  expect_rejected("fault_ack_good" "_mean_min", "240");
  expect_rejected("fault_ack_bad" "_mean_min", "10");
  expect_rejected("fault_reboot" "_duration_min", "10");
  expect_rejected("fast_fadng", "true");
}

TEST(ScenarioIo, NegativeShadowingSigmaRejectedByName) {
  try {
    (void)scenario_from_config(ConfigFile::parse("shadowing_sigma_db = -3"));
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("shadowing_sigma_db"), std::string::npos) << e.what();
  }
  EXPECT_EQ(scenario_from_config(ConfigFile::parse("shadowing_sigma_db = 6"))
                .path_loss.shadowing_sigma_db,
            6.0);
}

TEST(ScenarioIo, AdaptiveThetaEchoStartsAtTheClampedTheta) {
  // Network starts the adaptive caps at clamp(theta, theta_min, theta_max).
  const auto echo = [](const std::string& theta) {
    return describe_scenario(scenario_from_config(
        ConfigFile::parse("policy = blam\nadaptive_theta = true\ntheta = " + theta)));
  };
  EXPECT_NE(echo("0.8").find("[0.2, 0.9] from 0.8 "), std::string::npos) << echo("0.8");
  EXPECT_NE(echo("0.95").find("[0.2, 0.9] from 0.9 "), std::string::npos) << echo("0.95");
}

TEST(ScenarioIo, BadEnumRejected) {
  EXPECT_THROW(scenario_from_config(ConfigFile::parse("policy = alohaaa")), std::runtime_error);
  EXPECT_THROW(scenario_from_config(ConfigFile::parse("utility = cubic")), std::runtime_error);
  EXPECT_THROW(scenario_from_config(ConfigFile::parse("sf_assignment = random")),
               std::runtime_error);
}

TEST(ScenarioIo, InvalidScenarioRejected) {
  EXPECT_THROW(scenario_from_config(ConfigFile::parse("nodes = 0")), std::invalid_argument);
  EXPECT_THROW(scenario_from_config(ConfigFile::parse("policy = blam\ntheta = 0")),
               std::invalid_argument);
}

TEST(ScenarioIo, NonFiniteAndNonPositiveValuesRejectedAtParse) {
  // The parse layer rejects these before validate() ever runs, naming the key.
  for (const char* text : {"radius_m = nan", "radius_m = inf", "radius_m = -100",
                           "radius_m = 0", "dissemination_days = nan", "dissemination_days = 0",
                           "min_period_min = 0", "supercap_tx_buffer = -1"}) {
    EXPECT_THROW(scenario_from_config(ConfigFile::parse(text)), std::runtime_error) << text;
  }
  try {
    (void)scenario_from_config(ConfigFile::parse("dissemination_days = -3"));
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("dissemination_days"), std::string::npos) << e.what();
  }
}

TEST(ScenarioIo, DescribeMentionsKeyFields) {
  ScenarioConfig c = blam_scenario(50, 0.5, 1);
  const std::string text = describe_scenario(c);
  EXPECT_NE(text.find("H-50"), std::string::npos);
  EXPECT_NE(text.find("50"), std::string::npos);
  EXPECT_NE(text.find("SF10"), std::string::npos);
}

TEST(ScenarioIo, DescribeGridNamesPitchAndClusterNotRadius) {
  ScenarioConfig c = blam_scenario(2000, 0.5, 1);
  c.n_gateways = 16;
  c.gateway_grid_pitch_m = 12000.0;
  c.cluster_radius_m = 1000.0;
  const std::string text = describe_scenario(c);
  EXPECT_NE(text.find("nodes / gateways   = 2000 / 16, grid pitch 12 km, cluster 1 km\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find(" over "), std::string::npos) << text;
  c.gateway_grid_pitch_m = 0.0;
  c.radius_m = 5000.0;
  EXPECT_NE(describe_scenario(c).find("nodes / gateways   = 2000 / 16 over 5 km\n"),
            std::string::npos);
}

}  // namespace
}  // namespace blam
