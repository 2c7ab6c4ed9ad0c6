// Unit tests for the deterministic rate-schedule module behind
// tools/loadgen: profile shapes, closed-form means, and seeded
// arrival-sequence reproducibility.

#include "loggen/rate_schedule.h"

#include <cmath>

#include <gtest/gtest.h>

namespace rwdt::loggen {
namespace {

TEST(RateScheduleTest, ConstantProfile) {
  RateScheduleOptions opts;
  opts.profile = RateProfile::kConstant;
  opts.base_qps = 250;
  ASSERT_TRUE(opts.Validate().ok());
  const RateSchedule s(opts);
  EXPECT_DOUBLE_EQ(s.RateAt(0), 250);
  EXPECT_DOUBLE_EQ(s.RateAt(123.4), 250);
  EXPECT_DOUBLE_EQ(s.MeanRate(), 250);
  EXPECT_DOUBLE_EQ(s.PeakRate(), 250);
}

TEST(RateScheduleTest, DiurnalProfileSwingsAroundBase) {
  RateScheduleOptions opts;
  opts.profile = RateProfile::kDiurnal;
  opts.base_qps = 100;
  opts.period_s = 40;
  opts.amplitude = 0.5;
  ASSERT_TRUE(opts.Validate().ok());
  const RateSchedule s(opts);
  EXPECT_NEAR(s.RateAt(0), 100, 1e-9);           // sin(0) = 0
  EXPECT_NEAR(s.RateAt(10), 150, 1e-9);          // quarter period: peak
  EXPECT_NEAR(s.RateAt(30), 50, 1e-9);           // three quarters: trough
  EXPECT_NEAR(s.RateAt(40), 100, 1e-6);          // wraps
  EXPECT_DOUBLE_EQ(s.MeanRate(), 100);
  EXPECT_DOUBLE_EQ(s.PeakRate(), 150);
}

TEST(RateScheduleTest, BurstProfileIsSquareWave) {
  RateScheduleOptions opts;
  opts.profile = RateProfile::kBurst;
  opts.base_qps = 50;
  opts.burst_qps = 450;
  opts.period_s = 10;
  opts.burst_duty = 0.2;
  ASSERT_TRUE(opts.Validate().ok());
  const RateSchedule s(opts);
  EXPECT_DOUBLE_EQ(s.RateAt(0.0), 450);   // high phase: [0, 2)
  EXPECT_DOUBLE_EQ(s.RateAt(1.9), 450);
  EXPECT_DOUBLE_EQ(s.RateAt(2.1), 50);    // low phase
  EXPECT_DOUBLE_EQ(s.RateAt(9.9), 50);
  EXPECT_DOUBLE_EQ(s.RateAt(10.5), 450);  // next period
  EXPECT_DOUBLE_EQ(s.MeanRate(), 0.2 * 450 + 0.8 * 50);
  EXPECT_DOUBLE_EQ(s.PeakRate(), 450);
}

TEST(RateScheduleTest, ValidationRejectsNonsense) {
  RateScheduleOptions opts;
  opts.base_qps = 0;
  EXPECT_FALSE(opts.Validate().ok());

  opts = {};
  opts.profile = RateProfile::kDiurnal;
  opts.amplitude = 1.5;
  EXPECT_FALSE(opts.Validate().ok());

  opts = {};
  opts.profile = RateProfile::kBurst;
  opts.burst_duty = 0;
  EXPECT_FALSE(opts.Validate().ok());

  opts = {};
  opts.profile = RateProfile::kBurst;
  opts.period_s = -1;
  EXPECT_FALSE(opts.Validate().ok());
}

TEST(RateScheduleTest, ParseProfileNames) {
  EXPECT_EQ(ParseRateProfile("constant").value(), RateProfile::kConstant);
  EXPECT_EQ(ParseRateProfile("diurnal").value(), RateProfile::kDiurnal);
  EXPECT_EQ(ParseRateProfile("burst").value(), RateProfile::kBurst);
  EXPECT_FALSE(ParseRateProfile("sawtooth").ok());
  for (RateProfile p : {RateProfile::kConstant, RateProfile::kDiurnal,
                        RateProfile::kBurst}) {
    EXPECT_EQ(ParseRateProfile(RateProfileName(p)).value(), p);
  }
}

TEST(RateScheduleTest, ArrivalsMatchMeanRate) {
  RateScheduleOptions opts;
  opts.profile = RateProfile::kConstant;
  opts.base_qps = 500;
  const RateSchedule s(opts);
  const auto arrivals = GenerateArrivals(s, 20.0, /*seed=*/42);
  // Poisson(10000): 5 sigma is ~500.
  EXPECT_NEAR(static_cast<double>(arrivals.size()), 10000, 500);
  // Strictly increasing, inside the horizon.
  for (size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i], 0);
    EXPECT_LT(arrivals[i], 20.0);
    if (i > 0) {
      EXPECT_GT(arrivals[i], arrivals[i - 1]);
    }
  }
}

TEST(RateScheduleTest, ArrivalsAreDeterministicInSeed) {
  RateScheduleOptions opts;
  opts.profile = RateProfile::kDiurnal;
  opts.base_qps = 200;
  opts.period_s = 5;
  const RateSchedule s(opts);
  const auto a = GenerateArrivals(s, 10.0, 7);
  const auto b = GenerateArrivals(s, 10.0, 7);
  const auto c = GenerateArrivals(s, 10.0, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(RateScheduleTest, BurstArrivalsConcentrateInHighPhase) {
  RateScheduleOptions opts;
  opts.profile = RateProfile::kBurst;
  opts.base_qps = 20;
  opts.burst_qps = 980;
  opts.period_s = 10;
  opts.burst_duty = 0.1;  // high phase: first second of each period
  const RateSchedule s(opts);
  const auto arrivals = GenerateArrivals(s, 50.0, 3);
  size_t high = 0;
  for (const double t : arrivals) {
    if (std::fmod(t, 10.0) < 1.0) high++;
  }
  // Expected split: 98 high vs 18 low per period — high phase must
  // dominate overwhelmingly.
  ASSERT_GT(arrivals.size(), 100u);
  EXPECT_GT(static_cast<double>(high) / arrivals.size(), 0.7);
}

TEST(RateScheduleTest, EmptyHorizonYieldsNoArrivals) {
  const RateSchedule s(RateScheduleOptions{});
  EXPECT_TRUE(GenerateArrivals(s, 0, 1).empty());
  EXPECT_TRUE(GenerateArrivals(s, -5, 1).empty());
}

}  // namespace
}  // namespace rwdt::loggen
