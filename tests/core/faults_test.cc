#include "core/faults.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/random.h"
#include "core/planner.h"

namespace dmlscale::core {
namespace {

FaultSpec CrashSpec(double mtbf = 1000.0, double mttr = 10.0) {
  FaultSpec spec;
  spec.mtbf_seconds = mtbf;
  spec.mttr_seconds = mttr;
  return spec;
}

TEST(FaultSpecTest, DefaultSpecIsDisabledAndValid) {
  FaultSpec spec;
  EXPECT_FALSE(spec.Enabled());
  EXPECT_FALSE(spec.CrashesEnabled());
  EXPECT_FALSE(spec.LinkFaultsEnabled());
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(FaultSpecTest, CrashesWithoutRepairTimeAreRejected) {
  FaultSpec spec;
  spec.mtbf_seconds = 100.0;  // mttr left at 0
  Status status = spec.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("mttr_seconds"), std::string::npos);
}

TEST(FaultSpecTest, ReplicaNeedsTakeoverTime) {
  FaultSpec spec = CrashSpec();
  spec.recovery = RecoveryStrategy::kReplicaTakeover;
  Status status = spec.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("takeover_seconds"), std::string::npos);
  spec.takeover_seconds = 3.0;
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(FaultSpecTest, SpeculationThresholdMustExceedOne) {
  FaultSpec spec;
  spec.straggler_sigma = 0.5;
  spec.recovery = RecoveryStrategy::kSpeculativeReexec;
  spec.speculation_threshold = 1.0;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.speculation_threshold = 1.5;
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(FaultSpecTest, LinkFaultsNeedDurationAndSaneFactor) {
  FaultSpec spec;
  spec.link_mtbf_seconds = 600.0;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.link_degrade_seconds = 30.0;
  spec.link_degrade_factor = 0.5;  // a degraded link cannot speed up
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.link_degrade_factor = 4.0;
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(FaultSpecTest, NonFiniteFieldsAreRejected) {
  FaultSpec spec = CrashSpec();
  spec.checkpoint_cost_s = std::nan("");
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(FaultSpecTest, ToStringMatchesApiKeyMenus) {
  EXPECT_STREQ(ToString(FaultDistribution::kExponential), "exponential");
  EXPECT_STREQ(ToString(FaultDistribution::kWeibull), "weibull");
  EXPECT_STREQ(ToString(RecoveryStrategy::kCheckpointRestart),
               "checkpoint-restart");
  EXPECT_STREQ(ToString(RecoveryStrategy::kReplicaTakeover), "replica");
  EXPECT_STREQ(ToString(RecoveryStrategy::kSpeculativeReexec), "speculative");
}

TEST(FaultModelTest, StreamsAreDeterministicAndPerNode) {
  FaultModel a(CrashSpec(), 42);
  FaultModel b(CrashSpec(), 42);
  Pcg32 a0 = a.CrashStream(0);
  Pcg32 b0 = b.CrashStream(0);
  Pcg32 a1 = a.CrashStream(1);
  // Same (seed, node) -> bit-identical draw sequence across instances.
  EXPECT_EQ(a.NextUptime(&a0), b.NextUptime(&b0));
  // Different nodes -> different streams.
  Pcg32 a0_again = a.CrashStream(0);
  EXPECT_NE(a.NextUptime(&a0_again), a.NextUptime(&a1));
}

// The satellite statistical test: empirical failure inter-arrival means must
// match the configured MTBF. With 20000 draws the standard error of the mean
// is well under 1% of the MTBF for both shapes, so 3% is a loose-but-real
// tolerance that still catches a mis-parameterized distribution.
TEST(FaultModelTest, ExponentialInterArrivalsMatchConfiguredMtbf) {
  const double mtbf = 750.0;
  FaultModel model(CrashSpec(mtbf), 7);
  Pcg32 rng = model.CrashStream(3);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += model.NextUptime(&rng);
  EXPECT_NEAR(sum / n, mtbf, 0.03 * mtbf);
}

TEST(FaultModelTest, WeibullInterArrivalsMatchConfiguredMtbf) {
  FaultSpec spec = CrashSpec(750.0);
  spec.distribution = FaultDistribution::kWeibull;
  spec.weibull_shape = 2.0;  // wear-out: lower variance than exponential
  FaultModel model(spec, 7);
  Pcg32 rng = model.CrashStream(3);
  const int n = 20000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = model.NextUptime(&rng);
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  EXPECT_NEAR(mean, spec.mtbf_seconds, 0.03 * spec.mtbf_seconds);
  // Weibull k=2 has CV = sqrt(4/pi - 1) ~= 0.52 vs 1.0 for exponential —
  // the shape parameter must actually change the shape.
  double cv = std::sqrt(sq / n - mean * mean) / mean;
  EXPECT_NEAR(cv, std::sqrt(4.0 / M_PI - 1.0), 0.05);
}

TEST(FaultModelTest, SlowdownIsOneWithoutStragglers) {
  FaultModel model(FaultSpec{}, 1);
  Pcg32 rng(1);
  EXPECT_EQ(model.NextSlowdown(&rng), 1.0);
}

TEST(FaultModelTest, SpeculationCapsTheSlowdownTail) {
  FaultSpec spec;
  spec.straggler_sigma = 1.0;
  spec.recovery = RecoveryStrategy::kSpeculativeReexec;
  spec.speculation_threshold = 2.0;
  FaultModel speculative(spec, 5);
  spec.recovery = RecoveryStrategy::kCheckpointRestart;
  FaultModel plain(spec, 5);
  // Same seed, so the primary draws coincide; the speculative model may only
  // ever shrink a draw, never grow it.
  Pcg32 s_rng = speculative.JitterStream(0);
  Pcg32 p_rng = plain.JitterStream(0);
  double worst_plain = 0.0;
  double worst_spec = 0.0;
  for (int i = 0; i < 5000; ++i) {
    worst_plain = std::max(worst_plain, plain.NextSlowdown(&p_rng));
    worst_spec = std::max(worst_spec, speculative.NextSlowdown(&s_rng));
  }
  EXPECT_GT(worst_plain, 3.0);  // sigma=1 log-normal has a heavy tail
  EXPECT_LT(worst_spec, worst_plain);
}

TEST(AnalyticFormsTest, YoungDalyInterval) {
  // sqrt(2 * 60 * 30000) = sqrt(3.6e6) = 1897.36...
  EXPECT_NEAR(YoungDalyInterval(60.0, 30000.0), std::sqrt(3.6e6), 1e-9);
  EXPECT_EQ(YoungDalyInterval(0.0, 30000.0), 0.0);
}

TEST(AnalyticFormsTest, AvailabilityIsMtbfOverCycle) {
  EXPECT_EQ(Availability(FaultSpec{}), 1.0);
  EXPECT_NEAR(Availability(CrashSpec(990.0, 10.0)), 0.99, 1e-12);
}

TEST(AnalyticFormsTest, CheckpointPlanUsesExplicitIntervalOrYoungDaly) {
  FaultSpec spec = CrashSpec(40000.0, 10.0);
  spec.checkpoint_interval_s = 100.0;
  CheckpointPlan explicit_plan = ResolveCheckpointPlan(spec, 4, 400.0);
  EXPECT_EQ(explicit_plan.segments, 4);
  EXPECT_NEAR(explicit_plan.interval_s, 100.0, 1e-12);

  spec.checkpoint_interval_s = 0.0;
  spec.checkpoint_cost_s = 50.0;
  // Young/Daly: sqrt(2 * 50 * 40000/4) = 1000 -> round(4000/1000) segments.
  CheckpointPlan daly = ResolveCheckpointPlan(spec, 4, 4000.0);
  EXPECT_EQ(daly.segments, 4);

  // Replica recovery keeps no checkpoints: one segment.
  spec.recovery = RecoveryStrategy::kReplicaTakeover;
  spec.takeover_seconds = 3.0;
  EXPECT_EQ(ResolveCheckpointPlan(spec, 4, 4000.0).segments, 1);
}

TEST(AnalyticFormsTest, ExpectedMaxSlowdownGrowsWithClusterSize) {
  FaultSpec spec;
  spec.straggler_sigma = 0.4;
  double j1 = ExpectedMaxSlowdown(spec, 1);
  double j16 = ExpectedMaxSlowdown(spec, 16);
  double j256 = ExpectedMaxSlowdown(spec, 256);
  // E[one log-normal draw] = exp(sigma^2/2).
  EXPECT_NEAR(j1, std::exp(0.08), 0.01);
  EXPECT_GT(j16, j1);
  EXPECT_GT(j256, j16);
  EXPECT_EQ(ExpectedMaxSlowdown(FaultSpec{}, 256), 1.0);

  // Speculation caps the barrier stretch.
  FaultSpec capped = spec;
  capped.recovery = RecoveryStrategy::kSpeculativeReexec;
  capped.speculation_threshold = 1.5;
  EXPECT_LT(ExpectedMaxSlowdown(capped, 256), j256);
}

double Phi(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

FaultSpec StragglerSpec(
    double sigma,
    RecoveryStrategy recovery = RecoveryStrategy::kCheckpointRestart) {
  FaultSpec spec;
  spec.straggler_sigma = sigma;
  spec.recovery = recovery;
  return spec;
}

TEST(AnalyticFormsTest, ExpectedMaxSlowdownMatchesClosedFormsForOneAndTwo) {
  // E[X] = e^{sigma^2/2} and E[max(X1, X2)] = 2 e^{sigma^2/2} Phi(sigma/sqrt2)
  // for iid log-normal X with median 1.
  for (double sigma : {0.05, 0.3, 1.0, 1.2, 1.5, 2.0, 3.0, 4.0}) {
    const FaultSpec spec = StragglerSpec(sigma);
    const double one = std::exp(0.5 * sigma * sigma);
    const double two = 2.0 * one * Phi(sigma / std::sqrt(2.0));
    EXPECT_NEAR(ExpectedMaxSlowdown(spec, 1) / one, 1.0, 1e-12)
        << "sigma=" << sigma;
    EXPECT_NEAR(ExpectedMaxSlowdown(spec, 2) / two, 1.0, 1e-12)
        << "sigma=" << sigma;
  }
}

TEST(AnalyticFormsTest, ExpectedMaxSlowdownIsAtLeastTheMeanAndGrowsWithN) {
  for (double sigma : {0.05, 0.3, 1.0, 1.5, 2.0, 4.0}) {
    const double mean = std::exp(0.5 * sigma * sigma);
    for (RecoveryStrategy recovery : {RecoveryStrategy::kCheckpointRestart,
                                      RecoveryStrategy::kSpeculativeReexec}) {
      const FaultSpec spec = StragglerSpec(sigma, recovery);
      double previous = 0.0;
      for (int n : {1, 2, 3, 8, 64, 1000, 100000}) {
        const double j = ExpectedMaxSlowdown(spec, n);
        EXPECT_GE(j, previous) << "sigma=" << sigma << " n=" << n;
        // The max of n draws is at least one draw (n = 1 is equality, up
        // to rounding); speculation caps the draws, so only the plain
        // straggler is held to the mean.
        if (recovery == RecoveryStrategy::kCheckpointRestart) {
          EXPECT_GE(j, mean * (1.0 - 1e-12)) << "sigma=" << sigma
                                             << " n=" << n;
        }
        previous = j;
      }
    }
  }
}

TEST(AnalyticFormsTest, SpeculativeSlowdownMatchesMonteCarlo) {
  // The speculation-capped integral against the DES's own draws:
  // max of n FaultModel::NextSlowdown draws, within 4 standard errors.
  constexpr int kTrials = 20000;
  for (double sigma : {0.3, 0.6, 1.0}) {
    const FaultSpec spec =
        StragglerSpec(sigma, RecoveryStrategy::kSpeculativeReexec);
    const FaultModel model(spec, 11);
    for (int n : {1, 8, 64}) {
      Pcg32 rng(DeriveSeed(29, static_cast<uint64_t>(n)),
                static_cast<uint64_t>(sigma * 10.0));
      double sum = 0.0;
      double sum_sq = 0.0;
      for (int trial = 0; trial < kTrials; ++trial) {
        double slowest = 0.0;
        for (int i = 0; i < n; ++i) {
          slowest = std::max(slowest, model.NextSlowdown(&rng));
        }
        sum += slowest;
        sum_sq += slowest * slowest;
      }
      const double mean = sum / kTrials;
      const double variance = (sum_sq - kTrials * mean * mean) / (kTrials - 1);
      const double standard_error = std::sqrt(variance / kTrials);
      EXPECT_NEAR(ExpectedMaxSlowdown(spec, n), mean, 4.0 * standard_error)
          << "sigma=" << sigma << " n=" << n;
    }
  }
}

TEST(AnalyticFormsTest, HugeStragglerSigmaIsNeverANonFiniteAnswer) {
  for (double sigma : {10.0, 30.0, 100.0}) {
    for (RecoveryStrategy recovery : {RecoveryStrategy::kCheckpointRestart,
                                      RecoveryStrategy::kSpeculativeReexec}) {
      for (bool crashes : {false, true}) {
        FaultSpec spec = crashes ? CrashSpec() : FaultSpec{};
        spec.straggler_sigma = sigma;
        spec.recovery = recovery;
        spec.checkpoint_cost_s = 5.0;
        for (int n : {1, 64}) {
          EXPECT_FALSE(std::isnan(ExpectedMaxSlowdown(spec, n)))
              << "sigma=" << sigma << " n=" << n;
          Result<double> t = ExpectedCompletionSeconds(spec, n, 400.0);
          if (t.ok()) {
            EXPECT_TRUE(std::isfinite(t.value()))
                << "sigma=" << sigma << " n=" << n;
            continue;
          }
          EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
          EXPECT_NE(t.status().message().find("straggler_sigma"),
                    std::string::npos)
              << t.status().message();
        }
      }
    }
  }
  // Past the integral's range the slowdown is +inf, and the completion
  // time names the knob to turn.
  const FaultSpec wild = StragglerSpec(100.0);
  EXPECT_EQ(ExpectedMaxSlowdown(wild, 8),
            std::numeric_limits<double>::infinity());
  Result<double> t = ExpectedCompletionSeconds(wild, 8, 400.0);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("lower straggler_sigma"),
            std::string::npos);
}

TEST(AnalyticFormsTest, FaultFreeCompletionIsSegmentsTimesSegment) {
  FaultSpec spec;
  spec.checkpoint_interval_s = 100.0;
  spec.checkpoint_cost_s = 5.0;
  Result<double> t = ExpectedCompletionSeconds(spec, 8, 400.0);
  ASSERT_TRUE(t.ok());
  EXPECT_NEAR(t.value(), 4 * (100.0 + 5.0), 1e-9);
}

TEST(AnalyticFormsTest, CrashesMakeCompletionSlowerAndMtbfMonotone) {
  FaultSpec spec = CrashSpec(2000.0, 10.0);
  spec.checkpoint_cost_s = 5.0;
  Result<double> faulty = ExpectedCompletionSeconds(spec, 8, 400.0);
  ASSERT_TRUE(faulty.ok());
  EXPECT_GT(faulty.value(), 400.0);
  spec.mtbf_seconds = 20000.0;
  Result<double> rarer = ExpectedCompletionSeconds(spec, 8, 400.0);
  ASSERT_TRUE(rarer.ok());
  EXPECT_LT(rarer.value(), faulty.value());
}

TEST(AnalyticFormsTest, SaturatedReplicaTakeoverIsInvalidArgument) {
  FaultSpec spec = CrashSpec(10.0, 1.0);
  spec.recovery = RecoveryStrategy::kReplicaTakeover;
  spec.takeover_seconds = 5.0;
  // lambda = 100/11 > 1/5: takeovers arrive faster than they finish.
  Result<double> t = ExpectedCompletionSeconds(spec, 100, 400.0);
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("cannot keep up"), std::string::npos);
}

// Strong-scalable base curve for the planner questions:
// t(n, d) = 400 d / n + 0.05 (n - 1).
double Time(int n, double d) { return 400.0 * d / n + 0.05 * (n - 1); }

TEST(CapacityPlannerFaultsTest, FaultAwareTargetNeedsMoreNodesThanPerfect) {
  CapacityPlanner planner(Time, 512);
  FaultSpec spec = CrashSpec(30000.0, 20.0);
  spec.checkpoint_cost_s = 5.0;
  Result<int> perfect = planner.NodesForTargetTime(16.0);
  ASSERT_TRUE(perfect.ok());
  Result<int> faulty = planner.NodesForTargetTimeUnderFaults(16.0, spec);
  ASSERT_TRUE(faulty.ok());
  // Failures only ever slow a cluster down, so the answer cannot shrink.
  EXPECT_GE(faulty.value(), perfect.value());
}

TEST(CapacityPlannerFaultsTest, ImpossibleFaultTargetIsNotFound) {
  CapacityPlanner planner(Time, 64);
  FaultSpec spec = CrashSpec(500.0, 50.0);
  spec.checkpoint_cost_s = 10.0;
  Result<int> n = planner.NodesForTargetTimeUnderFaults(1.0, spec);
  EXPECT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kNotFound);
}

TEST(CapacityPlannerFaultsTest, OptimalCheckpointIntervalIsYoungDaly) {
  CapacityPlanner planner(Time, 64);
  FaultSpec spec = CrashSpec(40000.0, 10.0);
  spec.checkpoint_cost_s = 50.0;
  Result<double> interval = planner.OptimalCheckpointInterval(4, spec);
  ASSERT_TRUE(interval.ok());
  EXPECT_NEAR(interval.value(), YoungDalyInterval(50.0, 10000.0), 1e-9);
  // No checkpoint price, no optimum to compute.
  spec.checkpoint_cost_s = 0.0;
  EXPECT_EQ(planner.OptimalCheckpointInterval(4, spec).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dmlscale::core
