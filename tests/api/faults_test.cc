#include "api/faults.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "api/analysis.h"
#include "api/presets.h"
#include "api/scenario.h"
#include "core/faults.h"

namespace dmlscale::api {
namespace {

TEST(ResolveFaultSpecTest, EmptyBagIsTheDisabledSpec) {
  auto spec = ResolveFaultSpec({});
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(spec->Enabled());
}

TEST(ResolveFaultSpecTest, ResolvesEveryKey) {
  ModelParams params{{"mtbf", 30000.0},
                     {"mttr", 60.0},
                     {"straggler", 0.3},
                     {"checkpoint_interval", 500.0},
                     {"checkpoint_cost", 20.0},
                     {"weibull_shape", 1.5},
                     {"link_mtbf", 8000.0},
                     {"link_degrade_duration", 120.0},
                     {"link_degrade_factor", 4.0}};
  params.Set("mtbf_dist", "weibull");
  auto spec = ResolveFaultSpec(params);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->mtbf_seconds, 30000.0);
  EXPECT_EQ(spec->mttr_seconds, 60.0);
  EXPECT_EQ(spec->distribution, core::FaultDistribution::kWeibull);
  EXPECT_EQ(spec->weibull_shape, 1.5);
  EXPECT_EQ(spec->straggler_sigma, 0.3);
  EXPECT_EQ(spec->checkpoint_interval_s, 500.0);
  EXPECT_EQ(spec->checkpoint_cost_s, 20.0);
  EXPECT_EQ(spec->link_mtbf_seconds, 8000.0);
  EXPECT_EQ(spec->link_degrade_seconds, 120.0);
  EXPECT_EQ(spec->link_degrade_factor, 4.0);
  EXPECT_EQ(spec->recovery, core::RecoveryStrategy::kCheckpointRestart);
  EXPECT_TRUE(spec->Enabled());
}

TEST(ResolveFaultSpecTest, TypoedKeyFailsLoudly) {
  auto spec = ResolveFaultSpec(ModelParams{{"mtfb", 1000.0}});
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(spec.status().message().find("mtfb"), std::string::npos);
}

TEST(ResolveFaultSpecTest, UnknownSelectionsListTheMenu) {
  ModelParams dist;
  dist.Set("mtbf_dist", "gaussian");
  auto bad_dist = ResolveFaultSpec(dist);
  ASSERT_FALSE(bad_dist.ok());
  EXPECT_NE(bad_dist.status().message().find("exponential, weibull"),
            std::string::npos);

  ModelParams recovery;
  recovery.Set("recovery", "reboot");
  auto bad_recovery = ResolveFaultSpec(recovery);
  ASSERT_FALSE(bad_recovery.ok());
  EXPECT_NE(bad_recovery.status().message().find(
                "checkpoint-restart, replica, speculative"),
            std::string::npos);
}

TEST(ResolveFaultSpecTest, OwnedKeysRequireTheirSelection) {
  // weibull_shape without mtbf_dist='weibull'.
  auto shape = ResolveFaultSpec(ModelParams{{"weibull_shape", 2.0}});
  ASSERT_FALSE(shape.ok());
  EXPECT_NE(shape.status().message().find("mtbf_dist='weibull'"),
            std::string::npos);

  // takeover without recovery='replica'.
  auto takeover = ResolveFaultSpec(ModelParams{{"takeover", 3.0}});
  ASSERT_FALSE(takeover.ok());
  EXPECT_NE(takeover.status().message().find("recovery='replica'"),
            std::string::npos);

  // spec_threshold without recovery='speculative'.
  auto threshold = ResolveFaultSpec(ModelParams{{"spec_threshold", 2.0}});
  ASSERT_FALSE(threshold.ok());
  EXPECT_NE(threshold.status().message().find("recovery='speculative'"),
            std::string::npos);
}

TEST(ResolveFaultSpecTest, CheckpointKeysUnderReplicaAreRejected) {
  ModelParams params{{"mtbf", 1000.0},
                     {"mttr", 10.0},
                     {"takeover", 3.0},
                     {"checkpoint_cost", 5.0}};
  params.Set("recovery", "replica");
  auto spec = ResolveFaultSpec(params);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("meaningless under"),
            std::string::npos);
}

TEST(ResolveFaultSpecTest, CoreValidationPropagates) {
  // mtbf without mttr: core::FaultSpec::Validate's error comes through.
  auto spec = ResolveFaultSpec(ModelParams{{"mtbf", 1000.0}});
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("mttr"), std::string::npos);
}

Scenario::Builder Fig1Builder() {
  Scenario::Builder builder;
  builder.Name("fig1")
      .Hardware(presets::Fig1Cluster(30))
      .Compute("perfectly-parallel", {{"total_flops", 196.0e9}})
      .Comm("linear", {{"bits", 1e9}});
  return builder;
}

ModelParams CrashParams() {
  ModelParams params{{"mtbf", 30000.0}, {"mttr", 60.0},
                     {"checkpoint_cost", 20.0}};
  return params;
}

TEST(ScenarioFaultsTest, BuilderAttachesTheFailureModel) {
  auto fault_free = Fig1Builder().Build();
  ASSERT_TRUE(fault_free.ok());
  EXPECT_FALSE(fault_free->fault_aware());

  auto faulty = Fig1Builder().Faults(CrashParams()).Build();
  ASSERT_TRUE(faulty.ok());
  EXPECT_TRUE(faulty->fault_aware());
  EXPECT_EQ(faulty->faults().mtbf_seconds, 30000.0);
  EXPECT_TRUE(faulty->fault_params().Has("mtbf"));

  // A bad bag fails at Build, not at analysis time.
  auto bad = Fig1Builder().Faults(ModelParams{{"mtbf", 1000.0}}).Build();
  EXPECT_FALSE(bad.ok());
}

TEST(ScenarioFaultsTest, FaultKeysChangeTheCacheKey) {
  auto fault_free = Fig1Builder().Build();
  auto faulty = Fig1Builder().Faults(CrashParams()).Build();
  ModelParams other = CrashParams();
  other.Set("mtbf", 15000.0);
  auto faultier = Fig1Builder().Faults(other).Build();
  ASSERT_TRUE(fault_free.ok());
  ASSERT_TRUE(faulty.ok());
  ASSERT_TRUE(faultier.ok());
  // Same name, different failure models: the memo key must split them.
  EXPECT_NE(fault_free->CacheKey(), faulty->CacheKey());
  EXPECT_NE(faulty->CacheKey(), faultier->CacheKey());
}

TEST(AnalysisFaultsTest, FaultAwareReportCarriesTheFailureColumns) {
  auto scenario = Fig1Builder().Faults(CrashParams()).Build();
  ASSERT_TRUE(scenario.ok());
  auto report = Analysis::Run(*scenario);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->faults.has_value());
  const FaultReport& faults = *report->faults;
  EXPECT_NEAR(faults.availability, 30000.0 / 30060.0, 1e-12);
  ASSERT_TRUE(faults.expected_slowdown.has_value());
  EXPECT_GT(*faults.expected_slowdown, 1.0);
  ASSERT_TRUE(faults.optimal_nodes.has_value());
  EXPECT_GE(*faults.optimal_nodes, 1);
  // Crashes enabled and checkpoints priced: the Young/Daly answer appears.
  ASSERT_TRUE(faults.checkpoint_interval_s.has_value());
  EXPECT_GT(*faults.checkpoint_interval_s, 0.0);
}

TEST(AnalysisFaultsTest, FaultFreeReportStaysClean) {
  auto scenario = Fig1Builder().Build();
  ASSERT_TRUE(scenario.ok());
  auto report = Analysis::Run(*scenario);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->faults.has_value());
  EXPECT_FALSE(report->fault_target_answer.has_value());
}

TEST(AnalysisFaultsTest, FaultTargetQuestionIsAnswered) {
  auto scenario = Fig1Builder().Faults(CrashParams()).Build();
  ASSERT_TRUE(scenario.ok());
  AnalysisOptions options;
  options.fault_target_seconds = 60.0;
  auto report = Analysis::Run(*scenario, options);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->fault_target_answer.has_value());
  ASSERT_TRUE(report->fault_target_answer->achievable);

  AnalysisOptions impossible;
  impossible.fault_target_seconds = 1e-6;
  auto hopeless = Analysis::Run(*scenario, impossible);
  ASSERT_TRUE(hopeless.ok());
  ASSERT_TRUE(hopeless->fault_target_answer.has_value());
  EXPECT_FALSE(hopeless->fault_target_answer->achievable);
  EXPECT_FALSE(hopeless->fault_target_answer->note.empty());
}

TEST(AnalysisFaultsTest, CheckpointIntervalRejectsAnOutOfRangeFleet) {
  // The Young/Daly interval is priced at current_nodes: a fleet beyond the
  // cluster is an error, not a silently missing answer.
  auto scenario = Fig1Builder().Faults(CrashParams()).Build();
  ASSERT_TRUE(scenario.ok());
  AnalysisOptions options;
  options.current_nodes = scenario->cluster().max_nodes + 1;
  auto report = Analysis::Run(*scenario, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("current_nodes"),
            std::string::npos);
}

TEST(AnalysisFaultsTest, PrintReportAddsFailureLinesOnlyWhenFaultAware) {
  auto fault_free = Fig1Builder().Build();
  auto faulty = Fig1Builder().Faults(CrashParams()).Build();
  ASSERT_TRUE(fault_free.ok());
  ASSERT_TRUE(faulty.ok());

  auto clean = Analysis::Run(*fault_free);
  auto report = Analysis::Run(*faulty);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(report.ok());

  std::ostringstream clean_os;
  PrintReport(*clean, clean_os);
  EXPECT_EQ(clean_os.str().find("Failure model"), std::string::npos);

  std::ostringstream os;
  PrintReport(*report, os);
  EXPECT_NE(os.str().find("Failure model: node availability"),
            std::string::npos);
  EXPECT_NE(os.str().find("Young/Daly checkpoint interval"),
            std::string::npos);

  // The fault-free sections of both prints are identical: fault-awareness
  // only APPENDS lines, it never perturbs the existing report format.
  std::string prefix = os.str().substr(0, os.str().find("Failure model"));
  EXPECT_EQ(clean_os.str().substr(0, prefix.size()), prefix);
}

}  // namespace
}  // namespace dmlscale::api
