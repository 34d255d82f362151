#include "api/serving.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "api/analysis.h"
#include "api/presets.h"
#include "api/scenario.h"
#include "serve/cluster.h"

namespace dmlscale::api {
namespace {

TEST(ResolveServingSpecTest, EmptyBagIsTheServingFreeSpec) {
  auto spec = ResolveServingSpec({});
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->arrivals.rate_qps, 0.0);
  EXPECT_EQ(spec->replicas, 1);
}

TEST(ResolveServingSpecTest, ResolvesEveryKey) {
  ModelParams params{{"qps", 5000.0},
                     {"burst_multiplier", 6.0},
                     {"burst_fraction", 0.2},
                     {"burst_duration", 30.0},
                     {"batch_max", 16.0},
                     {"batch_delay", 0.003},
                     {"service_fixed", 0.0004},
                     {"service_per_item", 0.0002},
                     {"shards", 2.0},
                     {"rejoin_bits", 2e6},
                     {"hit_rate", 0.4},
                     {"hit_latency", 80e-6},
                     {"cache_capacity", 1000.0},
                     {"replicas", 8.0},
                     {"quantile", 0.95},
                     {"target_qps", 9000.0},
                     {"target_latency", 0.02},
                     {"max_replicas", 256.0}};
  params.Set("arrivals", "mmpp");
  params.Set("cache", "lfu");
  params.Set("dispatch", "round-robin");
  core::LinkSpec link{.bandwidth_bps = 1e10, .latency_s = 1e-6};
  auto spec = ResolveServingSpec(params, link);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->arrivals.kind, serve::ArrivalKind::kMmpp);
  EXPECT_EQ(spec->arrivals.rate_qps, 5000.0);
  EXPECT_EQ(spec->arrivals.burst_rate_multiplier, 6.0);
  EXPECT_EQ(spec->arrivals.burst_fraction, 0.2);
  EXPECT_EQ(spec->arrivals.burst_mean_duration_s, 30.0);
  EXPECT_EQ(spec->batcher.max_batch, 16);
  EXPECT_EQ(spec->batcher.max_delay_s, 0.003);
  EXPECT_EQ(spec->replica.shards, 2);
  EXPECT_EQ(spec->replica.service.fixed_s, 0.0004);
  EXPECT_EQ(spec->replica.service.per_item_s, 0.0002);
  EXPECT_EQ(spec->replica.rejoin_bits, 2e6);
  EXPECT_EQ(spec->replica.link.bandwidth_bps, 1e10);
  EXPECT_EQ(spec->cache.policy, serve::CachePolicy::kLfu);
  EXPECT_EQ(spec->cache.hit_rate, 0.4);
  EXPECT_EQ(spec->cache.hit_latency_s, 80e-6);
  EXPECT_EQ(spec->cache.capacity, 1000);
  EXPECT_EQ(spec->dispatch, serve::DispatchPolicy::kRoundRobin);
  EXPECT_EQ(spec->replicas, 8);
  EXPECT_EQ(spec->quantile, 0.95);
  EXPECT_EQ(spec->target_qps, 9000.0);
  EXPECT_EQ(spec->target_latency_s, 0.02);
  EXPECT_EQ(spec->max_replicas, 256);
}

TEST(ResolveServingSpecTest, TypoedKeyFailsLoudly) {
  auto spec = ResolveServingSpec(ModelParams{{"qsp", 100.0}});
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(spec.status().message().find("qsp"), std::string::npos);
}

TEST(ResolveServingSpecTest, UnknownSelectionsListTheMenu) {
  ModelParams arrivals{{"qps", 100.0}, {"service_per_item", 0.001}};
  arrivals.Set("arrivals", "weekly");
  auto bad_arrivals = ResolveServingSpec(arrivals);
  ASSERT_FALSE(bad_arrivals.ok());
  EXPECT_NE(bad_arrivals.status().message().find("poisson, diurnal, mmpp"),
            std::string::npos);

  ModelParams cache{{"qps", 100.0}, {"service_per_item", 0.001}};
  cache.Set("cache", "arc");
  auto bad_cache = ResolveServingSpec(cache);
  ASSERT_FALSE(bad_cache.ok());
  EXPECT_NE(bad_cache.status().message().find("none, lru, lfu"),
            std::string::npos);

  ModelParams dispatch{{"qps", 100.0}, {"service_per_item", 0.001}};
  dispatch.Set("dispatch", "random");
  auto bad_dispatch = ResolveServingSpec(dispatch);
  ASSERT_FALSE(bad_dispatch.ok());
  EXPECT_NE(
      bad_dispatch.status().message().find("least-outstanding, round-robin"),
      std::string::npos);
}

TEST(ResolveServingSpecTest, OwnedKeysRequireTheirSelection) {
  auto diurnal = ResolveServingSpec(
      ModelParams{{"qps", 100.0}, {"diurnal_period", 3600.0}});
  ASSERT_FALSE(diurnal.ok());
  EXPECT_NE(diurnal.status().message().find("arrivals='diurnal'"),
            std::string::npos);

  auto mmpp = ResolveServingSpec(
      ModelParams{{"qps", 100.0}, {"burst_multiplier", 4.0}});
  ASSERT_FALSE(mmpp.ok());
  EXPECT_NE(mmpp.status().message().find("arrivals='mmpp'"),
            std::string::npos);
}

TEST(ResolveServingSpecTest, CacheKeysNeedACacheTier) {
  auto spec = ResolveServingSpec(
      ModelParams{{"qps", 100.0}, {"hit_rate", 0.5}});
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("cache='lru'"), std::string::npos);
}

TEST(ResolveServingSpecTest, RejoinBitsNeedShards) {
  auto spec = ResolveServingSpec(
      ModelParams{{"qps", 100.0}, {"rejoin_bits", 1e6}});
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("shards"), std::string::npos);
}

TEST(ResolveServingSpecTest, TraceArrivalsPointAtTheDirectApi) {
  ModelParams params{{"qps", 100.0}, {"service_per_item", 0.001}};
  params.Set("arrivals", "trace");
  auto spec = ResolveServingSpec(params);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("serve::ServingSpec"),
            std::string::npos);
}

TEST(ResolveServingSpecTest, MissingServiceModelPointsAtCalibration) {
  auto spec = ResolveServingSpec(ModelParams{{"qps", 100.0}});
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("service_per_item"),
            std::string::npos);
  EXPECT_NE(spec.status().message().find("CalibrateBatchService"),
            std::string::npos);
}

TEST(CalibrateBatchServiceTest, FitRecoversTheWorkClockExactly) {
  core::NodeSpec node{.name = "test", .peak_flops = 1e12, .efficiency = 0.5};
  auto calibration = CalibrateBatchService(node);
  ASSERT_TRUE(calibration.ok());
  const core::BatchServiceModel& service = calibration->service;
  EXPECT_GT(service.fixed_s, 0.0);
  EXPECT_GT(service.per_item_s, 0.0);
  // The samples come from the work-clock's exact linear law, so the
  // two-coefficient fit reproduces every sample to rounding error.
  for (const core::TimingSample& sample : calibration->samples) {
    EXPECT_NEAR(service.Latency(static_cast<int>(sample.nodes)),
                sample.seconds, 1e-9 * sample.seconds);
  }
}

TEST(CalibrateBatchServiceTest, ServiceTimeScalesInverselyWithFlops) {
  core::NodeSpec slow{.name = "slow", .peak_flops = 1e12, .efficiency = 0.5};
  core::NodeSpec fast{.name = "fast", .peak_flops = 2e12, .efficiency = 0.5};
  auto a = CalibrateBatchService(slow);
  auto b = CalibrateBatchService(fast);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a->service.per_item_s, 2.0 * b->service.per_item_s,
              1e-12 * a->service.per_item_s);
  EXPECT_NEAR(a->service.fixed_s, 2.0 * b->service.fixed_s,
              1e-12 * a->service.fixed_s);
}

TEST(CalibrateBatchServiceTest, RejectsADegenerateSchedule) {
  core::NodeSpec node{.name = "test", .peak_flops = 1e12, .efficiency = 0.5};
  BatchCalibrationOptions options;
  options.batch_schedule = {4, 4};
  auto calibration = CalibrateBatchService(node, options);
  ASSERT_FALSE(calibration.ok());
  EXPECT_NE(calibration.status().message().find("distinct"),
            std::string::npos);
}

Scenario::Builder Fig1Builder() {
  Scenario::Builder builder;
  builder.Name("fig1")
      .Hardware(presets::Fig1Cluster(30))
      .Compute("perfectly-parallel", {{"total_flops", 196.0e9}})
      .Comm("linear", {{"bits", 1e9}});
  return builder;
}

ModelParams ServingParams() {
  return ModelParams{{"qps", 2000.0},
                     {"service_per_item", 0.001},
                     {"replicas", 4.0}};
}

TEST(ScenarioServingTest, BuilderAttachesTheServingModel) {
  auto serving_free = Fig1Builder().Build();
  ASSERT_TRUE(serving_free.ok());
  EXPECT_FALSE(serving_free->serving_aware());

  auto serving = Fig1Builder().Serving(ServingParams()).Build();
  ASSERT_TRUE(serving.ok());
  EXPECT_TRUE(serving->serving_aware());
  EXPECT_EQ(serving->serving().arrivals.rate_qps, 2000.0);
  EXPECT_EQ(serving->serving().replicas, 4);
  EXPECT_TRUE(serving->serving_params().Has("qps"));

  // A bad bag fails at Build, not at analysis time.
  auto bad = Fig1Builder().Serving(ModelParams{{"qps", 100.0}}).Build();
  EXPECT_FALSE(bad.ok());
}

TEST(ScenarioServingTest, HitRateAloneChangesTheCacheKey) {
  // The memo-cache regression this layer shipped with: every serving key —
  // including the cache decoration — must reach the digest. Two scenarios
  // differing ONLY in hit_rate price different latencies and must never
  // share a memo row.
  ModelParams half = ServingParams();
  half.Set("cache", "lru");
  half.Set("hit_rate", 0.5);
  ModelParams quarter = ServingParams();
  quarter.Set("cache", "lru");
  quarter.Set("hit_rate", 0.25);

  auto serving_free = Fig1Builder().Build();
  auto a = Fig1Builder().Serving(half).Build();
  auto b = Fig1Builder().Serving(quarter).Build();
  ASSERT_TRUE(serving_free.ok());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(serving_free->CacheKey(), a->CacheKey());
  EXPECT_NE(a->CacheKey(), b->CacheKey());
}

TEST(AnalysisServingTest, ServingAwareReportCarriesTheServingFields) {
  auto scenario = Fig1Builder().Serving(ServingParams()).Build();
  ASSERT_TRUE(scenario.ok());
  auto report = Analysis::Run(*scenario);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->serving.has_value());
  const serve::ServingEstimate& estimate = report->serving->estimate;
  EXPECT_NEAR(estimate.utilization, 0.5, 1e-12);  // 2000/(4*1000)
  EXPECT_GT(estimate.mean_latency_s, 0.001);
  EXPECT_GT(estimate.quantile_latency_s, estimate.mean_latency_s);
  EXPECT_EQ(report->serving->quantile, 0.99);
  EXPECT_FALSE(report->serving->sim.has_value());
}

TEST(AnalysisServingTest, ServingFreeReportStaysClean) {
  auto scenario = Fig1Builder().Build();
  ASSERT_TRUE(scenario.ok());
  auto report = Analysis::Run(*scenario);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->serving.has_value());
}

TEST(AnalysisServingTest, SaturatedSpecFailsWithTheErlangAnswer) {
  ModelParams params{{"qps", 5000.0},
                     {"service_per_item", 0.001},
                     {"replicas", 4.0}};  // 5000 qps into 4000 qps of capacity
  auto scenario = Fig1Builder().Serving(params).Build();
  ASSERT_TRUE(scenario.ok());
  auto report = Analysis::Run(*scenario);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("cannot keep up"),
            std::string::npos);
}

TEST(AnalysisServingTest, Q3IsAnsweredInBothDirections) {
  ModelParams params = ServingParams();
  params.Set("target_qps", 6000.0);
  params.Set("target_latency", 0.01);
  auto scenario = Fig1Builder().Serving(params).Build();
  ASSERT_TRUE(scenario.ok());
  auto report = Analysis::Run(*scenario);
  ASSERT_TRUE(report.ok());

  ASSERT_TRUE(report->serving.has_value());
  const ServingReport& serving = *report->serving;
  ASSERT_TRUE(serving.replicas_answer.has_value());
  ASSERT_TRUE(serving.replicas_answer->achievable);
  // 6000 qps needs at least 7 replicas of 1000 qps capacity each.
  EXPECT_GE(serving.replicas_answer->nodes, 7);

  ASSERT_TRUE(serving.max_qps_answer.has_value());
  ASSERT_TRUE(serving.max_qps_answer->achievable);
  EXPECT_GT(serving.max_qps_answer->qps, 2000.0);
  EXPECT_LT(serving.max_qps_answer->qps, 4000.0);  // saturation cap
}

TEST(AnalysisServingTest, SimulateCrossChecksTheAnalyticModel) {
  auto scenario = Fig1Builder().Serving(ServingParams()).Build();
  ASSERT_TRUE(scenario.ok());
  AnalysisOptions options;
  options.simulate = true;
  options.sim_supersteps = 2;
  auto report = Analysis::Run(*scenario, options);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->serving.has_value());
  ASSERT_TRUE(report->serving->sim.has_value());
  EXPECT_EQ(report->serving->sim->cache_hits, 0u);
  ASSERT_TRUE(report->serving->model_vs_sim_pct.has_value());
  EXPECT_LT(*report->serving->model_vs_sim_pct, 15.0);
}

TEST(AnalysisServingTest, PrintReportAddsServingLinesOnlyWhenServingAware) {
  auto serving_free = Fig1Builder().Build();
  ModelParams params = ServingParams();
  params.Set("target_qps", 6000.0);
  params.Set("target_latency", 0.01);
  params.Set("batch_max", 8.0);
  params.Set("batch_delay", 0.002);
  params.Set("cache", "lru");
  params.Set("hit_rate", 0.3);
  auto serving = Fig1Builder().Serving(params).Build();
  ASSERT_TRUE(serving_free.ok());
  ASSERT_TRUE(serving.ok());

  auto clean = Analysis::Run(*serving_free);
  auto report = Analysis::Run(*serving);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(report.ok());

  std::ostringstream clean_os;
  PrintReport(*clean, clean_os);
  EXPECT_EQ(clean_os.str().find("Serving"), std::string::npos);

  std::ostringstream os;
  PrintReport(*report, os);
  EXPECT_NE(os.str().find("Serving: 4 replicas"), std::string::npos);
  EXPECT_NE(os.str().find("p99 latency"), std::string::npos);
  EXPECT_NE(os.str().find("Serving batching: expected batch"),
            std::string::npos);
  EXPECT_NE(os.str().find("Serving cache: hit rate"), std::string::npos);
  EXPECT_NE(os.str().find("Q3 (replicas for the target qps"),
            std::string::npos);
  EXPECT_NE(os.str().find("Q3 (max qps within the latency SLO"),
            std::string::npos);

  // Serving-awareness only APPENDS lines; the shared prefix is untouched.
  std::string prefix = os.str().substr(0, os.str().find("Serving"));
  EXPECT_EQ(clean_os.str().substr(0, prefix.size()), prefix);
}

}  // namespace
}  // namespace dmlscale::api
