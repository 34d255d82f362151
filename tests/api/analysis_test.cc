#include "api/analysis.h"

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/presets.h"
#include "api/scenario.h"

namespace dmlscale::api {
namespace {

/// Fig. 1's scenario (Section III): 196 GFLOP perfectly parallel on
/// 1 GFLOP/s nodes, linear communication of 1 Gbit over GigE, so
/// t(n) = 196/n + n and the optimum is sqrt(196) = 14 nodes.
Result<Scenario> Fig1Scenario(int max_nodes = 30) {
  return Scenario::Builder()
      .Name("fig1")
      .Hardware(presets::Fig1Cluster(30))
      .MaxNodes(max_nodes)
      .Compute("perfectly-parallel", {{"total_flops", 196.0e9}})
      .Comm("linear", {{"bits", 1e9}})
      .Build();
}

TEST(AnalysisTest, ReproducesFig1OptimalNodes) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());
  auto report = Analysis::Run(*scenario);
  ASSERT_TRUE(report.ok());

  EXPECT_EQ(report->optimal_nodes, 14);
  EXPECT_TRUE(report->scalable);
  // t(1) = 196 (the n=1 communication term is zero — nothing to exchange).
  EXPECT_DOUBLE_EQ(report->reference_seconds, 196.0);
  // s(14) = 196 / (196/14 + 14) = 196/28 = 7.
  EXPECT_NEAR(report->peak_speedup, 7.0, 1e-12);
  ASSERT_EQ(report->curve.nodes.size(), 30u);
  EXPECT_FALSE(report->speedup_answer.has_value());
  EXPECT_FALSE(report->simulated.has_value());
}

TEST(AnalysisTest, PlannerAnswersBothQuestions) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());

  AnalysisOptions options;
  options.target_speedup = 3.0;
  options.workload_growth = 2.0;
  options.current_nodes = 1;
  auto report = Analysis::Run(*scenario, options);
  ASSERT_TRUE(report.ok());

  // Q1: t(1)/3 = 65.67 s; t(3) = 196/3 + 3 = 68.3, t(4) = 53: 4 machines.
  ASSERT_TRUE(report->speedup_answer.has_value());
  EXPECT_TRUE(report->speedup_answer->achievable);
  EXPECT_EQ(report->speedup_answer->nodes, 4);

  // Q2: smallest n with 2*196/n + n <= 197: n = 2 gives 198 > 197,
  // n = 3 gives 133.67: 3 machines.
  ASSERT_TRUE(report->growth_answer.has_value());
  EXPECT_TRUE(report->growth_answer->achievable);
  EXPECT_EQ(report->growth_answer->nodes, 3);
}

TEST(AnalysisTest, UnreachableTargetReportsNotAchievable) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());

  AnalysisOptions options;
  options.target_speedup = 100.0;  // peak speedup is ~7: impossible
  auto report = Analysis::Run(*scenario, options);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->speedup_answer.has_value());
  EXPECT_FALSE(report->speedup_answer->achievable);
  EXPECT_FALSE(report->speedup_answer->note.empty());
}

TEST(AnalysisTest, SimulationWithoutOverheadMatchesAnalyticCurve) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());

  AnalysisOptions options;
  options.simulate = true;
  options.overhead = sim::OverheadModel::None();
  auto report = Analysis::Run(*scenario, options);
  ASSERT_TRUE(report.ok());

  ASSERT_TRUE(report->simulated.has_value());
  ASSERT_TRUE(report->model_vs_sim_mape.has_value());
  // The event-driven superstep with no overhead IS the closed-form model.
  EXPECT_NEAR(*report->model_vs_sim_mape, 0.0, 1e-9);
  EXPECT_EQ(report->simulated->OptimalNodes(), report->optimal_nodes);
}

TEST(AnalysisTest, SimulatedOverheadShiftsOptimumDown) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());

  AnalysisOptions options;
  options.simulate = true;
  // Heavy per-worker scheduling cost: large clusters pay for dispatch, so
  // the measured optimum lands below the analytic one (the Fig. 2 effect).
  options.overhead.sched_per_worker_s = 2.0;
  auto report = Analysis::Run(*scenario, options);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->simulated.has_value());
  EXPECT_LT(report->simulated->OptimalNodes(), report->optimal_nodes);
  EXPECT_GT(*report->model_vs_sim_mape, 1.0);
}

TEST(AnalysisTest, RespectsExplicitMaxNodesAndReference) {
  auto scenario = Fig1Scenario(10);
  ASSERT_TRUE(scenario.ok());

  AnalysisOptions options;
  options.reference_n = 2;
  auto report = Analysis::Run(*scenario, options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->curve.nodes.size(), 10u);
  EXPECT_EQ(report->curve.reference_n, 2);
  // Communication-bound tail is cut off at 10, so the argmax is 10... no:
  // t(n) = 196/n + n is minimized at 10 within [1, 10] (still decreasing).
  EXPECT_EQ(report->optimal_nodes, 10);
  EXPECT_DOUBLE_EQ(report->reference_seconds, scenario->Seconds(2));
}

TEST(AnalysisTest, InvalidOptionsFail) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());

  AnalysisOptions options;
  options.reference_n = 99;  // > max_nodes
  EXPECT_FALSE(Analysis::Run(*scenario, options).ok());

  AnalysisOptions bad_current;
  bad_current.target_speedup = 2.0;
  bad_current.current_nodes = 0;
  EXPECT_FALSE(Analysis::Run(*scenario, bad_current).ok());
}

TEST(AnalysisTest, RejectsNonFiniteOrNegativePlannerTargets) {
  // 0 means "not asked"; anything else that is not > 0 is bad input and
  // must be reported, not read as "not asked" (NaN fails every `> 0` gate).
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());
  const struct {
    const char* name;
    double AnalysisOptions::*target;
  } kTargets[] = {{"target_speedup", &AnalysisOptions::target_speedup},
                  {"workload_growth", &AnalysisOptions::workload_growth},
                  {"fault_target_seconds",
                   &AnalysisOptions::fault_target_seconds}};
  for (const auto& [name, target] : kTargets) {
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity(), -1.0}) {
      AnalysisOptions options;
      options.*target = bad;
      auto report = Analysis::Run(*scenario, options);
      ASSERT_FALSE(report.ok()) << name << "=" << bad;
      EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(report.status().message().find(name), std::string::npos)
          << report.status();
    }
  }
}

TEST(AnalysisTest, SimulatedPointsAreOrderIndependent) {
  // Regression for the single-Pcg32-threaded-through-the-loop bug: the
  // simulated sample at n must not depend on which other node counts were
  // evaluated before it. Extending max_nodes (more points after AND the
  // reference drawn at a different loop position) must leave the shared
  // points bit-identical.
  auto eight = Fig1Scenario(8);
  auto twenty_four = Fig1Scenario(24);
  ASSERT_TRUE(eight.ok());
  ASSERT_TRUE(twenty_four.ok());

  AnalysisOptions options;
  options.simulate = true;
  options.overhead.straggler_sigma = 0.2;  // make the draws matter
  auto small = Analysis::Run(*eight, options);
  ASSERT_TRUE(small.ok());
  auto large = Analysis::Run(*twenty_four, options);
  ASSERT_TRUE(large.ok());

  for (int n = 1; n <= 8; ++n) {
    EXPECT_EQ(small->simulated->At(n).value(), large->simulated->At(n).value())
        << "n=" << n;
  }
}

TEST(AnalysisTest, SimSeedSelectsTheDrawSequence) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());

  AnalysisOptions options;
  options.simulate = true;
  options.overhead.straggler_sigma = 0.2;
  auto a = Analysis::Run(*scenario, options);
  ASSERT_TRUE(a.ok());
  options.sim_seed = 43;
  auto b = Analysis::Run(*scenario, options);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->simulated->speedup, b->simulated->speedup);
}

TEST(AnalysisTest, SharedEvalCacheDoesNotChangeResults) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());

  AnalysisOptions options;
  options.simulate = true;
  options.target_speedup = 3.0;
  options.workload_growth = 2.0;
  auto uncached = Analysis::Run(*scenario, options);
  ASSERT_TRUE(uncached.ok());

  MemoCache cache;
  options.eval_cache = &cache;
  auto cached = Analysis::Run(*scenario, options);
  ASSERT_TRUE(cached.ok());
  // The planner and the simulator revisit node counts the curve already
  // evaluated, so the cache must have been exercised...
  EXPECT_GT(cache.hits(), 0u);
  // ...without perturbing a single value.
  EXPECT_EQ(uncached->curve.speedup, cached->curve.speedup);
  EXPECT_EQ(uncached->simulated->speedup, cached->simulated->speedup);
  EXPECT_EQ(uncached->speedup_answer->nodes, cached->speedup_answer->nodes);
  EXPECT_EQ(uncached->growth_answer->nodes, cached->growth_answer->nodes);

  // A second run against the warm cache computes nothing new.
  uint64_t misses_before = cache.misses();
  auto warm = Analysis::Run(*scenario, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cache.misses(), misses_before);
}

TEST(AnalysisTest, EvalCacheRequiresANamedScenario) {
  // Cache keys embed the scenario name; an empty name would collide with
  // every other unnamed scenario sharing the cache.
  auto scenario = Scenario::Builder()
                      .Name("")
                      .Hardware(presets::Fig1Cluster(10))
                      .Compute("perfectly-parallel", {{"total_flops", 1e9}})
                      .Comm("linear", {{"bits", 1e9}})
                      .Build();
  ASSERT_TRUE(scenario.ok());
  MemoCache cache;
  AnalysisOptions options;
  options.eval_cache = &cache;
  EXPECT_EQ(Analysis::Run(*scenario, options).status().code(),
            StatusCode::kInvalidArgument);
  options.eval_cache = nullptr;
  EXPECT_TRUE(Analysis::Run(*scenario, options).ok());
}

TEST(AnalysisTest, PrintReportWritesNaForMissingSimulatedSamples) {
  // A hand-assembled report whose simulated series misses n=2 (e.g. a
  // measured-data import): the cell must read "n/a", not "-1.0000".
  AnalysisReport report;
  report.scenario_name = "partial";
  report.curve.nodes = {1, 2};
  report.curve.speedup = {1.0, 1.8};
  report.optimal_nodes = 2;
  report.first_local_peak = 2;
  report.peak_speedup = 1.8;
  core::SpeedupCurve simulated;
  simulated.nodes = {1};
  simulated.speedup = {1.0};
  report.simulated = simulated;

  std::ostringstream os;
  PrintReport(report, os);
  EXPECT_NE(os.str().find("n/a"), std::string::npos);
  EXPECT_EQ(os.str().find("-1.0000"), std::string::npos);
}

TEST(AnalysisTest, PrintReportRendersTableAndAnswers) {
  auto scenario = Fig1Scenario();
  ASSERT_TRUE(scenario.ok());
  AnalysisOptions options;
  options.target_speedup = 3.0;
  options.simulate = true;
  options.overhead = sim::OverheadModel::None();
  auto report = Analysis::Run(*scenario, options);
  ASSERT_TRUE(report.ok());

  std::ostringstream os;
  PrintReport(*report, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("fig1"), std::string::npos);
  EXPECT_NE(out.find("simulated_speedup"), std::string::npos);
  EXPECT_NE(out.find("optimal nodes = 14"), std::string::npos);
  EXPECT_NE(out.find("Q1"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);  // the table rule
}

/// A scenario that makes PrintReport emit every line it knows: contended
/// comm, crash faults with a checkpoint cost, a serving cluster with
/// batching, a cache, an SLO and a replica target, calibrated coefficients,
/// measured samples, the simulated column, and all three planner answers
/// (Q1 deliberately out of reach, so the "not achievable" form shows too).
Result<Scenario> EveryLineScenario() {
  ModelParams comm{{"bits", 1e9}, {"oversubscription", 4.0}, {"load", 0.25}};
  comm.Set("topology", "fat-tree").Set("queue", "mm1");
  ModelParams serving{{"qps", 2000.0},         {"service_per_item", 0.001},
                      {"replicas", 4.0},       {"batch_max", 8.0},
                      {"batch_delay", 0.002},  {"hit_rate", 0.3},
                      {"target_qps", 6000.0},  {"target_latency", 0.01}};
  serving.Set("cache", "lru");
  return Scenario::Builder()
      .Name("every-line")
      .Hardware(presets::Fig1Cluster(6))
      .Compute("perfectly-parallel", {{"total_flops", 196.0e9}})
      .Comm("linear", comm)
      .Faults({{"mtbf", 30000.0}, {"mttr", 60.0}, {"checkpoint_cost", 20.0}})
      .Serving(serving)
      .WithCalibration(1.1, 0.9)
      .Build();
}

TEST(AnalysisTest, PrintReportGoldenCoversEveryLine) {
  auto scenario = EveryLineScenario();
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  const std::vector<core::TimingSample> measured{
      {.nodes = 1, .seconds = 200.0},
      {.nodes = 2, .seconds = 110.0},
      {.nodes = 4, .seconds = 60.0}};
  AnalysisOptions options;
  options.target_speedup = 100.0;
  options.workload_growth = 2.0;
  options.fault_target_seconds = 120.0;
  options.simulate = true;
  options.overhead.sched_per_worker_s = 2.0;
  options.measured_samples = &measured;
  auto report = Analysis::Run(*scenario, options);
  ASSERT_TRUE(report.ok()) << report.status();

  // Byte pin of the whole rendering: any change to a line's wording,
  // number format or order shows up here.
  std::ostringstream os;
  PrintReport(*report, os);
  EXPECT_EQ(os.str(),
      "== Scenario: every-line ==\n"
      "Comm: linear@fat-tree(pod=4;os=4)/mm1(load=0.25) (contended fabric; simulated comm uses per-link DES)\n"
      "n  speedup  efficiency  simulated_speedup  measured_s  \n"
      "-------------------------------------------------------\n"
      "1  1        1           1                  200         \n"
      "2  1.978    0.989       1.926              110         \n"
      "3  2.903    0.9677      2.711              n/a         \n"
      "4  3.75     0.9374      3.322              60          \n"
      "5  4.499    0.8998      3.757              n/a         \n"
      "6  5.141    0.8569      4.035              n/a         \n"
      "Calibrated coefficients: compute x1.1, comm x0.9\n"
      "Model vs measured MAPE: 4.29%\n"
      "t(reference) = 215.6 s; optimal nodes = 6 (peak speedup 5.141, first local peak at 6); scalable: yes\n"
      "Analytic vs simulated MAPE: 11.6%\n"
      "Q1 (machines for the requested speedup): not achievable — no node count within 6 reaches the target time\n"
      "Q2 (machines to absorb the workload growth): 3\n"
      "Failure model: node availability 0.998; expected slowdown at the fault-free optimum x1.504; failure-aware optimal nodes = 6\n"
      "Young/Daly checkpoint interval: 1095 s\n"
      "Q3 (machines for the target time under failures): 3\n"
      "Serving: 4 replicas at 2000 offered qps; utilization 0.35; mean latency 0.001416 s; p99 latency 0.005285 s\n"
      "Serving batching: expected batch 1.7; added delay 0.001 s\n"
      "Serving cache: hit rate 0.3; backend load 1400 qps\n"
      "Serving analytic vs DES mean latency: 38.2% (DES p99 0.009772 s)\n"
      "Q3 (replicas for the target qps within the latency SLO): 5\n"
      "Q3 (max qps within the latency SLO at the declared replicas): 4975\n");
}

}  // namespace
}  // namespace dmlscale::api
