// The sweep's serving ablation surface: ExpandAxis over the serving params
// fans a scenario over qps/replica grids, serving cells land utilization /
// quantile-latency / Q3 columns in the CSV, serving-free cells leave them
// empty, and the whole sweep stays byte-identical across thread counts.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/analysis.h"
#include "api/presets.h"
#include "sweep/grid.h"
#include "sweep/report.h"
#include "sweep/runner.h"

namespace dmlscale::sweep {
namespace {

ScenarioAxisPoint Fig1Point(const std::string& label) {
  return ScenarioAxisPoint{.label = label,
                           .compute_model = "perfectly-parallel",
                           .compute_params = {{"total_flops", 196.0e9}},
                           .comm_model = "linear",
                           .comm_params = {{"bits", 1e9}},
                           .supersteps = 1};
}

/// Fig. 1 fanned over a qps x replicas serving axis (plus the serving-free
/// base point). Every point carries the latency SLO, so the q3_max_qps
/// column fills too.
SweepGrid ServingGrid() {
  SweepGrid grid;
  ScenarioAxisPoint base = Fig1Point("fig1");
  grid.AddScenario(base);
  std::vector<FacetAxisPoint> serving;
  for (double qps : {1000.0, 2000.0}) {
    for (double replicas : {4.0, 8.0}) {
      FacetAxisPoint point;
      point.label = "qps" + std::to_string(static_cast<int>(qps)) + "-r" +
                    std::to_string(static_cast<int>(replicas));
      point.params.Set("qps", qps);
      point.params.Set("replicas", replicas);
      point.params.Set("service_per_item", 0.001);
      point.params.Set("target_qps", qps);
      point.params.Set("target_latency", 0.02);
      serving.push_back(std::move(point));
    }
  }
  for (ScenarioAxisPoint& point :
       ExpandAxis(base, &ScenarioAxisPoint::serving_params, serving)) {
    grid.AddScenario(std::move(point));
  }
  grid.AddHardware({.label = "gflop-gige",
                    .cluster = api::presets::Fig1Cluster(16)});
  return grid;
}

TEST(SweepServingTest, ServingAxisMergesKeysAndLabels) {
  ScenarioAxisPoint base = Fig1Point("fig1");
  base.serving_params.Set("quantile", 0.5);  // overridden by the axis point
  std::vector<FacetAxisPoint> axis;
  FacetAxisPoint point;
  point.label = "peak";
  point.params.Set("qps", 5000.0).Set("quantile", 0.99);
  point.params.Set("service_per_item", 0.001);
  point.params.Set("arrivals", "mmpp");
  axis.push_back(std::move(point));
  std::vector<ScenarioAxisPoint> expanded =
      ExpandAxis(base, &ScenarioAxisPoint::serving_params, axis);
  ASSERT_EQ(expanded.size(), 1u);
  EXPECT_EQ(expanded[0].label, "fig1-peak");
  EXPECT_EQ(expanded[0].comm_model, "linear");
  EXPECT_EQ(expanded[0].serving_params.GetOr("qps", 0.0), 5000.0);
  EXPECT_EQ(expanded[0].serving_params.GetOr("quantile", 0.0), 0.99);
  EXPECT_EQ(expanded[0].serving_params.GetStringOr("arrivals", ""), "mmpp");
  // The base point is untouched.
  EXPECT_FALSE(base.serving_params.Has("qps"));
  EXPECT_EQ(base.serving_params.GetOr("quantile", 0.0), 0.5);
}

TEST(SweepServingTest, ServingCellsFillTheNewCsvColumns) {
  auto report = SweepRunner().Run(ServingGrid());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_failed(), 0u);
  int serving_cells = 0;
  for (const SweepCellResult& cell : report->cells) {
    if (cell.scenario_label == "fig1") {
      EXPECT_FALSE(cell.report.serving.has_value());
      continue;
    }
    ASSERT_TRUE(cell.report.serving.has_value()) << cell.scenario_label;
    const api::ServingReport& serving = *cell.report.serving;
    EXPECT_GT(serving.estimate.utilization, 0.0);
    EXPECT_LT(serving.estimate.utilization, 1.0);
    EXPECT_GT(serving.estimate.quantile_latency_s, 0.0);
    ASSERT_TRUE(serving.replicas_answer.has_value());
    EXPECT_TRUE(serving.replicas_answer->achievable);
    ASSERT_TRUE(serving.max_qps_answer.has_value());
    EXPECT_TRUE(serving.max_qps_answer->achievable);
    ++serving_cells;
  }
  EXPECT_EQ(serving_cells, 4);
  // The columns reach the CSV itself.
  std::string csv = report->ToCsv();
  EXPECT_NE(
      csv.find("serving_utilization,serving_quantile_latency_s,q3_replicas,"
               "q3_max_qps"),
      std::string::npos);

  // A cell carrying both facets plus the Q1/Q2 questions fills every
  // optional column at once; its row is pinned byte for byte.
  ScenarioAxisPoint both = Fig1Point("fig1-faulty-serving");
  both.fault_params.Set("mtbf", 30000.0).Set("mttr", 60.0);
  both.fault_params.Set("checkpoint_cost", 20.0);
  both.serving_params.Set("qps", 2000.0).Set("replicas", 4.0);
  both.serving_params.Set("service_per_item", 0.001);
  both.serving_params.Set("target_qps", 2000.0).Set("target_latency", 0.02);
  SweepGrid grid;
  grid.AddScenario(both);
  grid.AddHardware({.label = "gflop-gige",
                    .cluster = api::presets::Fig1Cluster(16)});
  api::AnalysisOptions planner;
  planner.target_speedup = 3.0;
  planner.workload_growth = 2.0;
  grid.AddOptions({.label = "planner", .options = planner});
  auto pinned = SweepRunner().Run(grid);
  ASSERT_TRUE(pinned.ok());
  std::string pinned_csv = pinned->ToCsv();
  EXPECT_EQ(pinned_csv.substr(pinned_csv.find('\n') + 1),
            "0,fig1-faulty-serving,gflop-gige,planner,linear,ok,196,14,14,7,"
            "0.5,yes,4,3,,,0.998,1.783,0.5,0.00476425,3,3763.08\n");
}

TEST(SweepServingTest, ServingFreeCellsLeaveTheServingColumnsEmpty) {
  SweepGrid grid;
  grid.AddScenario(Fig1Point("fig1"));
  grid.AddHardware({.label = "gflop-gige",
                    .cluster = api::presets::Fig1Cluster(16)});
  auto report = SweepRunner().Run(grid);
  ASSERT_TRUE(report.ok());
  std::string csv = report->ToCsv();
  // The data row ends with the four empty serving cells.
  std::string row = csv.substr(csv.find('\n') + 1);
  if (!row.empty() && row.back() == '\n') row.pop_back();
  EXPECT_EQ(row.substr(row.size() - 4), ",,,,");
}

TEST(SweepServingTest, ServingSweepIsByteIdenticalAcrossThreadCounts) {
  SweepRunnerOptions serial;
  serial.threads = 1;
  auto a = SweepRunner(serial).Run(ServingGrid());
  ASSERT_TRUE(a.ok());

  SweepRunnerOptions threaded;
  threaded.threads = 4;
  auto b = SweepRunner(threaded).Run(ServingGrid());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ToCsv(), b->ToCsv());
}

}  // namespace
}  // namespace dmlscale::sweep
