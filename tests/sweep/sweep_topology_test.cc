// The sweep's topology ablation surface: ExpandAxis over the comm params
// fans a scenario over contended fabrics, the CSV's `comm` column keeps the
// decorated labels distinguishable, the analytic-vs-DES cross-check stays
// within the 15% MAPE bar, and the eval cache never conflates cells that
// differ only in a network parameter (the oversubscription regression).

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/analysis.h"
#include "common/memo_cache.h"
#include "api/presets.h"
#include "sweep/grid.h"
#include "sweep/report.h"
#include "sweep/runner.h"

namespace dmlscale::sweep {
namespace {

ScenarioAxisPoint RingPoint(const std::string& label) {
  return ScenarioAxisPoint{.label = label,
                           .compute_model = "perfectly-parallel",
                           .compute_params = {{"total_flops", 196.0e9}},
                           .comm_model = "ring-allreduce",
                           .comm_params = {{"bits", 64.0 * 12e6}},
                           .supersteps = 1};
}

/// Ring all-reduce on the ideal network plus two contended fabrics,
/// analytic and simulated.
SweepGrid ContendedGrid() {
  SweepGrid grid;
  ScenarioAxisPoint ring = RingPoint("ring");
  grid.AddScenario(ring);
  std::vector<FacetAxisPoint> networks;
  networks.push_back({.label = "ft", .params = {}});
  networks.back().params.Set("topology", "fat-tree");
  networks.back().params.Set("oversubscription", 4.0);
  networks.back().params.Set("queue", "mm1").Set("load", 0.3);
  networks.push_back({.label = "star", .params = {}});
  networks.back().params.Set("topology", "star").Set("queue", "mm1");
  for (ScenarioAxisPoint& point :
       ExpandAxis(ring, &ScenarioAxisPoint::comm_params, networks)) {
    grid.AddScenario(std::move(point));
  }
  grid.AddHardware({.label = "gflop-gige",
                    .cluster = api::presets::Fig1Cluster(16)});
  grid.AddOptions({.label = "analytic", .options = {}});
  api::AnalysisOptions sim;
  sim.simulate = true;
  sim.sim_supersteps = 2;
  grid.AddOptions({.label = "sim", .options = sim});
  return grid;
}

TEST(SweepTopologyTest, NetworkAxisMergesKeysIntoCommParams) {
  ScenarioAxisPoint base = RingPoint("ring");
  std::vector<FacetAxisPoint> networks;
  networks.push_back({.label = "mesh", .params = {}});
  networks.back().params.Set("topology", "mesh2d").Set("mesh_width", 4.0);
  std::vector<ScenarioAxisPoint> expanded =
      ExpandAxis(base, &ScenarioAxisPoint::comm_params, networks);
  ASSERT_EQ(expanded.size(), 1u);
  EXPECT_EQ(expanded[0].label, "ring-mesh");
  EXPECT_EQ(expanded[0].comm_model, "ring-allreduce");
  EXPECT_TRUE(expanded[0].comm_params.Has("bits"));
  EXPECT_TRUE(expanded[0].comm_params.Has("mesh_width"));
  EXPECT_EQ(expanded[0].comm_params.GetStringOr("topology", ""), "mesh2d");
  // The base point is untouched.
  EXPECT_FALSE(base.comm_params.HasString("topology"));
}

TEST(SweepTopologyTest, ContendedSweepIsByteIdenticalAcrossThreadCounts) {
  SweepRunnerOptions serial;
  serial.threads = 1;
  auto a = SweepRunner(serial).Run(ContendedGrid());
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->num_failed(), 0u);

  SweepRunnerOptions threaded;
  threaded.threads = 4;
  auto b = SweepRunner(threaded).Run(ContendedGrid());
  ASSERT_TRUE(b.ok());

  // The DES has no randomness and per-cell seeding is scheduling-free, so
  // the contended rows keep the sweep's byte-identity contract.
  EXPECT_EQ(a->ToCsv(), b->ToCsv());
}

TEST(SweepTopologyTest, DecoratedCommLabelsReachTheCsv) {
  auto report = SweepRunner().Run(ContendedGrid());
  ASSERT_TRUE(report.ok());
  std::string csv = report->ToCsv();
  EXPECT_NE(csv.find(",ring-allreduce@fat-tree"), std::string::npos) << csv;
  EXPECT_NE(csv.find("mm1(load=0.3)"), std::string::npos) << csv;
  EXPECT_NE(csv.find("@star"), std::string::npos) << csv;
  // The ideal-network baseline keeps the plain name.
  EXPECT_NE(csv.find(",ring-allreduce,"), std::string::npos) << csv;
}

TEST(SweepTopologyTest, AnalyticVsDesMapeStaysWithinBar) {
  auto report = SweepRunner().Run(ContendedGrid());
  ASSERT_TRUE(report.ok());
  int checked = 0;
  for (const SweepCellResult& cell : report->cells) {
    if (!cell.ok() || cell.options_label != "sim") continue;
    if (!cell.report.contended) continue;
    ASSERT_TRUE(cell.report.model_vs_sim_mape.has_value())
        << cell.scenario_label;
    EXPECT_LE(*cell.report.model_vs_sim_mape, 15.0)
        << cell.scenario_label << " comm=" << cell.report.comm_label;
    ++checked;
  }
  EXPECT_EQ(checked, 2);  // both contended fabrics simulated
}

TEST(SweepTopologyTest, PrintReportNamesTheContendedFabric) {
  auto report = SweepRunner().Run(ContendedGrid());
  ASSERT_TRUE(report.ok());
  const SweepCellResult* contended = nullptr;
  const SweepCellResult* ideal = nullptr;
  for (const SweepCellResult& cell : report->cells) {
    if (!cell.ok()) continue;
    if (cell.report.contended && contended == nullptr) contended = &cell;
    if (!cell.report.contended && ideal == nullptr) ideal = &cell;
  }
  ASSERT_NE(contended, nullptr);
  ASSERT_NE(ideal, nullptr);
  std::ostringstream contended_out;
  api::PrintReport(contended->report, contended_out);
  EXPECT_NE(contended_out.str().find("Comm: ring-allreduce@"),
            std::string::npos)
      << contended_out.str();
  // Ideal cells keep the legacy report format — no Comm line at all.
  std::ostringstream ideal_out;
  api::PrintReport(ideal->report, ideal_out);
  EXPECT_EQ(ideal_out.str().find("Comm:"), std::string::npos)
      << ideal_out.str();
}

TEST(SweepTopologyTest, CompositeCommKeepsStageNamesUnderDecoration) {
  SweepGrid grid;
  ScenarioAxisPoint spark{.label = "spark",
                          .compute_model = "perfectly-parallel",
                          .compute_params = {{"total_flops", 196.0e9}},
                          .comm_model = "spark-gd",
                          .comm_params = {{"bits", 64.0 * 12e6}},
                          .supersteps = 1};
  spark.comm_params.Set("topology", "fat-tree").Set("queue", "mm1");
  grid.AddScenario(spark);
  grid.AddHardware({.label = "gflop-gige",
                    .cluster = api::presets::Fig1Cluster(16)});
  auto report = SweepRunner().Run(grid);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->num_ok(), 1u);
  const std::string& label = report->cells[0].report.comm_label;
  // Stage names and the fabric decoration both survive into the CSV label.
  EXPECT_NE(label.find("torrent-broadcast"), std::string::npos) << label;
  EXPECT_NE(label.find("two-wave-sqrt"), std::string::npos) << label;
  EXPECT_NE(label.find("@fat-tree"), std::string::npos) << label;
  EXPECT_NE(report->ToCsv().find(label), std::string::npos);
}

TEST(SweepTopologyTest, OversubscriptionAloneSeparatesCacheEntries) {
  // Regression: two SAME-NAMED scenarios differing ONLY in oversubscription
  // must never share entries of a shared eval cache. (The sweep grid rejects
  // duplicate labels, so this is driven through the api layer directly —
  // the same MemoCache + Scenario::CacheKey machinery the runner uses.)
  // Before CacheKey covered the model parameter bags, the second run
  // silently reused the first run's communication times.
  MemoCache cache;
  api::AnalysisOptions options;
  options.eval_cache = &cache;
  std::vector<api::AnalysisReport> reports;
  for (double os : {1.0, 8.0}) {
    api::ModelParams comm_params{{"bits", 64.0 * 12e6}};
    comm_params.Set("topology", "fat-tree");
    comm_params.Set("oversubscription", os);
    comm_params.Set("queue", "mm1");
    core::ClusterSpec cluster = api::presets::Fig1Cluster(16);
    auto scenario = api::Scenario::Builder()
                        .Name("ring-os")  // SAME name on purpose
                        .Hardware(cluster.node)
                        .Link(cluster.link)
                        .MaxNodes(cluster.max_nodes)
                        .Compute("perfectly-parallel",
                                 {{"total_flops", 196.0e9}})
                        .Comm("ring-allreduce", comm_params)
                        .Build();
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    auto report = api::Analysis::Run(*scenario, options);
    ASSERT_TRUE(report.ok()) << report.status();
    reports.push_back(*report);
  }
  // 8:1 oversubscription halves the core links under 4-node pods, so the
  // cross-pod rounds slow down and the curves must diverge.
  EXPECT_NE(reports[0].peak_speedup, reports[1].peak_speedup)
      << "scenarios differing only in oversubscription shared cached results";
  EXPECT_NE(reports[0].comm_label, reports[1].comm_label);
}

}  // namespace
}  // namespace dmlscale::sweep
