// All of the paper's figure scenarios as one parallel grid sweep: scenario
// bags (Fig. 1's generic node, Fig. 2's Spark ANN at several batch sizes,
// the TensorFlow-style GPU workload, the Table-I communication topologies,
// and a contended-fabric ablation of the ring all-reduce)
// x hardware presets x analysis options, fanned over a thread pool by
// sweep::SweepRunner. Deterministic by construction: the CSV produced with
// --threads=8 is byte-identical to --threads=1.

#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/arg_parser.h"
#include "models/gradient_descent.h"
#include "sweep/sweep.h"

namespace dmlscale {
namespace {

sweep::SweepGrid BuildPaperGrid(int max_nodes, int sim_supersteps) {
  models::GdWorkload mnist = models::SparkMnistWorkload();
  double mnist_bits = mnist.MessageBits();
  auto mnist_flops = [&mnist](double batch) {
    return mnist.ops_per_example * batch;
  };
  models::GdWorkload inception = models::TensorFlowInceptionWorkload();

  sweep::SweepGrid grid;
  // Scenario axis: every closed-form workload the paper's figures use, plus
  // the Table-I style topology variants of the Fig. 2 workload.
  grid.AddScenario({.label = "fig1-generic",
                    .compute_model = "perfectly-parallel",
                    .compute_params = {{"total_flops", 196.0e9}},
                    .comm_model = "linear",
                    .comm_params = {{"bits", 1e9}},
                    .supersteps = 1});
  grid.AddScenario({.label = "fig2-mnist-b60k",
                    .compute_model = "perfectly-parallel",
                    .compute_params = {{"total_flops", mnist_flops(60000.0)}},
                    .comm_model = "spark-gd",
                    .comm_params = {{"bits", mnist_bits}},
                    .supersteps = 1});
  grid.AddScenario({.label = "fig2-mnist-b7500",
                    .compute_model = "perfectly-parallel",
                    .compute_params = {{"total_flops", mnist_flops(7500.0)}},
                    .comm_model = "spark-gd",
                    .comm_params = {{"bits", mnist_bits}},
                    .supersteps = 1});
  grid.AddScenario({.label = "fig2-mnist-b240k",
                    .compute_model = "perfectly-parallel",
                    .compute_params = {{"total_flops", mnist_flops(240000.0)}},
                    .comm_model = "spark-gd",
                    .comm_params = {{"bits", mnist_bits}},
                    .supersteps = 1});
  grid.AddScenario(
      {.label = "tf-inception",
       .compute_model = "perfectly-parallel",
       .compute_params = {{"total_flops",
                           inception.ops_per_example * inception.batch_size}},
       .comm_model = "tree",
       .comm_params = {{"bits", inception.MessageBits()}, {"rounds", 2}},
       .supersteps = 1});
  grid.AddScenario({.label = "mnist-linear",
                    .compute_model = "perfectly-parallel",
                    .compute_params = {{"total_flops", mnist_flops(60000.0)}},
                    .comm_model = "linear",
                    .comm_params = {{"bits", mnist_bits}},
                    .supersteps = 1});
  sweep::ScenarioAxisPoint ring{
      .label = "mnist-ring",
      .compute_model = "perfectly-parallel",
      .compute_params = {{"total_flops", mnist_flops(60000.0)}},
      .comm_model = "ring-allreduce",
      .comm_params = {{"bits", mnist_bits}},
      .supersteps = 1};
  grid.AddScenario(ring);
  // Topology ablation axis: the same ring all-reduce priced on contended
  // fabrics (the plain "mnist-ring" above is the ideal-network baseline).
  // The sim options below then cross-check the analytic M/M/1 pricing
  // against the per-link discrete-event simulator via the mape_pct column.
  std::vector<sweep::FacetAxisPoint> networks;
  networks.push_back({.label = "ft4x4-mm1", .params = {}});
  networks.back().params.Set("topology", "fat-tree").Set(
      "oversubscription", 4.0);
  networks.back().params.Set("queue", "mm1");
  networks.push_back({.label = "mesh-mm1", .params = {}});
  networks.back().params.Set("topology", "mesh2d").Set("queue", "mm1");
  networks.push_back({.label = "star-mm1", .params = {}});
  networks.back().params.Set("topology", "star").Set("queue", "mm1");
  for (sweep::ScenarioAxisPoint& point : sweep::ExpandAxis(
           ring, &sweep::ScenarioAxisPoint::comm_params, networks)) {
    grid.AddScenario(std::move(point));
  }
  grid.AddScenario({.label = "mnist-recdouble",
                    .compute_model = "perfectly-parallel",
                    .compute_params = {{"total_flops", mnist_flops(60000.0)}},
                    .comm_model = "recursive-doubling",
                    .comm_params = {{"bits", mnist_bits}},
                    .supersteps = 1});

  // Hardware axis: the paper's node types on the paper's interconnects.
  auto cluster = [max_nodes](core::NodeSpec node, core::LinkSpec link) {
    return core::ClusterSpec{.node = node,
                             .link = link,
                             .max_nodes = max_nodes,
                             .shared_memory = false};
  };
  grid.AddHardware({.label = "xeon-gige",
                    .cluster = cluster(api::presets::XeonE3_1240Double(),
                                       api::presets::GigabitEthernet())});
  grid.AddHardware({.label = "xeon-10gige",
                    .cluster = cluster(api::presets::XeonE3_1240Double(),
                                       api::presets::TenGigabitEthernet())});
  grid.AddHardware({.label = "k40-gige",
                    .cluster = cluster(api::presets::NvidiaK40(),
                                       api::presets::GigabitEthernet())});
  grid.AddHardware({.label = "gflop-gige",
                    .cluster = cluster(api::presets::GenericGigaflopNode(),
                                       api::presets::GigabitEthernet())});

  // Options axis: the paper's question mix — curve only, capacity planning,
  // and the discrete-event cross-check with and without framework overheads.
  grid.AddOptions({.label = "analytic", .options = {}});
  api::AnalysisOptions planner;
  planner.target_speedup = 2.0;
  planner.workload_growth = 3.0;
  planner.current_nodes = 4;
  grid.AddOptions({.label = "planner", .options = planner});
  api::AnalysisOptions sim;
  sim.simulate = true;
  sim.sim_supersteps = sim_supersteps;
  grid.AddOptions({.label = "sim", .options = sim});
  api::AnalysisOptions sim_overhead = sim;
  sim_overhead.overhead = sim::OverheadModel::SparkLike();
  grid.AddOptions({.label = "sim-spark-overhead", .options = sim_overhead});
  return grid;
}

int Run(int argc, const char* const* argv) {
  auto args = ArgParser::Parse(argc, argv);
  if (!args.ok()) {
    std::cerr << args.status() << "\n";
    return 1;
  }
  Status known = args->CheckKnown(
      {"threads", "csv", "seed", "max-nodes", "sim-supersteps", "top"});
  if (!known.ok()) {
    std::cerr << known << "\n";
    return 1;
  }
  int threads = static_cast<int>(args->GetInt("threads", 8));
  std::string csv_path = args->GetString("csv", "");
  int max_nodes = static_cast<int>(args->GetInt("max-nodes", 64));
  int sim_supersteps = static_cast<int>(args->GetInt("sim-supersteps", 40));
  size_t top = static_cast<size_t>(args->GetInt("top", 10));

  sweep::SweepGrid grid = BuildPaperGrid(max_nodes, sim_supersteps);
  sweep::SweepRunnerOptions options;
  options.threads = threads;
  options.base_seed = static_cast<uint64_t>(args->GetInt("seed", 42));
  sweep::SweepRunner runner(options);
  auto report = runner.Run(grid);
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return 1;
  }

  report->PrintSummary(std::cout, top);
  if (report->num_failed() > 0) {
    std::cerr << report->num_failed() << " cells failed\n";
    return 1;
  }
  if (!csv_path.empty()) {
    std::ofstream out(csv_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot open " << csv_path << " for writing\n";
      return 1;
    }
    out << report->ToCsv();
    std::cout << "wrote " << report->cells.size() << " cells to " << csv_path
              << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace dmlscale

int main(int argc, char** argv) { return dmlscale::Run(argc, argv); }
