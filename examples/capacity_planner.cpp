// Capacity planning: the two questions from the paper's introduction,
// answered by api::Analysis in the same call that computes the curve.
//  Q1 (strong scaling): how many more machines to cut the run time by X?
//  Q2 (weak scaling): the workload grew by G — how many machines keep the
//     run time the same?
//
//   ./capacity_planner [--speedup=3] [--growth=2] [--max-nodes=64]

#include <iostream>

#include <set>

#include "api/api.h"
#include "common/arg_parser.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "models/gradient_descent.h"

using namespace dmlscale;  // NOLINT: example brevity

int main(int argc, char** argv) {
  auto args = ArgParser::Parse(argc, argv);
  if (!args.ok()) {
    std::cerr << args.status() << "\n";
    return 1;
  }
  if (Status status = args->CheckKnown({"speedup", "growth", "max-nodes"});
      !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  double factor = args->GetDouble("speedup", 3.0);
  double growth = args->GetDouble("growth", 2.0);
  int max_nodes = static_cast<int>(args->GetInt("max-nodes", 64));
  // Written as !(x > 0) so NaN is rejected too.
  if (!(factor > 0.0) || !(growth > 0.0) || max_nodes < 4) {
    std::cerr << Status::InvalidArgument(
                     "--speedup and --growth must be > 0, --max-nodes >= 4")
              << "\n";
    return 1;
  }

  // The workload under study: the paper's Fig. 2 Spark training job.
  models::GdWorkload workload = models::SparkMnistWorkload();
  auto scenario =
      api::Scenario::Builder()
          .Name("mnist-spark-gd")
          .Hardware(api::presets::XeonE3_1240Double())
          .Link(api::presets::GigabitEthernet())
          .MaxNodes(max_nodes)
          .Compute("perfectly-parallel",
                   {{"total_flops",
                     workload.ops_per_example * workload.batch_size}})
          .Comm("spark-gd", {{"bits", workload.MessageBits()}})
          .Build();
  if (!scenario.ok()) {
    std::cerr << scenario.status() << "\n";
    return 1;
  }

  // Q1 is asked from one node; Q2 needs its own Run below because it plans
  // from the narrative's 4-node fleet and AnalysisOptions carries a single
  // current_nodes for both questions.
  api::AnalysisOptions options;
  options.target_speedup = factor;
  options.current_nodes = 1;
  auto report = api::Analysis::Run(*scenario, options);
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return 1;
  }

  std::cout << "Workload: MNIST fully connected ANN, Spark batch GD\n"
            << "t(1) = " << FormatDouble(scenario->Seconds(1), 4)
            << " s per iteration\n\n";

  std::cout << "Q1: machines needed to speed up " << factor << "x over one "
            << "node?\n";
  const api::PlannerAnswer& q1 = *report->speedup_answer;
  if (q1.achievable) {
    std::cout << "  -> " << q1.nodes << " machines (t = "
              << FormatDouble(scenario->Seconds(q1.nodes), 4) << " s)\n";
  } else {
    std::cout << "  -> not achievable within " << max_nodes
              << " machines: " << q1.note << "\n"
              << "     (the run is communication-bound past the speedup "
              << "peak at n=" << report->optimal_nodes << ")\n";
  }

  // Q2 was asked for current_nodes=1 above; re-run it for the 4-node fleet
  // the narrative assumes. Growth scales the computation term (more data),
  // not the parameter payload.
  api::AnalysisOptions q2_options;
  q2_options.workload_growth = growth;
  q2_options.current_nodes = 4;
  auto q2_report = api::Analysis::Run(*scenario, q2_options);
  if (!q2_report.ok()) {
    std::cerr << q2_report.status() << "\n";
    return 1;
  }
  std::cout << "\nQ2: workload grows " << growth << "x — machines needed to "
            << "keep the current 4-node run time?\n";
  const api::PlannerAnswer& q2 = *q2_report->growth_answer;
  if (q2.achievable) {
    std::cout << "  -> " << q2.nodes << " machines (vs current "
              << FormatDouble(scenario->Seconds(4), 4) << " s on 4)\n";
  } else {
    std::cout << "  -> not achievable: " << q2.note << "\n";
  }

  // The deployment points that matter, side by side.
  std::set<int> interesting{1, 4, report->optimal_nodes, max_nodes};
  if (q1.achievable) interesting.insert(q1.nodes);
  if (q2.achievable) interesting.insert(q2.nodes);
  std::cout << "\nDeployment options:\n";
  TablePrinter table({"machines", "t_iteration_s", "speedup"});
  for (int n : interesting) {
    if (n < 1 || n > max_nodes) continue;
    table.AddRow({std::to_string(n), FormatDouble(scenario->Seconds(n), 4),
                  FormatDouble(report->curve.At(n).value_or(-1.0), 4)});
  }
  table.Print(std::cout);

  std::cout << "\nOverall optimum for this workload: " << report->optimal_nodes
            << " machines (minimum absolute run time).\n"
            << "A 10x speedup request fails here by design — the paper's "
            << "point that\nscalability estimates should precede "
            << "distributed deployments.\n";
  return 0;
}
