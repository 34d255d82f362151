// Serving capacity planning: the paper's Q3, asked of an inference fleet —
// how many replicas does 50k QPS need to stay inside a p99 latency SLO?
//
// The tour: fit the replica's batch service model from the REAL forward
// pass (api::CalibrateBatchService prices the executed GEMMs on the node's
// work-clock), declare the serving cluster on the scenario builder, let
// the analysis answer Q3 analytically (Erlang-C over the replica pool),
// then cross-check the planned point on the event-engine DES.
//
//   ./serving_capacity [--qps=50000] [--slo-ms=50] [--batch=8]
//                      [--batch-delay-ms=2] [--max-replicas=256]

#include <iostream>

#include "api/api.h"
#include "common/arg_parser.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "serve/cluster.h"
#include "serve/serving_sim.h"

using namespace dmlscale;  // NOLINT: example brevity

int main(int argc, char** argv) {
  auto args = ArgParser::Parse(argc, argv);
  if (!args.ok()) {
    std::cerr << args.status() << "\n";
    return 1;
  }
  if (Status status = args->CheckKnown(
          {"qps", "slo-ms", "batch", "batch-delay-ms", "max-replicas"});
      !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  double qps = args->GetDouble("qps", 50000.0);
  double slo_s = args->GetDouble("slo-ms", 50.0) / 1000.0;
  int batch = static_cast<int>(args->GetInt("batch", 8));
  double batch_delay_s = args->GetDouble("batch-delay-ms", 2.0) / 1000.0;
  int max_replicas = static_cast<int>(args->GetInt("max-replicas", 256));
  if (qps <= 0.0 || slo_s <= 0.0 || batch < 1 || max_replicas < 1) {
    std::cerr << "--qps and --slo-ms must be > 0, --batch and "
              << "--max-replicas >= 1\n";
    return 1;
  }

  // Step 1: price one replica. The calibration runs the fully connected
  // forward pass at several batch sizes and fits Latency(b) = fixed +
  // b * per_item from the executed work.
  core::NodeSpec node = api::presets::GenericGigaflopNode();
  auto calibration = api::CalibrateBatchService(node);
  if (!calibration.ok()) {
    std::cerr << calibration.status() << "\n";
    return 1;
  }
  const core::BatchServiceModel& service = calibration->service;
  std::cout << "Replica service model (fitted on " << node.name << "):\n"
            << "  Latency(b) = " << FormatDouble(service.fixed_s * 1e3, 4)
            << " ms + b * " << FormatDouble(service.per_item_s * 1e3, 4)
            << " ms\n\n";

  // Step 2: declare the serving cluster. The initial fleet only has to be
  // large enough not to saturate; Q3 then answers what the fleet SHOULD be.
  api::ModelParams serving{{"qps", qps},
                           {"service_fixed", service.fixed_s},
                           {"service_per_item", service.per_item_s},
                           {"batch_max", static_cast<double>(batch)},
                           {"batch_delay", batch_delay_s},
                           {"replicas", static_cast<double>(max_replicas)},
                           {"target_qps", qps},
                           {"target_latency", slo_s},
                           {"max_replicas",
                            static_cast<double>(max_replicas)}};
  auto scenario =
      api::Scenario::Builder()
          .Name("inference-fleet")
          .Hardware(api::presets::Fig1Cluster(16))
          .Compute("perfectly-parallel", {{"total_flops", 196.0e9}})
          .Comm("linear", {{"bits", 1e9}})
          .Serving(serving)
          .Build();
  if (!scenario.ok()) {
    std::cerr << scenario.status() << "\n";
    return 1;
  }

  auto report = api::Analysis::Run(*scenario);
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return 1;
  }
  const api::PlannerAnswer& q3 = *report->serving->replicas_answer;
  std::cout << "Q3: replicas for " << FormatDouble(qps, 6) << " QPS at p99 <= "
            << FormatDouble(slo_s * 1e3, 4) << " ms?\n";
  if (!q3.achievable) {
    std::cout << "  -> not achievable within " << max_replicas
              << " replicas: " << q3.note << "\n";
    return 1;
  }
  std::cout << "  -> " << q3.nodes << " replicas\n\n";

  // Step 3: the deployment curve around the answer — where saturation
  // ends and where the SLO starts holding.
  const serve::ServingSpec& spec = scenario->serving();
  std::cout << "Fleet sizes near the answer:\n";
  TablePrinter table({"replicas", "utilization", "mean_ms", "p99_ms", "slo"});
  for (int r = q3.nodes - 2; r <= q3.nodes + 2; ++r) {
    if (r < 1) continue;
    serve::ServingSpec point = spec;
    point.replicas = r;
    auto estimate = serve::AnalyzeServing(point);
    if (!estimate.ok()) {
      table.AddRow({std::to_string(r), "saturated", "-", "-", "no"});
      continue;
    }
    table.AddRow({std::to_string(r),
                  FormatDouble(estimate->utilization, 4),
                  FormatDouble(estimate->mean_latency_s * 1e3, 4),
                  FormatDouble(estimate->quantile_latency_s * 1e3, 4),
                  estimate->quantile_latency_s <= slo_s ? "yes" : "no"});
  }
  table.Print(std::cout);

  // Step 4: trust but verify — run the planned fleet through the
  // event-engine DES and compare tails.
  serve::ServingSimConfig sim;
  sim.spec = spec;
  sim.spec.replicas = q3.nodes;
  sim.num_requests = 20000;
  sim.warmup_requests = 2000;
  sim.seed = 7;
  auto stats = serve::SimulateServing(sim);
  if (!stats.ok()) {
    std::cerr << stats.status() << "\n";
    return 1;
  }
  serve::ServingSpec planned = spec;
  planned.replicas = q3.nodes;
  auto analytic = serve::AnalyzeServing(planned);
  if (!analytic.ok()) {
    std::cerr << analytic.status() << "\n";
    return 1;
  }
  std::cout << "\nDES cross-check at " << q3.nodes << " replicas ("
            << sim.num_requests << " requests):\n";
  TablePrinter check({"source", "mean_ms", "p99_ms", "meets_slo"});
  check.AddRow({"analytic",
                FormatDouble(analytic->mean_latency_s * 1e3, 4),
                FormatDouble(analytic->quantile_latency_s * 1e3, 4),
                analytic->quantile_latency_s <= slo_s ? "yes" : "no"});
  check.AddRow({"DES",
                FormatDouble(stats->mean_latency_s * 1e3, 4),
                FormatDouble(stats->p99_s * 1e3, 4),
                stats->p99_s <= slo_s ? "yes" : "no"});
  check.Print(std::cout);
  std::cout << "\nMean executed batch in the DES: "
            << FormatDouble(stats->mean_batch, 4) << " (batch knob "
            << batch << ", delay " << FormatDouble(batch_delay_s * 1e3, 4)
            << " ms)\n";
  return 0;
}
