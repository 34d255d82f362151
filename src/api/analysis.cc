#include "api/analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/calibration.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/planner.h"
#include "core/validation.h"
#include "sim/network_sim.h"
#include "sim/workloads.h"

namespace dmlscale::api {

namespace {

/// Requests measured per serving DES run when options.simulate is set,
/// after the discarded warm-up ones.
constexpr int64_t kServingSimRequests = 20000;
constexpr int64_t kServingSimWarmup = 2000;

/// A planner result as a report answer: the value when the target is
/// reachable, the reason in `note` when not.
template <typename Answer, typename T>
Answer ToAnswer(const Result<T>& result, T Answer::*value) {
  Answer answer;
  answer.achievable = result.ok();
  if (result.ok()) {
    answer.*value = result.value();
  } else {
    answer.note = result.status().message();
  }
  return answer;
}

PlannerAnswer ToAnswer(const Result<int>& result) {
  return ToAnswer(result, &PlannerAnswer::nodes);
}

/// Planner targets are "0 = not asked, > 0 = asked"; anything else (NaN,
/// infinities, negatives) would otherwise silently drop the question.
Status CheckTarget(const char* option, double value) {
  if (std::isfinite(value) && value >= 0.0) return Status::OK();
  return Status::InvalidArgument(std::string(option) +
                                 " must be finite and >= 0 (0 = not asked)");
}

/// Per-node-count time functions, routed through the shared eval cache when
/// one is configured. Everything downstream (curve, planner, simulator)
/// prices the scenario exclusively through these two.
struct ScenarioTimes {
  std::function<double(int)> compute_s;
  std::function<double(int)> comm_s;

  double Seconds(int n) const { return compute_s(n) + comm_s(n); }
};

ScenarioTimes MakeTimes(const Scenario& scenario, MemoCache* cache) {
  if (cache == nullptr) {
    return ScenarioTimes{
        .compute_s = [&scenario](int n) { return scenario.ComputeSeconds(n); },
        .comm_s = [&scenario](int n) { return scenario.CommSeconds(n); }};
  }
  // Scenario::CacheKey digests every model parameter — including the network
  // keys — so two cells differing only in, say, `oversubscription` can never
  // alias each other's cached times even under one display name.
  std::string cache_key = scenario.CacheKey();
  return ScenarioTimes{
      .compute_s =
          [&scenario, cache, cache_key](int n) {
            return cache->GetOrCompute(
                cache_key + "|cp|" + std::to_string(n),
                [&scenario, n] { return scenario.ComputeSeconds(n); });
          },
      .comm_s = [&scenario, cache, cache_key](int n) {
        return cache->GetOrCompute(
            cache_key + "|cm|" + std::to_string(n),
            [&scenario, n] { return scenario.CommSeconds(n); });
      }};
}

Result<core::SpeedupCurve> SimulateCurve(const Scenario& scenario,
                                         const ScenarioTimes& times,
                                         const AnalysisOptions& options,
                                         const std::vector<int>& nodes) {
  int supersteps = scenario.supersteps();
  // Scenario::Builder rejects supersteps < 1, but guard the division here
  // too: a zero would turn every simulated point into inf/NaN.
  if (supersteps < 1) {
    return Status::InvalidArgument("scenario '" + scenario.name() +
                                   "': supersteps must be >= 1");
  }
  // On a contended network the simulated curve prices communication with
  // the per-link discrete-event simulator instead of the analytic queue
  // model — that divergence is exactly what model_vs_sim_mape then measures.
  // Times are precomputed per node count here (deterministically, before
  // the jittered per-point draws) and injected through the comm closure,
  // so the generic superstep simulator's draw sequence stays untouched.
  std::function<double(int)> comm_seconds =
      [&times, supersteps](int n) { return times.comm_s(n) / supersteps; };
  if (scenario.contended()) {
    const core::LinkSpec link = scenario.cluster().link;
    const core::NetworkSpec& network = scenario.comm().network();
    double coefficient = scenario.comm_coefficient();
    auto des_comm = std::make_shared<std::map<int, double>>();
    for (int n : nodes) {
      // SimulateCommSeconds streams rounds through the model's ForEachRound
      // hook, so even a 10k-node ring pattern is priced in O(n) memory.
      (*des_comm)[n] = coefficient * sim::SimulateCommSeconds(
                                         scenario.comm(), n, link, network);
    }
    comm_seconds = [des_comm](int n) { return des_comm->at(n); };
  }
  sim::SuperstepSimConfig config{
      .compute_seconds = [&times,
                          supersteps](int n) { return times.compute_s(n) / supersteps; },
      .comm_seconds = std::move(comm_seconds),
      .message_bits = scenario.comm_params().GetOr("bits", 0.0),
      .overhead = options.overhead,
      .supersteps = options.sim_supersteps};

  // One independently seeded generator per node count: the point at n is the
  // same whether it is evaluated alone or as part of a longer curve. A
  // single generator threaded through the loop would make every point
  // depend on its predecessors' draw counts.
  std::vector<double> seconds;
  seconds.reserve(nodes.size());
  for (int n : nodes) {
    Pcg32 rng(DeriveSeed(options.sim_seed, static_cast<uint64_t>(n)),
              static_cast<uint64_t>(n));
    DMLSCALE_ASSIGN_OR_RETURN(double t,
                              sim::SimulateGenericSuperstep(config, n, &rng));
    seconds.push_back(t * supersteps);
  }

  auto ref = std::find(nodes.begin(), nodes.end(), options.reference_n);
  double reference = ref == nodes.end() ? 0.0 : seconds[ref - nodes.begin()];
  if (reference <= 0.0) {
    return Status::Internal(
        "simulated reference time is not positive (reference_n must be "
        "among the evaluated node counts)");
  }
  core::SpeedupCurve curve;
  curve.nodes = nodes;
  curve.reference_n = options.reference_n;
  for (double t : seconds) curve.speedup.push_back(reference / t);
  return curve;
}

/// The failure facet. perfbench's `plan` replays its core calls in this
/// order to time the api layer's own cost; keep the two in step.
FaultReport AnalyzeFaults(const core::FaultSpec& faults,
                          const ScenarioTimes& times,
                          const AnalysisReport& report,
                          const core::CapacityPlanner& planner,
                          int current_nodes) {
  FaultReport section;
  section.availability = core::Availability(faults);
  const double base = times.Seconds(report.optimal_nodes);
  auto at_optimum =
      core::ExpectedCompletionSeconds(faults, report.optimal_nodes, base);
  if (at_optimum.ok() && base > 0.0) {
    section.expected_slowdown = at_optimum.value() / base;
  }
  // Failures shift the optimum: the system crash rate grows with n, so the
  // expected-time argmin can sit left of the fault-free one. Infeasible
  // counts (a replica takeover that cannot keep up) are skipped, not errors.
  double best_seconds = 0.0;
  int best_nodes = 0;
  for (int n : report.curve.nodes) {
    auto expected =
        core::ExpectedCompletionSeconds(faults, n, times.Seconds(n));
    if (!expected.ok()) continue;
    if (best_nodes == 0 || expected.value() < best_seconds) {
      best_seconds = expected.value();
      best_nodes = n;
    }
  }
  if (best_nodes > 0) section.optimal_nodes = best_nodes;
  if (faults.CrashesEnabled() && faults.checkpoint_cost_s > 0.0) {
    auto interval = planner.OptimalCheckpointInterval(current_nodes, faults);
    if (interval.ok()) section.checkpoint_interval_s = interval.value();
  }
  return section;
}

/// The serving facet: the closed form, both directions of the serving Q3,
/// and (when simulating) the DES cross-check. A spec whose offered load
/// saturates the pool fails with the Erlang-C "cannot keep up" error —
/// saturation is an explicit answer, not a silently infinite latency.
Result<ServingReport> AnalyzeServing(const serve::ServingSpec& spec,
                                     const AnalysisOptions& options) {
  ServingReport section;
  DMLSCALE_ASSIGN_OR_RETURN(section.estimate, serve::AnalyzeServing(spec));
  section.quantile = spec.quantile;
  core::ServingLatencyFn latency_fn = [&spec](int replicas, double qps) {
    return serve::AnalyticQuantileLatency(spec, replicas, qps);
  };
  if (spec.target_qps > 0.0) {
    section.replicas_answer = ToAnswer(core::CapacityPlanner::ReplicasForQps(
        latency_fn, spec.target_qps, spec.target_latency_s, spec.max_replicas));
  }
  if (spec.target_latency_s > 0.0) {
    section.max_qps_answer = ToAnswer(
        core::CapacityPlanner::MaxSustainableQps(
            latency_fn, spec.replicas, spec.target_latency_s,
            serve::SaturationQps(spec, spec.replicas)),
        &ServingRateAnswer::qps);
  }
  if (options.simulate) {
    serve::ServingSimConfig sim_config;
    sim_config.spec = spec;
    sim_config.num_requests = kServingSimRequests;
    sim_config.warmup_requests = kServingSimWarmup;
    sim_config.seed = options.sim_seed;
    DMLSCALE_ASSIGN_OR_RETURN(serve::ServingSimStats sim_stats,
                              serve::SimulateServing(sim_config));
    if (sim_stats.mean_latency_s > 0.0) {
      // Apples to apples: the DES prices a dispatch + response wire hop on
      // the miss path that the closed form does not, so add the round trip
      // (weighted by the miss rate) to the analytic side.
      double analytic_mean = section.estimate.mean_latency_s +
                             2.0 * sim_config.wire_s * spec.cache.MissRate();
      section.model_vs_sim_pct =
          100.0 * std::abs(analytic_mean - sim_stats.mean_latency_s) /
          sim_stats.mean_latency_s;
    }
    section.sim = std::move(sim_stats);
  }
  return section;
}

std::string AnswerValue(const PlannerAnswer& answer) {
  return std::to_string(answer.nodes);
}

std::string AnswerValue(const ServingRateAnswer& answer) {
  return FormatDouble(answer.qps, 4);
}

/// One "<question>: <answer>" line; nothing when the question was not asked.
template <typename Answer>
void PrintAnswer(const char* question, const std::optional<Answer>& answer,
                 std::ostream& os) {
  if (!answer.has_value()) return;
  os << question << ": "
     << (answer->achievable ? AnswerValue(*answer)
                            : "not achievable — " + answer->note)
     << "\n";
}

/// The speedup table (with the simulated and measured columns when
/// present), the optimum line, and Q1/Q2.
void PrintCore(const AnalysisReport& report, std::ostream& os) {
  os << "== Scenario: " << report.scenario_name << " ==\n";
  // Only decorate contended runs: ideal-network reports must stay
  // byte-identical to the pre-network-layer output.
  if (report.contended) {
    os << "Comm: " << report.comm_label
       << " (contended fabric; simulated comm uses per-link DES)\n";
  }
  std::vector<std::string> headers{"n", "speedup", "efficiency"};
  if (report.simulated.has_value()) headers.push_back("simulated_speedup");
  if (!report.measured.empty()) headers.push_back("measured_s");
  TablePrinter table(headers);
  std::vector<double> efficiency = report.curve.Efficiency();
  for (size_t i = 0; i < report.curve.nodes.size(); ++i) {
    std::vector<std::string> row{std::to_string(report.curve.nodes[i]),
                                 FormatDouble(report.curve.speedup[i], 4),
                                 FormatDouble(efficiency[i], 4)};
    if (report.simulated.has_value()) {
      auto s = report.simulated->At(report.curve.nodes[i]);
      row.push_back(s.ok() ? FormatDouble(s.value(), 4) : "n/a");
    }
    if (!report.measured.empty()) {
      std::string cell = "n/a";
      for (const core::TimingSample& sample : report.measured) {
        if (sample.nodes == report.curve.nodes[i]) {
          cell = FormatDouble(sample.seconds, 6);
          break;
        }
      }
      row.push_back(std::move(cell));
    }
    table.AddRow(std::move(row));
  }
  table.Print(os);

  if (report.calibrated) {
    os << "Calibrated coefficients: compute x"
       << FormatDouble(report.compute_coefficient, 4) << ", comm x"
       << FormatDouble(report.comm_coefficient, 4) << "\n";
  }
  if (report.model_vs_measured_mape.has_value()) {
    os << "Model vs measured MAPE: "
       << FormatDouble(*report.model_vs_measured_mape, 3) << "%\n";
  }
  os << "t(reference) = " << FormatDouble(report.reference_seconds, 4)
     << " s; optimal nodes = " << report.optimal_nodes << " (peak speedup "
     << FormatDouble(report.peak_speedup, 4) << ", first local peak at "
     << report.first_local_peak << "); scalable: "
     << (report.scalable ? "yes" : "no") << "\n";
  if (report.model_vs_sim_mape.has_value()) {
    os << "Analytic vs simulated MAPE: "
       << FormatDouble(*report.model_vs_sim_mape, 3) << "%\n";
  }
  PrintAnswer("Q1 (machines for the requested speedup)", report.speedup_answer,
              os);
  PrintAnswer("Q2 (machines to absorb the workload growth)",
              report.growth_answer, os);
}

void PrintFaults(const FaultReport& faults, std::ostream& os) {
  os << "Failure model: node availability "
     << FormatDouble(faults.availability, 4);
  if (faults.expected_slowdown.has_value()) {
    os << "; expected slowdown at the fault-free optimum x"
       << FormatDouble(*faults.expected_slowdown, 4);
  }
  if (faults.optimal_nodes.has_value()) {
    os << "; failure-aware optimal nodes = " << *faults.optimal_nodes;
  }
  os << "\n";
  if (faults.checkpoint_interval_s.has_value()) {
    os << "Young/Daly checkpoint interval: "
       << FormatDouble(*faults.checkpoint_interval_s, 4) << " s\n";
  }
}

void PrintServing(const ServingReport& serving, std::ostream& os) {
  const serve::ServingEstimate& estimate = serving.estimate;
  std::string quantile_label = "p";
  quantile_label += FormatDouble(serving.quantile * 100.0, 4);
  os << "Serving: " << estimate.queue.servers << " replicas at "
     << FormatDouble(estimate.offered_qps, 4) << " offered qps; utilization "
     << FormatDouble(estimate.utilization, 4) << "; mean latency "
     << FormatDouble(estimate.mean_latency_s, 4) << " s; " << quantile_label
     << " latency " << FormatDouble(estimate.quantile_latency_s, 4) << " s\n";
  if (estimate.expected_batch > 1.0) {
    os << "Serving batching: expected batch "
       << FormatDouble(estimate.expected_batch, 4) << "; added delay "
       << FormatDouble(estimate.batch_delay_s, 4) << " s\n";
  }
  if (estimate.hit_rate > 0.0) {
    os << "Serving cache: hit rate " << FormatDouble(estimate.hit_rate, 4)
       << "; backend load " << FormatDouble(estimate.backend_qps, 4)
       << " qps\n";
  }
  if (serving.model_vs_sim_pct.has_value()) {
    os << "Serving analytic vs DES mean latency: "
       << FormatDouble(*serving.model_vs_sim_pct, 3) << "% (DES "
       << quantile_label << " "
       << FormatDouble(serving.sim->latency.Percentile(serving.quantile), 4)
       << " s)\n";
  }
  PrintAnswer("Q3 (replicas for the target qps within the latency SLO)",
              serving.replicas_answer, os);
  PrintAnswer("Q3 (max qps within the latency SLO at the declared replicas)",
              serving.max_qps_answer, os);
}

}  // namespace

Result<AnalysisReport> Analysis::Run(const Scenario& scenario,
                                     const AnalysisOptions& options) {
  const int max_nodes = scenario.cluster().max_nodes;
  if (options.reference_n < 1 || options.reference_n > max_nodes) {
    return Status::InvalidArgument("reference_n must be in [1, max_nodes]");
  }
  if (options.current_nodes < 1 || options.current_nodes > max_nodes) {
    return Status::InvalidArgument("current_nodes must be in [1, max_nodes]");
  }
  DMLSCALE_RETURN_NOT_OK(CheckTarget("target_speedup", options.target_speedup));
  DMLSCALE_RETURN_NOT_OK(
      CheckTarget("workload_growth", options.workload_growth));
  DMLSCALE_RETURN_NOT_OK(
      CheckTarget("fault_target_seconds", options.fault_target_seconds));
  if (options.eval_cache != nullptr && scenario.name().empty()) {
    // Cache keys embed the scenario name; unnamed scenarios sharing a cache
    // would silently reuse each other's times.
    return Status::InvalidArgument(
        "eval_cache requires a named scenario (keys embed the name)");
  }

  ScenarioTimes times = MakeTimes(scenario, options.eval_cache);
  core::FunctionModel model([&times](int n) { return times.Seconds(n); },
                            scenario.name());

  AnalysisReport report;
  report.scenario_name = scenario.name();
  report.comm_label = scenario.comm_label();
  report.contended = scenario.contended();
  report.compute_coefficient = scenario.compute_coefficient();
  report.comm_coefficient = scenario.comm_coefficient();
  report.calibrated = scenario.calibrated();
  DMLSCALE_ASSIGN_OR_RETURN(
      report.curve, core::SpeedupAnalyzer::Compute(model, max_nodes,
                                                   options.reference_n));
  report.reference_seconds = times.Seconds(options.reference_n);
  report.optimal_nodes = report.curve.OptimalNodes();
  report.first_local_peak = report.curve.FirstLocalPeak();
  report.peak_speedup = report.curve.PeakSpeedup();
  report.scalable = report.curve.IsScalable();

  // Growth scales the data-dependent computation term; the communication
  // payload is the model, which does not grow with the input.
  core::CapacityPlanner planner(
      [&times](int n, double data_scale) {
        return data_scale * times.compute_s(n) + times.comm_s(n);
      },
      max_nodes);
  if (options.target_speedup > 0.0) {
    report.speedup_answer = ToAnswer(
        planner.NodesToSpeedUp(options.current_nodes, options.target_speedup));
  }
  if (options.workload_growth > 0.0) {
    report.growth_answer = ToAnswer(planner.NodesForWorkloadGrowth(
        options.current_nodes, options.workload_growth));
  }
  if (scenario.fault_aware()) {
    report.faults = AnalyzeFaults(scenario.faults(), times, report, planner,
                                  options.current_nodes);
  }
  if (options.fault_target_seconds > 0.0) {
    report.fault_target_answer = ToAnswer(planner.NodesForTargetTimeUnderFaults(
        options.fault_target_seconds, scenario.faults()));
  }
  if (scenario.serving_aware()) {
    DMLSCALE_ASSIGN_OR_RETURN(report.serving,
                              AnalyzeServing(scenario.serving(), options));
  }

  if (options.simulate) {
    DMLSCALE_ASSIGN_OR_RETURN(
        core::SpeedupCurve simulated,
        SimulateCurve(scenario, times, options, report.curve.nodes));
    DMLSCALE_ASSIGN_OR_RETURN(core::ValidationReport delta,
                              core::CompareCurves(report.curve, simulated));
    report.simulated = std::move(simulated);
    report.model_vs_sim_mape = delta.mape;
  }

  if (options.measured_samples != nullptr) {
    // MAPE on predicted vs measured TIMES (the paper's comparison metric),
    // through the same cached time functions as everything above.
    DMLSCALE_ASSIGN_OR_RETURN(report.model_vs_measured_mape,
                              MapeVsSamples(model, *options.measured_samples));
    report.measured = *options.measured_samples;
  }
  return report;
}

void PrintReport(const AnalysisReport& report, std::ostream& os) {
  // Facet sections print only when present: facet-free reports must stay
  // byte-identical to the output before the facet existed.
  PrintCore(report, os);
  if (report.faults.has_value()) PrintFaults(*report.faults, os);
  PrintAnswer("Q3 (machines for the target time under failures)",
              report.fault_target_answer, os);
  if (report.serving.has_value()) PrintServing(*report.serving, os);
}

}  // namespace dmlscale::api
