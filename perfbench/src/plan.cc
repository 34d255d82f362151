// `plan`: failure-aware capacity planning on contended fabrics. Each answer
// is one api::Analysis::Run call that answers Q1 (target speedup), Q2
// (workload growth) and the failure-aware target time. Every answer pays
// for contended communication pricing and for the straggler integral in
// core::ExpectedMaxSlowdown; sim, serve and nn are not touched.
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "bench.h"
#include "core/faults.h"
#include "core/planner.h"

namespace dmlbench {
namespace {

using namespace dmlscale;  // NOLINT: benchmark brevity

constexpr const char* kCommModels[] = {"spark-gd", "ring-allreduce", "linear",
                                       "tree"};
constexpr const char* kTopologies[] = {"fat-tree", "mesh2d", "star"};
// 4 comm models x 3 topologies x 4 (two hardware presets, twice each).
constexpr int kQuestions = 48;
constexpr int kPerTopology = kQuestions / 3;
constexpr double kOneNodeSeconds = 300.0;

struct Question {
  api::Scenario scenario;
  api::AnalysisOptions options;
};

/// The planner's time function, exactly as Analysis::Run composes it.
double Seconds(const api::Scenario& s, int n, double scale = 1.0) {
  return scale * s.ComputeSeconds(n) + s.CommSeconds(n);
}

class Plan final : public Workload {
 public:
  const char* work_unit() const override { return "priced node counts"; }
  double tail_percentile() const override { return 90.0; }
  size_t num_questions() const override { return questions_.size(); }

  Status Setup(uint64_t seed, Tracer* /*tracer*/) override {
    questions_.clear();
    Rng order(0x706c616eULL);
    Rng rng(seed ^ 0x706c616eULL);
    // Answer cost grows with max_nodes at a rate set by the topology, so
    // each topology gets the whole max_nodes range.
    std::vector<double> max_nodes;
    for (int t = 0; t < 3; ++t) {
      std::vector<double> group = Strata(&order, &rng, kPerTopology);
      max_nodes.insert(max_nodes.end(), group.begin(), group.end());
    }
    std::vector<double> mtbf = Strata(&order, &rng, kQuestions);
    std::vector<double> sigma = Strata(&order, &rng, kQuestions);
    std::vector<double> load = Strata(&order, &rng, kQuestions);
    std::vector<double> bits = Strata(&order, &rng, kQuestions);
    std::vector<double> target = Strata(&order, &rng, kQuestions);
    for (int i = 0; i < kQuestions; ++i) {
      const int group = (i / 4) % 3;
      const char* comm = kCommModels[i % 4];
      const char* topology = kTopologies[group];
      const int slot = group * kPerTopology + i % 4 + 4 * (i / 12);
      const int nodes = 32 + static_cast<int>(max_nodes[slot] * 33.0);
      core::ClusterSpec cluster = (i / 12) % 2 == 0
                                      ? api::presets::SparkCluster(nodes)
                                      : api::presets::GpuCluster(nodes);
      cluster.link = api::presets::TenGigabitEthernet();
      // One node computes for kOneNodeSeconds; the payload makes
      // communication matter past a few tens of nodes.
      double flops = kOneNodeSeconds * cluster.node.EffectiveFlops();
      api::ModelParams comm_params{{"bits", 1e9 * std::pow(4.0, bits[i])}};
      comm_params.Set("topology", topology).Set("queue", "mm1");
      comm_params.Set("load", 0.05 + 0.25 * load[i]);
      if (std::string(topology) == "fat-tree") {
        comm_params.Set("pod", 4.0).Set("oversubscription", 4.0);
      }
      api::ModelParams faults{
          {"mtbf", std::pow(10.0, 3.0 + mtbf[i])},
          {"mttr", 10.0},
          {"straggler", 0.2 + 0.2 * sigma[i]},
          {"checkpoint_cost", 2.0}};
      faults.Set("recovery", "checkpoint-restart");
      DMLSCALE_ASSIGN_OR_RETURN(
          api::Scenario scenario,
          api::Scenario::Builder()
              .Name(std::string("plan-") + comm + "@" + topology)
              .Hardware(cluster)
              .Compute("perfectly-parallel", {{"total_flops", flops}})
              .Comm(comm, std::move(comm_params))
              .Faults(std::move(faults))
              .Build());
      api::AnalysisOptions options;
      options.current_nodes = 2 + i % 3;
      options.target_speedup = 1.2 + 0.4 * target[i];
      options.workload_growth = 1.1 + 0.3 * target[i];
      // A target between a third and two thirds of the one-node time.
      options.fault_target_seconds =
          kOneNodeSeconds / (1.5 + 1.5 * target[i]);
      questions_.push_back(Question{std::move(scenario), options});
    }
    // One untimed warm-up answer per topology.
    for (size_t i = 0; i < 12; i += 4) {
      DMLSCALE_ASSIGN_OR_RETURN(Answer answer, Ask(i, -1, nullptr));
      std::string why = Check(i, answer);
      if (!why.empty()) return Status::Internal("warm-up answer: " + why);
    }
    return Status::OK();
  }

  Result<Answer> Ask(size_t question, int64_t answer_id,
                     Tracer* tracer) override {
    const Question& q = questions_[question];
    Result<api::AnalysisReport> report = [&] {
      ScopedSpan span(tracer, "api.run", answer_id);
      return api::Analysis::Run(q.scenario, q.options);
    }();
    DMLSCALE_RETURN_NOT_OK(report.status());
    const api::AnalysisReport& r = report.value();
    if (!r.speedup_answer || !r.growth_answer || !r.fault_target_answer) {
      return Status::Internal("report lacks a planner answer");
    }
    Answer answer;
    answer.work = static_cast<double>(r.curve.nodes.size());
    auto nodes = [](const api::PlannerAnswer& a) {
      return a.achievable ? static_cast<double>(a.nodes) : -1.0;
    };
    answer.outputs = {nodes(*r.speedup_answer), nodes(*r.growth_answer),
                      nodes(*r.fault_target_answer), r.curve.speedup.front()};
    return answer;
  }

  // Q1 and Q2 answers meet their target and one node fewer does not; the
  // failure-aware answer likewise; and S(1) = 1.
  std::string Check(size_t question, const Answer& answer) override {
    const Question& q = questions_[question];
    const api::Scenario& s = q.scenario;
    const int c = q.options.current_nodes;
    const int max = s.cluster().max_nodes;
    auto valid = [max](double n) { return n >= 1.0 && n <= max; };
    if (answer.outputs.size() != 4) return "malformed answer";
    const int q1 = static_cast<int>(answer.outputs[0]);
    const int q2 = static_cast<int>(answer.outputs[1]);
    const int q3 = static_cast<int>(answer.outputs[2]);
    if (!valid(q1) || !valid(q2) || !valid(q3)) return "no achievable answer";
    if (answer.outputs[3] != 1.0) return "S(1) != 1";
    const double now = Seconds(s, c);
    const double q1_target = now / q.options.target_speedup;
    if (!(Seconds(s, q1) <= q1_target)) return "Q1 answer misses its target";
    if (q1 > c && Seconds(s, q1 - 1) <= q1_target) return "Q1 not minimal";
    const double g = q.options.workload_growth;
    if (!(Seconds(s, q2, g) <= now)) return "Q2 answer misses its target";
    if (q2 > c && Seconds(s, q2 - 1, g) <= now) return "Q2 not minimal";
    const double t3 = q.options.fault_target_seconds;
    auto meets = [&](int n) {
      Result<double> e =
          core::ExpectedCompletionSeconds(s.faults(), n, Seconds(s, n));
      return e.ok() && e.value() <= t3;
    };
    if (!meets(q3)) return "fault-target answer misses its target";
    if (q3 > 1 && meets(q3 - 1)) return "fault-target answer not minimal";
    return "";
  }

  // Tracing can only wrap calls the benchmark makes, so after the traced
  // loop the first kReplayed questions (one per comm model and fabric) are
  // answered once more, each Run followed at once by a replay of every core
  // call it made, as child spans of its "api.run_replayed" span. Its self
  // time is then the api layer's own cost. Run and replay sit next to each
  // other in time, so a slow phase of the host hits both alike; and the
  // replay stays out of the traced loop, whose work_per_s then carries only
  // the cost of the spans.
  Status FinishTrace(Tracer* tracer) override {
    for (size_t i = 0; i < kReplayed; ++i) {
      const Question& q = questions_[i];
      int32_t run_span = -1;
      Result<api::AnalysisReport> report = [&] {
        ScopedSpan span(tracer, "api.run_replayed", -1);
        run_span = span.id();
        return api::Analysis::Run(q.scenario, q.options);
      }();
      DMLSCALE_RETURN_NOT_OK(report.status());
      Replay(q, report->optimal_nodes, run_span, tracer);
    }
    return Status::OK();
  }

 private:
  static constexpr size_t kReplayed = 12;

  // The core calls of Analysis::Run, in its order, for a fault-aware
  // scenario with Q1, Q2 and a failure-aware target.
  static void Replay(const Question& q, int optimal_nodes, int32_t run_span,
                     Tracer* tracer) {
    const api::Scenario& s = q.scenario;
    const api::AnalysisOptions& o = q.options;
    const core::FaultSpec& faults = s.faults();
    const int max = s.cluster().max_nodes;
    auto comm = [&](int n) {
      const int64_t t0 = NowNs();
      const double seconds = s.CommSeconds(n);
      tracer->Add("core.comm_seconds", t0, NowNs(), -1, run_span);
      return seconds;
    };
    auto expected = [&](int n) {
      const double base = s.ComputeSeconds(n) + comm(n);
      const int64_t t0 = NowNs();
      Result<double> e = core::ExpectedCompletionSeconds(faults, n, base);
      tracer->Add("core.expected_completion", t0, NowNs(), -1, run_span);
      (void)e;
    };
    auto timed = [&](const char* span, auto&& call) {
      const int64_t t0 = NowNs();
      auto r = call();
      tracer->Add(span, t0, NowNs(), -1, run_span);
      (void)r;
    };
    auto planned = [&](auto&& query) { timed("core.planner", query); };
    // The speedup curve prices the reference and then every n; the report
    // prices the reference once more.
    comm(o.reference_n);
    for (int n = 1; n <= max; ++n) comm(n);
    comm(o.reference_n);
    core::CapacityPlanner planner(
        [&s](int n, double scale) { return Seconds(s, n, scale); }, max);
    planned([&] {
      return planner.NodesToSpeedUp(o.current_nodes, o.target_speedup);
    });
    planned([&] {
      return planner.NodesForWorkloadGrowth(o.current_nodes,
                                            o.workload_growth);
    });
    timed("core.availability", [&] { return core::Availability(faults); });
    // Expected completion at the optimum, then over every n for the
    // failure-aware optimum.
    expected(optimal_nodes);
    for (int n = 1; n <= max; ++n) expected(n);
    planned([&] {
      return planner.OptimalCheckpointInterval(o.current_nodes, faults);
    });
    planned([&] {
      return planner.NodesForTargetTimeUnderFaults(o.fault_target_seconds,
                                                   faults);
    });
  }

  std::vector<Question> questions_;
};

}  // namespace

std::unique_ptr<Workload> MakePlan() { return std::make_unique<Plan>(); }

}  // namespace dmlbench
