// `calibrate`: the paper's Section VI loop on its two validation
// algorithms. Each answer runs api::Calibrate at node schedule {1,2,4,8}
// and then Analysis::Run against the measured samples. The measured
// workload interleaves the GEMM-backed trainer on the Fig. 2 tower at 1/20
// width (two of every three answers) with partition-parallel loopy BP on a
// grid MRF, so nn, bp and graph are all exercised.
#include <string>
#include <vector>

#include "api/api.h"
#include "bench.h"
#include "models/graphical_inference.h"
#include "models/neural_cost.h"

namespace dmlbench {
namespace {

using namespace dmlscale;  // NOLINT: benchmark brevity

constexpr int64_t kExamples = 128;
// BP grid side: sized so a BP fit costs about as much as a trainer fit.
constexpr int64_t kGridSide = 100;
constexpr int kBpStates = 2;
constexpr int kBpSweeps = 18;

/// Forwards to the measured workload and opens one span per Measure call,
/// which is how the benchmark times the nn and bp layers inside Calibrate.
class TracedWorkload final : public api::Workload {
 public:
  TracedWorkload(api::Workload* inner, const char* span, Tracer* tracer,
                 int64_t answer_id)
      : inner_(inner), span_(span), tracer_(tracer), answer_id_(answer_id) {}
  std::string name() const override { return inner_->name(); }
  bool measured() const override { return inner_->measured(); }
  Result<core::TimingSample> Measure(int nodes) override {
    ScopedSpan span(tracer_, span_, answer_id_);
    return inner_->Measure(nodes);
  }

 private:
  api::Workload* inner_;
  const char* span_;
  Tracer* tracer_;
  int64_t answer_id_;
};

struct Question {
  api::Scenario apriori;
  std::unique_ptr<api::Workload> workload;
  const char* span;
};

class Calibrate final : public Workload {
 public:
  const char* work_unit() const override { return "probe runs (Measure calls)"; }
  double tail_percentile() const override { return 90.0; }
  size_t num_questions() const override { return questions_.size(); }

  Status Setup(uint64_t seed, Tracer* /*tracer*/) override {
    questions_.clear();
    expected_.clear();
    Rng rng(seed ^ 0x63616cULL);
    options_.node_schedule = {1, 2, 4, 8};
    // Trainer, BP, trainer: trainer answers are the majority, so the median
    // falls inside one kind's answer times rather than in the gap between
    // two kinds, whose costs drift apart as the host's load changes.
    DMLSCALE_RETURN_NOT_OK(AddTrainer(&rng));
    DMLSCALE_RETURN_NOT_OK(AddBp(&rng));
    DMLSCALE_RETURN_NOT_OK(AddTrainer(&rng));
    // Every question is answered once, untimed: the timed answers must
    // reproduce these bit for bit.
    for (size_t i = 0; i < questions_.size(); ++i) {
      DMLSCALE_ASSIGN_OR_RETURN(Answer answer, Ask(i, -1, nullptr));
      expected_.push_back(std::move(answer.outputs));
    }
    return Status::OK();
  }

  Result<Answer> Ask(size_t question, int64_t answer_id,
                     Tracer* tracer) override {
    Question& q = questions_[question];
    TracedWorkload workload(q.workload.get(), q.span, tracer, answer_id);
    DMLSCALE_ASSIGN_OR_RETURN(api::CalibratedScenario fit,
                              api::Calibrate(q.apriori, &workload, options_));
    api::AnalysisOptions options;
    options.measured_samples = &fit.samples;
    DMLSCALE_ASSIGN_OR_RETURN(api::AnalysisReport report,
                              api::Analysis::Run(fit.scenario, options));
    Answer answer;
    answer.work = static_cast<double>(fit.samples.size());
    answer.outputs = {fit.compute_coefficient, fit.comm_coefficient,
                      fit.fit.rmse, fit.fit.r_squared,
                      report.model_vs_measured_mape.value_or(-1.0),
                      static_cast<double>(report.optimal_nodes),
                      report.peak_speedup};
    for (const core::TimingSample& s : fit.samples) {
      answer.outputs.push_back(s.seconds);
    }
    return answer;
  }

  std::string Check(size_t question, const Answer& answer) override {
    return CompareBits(expected_[question], answer.outputs);
  }

 private:
  // The trainer: a priori, perfectly parallel 6WS compute and a linear
  // parameter exchange; measured on a cluster whose nodes and links are
  // derated by seeded factors the fit must recover.
  Status AddTrainer(Rng* rng) {
    std::vector<int64_t> layers = api::Fig2TowerLayerSizes(0.05);
    models::NetworkSpec net =
        models::NetworkSpec::FullyConnected("fig2-1/20", layers);
    const double flops = static_cast<double>(net.TrainingComputations()) *
                         static_cast<double>(kExamples);
    const double bits = 2.0 * 64.0 * static_cast<double>(net.TotalWeights());
    core::ClusterSpec cluster = api::presets::SparkCluster(16);
    cluster.link = api::presets::TenGigabitEthernet();
    DMLSCALE_ASSIGN_OR_RETURN(
        api::Scenario nn_apriori,
        api::Scenario::Builder()
            .Name("calibrate-nn")
            .Hardware(cluster)
            .Compute("perfectly-parallel", {{"total_flops", flops}})
            .Comm("linear", {{"bits", bits}})
            .Build());
    core::ClusterSpec real = cluster;
    real.node.efficiency *= rng->Uniform(0.6, 0.9);
    real.link.bandwidth_bps *= rng->Uniform(0.6, 0.9);
    DMLSCALE_ASSIGN_OR_RETURN(
        api::Scenario nn_real,
        api::Scenario::Builder()
            .Name("calibrate-nn-real")
            .Hardware(real)
            .Compute("perfectly-parallel", {{"total_flops", flops}})
            .Comm("linear", {{"bits", bits}})
            .Build());
    api::NnTrainerWorkloadOptions nn_options;
    nn_options.layer_sizes = layers;
    nn_options.examples = kExamples;
    nn_options.batch_size = kExamples;  // full-batch GD, Fig. 2's regime
    nn_options.seed = rng->Next();
    DMLSCALE_ASSIGN_OR_RETURN(
        std::unique_ptr<api::NnTrainerWorkload> trainer,
        api::NnTrainerWorkload::Create(nn_real, std::move(nn_options)));
    questions_.push_back(
        Question{std::move(nn_apriori), std::move(trainer), "nn.measure"});
    return Status::OK();
  }

  // Loopy BP on the shared-memory server (Section V-B): a priori, the
  // grid's directed edge updates split evenly over n workers.
  Status AddBp(Rng* rng) {
    const double updates =
        2.0 * 2.0 * static_cast<double>(kGridSide * (kGridSide - 1));
    const double ops_per_edge = models::BpOperationsPerEdge(kBpStates);
    DMLSCALE_ASSIGN_OR_RETURN(
        api::Scenario bp_apriori,
        api::Scenario::Builder()
            .Name("calibrate-bp")
            .Hardware(api::presets::SharedMemoryServer(16))
            .Compute(
                [updates, ops_per_edge](int n) {
                  return updates * ops_per_edge / static_cast<double>(n);
                },
                "balanced-bp")
            .SharedMemory()
            .Build());
    api::BpSweepWorkloadOptions bp_options;
    bp_options.grid_rows = kGridSide;
    bp_options.grid_cols = kGridSide;
    bp_options.states = kBpStates;
    bp_options.coupling = 0.3;
    // A fixed number of sweeps (the tolerance is never met), so a BP answer
    // costs the same whatever potentials the seed draws.
    bp_options.max_iterations = kBpSweeps;
    bp_options.tolerance = 1e-300;
    bp_options.seed = rng->Next();
    DMLSCALE_ASSIGN_OR_RETURN(
        std::unique_ptr<api::BpSweepWorkload> bp,
        api::BpSweepWorkload::Create(bp_apriori, std::move(bp_options)));
    questions_.push_back(
        Question{std::move(bp_apriori), std::move(bp), "bp.measure"});
    return Status::OK();
  }

  api::CalibrationOptions options_;
  std::vector<Question> questions_;
  std::vector<std::vector<double>> expected_;
};

}  // namespace

std::unique_ptr<Workload> MakeCalibrate() {
  return std::make_unique<Calibrate>();
}

}  // namespace dmlbench
