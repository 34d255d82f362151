// `des`: training collectives simulated event by event at cluster scale.
// Answers interleave a jittered, step-capped ring allreduce (two of every
// three) with a parameter server whose workers crash and straggle. The
// engine heap, windows, mailboxes and the FaultInjector do the work; the
// closed forms are not touched.
#include <cmath>
#include <string>
#include <vector>

#include "bench.h"
#include "core/hardware.h"
#include "sim/scale_scenarios.h"

namespace dmlbench {
namespace {

using namespace dmlscale;  // NOLINT: benchmark brevity

// Ring, server, ring: ring answers are the majority, so the median falls
// inside one kind's answer times rather than in the gap between two kinds,
// whose costs drift apart as the host's load changes.
constexpr int kQuestions = 3;
// Every answer is sized to cost about the same, so answer times form one
// population: a ring answer runs ~kRingEvents events at ~9k or ~11k nodes
// (its cost follows its event count); a server answer runs ~10k workers for
// kServerSteps steps (its cost is mostly per-worker set-up, which grows
// faster than the worker count, so the count stays near 10k).
constexpr double kRingEvents = 1.2e6;
constexpr int kServerSteps = 4;

core::LinkSpec ClusterLink() {
  return core::LinkSpec{.bandwidth_bps = 1e10, .latency_s = 5e-6};
}

std::vector<double> Outputs(const sim::ScaleStats& s) {
  return {s.seconds,
          static_cast<double>(s.engine.events_executed),
          s.engine.end_time,
          static_cast<double>(s.engine.windows),
          static_cast<double>(s.engine.messages_delivered),
          static_cast<double>(s.faults.crashes),
          static_cast<double>(s.faults.recoveries),
          static_cast<double>(s.faults.retries),
          static_cast<double>(s.faults.drops)};
}

class Des final : public Workload {
 public:
  const char* work_unit() const override { return "engine events executed"; }
  double tail_percentile() const override { return 75.0; }
  size_t num_questions() const override { return kQuestions; }

  Status Setup(uint64_t seed, Tracer* /*tracer*/) override {
    rings_.clear();
    servers_.clear();
    expected_.clear();
    Rng rng(seed ^ 0x646573ULL);
    for (int i = 0; i < kQuestions; ++i) {
      const double nominal = i == 1 ? 10000.0 : i == 0 ? 9000.0 : 11000.0;
      const int n = static_cast<int>(nominal * rng.Uniform(0.98, 1.02));
      const uint64_t sim_seed = rng.Next();
      if (i != 1) {
        sim::RingScaleConfig c;
        c.num_nodes = n;
        c.bits = static_cast<int64_t>(n) * 100000;
        c.link = ClusterLink();
        c.compute_seconds = 2e-6;
        c.straggler_sigma = 0.3;
        c.seed = sim_seed;
        c.max_steps = static_cast<int>(std::lround(kRingEvents / n));
        rings_.push_back(c);
      } else {
        sim::PsScaleConfig c;
        c.num_workers = n;
        c.steps_per_worker = kServerSteps;
        c.bits = 8 * 1024 * 1024;
        c.link = ClusterLink();
        c.compute_seconds = 5e-3;
        c.straggler_sigma = 0.3;
        c.seed = sim_seed;
        c.faults.mtbf_seconds = 3.0;
        c.faults.mttr_seconds = 0.02;
        c.faults.straggler_sigma = 0.3;
        c.faults.checkpoint_interval_s = 0.02;
        c.faults.checkpoint_cost_s = 0.002;
        servers_.push_back(c);
      }
    }
    // Every question is answered once, untimed: the timed answers must
    // reproduce these bit for bit.
    for (size_t i = 0; i < kQuestions; ++i) {
      DMLSCALE_ASSIGN_OR_RETURN(Answer answer, Ask(i, -1, nullptr));
      expected_.push_back(std::move(answer.outputs));
    }
    return Status::OK();
  }

  Result<Answer> Ask(size_t question, int64_t answer_id,
                     Tracer* tracer) override {
    const bool ring = question != 1;
    ScopedSpan span(tracer, ring ? "sim.ring" : "sim.ps", answer_id);
    Result<sim::ScaleStats> stats =
        ring ? sim::SimulateRingAllReduceAtScale(rings_[question / 2])
             : sim::SimulateParameterServerAtScale(servers_.front());
    DMLSCALE_RETURN_NOT_OK(stats.status());
    span.SetCount(static_cast<double>(stats.value().engine.events_executed));
    Answer answer;
    answer.work = static_cast<double>(stats.value().engine.events_executed);
    answer.outputs = Outputs(stats.value());
    return answer;
  }

  std::string Check(size_t question, const Answer& answer) override {
    return CompareBits(expected_[question], answer.outputs);
  }

 private:
  std::vector<sim::RingScaleConfig> rings_;
  std::vector<sim::PsScaleConfig> servers_;
  std::vector<std::vector<double>> expected_;
};

}  // namespace

std::unique_ptr<Workload> MakeDes() { return std::make_unique<Des>(); }

}  // namespace dmlbench
