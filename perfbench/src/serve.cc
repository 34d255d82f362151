// `serve`: fleet pricing by the serving DES. Set-up fits the replica
// service law from the GEMM forward pass (api::CalibrateBatchService); each
// answer is one serve::SimulateServing run of a 1000-replica fleet with
// least-outstanding dispatch. The frontend scans every replica per
// dispatched request and drives the engine through one hot node.
#include <string>
#include <vector>

#include "api/api.h"
#include "bench.h"
#include "serve/serving_sim.h"

namespace dmlbench {
namespace {

using namespace dmlscale;  // NOLINT: benchmark brevity

constexpr int kReplicas = 1000;
constexpr double kUtilizations[] = {0.5, 0.7, 0.85};
constexpr size_t kQuestions = 6;  // 3 utilizations x cache off / LRU
// Dispatched (cache-miss) requests per replica: holding this fixed makes a
// cached and an uncached answer cost about the same.
constexpr int64_t kMissesPerReplica = 50;

std::vector<double> Outputs(const serve::ServingSimStats& s) {
  return {s.p50_s,
          s.p95_s,
          s.p99_s,
          s.mean_latency_s,
          s.duration_s,
          s.offered_qps,
          s.completed_qps,
          static_cast<double>(s.cache_hits),
          static_cast<double>(s.cache_misses),
          s.mean_replica_utilization,
          static_cast<double>(s.batches),
          s.mean_batch,
          static_cast<double>(s.engine.events_executed)};
}

class Serve final : public Workload {
 public:
  const char* work_unit() const override { return "simulated requests"; }
  double tail_percentile() const override { return 90.0; }
  size_t num_questions() const override { return kQuestions; }

  Status Setup(uint64_t seed, Tracer* tracer) override {
    configs_.clear();
    expected_.clear();
    Rng rng(seed ^ 0x7365727665ULL);
    api::BatchCalibrationOptions fit_options;
    fit_options.layer_sizes = {784, 512, 256, 10};
    fit_options.batch_schedule = {1, 2, 4, 8, 16, 32};
    fit_options.seed = rng.Next();
    Result<api::BatchCalibration> fit = [&] {
      ScopedSpan span(tracer, "serve.calibrate", -1);
      return api::CalibrateBatchService(api::presets::XeonE3_1240Double(),
                                        fit_options);
    }();
    DMLSCALE_RETURN_NOT_OK(fit.status());
    const core::BatchServiceModel service = fit.value().service;
    const double one_request_s = service.fixed_s + service.per_item_s;

    for (size_t i = 0; i < kQuestions; ++i) {
      serve::ServingSimConfig c;
      serve::ServingSpec& spec = c.spec;
      spec.replicas = kReplicas;
      spec.replica.service = service;
      spec.batcher.max_batch = 8;
      spec.batcher.max_delay_s = 4.0 * one_request_s;
      spec.dispatch = serve::DispatchPolicy::kLeastOutstanding;
      if (i % 2 == 1) {
        spec.cache.policy = serve::CachePolicy::kLru;
        spec.cache.hit_rate = 0.3;
        spec.cache.hit_latency_s = 0.05 * one_request_s;
      }
      // Offered load puts the replicas at the given utilization of their
      // unbatched capacity, after the cache has thinned it.
      const double rho = kUtilizations[i / 2] + rng.Uniform(-0.02, 0.02);
      spec.arrivals.rate_qps =
          rho * kReplicas / one_request_s / spec.cache.MissRate();
      const int64_t misses = kMissesPerReplica * kReplicas;
      c.num_requests = static_cast<int64_t>(
          static_cast<double>(misses) / spec.cache.MissRate());
      c.warmup_requests = c.num_requests / 10;
      c.seed = rng.Next();
      configs_.push_back(c);
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
    const serve::ServingSimConfig& c = configs_[question];
    Result<serve::ServingSimStats> stats = [&] {
      ScopedSpan span(tracer, "serve.simulate", answer_id);
      return serve::SimulateServing(c);
    }();
    DMLSCALE_RETURN_NOT_OK(stats.status());
    Answer answer;
    answer.work = static_cast<double>(c.num_requests + c.warmup_requests);
    answer.outputs = Outputs(stats.value());
    return answer;
  }

  std::string Check(size_t question, const Answer& answer) override {
    return CompareBits(expected_[question], answer.outputs);
  }

 private:
  std::vector<serve::ServingSimConfig> configs_;
  std::vector<std::vector<double>> expected_;
};

}  // namespace

std::unique_ptr<Workload> MakeServe() { return std::make_unique<Serve>(); }

}  // namespace dmlbench
