// Per-layer metrics of the traced run. Timings come from spans the
// workloads open around their calls into each layer; a layer the traced
// workload did not call is covered by a few traced answers of the workload
// that does, at a fixed seed. Counts, per-event and per-request costs and
// the shard speedup come from fixed reference inputs, so they repeat
// exactly (counts) or compare like with like (times) from run to run.
#include "layers.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "common/thread_pool.h"
#include "nn/kernels.h"
#include "serve/serving_sim.h"
#include "sim/scale_scenarios.h"

namespace dmlbench {
namespace {

using namespace dmlscale;  // NOLINT: benchmark brevity

constexpr uint64_t kProbeSeed = 1;
constexpr int kRepeats = 3;

/// Median wall seconds of `kRepeats` calls of `fn`.
double TimeMedian(const std::function<void()>& fn, int repeats = kRepeats) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    int64_t t0 = NowNs();
    fn();
    seconds.push_back((NowNs() - t0) * 1e-9);
  }
  return Median(seconds);
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) {
    throw ProbeError(std::string(what) + ": " + result.status().ToString());
  }
  return std::move(result).value();
}

/// Answers `questions` of `workload` traced, at the fixed probe seed.
void ProbeWorkload(std::unique_ptr<Workload> workload,
                   const std::vector<size_t>& questions, Tracer* tracer) {
  Status setup = workload->Setup(kProbeSeed, tracer);
  if (!setup.ok()) throw ProbeError("probe set-up: " + setup.ToString());
  for (size_t q : questions) {
    Must(workload->Ask(q, -2, tracer), "probe answer");
  }
  Status finished = workload->FinishTrace(tracer);
  if (!finished.ok()) {
    throw ProbeError("probe replay: " + finished.ToString());
  }
}

core::LinkSpec ClusterLink() {
  return core::LinkSpec{.bandwidth_bps = 1e10, .latency_s = 5e-6};
}

sim::RingScaleConfig Ring(int nodes, int steps) {
  sim::RingScaleConfig c;
  c.num_nodes = nodes;
  c.bits = static_cast<int64_t>(nodes) * 100000;
  c.link = ClusterLink();
  c.compute_seconds = 2e-6;
  c.straggler_sigma = 0.2;
  c.max_steps = steps;
  return c;
}

serve::ServingSimConfig Fleet(int replicas) {
  serve::ServingSimConfig c;
  serve::ServingSpec& spec = c.spec;
  spec.replicas = replicas;
  spec.arrivals.rate_qps = 1400.0 * replicas;
  spec.batcher.max_batch = 8;
  spec.batcher.max_delay_s = 0.002;
  spec.replica.service.fixed_s = 0.0002;
  spec.replica.service.per_item_s = 0.0003;
  spec.cache.policy = serve::CachePolicy::kLru;
  spec.cache.hit_rate = 0.3;
  spec.cache.hit_latency_s = 100e-6;
  c.num_requests = static_cast<int64_t>(replicas) * 50;
  c.warmup_requests = static_cast<int64_t>(replicas) * 5;
  c.seed = 17;
  return c;
}

}  // namespace

std::vector<LayerMetric> MeasureLayers(Tracer* tracer) {
  auto has = [tracer](const char* name) {
    for (const Span& s : tracer->spans()) {
      if (std::string(s.name) == name) return true;
    }
    return false;
  };
  if (!has("api.run_replayed")) ProbeWorkload(MakePlan(), {}, tracer);
  if (!has("sim.ring")) ProbeWorkload(MakeDes(), {0, 1}, tracer);
  if (!has("serve.calibrate")) ProbeWorkload(MakeServe(), {}, tracer);
  if (!has("nn.measure")) ProbeWorkload(MakeCalibrate(), {0, 1}, tracer);

  std::map<std::string, Tracer::Totals> spans = tracer->Summarize();
  auto mean_self = [&spans](const char* name, double scale) {
    const Tracer::Totals& t = spans[name];
    return t.spans > 0 ? scale * t.self_s / static_cast<double>(t.spans)
                       : 0.0;
  };
  std::vector<LayerMetric> out = {
      {"core.comm_seconds_us", mean_self("core.comm_seconds", 1e6), "us"},
      {"core.expected_completion_ms",
       mean_self("core.expected_completion", 1e3), "ms"},
      {"core.planner_us", mean_self("core.planner", 1e6), "us"},
      {"api.run_self_ms", mean_self("api.run_replayed", 1e3), "ms"},
  };
  const Tracer::Totals& ring = spans["sim.ring"];
  const Tracer::Totals& ps = spans["sim.ps"];
  out.push_back({"sim.events_per_s",
                 (ring.count + ps.count) / (ring.self_s + ps.self_s), "1/s"});

  // Per-event cost at 1k and 10k nodes, ~2M events each.
  const sim::RingScaleConfig ring_1k = Ring(1000, 2000);
  const sim::RingScaleConfig ring_10k = Ring(10000, 200);
  const double events_1k = static_cast<double>(
      Must(sim::SimulateRingAllReduceAtScale(ring_1k), "ring 1k")
          .engine.events_executed);
  const double events_10k = static_cast<double>(
      Must(sim::SimulateRingAllReduceAtScale(ring_10k), "ring 10k")
          .engine.events_executed);
  const double serial_s = TimeMedian([&] {
    Must(sim::SimulateRingAllReduceAtScale(ring_10k), "ring 10k");
  });
  out.push_back({"sim.ns_per_event_1k",
                 1e9 *
                     TimeMedian([&] {
                       Must(sim::SimulateRingAllReduceAtScale(ring_1k),
                            "ring 1k");
                     }) /
                     events_1k,
                 "ns"});
  out.push_back({"sim.ns_per_event_10k", 1e9 * serial_s / events_10k, "ns"});

  // Exact engine and fault counts of one fixed faulty parameter-server run.
  sim::PsScaleConfig faulty;
  faulty.num_workers = 10000;
  faulty.steps_per_worker = 40;
  faulty.bits = 8 * 1024 * 1024;
  faulty.link = ClusterLink();
  faulty.compute_seconds = 5e-3;
  faulty.straggler_sigma = 0.3;
  faulty.seed = 11;
  faulty.faults.mtbf_seconds = 3.0;
  faulty.faults.mttr_seconds = 0.02;
  faulty.faults.straggler_sigma = 0.3;
  faulty.faults.checkpoint_interval_s = 0.02;
  faulty.faults.checkpoint_cost_s = 0.002;
  const sim::ScaleStats counts =
      Must(sim::SimulateParameterServerAtScale(faulty), "faulty ps");
  out.push_back({"sim.events", static_cast<double>(counts.engine.events_executed),
                 "count"});
  out.push_back({"sim.windows", static_cast<double>(counts.engine.windows),
                 "count"});
  out.push_back({"sim.messages",
                 static_cast<double>(counts.engine.messages_delivered),
                 "count"});
  out.push_back({"sim.fault_crashes",
                 static_cast<double>(counts.faults.crashes), "count"});
  out.push_back({"sim.fault_retries",
                 static_cast<double>(counts.faults.retries), "count"});

  // Two shards against serial on the same 10k-node ring, same process.
  {
    ThreadPool pool(2);
    sim::RingScaleConfig sharded = ring_10k;
    sharded.exec.num_shards = 2;
    sharded.exec.pool = &pool;
    const double sharded_s = TimeMedian([&] {
      Must(sim::SimulateRingAllReduceAtScale(sharded), "ring 10k x2");
    });
    out.push_back({"sim.shard2_speedup", serial_s / sharded_s, "x"});
  }

  // Serving DES cost per request at 100 and 1000 replicas.
  serve::ServingSimStats fleet_stats;
  for (int replicas : {100, 1000}) {
    const serve::ServingSimConfig fleet = Fleet(replicas);
    const double requests =
        static_cast<double>(fleet.num_requests + fleet.warmup_requests);
    const double seconds = TimeMedian([&] {
      fleet_stats = Must(serve::SimulateServing(fleet), "fleet");
    });
    out.push_back({replicas == 100 ? "serve.ns_per_request_r100"
                                   : "serve.ns_per_request_r1000",
                   1e9 * seconds / requests, "ns"});
  }
  out.push_back({"serve.cache_hit_ratio",
                 static_cast<double>(fleet_stats.cache_hits) /
                     static_cast<double>(fleet_stats.cache_hits +
                                         fleet_stats.cache_misses),
                 "ratio"});
  out.push_back({"serve.mean_batch", fleet_stats.mean_batch, "requests"});
  out.push_back(
      {"serve.calibrate_ms", mean_self("serve.calibrate", 1e3), "ms"});
  out.push_back({"nn.measure_ms", mean_self("nn.measure", 1e3), "ms"});

  // nn::Gemm at the trainer's largest shape: the full batch through the
  // first layer of the 1/20-width Fig. 2 tower.
  {
    const int64_t m = 128, k = 784;
    const int64_t n = api::Fig2TowerLayerSizes(0.05)[1];
    std::vector<double> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n)),
        c(static_cast<size_t>(m * n));
    for (size_t i = 0; i < a.size(); ++i) a[i] = 1e-3 * static_cast<double>(i % 97);
    for (size_t i = 0; i < b.size(); ++i) b[i] = 1e-3 * static_cast<double>(i % 89);
    const double seconds = TimeMedian(
        [&] {
          nn::kernels::Gemm(nn::kernels::Trans::kNo, nn::kernels::Trans::kNo,
                            m, n, k, 1.0, a.data(), k, b.data(), n, 0.0,
                            c.data(), n);
        },
        7);
    out.push_back({"nn.gemm_gflops",
                   2.0 * static_cast<double>(m * n * k) / seconds * 1e-9,
                   "GFLOP/s"});
  }
  out.push_back({"bp.measure_ms", mean_self("bp.measure", 1e3), "ms"});
  return out;
}

}  // namespace dmlbench
