// The serving DES: bit-pinned outputs for both dispatch policies, the
// shard-count-invariance contract (1/2/4/8-shard runs EXPECT_EQ
// bit-identical), the Erlang-C cross-check (batchless Poisson grids agree
// with AnalyzeMmk within a 15% MAPE budget), the batching and cache
// mechanics, and a DES-backed Q3 answer matching the analytic one.

#include "serve/serving_sim.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/planner.h"
#include "core/queueing.h"
#include "serve/cluster.h"

namespace dmlscale::serve {
namespace {

constexpr int kShardCounts[] = {2, 4, 8};

// A spec that exercises every moving part: bursty arrivals, a real batcher
// window, a model-sharded replica pool, and a cache tier.
ServingSpec FullSpec() {
  ServingSpec spec;
  spec.arrivals.kind = ArrivalKind::kMmpp;
  spec.arrivals.rate_qps = 2000.0;
  spec.arrivals.burst_rate_multiplier = 4.0;
  spec.arrivals.burst_fraction = 0.1;
  spec.arrivals.burst_mean_duration_s = 0.5;
  spec.batcher.max_batch = 8;
  spec.batcher.max_delay_s = 0.002;
  spec.replica.service.fixed_s = 0.0005;
  spec.replica.service.per_item_s = 0.0008;
  spec.replica.shards = 2;
  spec.replica.rejoin_bits = 1e6;
  spec.replica.link = core::LinkSpec{.bandwidth_bps = 1e10,
                                     .latency_s = 1e-6};
  spec.cache.policy = CachePolicy::kLru;
  spec.cache.hit_rate = 0.3;
  spec.cache.hit_latency_s = 100e-6;
  spec.replicas = 5;
  return spec;
}

ServingSimConfig FullConfig() {
  ServingSimConfig config;
  config.spec = FullSpec();
  config.num_requests = 4000;
  config.warmup_requests = 500;
  config.seed = 21;
  return config;
}

TEST(ServingSimTest, ValidatesItsConfig) {
  ServingSimConfig config = FullConfig();
  config.num_requests = 0;
  EXPECT_EQ(SimulateServing(config).status().code(),
            StatusCode::kInvalidArgument);
  config = FullConfig();
  config.wire_s = 0.0;
  EXPECT_EQ(SimulateServing(config).status().code(),
            StatusCode::kInvalidArgument);
  config = FullConfig();
  config.spec.replicas = 0;
  EXPECT_EQ(SimulateServing(config).status().code(),
            StatusCode::kInvalidArgument);
  // replicas + 1 engine nodes would overflow int; rejected before any
  // per-replica state is allocated.
  config = FullConfig();
  config.spec.replicas = std::numeric_limits<int>::max();
  EXPECT_EQ(SimulateServing(config).status().code(),
            StatusCode::kInvalidArgument);
}

// FNV-1a over 64-bit words: one pin for a whole vector of bins or of
// utilization bit patterns.
uint64_t Fnv1a(const std::vector<uint64_t>& words) {
  uint64_t hash = UINT64_C(0xcbf29ce484222325);
  for (uint64_t word : words) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xFF;
      hash *= UINT64_C(0x100000001b3);
    }
  }
  return hash;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

/// One pinned run: every ServingSimStats output as an exact bit pattern
/// (doubles through std::bit_cast), plus FNV-1a digests of the latency
/// histogram bins and of the per-replica utilizations.
struct ServingPin {
  const char* name;
  ServingSimConfig config;
  uint64_t p50, p95, p99, mean_latency, duration, offered_qps,
      completed_qps, mean_batch;
  uint64_t cache_hits, cache_misses;
  int64_t batches, events_executed;
  uint64_t bins_digest, utilization_digest;
};

// FullSpec over `replicas`, offered `qps_per_replica` each.
ServingSimConfig LoadedConfig(int replicas, double qps_per_replica,
                              int64_t requests, uint64_t seed) {
  ServingSimConfig config;
  config.spec = FullSpec();
  config.spec.replicas = replicas;
  config.spec.arrivals.rate_qps = qps_per_replica * replicas;
  config.num_requests = requests;
  config.warmup_requests = requests / 10;
  config.seed = seed;
  return config;
}

// rho = 0.05 over 7 batchless, cacheless replicas: the fleet is nearly
// always idle, so outstanding-count ties decide almost every dispatch.
ServingSimConfig LightConfig() {
  ServingSimConfig config;
  config.spec.arrivals.rate_qps = 350.0;
  config.spec.replica.service.per_item_s = 0.001;
  config.spec.replicas = 7;
  config.num_requests = 3000;
  config.warmup_requests = 300;
  config.seed = 3;
  return config;
}

ServingSimConfig RoundRobinConfig() {
  ServingSimConfig config = LoadedConfig(7, 1200.0, 4000, 23);
  config.spec.dispatch = DispatchPolicy::kRoundRobin;
  return config;
}

// The pins were captured from the O(k) rotated strict-min scan that
// least-outstanding dispatch used before the indexed min-tree replaced it;
// any drift means dispatch chose a different replica somewhere.
TEST(ServingSimTest, OutputsMatchPinnedBits) {
  const ServingPin pins[] = {
      {"lo_k1", LoadedConfig(1, 400.0, 3000, 41),
       UINT64_C(0x3f633434431393f5), UINT64_C(0x3f816e6a2313ad63),
       UINT64_C(0x3f8cedc3ccaea159), UINT64_C(0x3f6749c5dc91d8f4),
       UINT64_C(0x40150c07fb0aed7c), UINT64_C(0x40839b7109fc318b),
       UINT64_C(0x4081d13888023d88), UINT64_C(0x4002620000000000),
       947u, 2353u, 1024, 8587,
       UINT64_C(0xbd9ea96c9154ded6), UINT64_C(0xd2d544fcf572c899)},
      {"lo_k7", LoadedConfig(7, 1200.0, 4000, 43),
       UINT64_C(0x3f633434431393f5), UINT64_C(0x3f7a722cdfb76a9d),
       UINT64_C(0x3f840389985ae9d7), UINT64_C(0x3f63e5a377fde000),
       UINT64_C(0x3fe5d7fb4f5bc01c), UINT64_C(0x40b954e7353c8fdb),
       UINT64_C(0x40b6e3d1a4315dde), UINT64_C(0x4001ce679123bce6),
       1275u, 3125u, 1404, 11619,
       UINT64_C(0x08cff84541518001), UINT64_C(0xc17d745533b4adf8)},
      {"lo_k100", LoadedConfig(100, 1200.0, 8000, 47),
       UINT64_C(0x3f641be5d0733c45), UINT64_C(0x3f781e7926c0e520),
       UINT64_C(0x3f816e6a2313ad63), UINT64_C(0x3f63ab51752e2278),
       UINT64_C(0x3fbae6ce9142f32c), UINT64_C(0x40f66927eac918cb),
       UINT64_C(0x40f296154a6411f7), UINT64_C(0x4001383312f91383),
       2672u, 6128u, 2847, 23373,
       UINT64_C(0x9d1121ffcc9c2be5), UINT64_C(0x06bfea7a6534611f)},
      {"lo_light_ties", LightConfig(),
       UINT64_C(0x3f4aa2843df78008), UINT64_C(0x3f6950d1ba29f9e7),
       UINT64_C(0x3f73288ef59a5b20), UINT64_C(0x3f52474ab1cc9c8c),
       UINT64_C(0x4022b38471c9ab63), UINT64_C(0x40760f92a2350d31),
       UINT64_C(0x40740d597ad93deb), UINT64_C(0x3ff0000000000000),
       0u, 0u, 3300, 13200,
       UINT64_C(0xe8db12a0447c5d01), UINT64_C(0x5f48465e8038e651)},
      {"rr_k7", RoundRobinConfig(),
       UINT64_C(0x3f6183a1a824dd00), UINT64_C(0x3f7a722cdfb76a9d),
       UINT64_C(0x3f840389985ae9d7), UINT64_C(0x3f62bc28698dc532),
       UINT64_C(0x3fe6493a7e26c0e8), UINT64_C(0x40b8d60786b62325),
       UINT64_C(0x40b66f80e7d6343e), UINT64_C(0x3fff868508bf76ad),
       1344u, 3056u, 1551, 11912,
       UINT64_C(0x03e6cc52f15a009d), UINT64_C(0xc0333217ad02e5a7)},
  };
  for (const ServingPin& pin : pins) {
    Result<ServingSimStats> stats = SimulateServing(pin.config);
    ASSERT_TRUE(stats.ok()) << pin.name;
    std::vector<uint64_t> utilization;
    for (double u : stats->replica_utilization) utilization.push_back(Bits(u));
    EXPECT_EQ(Bits(stats->p50_s), pin.p50) << pin.name;
    EXPECT_EQ(Bits(stats->p95_s), pin.p95) << pin.name;
    EXPECT_EQ(Bits(stats->p99_s), pin.p99) << pin.name;
    EXPECT_EQ(Bits(stats->mean_latency_s), pin.mean_latency) << pin.name;
    EXPECT_EQ(Bits(stats->duration_s), pin.duration) << pin.name;
    EXPECT_EQ(Bits(stats->offered_qps), pin.offered_qps) << pin.name;
    EXPECT_EQ(Bits(stats->completed_qps), pin.completed_qps) << pin.name;
    EXPECT_EQ(Bits(stats->mean_batch), pin.mean_batch) << pin.name;
    EXPECT_EQ(stats->cache_hits, pin.cache_hits) << pin.name;
    EXPECT_EQ(stats->cache_misses, pin.cache_misses) << pin.name;
    EXPECT_EQ(stats->batches, pin.batches) << pin.name;
    EXPECT_EQ(stats->engine.events_executed, pin.events_executed) << pin.name;
    EXPECT_EQ(Fnv1a(stats->latency.bins()), pin.bins_digest) << pin.name;
    EXPECT_EQ(Fnv1a(utilization), pin.utilization_digest) << pin.name;
  }
}

TEST(ServingSimTest, ResultIsShardCountInvariant) {
  Result<ServingSimStats> serial = SimulateServing(FullConfig());
  ASSERT_TRUE(serial.ok());
  EXPECT_GT(serial->mean_latency_s, 0.0);
  for (int shards : kShardCounts) {
    ThreadPool pool(static_cast<size_t>(shards));
    ServingSimConfig config = FullConfig();
    config.exec.num_shards = shards;
    config.exec.pool = &pool;
    Result<ServingSimStats> sharded = SimulateServing(config);
    ASSERT_TRUE(sharded.ok()) << "shards=" << shards;
    // Bit-identical, not approximately equal: every measured number and
    // every histogram bin.
    EXPECT_EQ(sharded->mean_latency_s, serial->mean_latency_s)
        << "shards=" << shards;
    EXPECT_EQ(sharded->p50_s, serial->p50_s);
    EXPECT_EQ(sharded->p95_s, serial->p95_s);
    EXPECT_EQ(sharded->p99_s, serial->p99_s);
    EXPECT_EQ(sharded->duration_s, serial->duration_s);
    EXPECT_EQ(sharded->offered_qps, serial->offered_qps);
    EXPECT_EQ(sharded->completed_qps, serial->completed_qps);
    EXPECT_EQ(sharded->cache_hits, serial->cache_hits);
    EXPECT_EQ(sharded->cache_misses, serial->cache_misses);
    EXPECT_EQ(sharded->batches, serial->batches);
    EXPECT_EQ(sharded->mean_batch, serial->mean_batch);
    EXPECT_EQ(sharded->replica_utilization, serial->replica_utilization);
    EXPECT_EQ(sharded->latency.bins(), serial->latency.bins());
    EXPECT_EQ(sharded->engine.events_executed, serial->engine.events_executed);
  }
}

TEST(ServingSimTest, BatchlessPoissonGridMatchesErlangCWithin15Percent) {
  // The cross-check the whole subsystem hangs on: with no batching and no
  // cache, exponential service draws make the sim an M/M/k realization,
  // and its mean latency must track AnalyzeMmk's sojourn time (plus the
  // round-trip wire the analytic form does not price). The per-point
  // budget is wider than the 15% MAPE bar because least-outstanding
  // dispatch commits each request at arrival: unlike the M/M/k shared
  // queue, a committed request cannot jockey to whichever server frees
  // first, which inflates the wait by ~10-15% at rho = 0.8 (measured to
  // persist at 400k requests — physics, not noise).
  const double service_s = 0.001;
  double ape_sum = 0.0;
  int points = 0;
  for (int k : {1, 2, 4}) {
    for (double utilization : {0.3, 0.6, 0.8}) {
      ServingSpec spec;
      spec.arrivals.rate_qps = utilization * k / service_s;
      spec.replica.service.per_item_s = service_s;
      spec.replicas = k;

      ServingSimConfig config;
      config.spec = spec;
      config.num_requests = 60000;
      config.warmup_requests = 6000;
      config.seed = 97;
      Result<ServingSimStats> stats = SimulateServing(config);
      ASSERT_TRUE(stats.ok()) << "k=" << k << " rho=" << utilization;

      Result<core::MmkMetrics> mmk =
          core::AnalyzeMmk(k, spec.arrivals.rate_qps, 1.0 / service_s);
      ASSERT_TRUE(mmk.ok());
      double analytic = mmk->mean_sojourn_s + 2.0 * config.wire_s;
      double ape =
          std::abs(analytic - stats->mean_latency_s) / stats->mean_latency_s;
      EXPECT_LT(ape, 0.20) << "k=" << k << " rho=" << utilization
                           << " analytic=" << analytic
                           << " sim=" << stats->mean_latency_s;
      ape_sum += ape;
      ++points;
    }
  }
  EXPECT_LT(ape_sum / points, 0.15);  // the MAPE budget from the roadmap
}

TEST(ServingSimTest, RoundRobinPaysTheNoPoolingPenalty) {
  // Blind rotation splits the Poisson stream into k independent E_k/M/1
  // queues: a request can wait at one replica while another idles, so its
  // latency strictly dominates least-outstanding dispatch under load.
  ServingSimConfig config;
  config.spec.arrivals.rate_qps = 3200.0;  // rho = 0.8 over 4 replicas
  config.spec.replica.service.per_item_s = 0.001;
  config.spec.replicas = 4;
  config.num_requests = 20000;
  config.warmup_requests = 2000;
  config.seed = 11;
  Result<ServingSimStats> pooled = SimulateServing(config);
  ASSERT_TRUE(pooled.ok());
  config.spec.dispatch = DispatchPolicy::kRoundRobin;
  Result<ServingSimStats> split = SimulateServing(config);
  ASSERT_TRUE(split.ok());
  EXPECT_GT(split->mean_latency_s, 1.2 * pooled->mean_latency_s);
  EXPECT_GT(split->p99_s, pooled->p99_s);
}

TEST(ServingSimTest, DeterministicServiceRunsLighterTailedThanExponential) {
  ServingSimConfig config;
  config.spec.arrivals.rate_qps = 800.0;
  config.spec.replica.service.per_item_s = 0.001;
  config.num_requests = 20000;
  config.warmup_requests = 2000;
  config.seed = 13;
  Result<ServingSimStats> exponential = SimulateServing(config);
  ASSERT_TRUE(exponential.ok());
  config.exponential_service = false;
  Result<ServingSimStats> deterministic = SimulateServing(config);
  ASSERT_TRUE(deterministic.ok());
  // M/D/1 waits are about half of M/M/1's, and its p99 collapses.
  EXPECT_LT(deterministic->mean_latency_s, exponential->mean_latency_s);
  EXPECT_LT(deterministic->p99_s, exponential->p99_s);
}

TEST(ServingSimTest, BatcherFormsBatchesUnderLoad) {
  ServingSimConfig config;
  config.spec.arrivals.rate_qps = 3000.0;
  config.spec.batcher.max_batch = 16;
  config.spec.batcher.max_delay_s = 0.004;
  config.spec.replica.service.fixed_s = 0.002;
  config.spec.replica.service.per_item_s = 0.0002;
  config.num_requests = 5000;
  config.seed = 5;
  Result<ServingSimStats> stats = SimulateServing(config);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->mean_batch, 1.5);
  EXPECT_LT(stats->batches, config.num_requests);
  EXPECT_GT(stats->mean_replica_utilization, 0.0);
}

TEST(ServingSimTest, CacheHitsShortCircuitAtTheHitLatency) {
  ServingSimConfig config;
  config.spec.arrivals.rate_qps = 500.0;
  config.spec.replica.service.per_item_s = 0.001;
  config.spec.cache.policy = CachePolicy::kLfu;
  config.spec.cache.hit_rate = 0.6;
  config.spec.cache.hit_latency_s = 50e-6;
  config.num_requests = 10000;
  config.seed = 8;
  Result<ServingSimStats> cached = SimulateServing(config);
  ASSERT_TRUE(cached.ok());
  // Every request flips the coin; the achieved rate tracks the declared one.
  EXPECT_EQ(cached->cache_hits + cached->cache_misses,
            static_cast<uint64_t>(config.num_requests));
  double achieved = static_cast<double>(cached->cache_hits) /
                    static_cast<double>(config.num_requests);
  EXPECT_NEAR(achieved, 0.6, 0.03);
  // With 60% of requests answered in 50us, the median IS the hit path.
  EXPECT_LT(cached->p50_s, 0.0002);

  config.spec.cache = CacheSpec{};
  Result<ServingSimStats> uncached = SimulateServing(config);
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(uncached->cache_hits, 0u);
  EXPECT_GT(uncached->mean_latency_s, cached->mean_latency_s);
}

TEST(ServingSimTest, DesBackedQ3AgreesWithTheAnalyticAnswer) {
  // Q3 both ways: plan replicas for 3000 qps under a p50 SLO analytically,
  // then hand the planner the DES as its latency oracle and require the
  // same answer — the "planner does not care which backend" contract.
  ServingSpec spec;
  spec.arrivals.rate_qps = 3000.0;
  spec.replica.service.per_item_s = 0.001;
  const double target_qps = 3000.0;
  const double slo_s = 0.0025;

  core::ServingLatencyFn analytic_fn = [&spec](int replicas, double qps) {
    ServingSpec point = spec;
    point.quantile = 0.5;
    return AnalyticQuantileLatency(point, replicas, qps);
  };
  Result<int> analytic = core::CapacityPlanner::ReplicasForQps(
      analytic_fn, target_qps, slo_s, 64);
  ASSERT_TRUE(analytic.ok());
  EXPECT_GT(analytic.value(), 3);  // 3 replicas saturate at 3000 qps

  core::ServingLatencyFn des_fn =
      [&spec](int replicas, double qps) -> Result<double> {
    ServingSimConfig config;
    config.spec = spec;
    config.spec.replicas = replicas;
    config.spec.arrivals.rate_qps = qps;
    config.num_requests = 20000;
    config.warmup_requests = 2000;
    config.seed = 31;
    DMLSCALE_ASSIGN_OR_RETURN(ServingSimStats stats, SimulateServing(config));
    return stats.p50_s;
  };
  Result<int> des = core::CapacityPlanner::ReplicasForQps(
      des_fn, target_qps, slo_s, 64);
  ASSERT_TRUE(des.ok());
  EXPECT_EQ(des.value(), analytic.value());
}

}  // namespace
}  // namespace dmlscale::serve
