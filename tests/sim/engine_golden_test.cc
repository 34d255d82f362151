// Engine goldens: every consumer of sim::Engine is pinned to exact bit
// patterns (EXPECT_EQ on std::bit_cast'd doubles, never EXPECT_NEAR). The
// values were captured while the closure-based simulator still ran beside
// the engine and both produced them bit for bit, so any drift here means a
// change altered arithmetic or the (time, schedule-order) event order —
// exactly the regression class these tests exist to catch.

#include <bit>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "api/analysis.h"
#include "api/presets.h"
#include "api/scenario.h"
#include "core/communication_model.h"
#include "core/network.h"
#include "core/queueing.h"
#include "core/topology.h"
#include "sim/collectives.h"
#include "sim/network_sim.h"
#include "sim/param_server.h"
#include "sim/workloads.h"

namespace dmlscale::sim {
namespace {

/// One pinned value: the node count and the result's IEEE-754 bit pattern.
struct Pin {
  int n;
  uint64_t bits;
};

double FromBits(uint64_t bits) { return std::bit_cast<double>(bits); }

core::LinkSpec Gigabit() {
  return core::LinkSpec{.bandwidth_bps = 1e9, .latency_s = 1e-5};
}

TEST(EngineGoldenTest, TreeReduceMatchesPinnedBits) {
  OverheadModel overhead;
  overhead.serialize_s_per_bit = 1e-10;
  const Pin pins[] = {{1, UINT64_C(0x0000000000000000)},
                      {2, UINT64_C(0x3fe23d859c8c9321)},
                      {3, UINT64_C(0x3ff1eb9a176ddacf)},
                      {7, UINT64_C(0x4001d71f36262cba)},
                      {16, UINT64_C(0x400b1ed7c6fbd273)},
                      {33, UINT64_C(0x401270b8cfbfc654)},
                      {100, UINT64_C(0x401d0014f8b588e5)}};
  for (const Pin& pin : pins) {
    std::vector<double> ready(static_cast<size_t>(pin.n));
    for (int i = 0; i < pin.n; ++i) {
      ready[static_cast<size_t>(i)] = 0.01 * i * ((i % 3) + 1);
    }
    auto t = SimulateTreeReduce(ready, 5e8, Gigabit(), overhead);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.value(), FromBits(pin.bits)) << "n=" << pin.n;
  }
}

TEST(EngineGoldenTest, TreeBroadcastMatchesPinnedBits) {
  const Pin pins[] = {{1, UINT64_C(0x3fd0000000000000)},
                      {2, UINT64_C(0x3ff4000a7c5ac472)},
                      {5, UINT64_C(0x400a000fba8826ab)},
                      {8, UINT64_C(0x4011000a7c5ac472)},
                      {31, UINT64_C(0x4020800a7c5ac471)},
                      {64, UINT64_C(0x4024800d1b71758d)},
                      {200, UINT64_C(0x402a80110a137f37)}};
  for (const Pin& pin : pins) {
    auto t = SimulateTreeBroadcast(pin.n, 0.25, 1e9, Gigabit(),
                                   OverheadModel::None());
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.value(), FromBits(pin.bits)) << "n=" << pin.n;
  }
}

TEST(EngineGoldenTest, ParamServerMatchesPinnedBits) {
  ParamServerConfig config{.ops_per_update = 1e8,
                           .message_bits = 32e6,
                           .node = core::NodeSpec{.name = "u",
                                                  .peak_flops = 1e9,
                                                  .efficiency = 1.0},
                           .worker_link = Gigabit(),
                           .server_link = Gigabit(),
                           .overhead = OverheadModel::None(),
                           .target_updates = 150};
  // Stragglers draw from the rng in event order, so these pins also fix
  // the draw sequence.
  config.overhead.straggler_sigma = 0.4;
  struct PsPin {
    int n;
    uint64_t updates_per_sec;
    uint64_t mean_staleness;
    uint64_t max_staleness;
    uint64_t server_utilization;
    int64_t completed_updates;
  };
  const PsPin pins[] = {
      {1, UINT64_C(0x4016db20494e4dd1), UINT64_C(0x0000000000000000),
       UINT64_C(0x0000000000000000), UINT64_C(0x3fd75394d02e4635), 150},
      {2, UINT64_C(0x4025156f859ab729), UINT64_C(0x3fefc9bf937f26fe),
       UINT64_C(0x4000000000000000), UINT64_C(0x3fe5725f21d80a03), 151},
      {7, UINT64_C(0x402fb3e92a75aaf7), UINT64_C(0x4017762762762762),
       UINT64_C(0x4020000000000000), UINT64_C(0x3fefbc3c1cd9901f), 156},
      {16, UINT64_C(0x403052c0a754c7df), UINT64_C(0x402c8ba2e8ba2e8c),
       UINT64_C(0x4033000000000000), UINT64_C(0x3fefcf25d3d33fc9), 165}};
  for (const PsPin& pin : pins) {
    Pcg32 rng(21);
    auto stats = SimulateParameterServer(config, pin.n, &rng);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->updates_per_sec, FromBits(pin.updates_per_sec))
        << "n=" << pin.n;
    EXPECT_EQ(stats->mean_staleness, FromBits(pin.mean_staleness))
        << "n=" << pin.n;
    EXPECT_EQ(stats->max_staleness, FromBits(pin.max_staleness))
        << "n=" << pin.n;
    EXPECT_EQ(stats->server_utilization, FromBits(pin.server_utilization))
        << "n=" << pin.n;
    EXPECT_EQ(stats->completed_updates, pin.completed_updates)
        << "n=" << pin.n;
  }
}

TEST(EngineGoldenTest, NetworkRoundMatchesPinnedBits) {
  const core::LinkSpec edge{.bandwidth_bps = 0.94e9, .latency_s = 37e-6};
  core::NetworkSpec network{std::make_shared<core::FatTreeTopology>(4, 4.0),
                            std::make_shared<core::Mm1QueueModel>(0.3)};
  core::ShuffleComm shuffle(64.0 * 12e6, edge, network);
  const Pin pins[] = {{2, UINT64_C(0x3fd2adf43d1a0695)},
                      {8, UINT64_C(0x3fd62f8e37490f80)},
                      {32, UINT64_C(0x3fce5d8e096a6ffd)}};
  for (const Pin& pin : pins) {
    const double t =
        SimulatePatternSeconds(shuffle.Traffic(pin.n), pin.n, edge, network);
    EXPECT_EQ(t, FromBits(pin.bits)) << "n=" << pin.n;
  }
}

TEST(EngineGoldenTest, StreamedCommSecondsMatchesMaterializedPattern) {
  const core::LinkSpec edge{.bandwidth_bps = 1e9, .latency_s = 5e-5};
  core::NetworkSpec network{std::make_shared<core::FatTreeTopology>(4, 2.0),
                            std::make_shared<core::Mm1QueueModel>(0.2)};
  core::RingAllReduceComm ring(32e7, edge, network);
  const Pin pins[] = {{2, UINT64_C(0x3fd99ce075f6fd22)},
                      {9, UINT64_C(0x3fe6dba2f9ac885b)},
                      {24, UINT64_C(0x3fe8d3e654ec79d2)}};
  for (const Pin& pin : pins) {
    const double streamed = SimulateCommSeconds(ring, pin.n, edge, network);
    const double materialized =
        SimulatePatternSeconds(ring.Traffic(pin.n), pin.n, edge, network);
    EXPECT_EQ(streamed, materialized) << "n=" << pin.n;
    EXPECT_EQ(streamed, FromBits(pin.bits)) << "n=" << pin.n;
  }
}

TEST(EngineGoldenTest, RingForEachRoundSumsLikeSeconds) {
  // The streaming override must visit exactly the rounds Traffic()
  // materializes: same count, same per-round pricing sum.
  const core::LinkSpec edge{.bandwidth_bps = 1e9};
  core::RingAllReduceComm ring(16e6, edge);
  for (int n : {1, 2, 5, 17}) {
    int rounds = 0;
    double repeat_sum = 0.0;
    ring.ForEachRound(n, [&](const core::TrafficRound& round, int times) {
      rounds += times;
      for (int i = 0; i < times; ++i) repeat_sum += round.repeat;
      if (n > 1) {
        EXPECT_EQ(round.flows.size(), static_cast<size_t>(n));
      }
    });
    core::TrafficPattern pattern = ring.Traffic(n);
    double pattern_repeat = 0.0;
    for (const core::TrafficRound& round : pattern.rounds) {
      pattern_repeat += round.repeat;
    }
    EXPECT_EQ(repeat_sum, pattern_repeat) << "n=" << n;
    if (n > 1) {
      EXPECT_EQ(rounds, 2 * (n - 1)) << "n=" << n;
    }
  }
}

TEST(EngineGoldenTest, GenericSuperstepMatchesPinnedBits) {
  SuperstepSimConfig config;
  config.compute_seconds = [](int n) { return 50.0 / n; };
  config.comm_seconds = [](int n) { return 0.02 * n; };
  config.message_bits = 2e6;
  config.overhead.sched_fixed_s = 0.001;
  config.overhead.sched_per_worker_s = 2e-5;
  config.overhead.serialize_s_per_bit = 1e-9;
  config.overhead.straggler_sigma = 0.25;
  config.supersteps = 5;
  const Pin pins[] = {{1, UINT64_C(0x4048ef8674bff0de)},
                      {3, UINT64_C(0x40351bbb2eae0a22)},
                      {12, UINT64_C(0x401b232c2718bcaa)},
                      {40, UINT64_C(0x40073e25d9843392)}};
  for (const Pin& pin : pins) {
    Pcg32 rng(77);
    auto t = SimulateGenericSuperstep(config, pin.n, &rng);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.value(), FromBits(pin.bits)) << "n=" << pin.n;
  }
}

TEST(EngineGoldenTest, AnalysisReportSimulatedCurveMatchesPinnedBits) {
  // The full front door, simulation and contended DES pricing included. The
  // report carries the simulated superstep times as speedups over the n=1
  // run, so pinning every point (and the MAPE derived from them) pins the
  // simulated curve.
  api::ModelParams comm;
  comm.Set("bits", 4e8)
      .Set("topology", "fat-tree")
      .Set("oversubscription", 4.0)
      .Set("queue", "mm1")
      .Set("load", 0.25);
  auto scenario = api::Scenario::Builder()
                      .Name("golden")
                      .Hardware(api::presets::Fig1Cluster(12))
                      .Compute("perfectly-parallel", {{"total_flops", 9e10}})
                      .Comm("ring-allreduce", comm)
                      .Build();
  ASSERT_TRUE(scenario.ok());

  api::AnalysisOptions options;
  options.simulate = true;
  options.sim_supersteps = 2;
  options.overhead.straggler_sigma = 0.3;
  options.overhead.sched_fixed_s = 0.005;
  auto report = api::Analysis::Run(*scenario, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->contended);
  ASSERT_TRUE(report->simulated.has_value());

  const Pin pins[] = {{1, UINT64_C(0x3ff0000000000000)},
                      {2, UINT64_C(0x3ffb2d8f7e2239c6)},
                      {3, UINT64_C(0x40052d8e700bad01)},
                      {4, UINT64_C(0x40099ad123c0c00f)},
                      {5, UINT64_C(0x4006bd451ec17241)},
                      {6, UINT64_C(0x400e49869cfb5aa6)},
                      {7, UINT64_C(0x400e18a81bba5de8)},
                      {8, UINT64_C(0x4016d8ef8a3f09a0)},
                      {9, UINT64_C(0x401673b16f54968d)},
                      {10, UINT64_C(0x401ac06479b0b9f1)},
                      {11, UINT64_C(0x4018141f5df1527a)},
                      {12, UINT64_C(0x401c3589be05289c)}};
  ASSERT_EQ(report->simulated->nodes.size(), std::size(pins));
  for (const Pin& pin : pins) {
    auto speedup = report->simulated->At(pin.n);
    ASSERT_TRUE(speedup.ok()) << "n=" << pin.n;
    EXPECT_EQ(speedup.value(), FromBits(pin.bits)) << "n=" << pin.n;
  }
  ASSERT_TRUE(report->model_vs_sim_mape.has_value());
  EXPECT_EQ(*report->model_vs_sim_mape,
            FromBits(UINT64_C(0x40435388ea7736b9)));
}

}  // namespace
}  // namespace dmlscale::sim
