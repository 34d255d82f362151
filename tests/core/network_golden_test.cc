// Golden equivalence for the network layer refactor: on the ideal network
// (the default NetworkSpec, and an EXPLICIT ideal-switch + queue-free spec)
// every CommunicationModel must reproduce the paper's closed forms
// BIT-FOR-BIT — EXPECT_EQ on doubles, no tolerance. The legacy expressions
// are restated here by hand, so a drive-by "simplification" of a closed form
// that changes even the rounding of the last ulp fails this suite.

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "core/communication_model.h"
#include "core/network.h"
#include "core/queueing.h"
#include "core/topology.h"

namespace dmlscale::core {
namespace {

// A deliberately awkward link so no term degenerates: non-round bandwidth
// and a non-zero latency exercise every addend of every closed form.
LinkSpec GoldenLink() {
  return LinkSpec{.bandwidth_bps = 0.94e9, .latency_s = 37e-6};
}

// Node counts spanning [1, 4096]: powers of two, their neighbors, primes,
// and perfect squares (two-wave's CeilSqrt boundary).
const std::vector<int>& SampleNodes() {
  static const std::vector<int> nodes = {
      1,  2,   3,   4,    5,    7,    8,    9,   15,   16,  17,
      25, 31,  32,  33,   63,   64,   65,   100, 127,  128, 129,
      255, 256, 257, 1000, 1023, 1024, 1025, 2048, 4095, 4096};
  return nodes;
}

struct GoldenCase {
  std::string name;
  std::unique_ptr<CommunicationModel> model;     // default (ideal) network
  std::unique_ptr<CommunicationModel> explicit_ideal;
  std::function<double(int)> legacy;             // hand-written closed form
};

std::vector<GoldenCase> GoldenCases() {
  const LinkSpec link = GoldenLink();
  const double B = link.bandwidth_bps;
  const double L = link.latency_s;
  const double bits = 64.0 * 12e6;
  // Explicitly spelled-out ideal network: must price identically to the
  // default-constructed one (nullptr members).
  const NetworkSpec ideal{std::make_shared<IdealSwitchTopology>(),
                          std::make_shared<QueueFreeModel>()};

  std::vector<GoldenCase> cases;
  cases.push_back({"shared-memory", std::make_unique<SharedMemoryComm>(),
                   std::make_unique<SharedMemoryComm>(),
                   [](int) { return 0.0; }});
  cases.push_back({"linear", std::make_unique<LinearComm>(bits, link),
                   std::make_unique<LinearComm>(bits, link, ideal),
                   [=](int n) { return bits * n / B + L * n; }});
  cases.push_back({"fixed-volume", std::make_unique<FixedVolumeComm>(bits, link),
                   std::make_unique<FixedVolumeComm>(bits, link, ideal),
                   [=](int) { return bits / B + L; }});
  cases.push_back(
      {"tree", std::make_unique<TreeComm>(bits, link, 2.0),
       std::make_unique<TreeComm>(bits, link, 2.0, ideal), [=](int n) {
         double rounds = static_cast<double>(CeilLog2(uint64_t(n)));
         return 2.0 * rounds * (bits / B + L);
       }});
  cases.push_back(
      {"torrent-broadcast", std::make_unique<TorrentBroadcastComm>(bits, link),
       std::make_unique<TorrentBroadcastComm>(bits, link, ideal), [=](int n) {
         return (bits / B) * std::log2(double(n)) + L * std::log2(double(n));
       }});
  cases.push_back(
      {"two-wave", std::make_unique<TwoWaveAggregationComm>(bits, link),
       std::make_unique<TwoWaveAggregationComm>(bits, link, ideal),
       [=](int n) {
         double waves = 2.0 * static_cast<double>(CeilSqrt(uint64_t(n)));
         return waves * (bits / B + L);
       }});
  cases.push_back(
      {"ring-allreduce", std::make_unique<RingAllReduceComm>(bits, link),
       std::make_unique<RingAllReduceComm>(bits, link, ideal), [=](int n) {
         double dn = n;
         return 2.0 * (bits / B) * (dn - 1.0) / dn + 2.0 * (dn - 1.0) * L;
       }});
  cases.push_back(
      {"recursive-doubling", std::make_unique<RecursiveDoublingComm>(bits, link),
       std::make_unique<RecursiveDoublingComm>(bits, link, ideal), [=](int n) {
         double rounds = static_cast<double>(CeilLog2(uint64_t(n)));
         return rounds * (bits / B + L);
       }});
  cases.push_back(
      {"shuffle", std::make_unique<ShuffleComm>(bits, link),
       std::make_unique<ShuffleComm>(bits, link, ideal), [=](int n) {
         double dn = n;
         return ((bits / dn) * (dn - 1.0) / dn) / B + L;
       }});
  // Spark gradient descent = torrent broadcast + two-wave aggregation.
  cases.push_back(
      {"spark-gd",
       CompositeComm::Of(std::make_unique<TorrentBroadcastComm>(bits, link),
                         std::make_unique<TwoWaveAggregationComm>(bits, link)),
       CompositeComm::Of(
           std::make_unique<TorrentBroadcastComm>(bits, link, ideal),
           std::make_unique<TwoWaveAggregationComm>(bits, link, ideal)),
       [=](int n) {
         double torrent =
             (bits / B) * std::log2(double(n)) + L * std::log2(double(n));
         double waves = 2.0 * static_cast<double>(CeilSqrt(uint64_t(n)));
         return torrent + waves * (bits / B + L);
       }});
  return cases;
}

TEST(NetworkGoldenTest, DefaultNetworkMatchesLegacyClosedFormsBitwise) {
  for (const GoldenCase& c : GoldenCases()) {
    for (int n : SampleNodes()) {
      // n == 1 is the universal "nothing to communicate" case.
      double expected = n == 1 ? 0.0 : c.legacy(n);
      EXPECT_EQ(c.model->Seconds(n), expected) << c.name << " n=" << n;
    }
  }
}

TEST(NetworkGoldenTest, ExplicitIdealNetworkIsBitIdenticalToDefault) {
  for (const GoldenCase& c : GoldenCases()) {
    EXPECT_TRUE(c.explicit_ideal->network().Ideal()) << c.name;
    EXPECT_EQ(c.explicit_ideal->label(), c.explicit_ideal->name()) << c.name;
    for (int n : SampleNodes()) {
      EXPECT_EQ(c.explicit_ideal->Seconds(n), c.model->Seconds(n))
          << c.name << " n=" << n;
    }
  }
}

TEST(NetworkGoldenTest, TrafficVolumeMatchesClosedFormIntuition) {
  const LinkSpec link = GoldenLink();
  const double bits = 1e6;
  // Ring all-reduce moves 2(n-1) rounds x n chunks of bits/n each.
  RingAllReduceComm ring(bits, link);
  for (int n : {2, 5, 16}) {
    EXPECT_NEAR(ring.Traffic(n).TotalBits(), 2.0 * (n - 1.0) * bits, 1e-6)
        << n;
  }
  // A binomial tree moves n-1 payloads per traversal.
  TreeComm tree(bits, link, /*rounds_factor=*/1.0);
  for (int n : {2, 7, 16, 33}) {
    EXPECT_NEAR(tree.Traffic(n).TotalBits(), (n - 1.0) * bits, 1e-6) << n;
  }
  EXPECT_TRUE(tree.Traffic(1).rounds.empty());
}

TEST(NetworkGoldenTest, ContendedFabricIsNeverFasterThanIdeal) {
  const LinkSpec link = GoldenLink();
  const double bits = 64.0 * 12e6;
  const NetworkSpec contended{std::make_shared<FatTreeTopology>(4, 4.0),
                              std::make_shared<Mm1QueueModel>(0.25)};
  std::vector<std::unique_ptr<CommunicationModel>> ideal_models;
  std::vector<std::unique_ptr<CommunicationModel>> contended_models;
  ideal_models.push_back(std::make_unique<LinearComm>(bits, link));
  contended_models.push_back(
      std::make_unique<LinearComm>(bits, link, contended));
  ideal_models.push_back(std::make_unique<TreeComm>(bits, link, 2.0));
  contended_models.push_back(
      std::make_unique<TreeComm>(bits, link, 2.0, contended));
  ideal_models.push_back(std::make_unique<RingAllReduceComm>(bits, link));
  contended_models.push_back(
      std::make_unique<RingAllReduceComm>(bits, link, contended));
  ideal_models.push_back(std::make_unique<ShuffleComm>(bits, link));
  contended_models.push_back(
      std::make_unique<ShuffleComm>(bits, link, contended));
  for (size_t i = 0; i < ideal_models.size(); ++i) {
    for (int n : {8, 16, 64, 256}) {
      EXPECT_GE(contended_models[i]->Seconds(n), ideal_models[i]->Seconds(n))
          << ideal_models[i]->name() << " n=" << n;
    }
  }
}

// The analytic contended ring price, pinned to the bits it had while
// Seconds still routed and priced each of the 2(n-1) identical rounds one
// by one. Pricing the distinct round once and adding it 2(n-1) times must
// keep every bit.
TEST(NetworkGoldenTest, ContendedRingSecondsMatchesPinnedBits) {
  const LinkSpec edge{.bandwidth_bps = 1e10, .latency_s = 2e-6};
  struct Fabric {
    std::shared_ptr<Topology> topology;
    uint64_t bits[4];  // n = 2, 17, 64, 257
  };
  const Fabric fabrics[] = {
      {std::make_shared<FatTreeTopology>(4, 4.0),
       {UINT64_C(0x3fe00010c6f7a0b6), UINT64_C(0x3fee2036fd1234df),
        UINT64_C(0x3fef8841ede11992), UINT64_C(0x3ff000d6e7b0a5ff)}},
      {std::make_shared<Mesh2dTopology>(),
       {UINT64_C(0x3fe00008637bd05b), UINT64_C(0x3fee20bd34cf3a87),
        UINT64_C(0x3fef9ce6c093d97e), UINT64_C(0x3ff0375d8c7af533)}},
      {std::make_shared<StarTopology>(),
       {UINT64_C(0x3ff0000c9539b88a), UINT64_C(0x4030000c9539b881),
        UINT64_C(0x404f8018c5c9a35a), UINT64_C(0x4070000c9539b8c4)}}};
  const int nodes[] = {2, 17, 64, 257};
  for (const Fabric& fabric : fabrics) {
    const NetworkSpec network{fabric.topology,
                              std::make_shared<Mm1QueueModel>(0.2)};
    const RingAllReduceComm ring(4e9, edge, network);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(ring.Seconds(nodes[i])),
                fabric.bits[i])
          << ring.label() << " n=" << nodes[i];
    }
  }
}

}  // namespace
}  // namespace dmlscale::core
