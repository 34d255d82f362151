// LeastOutstandingIndex against the brute-force dispatch rule it replaces:
// a strict-min scan over the replicas in rotated order from the cursor.
// Random +1 (dispatch) and -b (batch acknowledgement) updates and random
// cursors, plus the hand-built all-ties, wraparound and "minimum only
// before the cursor" cases, must pick the same replica at every step.

#include "serve/least_outstanding_index.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace dmlscale::serve {
namespace {

constexpr int kSizes[] = {1, 2, 3, 7, 64, 100, 1000};

// The reference: start at the cursor, replace only on a strictly smaller
// count, visit cursor + 1, ..., k - 1, 0, ..., cursor - 1.
int RotatedStrictMin(const std::vector<int64_t>& counts, int cursor) {
  const int k = static_cast<int>(counts.size());
  int chosen = cursor;
  for (int i = 1; i < k; ++i) {
    int r = (cursor + i) % k;
    if (counts[static_cast<size_t>(r)] < counts[static_cast<size_t>(chosen)]) {
      chosen = r;
    }
  }
  return chosen;
}

// Applies the same update to the index and the reference counts.
void Add(LeastOutstandingIndex& index, std::vector<int64_t>& counts,
         int replica, int64_t delta) {
  index.Add(replica, delta);
  counts[static_cast<size_t>(replica)] += delta;
}

void ExpectSameChoiceFromEveryCursor(const LeastOutstandingIndex& index,
                                     const std::vector<int64_t>& counts) {
  for (int cursor = 0; cursor < index.size(); ++cursor) {
    ASSERT_EQ(index.ArgMinFrom(cursor), RotatedStrictMin(counts, cursor))
        << "k=" << index.size() << " cursor=" << cursor;
  }
}

TEST(LeastOutstandingIndexTest, StartsIdleAndRotatesLikeRoundRobin) {
  for (int k : kSizes) {
    LeastOutstandingIndex index(k);
    ASSERT_EQ(index.size(), k);
    // All ties: every cursor picks itself, including cursor = k - 1.
    for (int cursor = 0; cursor < k; ++cursor) {
      EXPECT_EQ(index.count(cursor), 0);
      ASSERT_EQ(index.ArgMinFrom(cursor), cursor) << "k=" << k;
    }
    // Dispatching to one past each pick on an idle fleet visits every
    // replica once, in order, then wraps to 0.
    int cursor = 0;
    for (int step = 0; step < k; ++step) {
      int chosen = index.ArgMinFrom(cursor);
      ASSERT_EQ(chosen, step) << "k=" << k;
      index.Add(chosen, 1);
      cursor = (chosen + 1) % k;
    }
    EXPECT_EQ(index.ArgMinFrom(cursor), 0) << "k=" << k;
  }
}

TEST(LeastOutstandingIndexTest, MinimumOnlyBeforeTheCursorWrapsToIt) {
  for (int k : kSizes) {
    if (k < 2) continue;
    LeastOutstandingIndex index(k);
    std::vector<int64_t> counts(static_cast<size_t>(k), 0);
    for (int r = 0; r < k; ++r) Add(index, counts, r, 3);
    // The lone minimum sits at k / 2 - 1 (0 for k = 2, 3); cursors after
    // it, up to and including k - 1, must wrap around to find it.
    const int low = k / 2 - 1;
    Add(index, counts, low, -2);
    for (int cursor = low + 1; cursor < k; ++cursor) {
      ASSERT_EQ(index.ArgMinFrom(cursor), low) << "k=" << k;
    }
    // Two minima, both before the cursor: the first from 0 wins.
    if (low > 0) {
      Add(index, counts, 0, -2);
      EXPECT_EQ(index.ArgMinFrom(k - 1), 0) << "k=" << k;
    }
    ExpectSameChoiceFromEveryCursor(index, counts);
  }
}

TEST(LeastOutstandingIndexTest, TiesAtAndAfterTheCursorGoToTheFirst) {
  for (int k : kSizes) {
    if (k < 3) continue;
    LeastOutstandingIndex index(k);
    std::vector<int64_t> counts(static_cast<size_t>(k), 0);
    // Minima at 0 and at k - 1: cursor k - 1 takes k - 1 (no wrap), any
    // cursor in (0, k - 1) takes k - 1, cursor 0 takes 0.
    for (int r = 1; r < k - 1; ++r) Add(index, counts, r, 1);
    EXPECT_EQ(index.ArgMinFrom(k - 1), k - 1);
    EXPECT_EQ(index.ArgMinFrom(1), k - 1);
    EXPECT_EQ(index.ArgMinFrom(0), 0);
    ExpectSameChoiceFromEveryCursor(index, counts);
  }
}

TEST(LeastOutstandingIndexTest, RandomUpdatesMatchTheRotatedStrictMinScan) {
  for (int k : kSizes) {
    Pcg32 rng(DeriveSeed(0x1D7E5ULL, static_cast<uint64_t>(k)), 11);
    LeastOutstandingIndex index(k);
    std::vector<int64_t> counts(static_cast<size_t>(k), 0);
    const int steps = 20000;
    int cursor = 0;
    for (int step = 0; step < steps; ++step) {
      const auto pick = [&] {
        return static_cast<int>(rng.NextBounded(static_cast<uint32_t>(k)));
      };
      if (rng.NextDouble() < 0.55) {
        // Dispatch the way the frontend does: to the chosen replica, then
        // move the cursor one past it.
        int chosen = index.ArgMinFrom(cursor);
        ASSERT_EQ(chosen, RotatedStrictMin(counts, cursor))
            << "k=" << k << " step=" << step << " cursor=" << cursor;
        Add(index, counts, chosen, 1);
        cursor = (chosen + 1) % k;
      } else {
        // Acknowledge a batch of b <= 8 at a replica with work out.
        int r = pick();
        int64_t outstanding = counts[static_cast<size_t>(r)];
        if (outstanding > 0) {
          auto b = static_cast<int64_t>(
              rng.NextBounded(static_cast<uint32_t>(
                  outstanding < 8 ? outstanding : 8)) + 1);
          Add(index, counts, r, -b);
        }
      }
      // A random cursor too, not only the one dispatch leaves behind.
      int probe = pick();
      ASSERT_EQ(index.ArgMinFrom(probe), RotatedStrictMin(counts, probe))
          << "k=" << k << " step=" << step << " probe=" << probe;
    }
    for (int r = 0; r < k; ++r) {
      ASSERT_EQ(index.count(r), counts[static_cast<size_t>(r)]);
    }
    ExpectSameChoiceFromEveryCursor(index, counts);
  }
}

}  // namespace
}  // namespace dmlscale::serve
