#ifndef DMLSCALE_SERVE_LEAST_OUTSTANDING_INDEX_H_
#define DMLSCALE_SERVE_LEAST_OUTSTANDING_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"

namespace dmlscale::serve {

/// The frontend's per-replica outstanding counts (requests dispatched minus
/// completions acknowledged) behind a flat min segment tree, so that
/// least-outstanding dispatch costs O(log k) per request instead of a scan
/// over all k replicas.
///
/// Layout: a tournament tree over `leaves_` (the next power of two >= k)
/// leaves. Node 1 is the root, node i has children 2i and 2i + 1, and leaf
/// r sits at `leaves_ + r`. Padding leaves hold INT64_MAX, so they never tie
/// a real replica's count. Every walk is an iterative loop over the array.
///
/// Tie-break contract: ArgMinFrom(cursor) returns exactly what a strict-min
/// scan in rotated order cursor, cursor + 1, ..., k - 1, 0, ..., cursor - 1
/// returns: the first replica at or after `cursor` that holds the global
/// minimum, or else the first such replica from 0. With the cursor set to
/// one past the previous pick, an idle fleet degrades to round-robin.
class LeastOutstandingIndex {
 public:
  /// `replicas` counts, all zero (`replicas` >= 1).
  explicit LeastOutstandingIndex(int replicas) : size_(replicas) {
    DMLSCALE_CHECK_GE(replicas, 1);
    while (leaves_ < static_cast<size_t>(size_)) leaves_ *= 2;
    tree_.assign(2 * leaves_, std::numeric_limits<int64_t>::max());
    std::fill_n(tree_.begin() + static_cast<std::ptrdiff_t>(leaves_), size_,
                int64_t{0});
    for (size_t node = leaves_ - 1; node >= 1; --node) Pull(node);
  }

  int size() const { return size_; }

  /// The outstanding count of `replica`.
  int64_t count(int replica) const { return tree_[Leaf(replica)]; }

  /// Adds `delta` to `replica`'s count: +1 on dispatch, -b when a batch of
  /// b completions is acknowledged.
  void Add(int replica, int64_t delta) {
    size_t node = Leaf(replica);
    tree_[node] += delta;
    for (node >>= 1; node >= 1; node >>= 1) {
      int64_t before = tree_[node];
      Pull(node);
      // Ancestors read only this node's minimum: once it holds, stop.
      if (tree_[node] == before) break;
    }
  }

  /// The first replica holding the global minimum count at or after
  /// `cursor` (in [0, size())), or else the first one from 0.
  int ArgMinFrom(int cursor) const {
    DMLSCALE_CHECK(cursor >= 0 && cursor < size_);
    const int64_t min = tree_[1];
    size_t node = Leaf(cursor);
    if (tree_[node] == min) return cursor;
    // Climb: whenever `node` is a left child, its right sibling covers the
    // replicas just past everything seen so far; the first sibling that
    // holds the minimum contains the answer.
    for (; node > 1; node >>= 1) {
      if ((node & 1) == 0 && tree_[node + 1] == min) {
        return Descend(node + 1, min);
      }
    }
    // No minimum at or after the cursor: wrap to the first one from 0.
    return Descend(1, min);
  }

 private:
  size_t Leaf(int replica) const {
    return leaves_ + static_cast<size_t>(replica);
  }

  void Pull(size_t node) {
    tree_[node] = std::min(tree_[2 * node], tree_[2 * node + 1]);
  }

  // The leftmost leaf under `node` holding `min` (which `node` holds).
  int Descend(size_t node, int64_t min) const {
    while (node < leaves_) {
      node *= 2;
      if (tree_[node] != min) ++node;
    }
    return static_cast<int>(node - leaves_);
  }

  int size_;
  size_t leaves_ = 1;
  std::vector<int64_t> tree_;
};

}  // namespace dmlscale::serve

#endif  // DMLSCALE_SERVE_LEAST_OUTSTANDING_INDEX_H_
