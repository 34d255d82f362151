#ifndef DMLSCALE_SWEEP_REPORT_H_
#define DMLSCALE_SWEEP_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "api/analysis.h"
#include "common/status.h"

namespace dmlscale::sweep {

/// Outcome of one grid cell. A failed cell (bad model name, unachievable
/// validation, ...) records its status and keeps its row in the report —
/// one broken configuration must not sink a 1000-cell sweep.
struct SweepCellResult {
  size_t index = 0;
  std::string scenario_label;
  std::string hardware_label;
  std::string options_label;
  Status status;
  /// Meaningful only when `status.ok()`.
  api::AnalysisReport report;
  /// How many times the runner ran the cell (2 after its one retry of a
  /// failed cell; the CSV status column records the count).
  int attempts = 1;

  bool ok() const { return status.ok(); }
};

/// All cell results in grid order, plus run-wide counters. The cell data —
/// and with it ToCsv() and the ranking — is deterministic: two runs over
/// the same grid with the same base seed produce byte-identical CSV
/// regardless of the thread count. The run counters (wall_seconds, threads,
/// and the hit/miss split, which racing workers can shift on cold keys) are
/// diagnostics of the particular run; PrintSummary includes them, so its
/// trailing counter line is NOT byte-stable.
struct SweepReport {
  std::vector<SweepCellResult> cells;

  int threads = 1;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double wall_seconds = 0.0;

  size_t num_ok() const;
  size_t num_failed() const { return cells.size() - num_ok(); }

  /// True when any cell carried a simulated cross-check (adds the MAPE
  /// column to the emitters).
  bool any_simulated() const;

  /// Indices (into `cells`) of the ok cells, best peak speedup first; ties
  /// broken by grid order so the ranking is stable.
  std::vector<size_t> RankByPeakSpeedup() const;

  /// One row per cell, grid order. Header:
  ///   cell,scenario,hardware,options,comm,status,t_ref_s,optimal_nodes,
  ///   first_local_peak,peak_speedup,peak_efficiency,scalable,
  ///   q1_nodes,q2_nodes,mape_pct,measured_mape_pct,availability,
  ///   expected_slowdown,serving_utilization,serving_quantile_latency_s,
  ///   q3_replicas,q3_max_qps
  /// `comm` is the decorated communication label (with its @topology/queue
  /// suffix on contended cells), so topology-ablation rows stay
  /// distinguishable even under shared scenario labels. Numeric columns are
  /// empty for failed cells; q1/q2 are empty when the planner question was
  /// not asked and "n/a" when unachievable; mape_pct is empty when the cell
  /// did not simulate; measured_mape_pct is empty unless the cell's options
  /// carried measured timing samples; availability/expected_slowdown are
  /// empty for fault-free cells and the serving/q3 columns for
  /// serving-free ones. A failed cell's status records its retry
  /// as a trailing " (attempts=2)".
  std::string ToCsv() const;

  /// The best-cell ranking (top `top_k` rows) with per-cell optimal nodes,
  /// followed by failure lines and the run counters.
  void PrintSummary(std::ostream& os, size_t top_k = 10) const;
};

}  // namespace dmlscale::sweep

#endif  // DMLSCALE_SWEEP_REPORT_H_
