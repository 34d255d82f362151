#ifndef DMLSCALE_SWEEP_GRID_H_
#define DMLSCALE_SWEEP_GRID_H_

#include <cstddef>
#include <string>
#include <vector>

#include "api/analysis.h"
#include "api/params.h"
#include "api/scenario.h"
#include "common/status.h"
#include "core/hardware.h"

namespace dmlscale::sweep {

/// One point on the scenario axis: registry-keyed computation and
/// communication model selections plus the superstep count — everything a
/// `Scenario::Builder` needs except the hardware, which comes from the
/// hardware axis. An empty `comm_model` defers to the builder's default
/// (shared-memory clusters get the free "shared-memory" model).
struct ScenarioAxisPoint {
  std::string label;
  std::string compute_model;
  api::ModelParams compute_params;
  std::string comm_model;
  api::ModelParams comm_params;
  /// Failure-model keys of api/faults.h (`mtbf`, `straggler`, `recovery`,
  /// ...); the empty bag keeps the cell fault-free.
  api::ModelParams fault_params{};
  /// Serving keys of api/serving.h (`qps`, `batch_max`, `cache`,
  /// `hit_rate`, `replicas`, ...); the empty bag keeps the cell
  /// serving-free.
  api::ModelParams serving_params{};
  int supersteps = 1;
  /// Calibration coefficients baked into the built scenario
  /// (`Scenario::Builder::WithCalibration`); both 1.0 = the a-priori model.
  /// Putting the same configuration on the axis twice — once a-priori, once
  /// with coefficients fitted by `api::Calibrate` — makes the sweep report
  /// an a-priori-vs-calibrated comparison (distinct labels required).
  double compute_coefficient = 1.0;
  double comm_coefficient = 1.0;
};

/// A copy of `base` carrying the coefficients of a calibration fit, labeled
/// `label` — the convenience for the a-priori-vs-calibrated sweeps above.
ScenarioAxisPoint CalibratedAxisPoint(const ScenarioAxisPoint& base,
                                      std::string label,
                                      double compute_coefficient,
                                      double comm_coefficient);

/// One point on a facet ablation axis: a label plus the keys of one
/// parameter bag — network keys of api/network.h (`topology`, `queue`,
/// `oversubscription`, ...), fault keys of api/faults.h (`mtbf`, `mttr`,
/// `straggler`, `recovery`, ...) or serving keys of api/serving.h (`qps`,
/// `batch_max`, `cache`, `hit_rate`, `replicas`, ...). An empty bag leaves
/// the facet as `base` has it (the ideal network, the perfect cluster, a
/// serving-free cell).
struct FacetAxisPoint {
  std::string label;
  api::ModelParams params;
};

/// Expands `base` into one scenario point per axis point: each copy is
/// labeled "<base label>-<point label>" and has the point's keys merged
/// into its `bag` (keys already present in `base` are overridden).
/// Appending the result to a grid turns the scenario axis into a product
/// with the facet axis:
///
///   ExpandAxis(ring, &ScenarioAxisPoint::comm_params, networks)
///       — the contention ablation (network keys live in the comm params);
///   ExpandAxis(fig1, &ScenarioAxisPoint::fault_params, faults)
///       — the MTBF/straggler grids of the failure tour;
///   ExpandAxis(fig1, &ScenarioAxisPoint::serving_params, serving)
///       — the batching/cache/replica grids of the serving tour.
std::vector<ScenarioAxisPoint> ExpandAxis(
    const ScenarioAxisPoint& base, api::ModelParams ScenarioAxisPoint::*bag,
    const std::vector<FacetAxisPoint>& axis);

/// One point on the hardware axis: a named cluster (node, link, max_nodes,
/// shared_memory), typically from `api::presets`.
struct HardwareAxisPoint {
  std::string label;
  core::ClusterSpec cluster;
};

/// One point on the analysis-options axis: what Analysis::Run should do for
/// every scenario x hardware combination (planner questions, simulation,
/// overheads, ...). `options.sim_seed` and `options.eval_cache` are owned
/// by the SweepRunner and overwritten per cell; set the rest freely.
struct OptionsAxisPoint {
  std::string label;
  api::AnalysisOptions options;
};

/// One cell of the cartesian product, identified by its axis indices.
/// `index` is the row-major position (scenario-major, options-minor) — the
/// canonical grid order every report is emitted in.
struct SweepCell {
  size_t index = 0;
  size_t scenario_index = 0;
  size_t hardware_index = 0;
  size_t options_index = 0;
};

/// The cartesian product of the three axes. Axes are appended point by
/// point; `Cells()` enumerates the product in deterministic row-major order.
/// The grid is declarative — nothing is validated or constructed until
/// `BuildScenario` resolves a cell through the api registries.
class SweepGrid {
 public:
  SweepGrid& AddScenario(ScenarioAxisPoint point);
  SweepGrid& AddHardware(HardwareAxisPoint point);
  /// Optional axis: a grid with no options points behaves as if it had a
  /// single default-constructed one labeled "default".
  SweepGrid& AddOptions(OptionsAxisPoint point);

  const std::vector<ScenarioAxisPoint>& scenarios() const { return scenarios_; }
  const std::vector<HardwareAxisPoint>& hardware() const { return hardware_; }
  /// The effective options axis (the "default" singleton when none added).
  const std::vector<OptionsAxisPoint>& options() const;

  /// Number of cells in the product.
  size_t size() const;

  /// All cells in grid order. Fails when the scenario or hardware axis is
  /// empty.
  Result<std::vector<SweepCell>> Cells() const;

  const ScenarioAxisPoint& scenario_of(const SweepCell& cell) const;
  const HardwareAxisPoint& hardware_of(const SweepCell& cell) const;
  const OptionsAxisPoint& options_of(const SweepCell& cell) const;

  /// "scenario/hardware/options" — the cell's display name.
  std::string LabelOf(const SweepCell& cell) const;

  /// Resolves the cell through `Scenario::Builder` and the model registries.
  /// The scenario is named "<scenario label>@<hardware label>" — options
  /// cells over the same scenario x hardware pair share the name, and with
  /// it the runner's eval-cache entries.
  Result<api::Scenario> BuildScenario(const SweepCell& cell) const;

 private:
  std::vector<ScenarioAxisPoint> scenarios_;
  std::vector<HardwareAxisPoint> hardware_;
  std::vector<OptionsAxisPoint> options_;
  std::vector<OptionsAxisPoint> default_options_{OptionsAxisPoint{
      .label = "default", .options = api::AnalysisOptions{}}};
};

}  // namespace dmlscale::sweep

#endif  // DMLSCALE_SWEEP_GRID_H_
