#include "sweep/report.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/csv_writer.h"
#include "common/string_util.h"
#include "common/table_printer.h"

namespace dmlscale::sweep {

namespace {

std::string PlannerCell(const std::optional<api::PlannerAnswer>& answer) {
  if (!answer.has_value()) return "";
  return answer->achievable ? std::to_string(answer->nodes) : "n/a";
}

std::string RateCell(const std::optional<api::ServingRateAnswer>& answer) {
  if (!answer.has_value()) return "";
  return answer->achievable ? FormatDouble(answer->qps, 6) : "n/a";
}

std::string OptionalCell(const std::optional<double>& value, int digits) {
  if (!value.has_value()) return "";
  return FormatDouble(*value, digits);
}

/// availability, expected_slowdown: empty for fault-free cells.
std::vector<std::string> FaultCells(const api::AnalysisReport& report) {
  if (!report.faults.has_value()) return {"", ""};
  return {FormatDouble(report.faults->availability, 4),
          OptionalCell(report.faults->expected_slowdown, 4)};
}

/// serving_utilization, serving_quantile_latency_s, q3_replicas, q3_max_qps:
/// empty for serving-free cells.
std::vector<std::string> ServingCells(const api::AnalysisReport& report) {
  if (!report.serving.has_value()) return {"", "", "", ""};
  const api::ServingReport& serving = *report.serving;
  return {FormatDouble(serving.estimate.utilization, 4),
          FormatDouble(serving.estimate.quantile_latency_s, 6),
          PlannerCell(serving.replicas_answer),
          RateCell(serving.max_qps_answer)};
}

// Efficiency at the curve's optimum, via the curve's own definition so the
// sweep emitters can never drift from core::SpeedupCurve::Efficiency().
double PeakEfficiency(const api::AnalysisReport& report) {
  std::vector<double> efficiency = report.curve.Efficiency();
  for (size_t i = 0; i < report.curve.nodes.size(); ++i) {
    if (report.curve.nodes[i] == report.optimal_nodes) return efficiency[i];
  }
  return 0.0;
}

}  // namespace

size_t SweepReport::num_ok() const {
  return static_cast<size_t>(
      std::count_if(cells.begin(), cells.end(),
                    [](const SweepCellResult& c) { return c.ok(); }));
}

bool SweepReport::any_simulated() const {
  return std::any_of(cells.begin(), cells.end(), [](const SweepCellResult& c) {
    return c.ok() && c.report.model_vs_sim_mape.has_value();
  });
}

std::vector<size_t> SweepReport::RankByPeakSpeedup() const {
  std::vector<size_t> ranked;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].ok()) ranked.push_back(i);
  }
  std::stable_sort(ranked.begin(), ranked.end(), [this](size_t a, size_t b) {
    return cells[a].report.peak_speedup > cells[b].report.peak_speedup;
  });
  return ranked;
}

std::string SweepReport::ToCsv() const {
  CsvWriter csv({"cell", "scenario", "hardware", "options", "comm", "status",
                 "t_ref_s", "optimal_nodes", "first_local_peak",
                 "peak_speedup", "peak_efficiency", "scalable", "q1_nodes",
                 "q2_nodes", "mape_pct", "measured_mape_pct", "availability",
                 "expected_slowdown", "serving_utilization",
                 "serving_quantile_latency_s", "q3_replicas", "q3_max_qps"});
  for (const SweepCellResult& cell : cells) {
    std::vector<std::string> row{std::to_string(cell.index),
                                 cell.scenario_label, cell.hardware_label,
                                 cell.options_label,
                                 cell.ok() ? cell.report.comm_label : ""};
    if (cell.ok()) {
      const api::AnalysisReport& r = cell.report;
      row.insert(row.end(),
                 {"ok", FormatDouble(r.reference_seconds, 6),
                  std::to_string(r.optimal_nodes),
                  std::to_string(r.first_local_peak),
                  FormatDouble(r.peak_speedup, 4),
                  FormatDouble(PeakEfficiency(r), 4),
                  r.scalable ? "yes" : "no", PlannerCell(r.speedup_answer),
                  PlannerCell(r.growth_answer),
                  OptionalCell(r.model_vs_sim_mape, 3),
                  OptionalCell(r.model_vs_measured_mape, 3)});
      for (const auto& facet : {FaultCells(r), ServingCells(r)}) {
        row.insert(row.end(), facet.begin(), facet.end());
      }
    } else {
      std::string status = cell.status.ToString();
      if (cell.attempts > 1) {
        status += " (attempts=" + std::to_string(cell.attempts) + ")";
      }
      row.insert(row.end(), {std::move(status), "", "", "", "", "", "", "",
                             "", "", "", "", "", "", "", "", ""});
    }
    csv.AddRow(std::move(row));
  }
  return csv.ToString();
}

void SweepReport::PrintSummary(std::ostream& os, size_t top_k) const {
  os << "== Sweep: " << cells.size() << " cells (" << num_ok() << " ok, "
     << num_failed() << " failed) ==\n";

  std::vector<std::string> headers{"rank",         "cell",
                                   "configuration", "optimal_n",
                                   "peak_speedup",  "peak_efficiency"};
  bool with_mape = any_simulated();
  if (with_mape) headers.push_back("mape_pct");
  TablePrinter table(headers);
  std::vector<size_t> ranked = RankByPeakSpeedup();
  size_t shown = std::min(top_k, ranked.size());
  for (size_t rank = 0; rank < shown; ++rank) {
    const SweepCellResult& cell = cells[ranked[rank]];
    const api::AnalysisReport& r = cell.report;
    std::vector<std::string> row{
        std::to_string(rank + 1),
        std::to_string(cell.index),
        cell.scenario_label + "/" + cell.hardware_label + "/" +
            cell.options_label,
        std::to_string(r.optimal_nodes),
        FormatDouble(r.peak_speedup, 4),
        FormatDouble(PeakEfficiency(r), 4)};
    if (with_mape) {
      std::string mape = OptionalCell(r.model_vs_sim_mape, 3);
      row.push_back(mape.empty() ? "n/a" : mape);
    }
    table.AddRow(std::move(row));
  }
  table.Print(os);
  if (ranked.size() > shown) {
    os << "(top " << shown << " of " << ranked.size() << " ok cells)\n";
  }

  for (const SweepCellResult& cell : cells) {
    if (!cell.ok()) {
      os << "cell " << cell.index << " (" << cell.scenario_label << "/"
         << cell.hardware_label << "/" << cell.options_label
         << ") failed: " << cell.status << "\n";
    }
  }

  uint64_t lookups = cache_hits + cache_misses;
  os << "threads=" << threads << "; eval cache: " << cache_hits << "/"
     << lookups << " hits; wall " << FormatDouble(wall_seconds, 3) << " s\n";
}

}  // namespace dmlscale::sweep
