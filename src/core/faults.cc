#include "core/faults.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/string_util.h"

namespace dmlscale::core {

namespace {

// Per-node stream indices under DeriveSeed: three streams per node, disjoint
// from consumer seed spaces (scenarios salt their injector seed; see
// sim/fault_injector.cc).
constexpr uint64_t kStreamsPerNode = 3;
constexpr uint64_t kCrashStream = 0;
constexpr uint64_t kJitterStream = 1;
constexpr uint64_t kLinkStream = 2;

// Standard normal CDF.
double Phi(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

// ExpectedMaxSlowdown's quadrature: kGaussPanels panels in all, each with
// the 16-point Gauss-Legendre rule, whose nodes on [-1, 1] are
// +-kGaussNodes[i], both with weight kGaussWeights[i].
constexpr int kGaussPanels = 8;
constexpr double kGaussNodes[8] = {
    0.0950125098376374401853, 0.281603550779258913230,
    0.458016777657227386342,  0.617876244402643748447,
    0.755404408355003033895,  0.865631202387831743880,
    0.944575023073232576078,  0.989400934991649932596};
constexpr double kGaussWeights[8] = {
    0.189450610455068496285,  0.182603415044923588867,
    0.169156519395002538189,  0.149595988816576732082,
    0.124628971255533872052,  0.0951585116824927848099,
    0.0622535239386478928628, 0.0271524594117540948518};

// Past this sigma the integrand's body (about one unit wide in z, around
// z = sigma) is narrower than a panel resolves, and one draw alone averages
// e^{sigma^2/2} > 1e195: ExpectedMaxSlowdown answers +inf.
constexpr double kMaxStragglerSigma = 30.0;

// The integral of f over [a, b]: `panels` equal panels, 16 Gauss-Legendre
// points each.
template <typename F>
double CompositeGauss16(double a, double b, int panels, const F& f) {
  const double half = 0.5 * (b - a) / panels;
  double sum = 0.0;
  for (int p = 0; p < panels; ++p) {
    const double mid = a + (2 * p + 1) * half;
    for (int i = 0; i < 8; ++i) {
      sum += kGaussWeights[i] * (f(mid - half * kGaussNodes[i]) +
                                 f(mid + half * kGaussNodes[i]));
    }
  }
  return half * sum;
}

// Inverse-CDF exponential draw with the given mean. NextDouble() is in
// [0, 1), so 1 - u is in (0, 1] and the log is finite.
double NextExponential(Pcg32* rng, double mean) {
  return -mean * std::log(1.0 - rng->NextDouble());
}

}  // namespace

const char* ToString(FaultDistribution distribution) {
  switch (distribution) {
    case FaultDistribution::kExponential:
      return "exponential";
    case FaultDistribution::kWeibull:
      return "weibull";
  }
  return "unknown";
}

const char* ToString(RecoveryStrategy strategy) {
  switch (strategy) {
    case RecoveryStrategy::kCheckpointRestart:
      return "checkpoint-restart";
    case RecoveryStrategy::kReplicaTakeover:
      return "replica";
    case RecoveryStrategy::kSpeculativeReexec:
      return "speculative";
  }
  return "unknown";
}

Status FaultSpec::Validate() const {
  if (!std::isfinite(mtbf_seconds) || !std::isfinite(mttr_seconds) ||
      !std::isfinite(straggler_sigma) || !std::isfinite(link_mtbf_seconds) ||
      !std::isfinite(link_degrade_seconds) ||
      !std::isfinite(link_degrade_factor) ||
      !std::isfinite(checkpoint_interval_s) ||
      !std::isfinite(checkpoint_cost_s) || !std::isfinite(takeover_seconds) ||
      !std::isfinite(speculation_threshold) || !std::isfinite(weibull_shape)) {
    return Status::InvalidArgument("fault spec fields must be finite");
  }
  if (straggler_sigma < 0.0) {
    return Status::InvalidArgument("straggler_sigma must be >= 0");
  }
  if (checkpoint_interval_s < 0.0 || checkpoint_cost_s < 0.0 ||
      takeover_seconds < 0.0) {
    return Status::InvalidArgument(
        "checkpoint_interval_s, checkpoint_cost_s, and takeover_seconds must "
        "be >= 0");
  }
  if (CrashesEnabled()) {
    if (mttr_seconds <= 0.0) {
      return Status::InvalidArgument(
          "crashes enabled (mtbf_seconds > 0) but mttr_seconds <= 0; repair "
          "must take time");
    }
    if (distribution == FaultDistribution::kWeibull && weibull_shape <= 0.0) {
      return Status::InvalidArgument("weibull_shape must be > 0");
    }
    if (recovery == RecoveryStrategy::kReplicaTakeover &&
        takeover_seconds <= 0.0) {
      return Status::InvalidArgument(
          "recovery=replica requires takeover_seconds > 0");
    }
  }
  if (recovery == RecoveryStrategy::kSpeculativeReexec &&
      speculation_threshold <= 1.0) {
    return Status::InvalidArgument(
        "speculation_threshold must be > 1 (a multiple of the median)");
  }
  if (LinkFaultsEnabled()) {
    if (link_degrade_seconds <= 0.0) {
      return Status::InvalidArgument(
          "link faults enabled (link_mtbf_seconds > 0) but "
          "link_degrade_seconds <= 0");
    }
    if (link_degrade_factor < 1.0) {
      return Status::InvalidArgument(
          "link_degrade_factor must be >= 1 (a wire-time multiplier)");
    }
  }
  return Status::OK();
}

FaultModel::FaultModel(FaultSpec spec, uint64_t seed)
    : spec_(spec), seed_(seed) {
  DMLSCALE_CHECK_MSG(spec_.Validate().ok(), "invalid FaultSpec");
  if (spec_.CrashesEnabled() &&
      spec_.distribution == FaultDistribution::kWeibull) {
    weibull_scale_ =
        spec_.mtbf_seconds / std::tgamma(1.0 + 1.0 / spec_.weibull_shape);
  }
}

Pcg32 FaultModel::CrashStream(int node) const {
  uint64_t index =
      kStreamsPerNode * static_cast<uint64_t>(node) + kCrashStream;
  return Pcg32(DeriveSeed(seed_, index), index);
}

Pcg32 FaultModel::JitterStream(int node) const {
  uint64_t index =
      kStreamsPerNode * static_cast<uint64_t>(node) + kJitterStream;
  return Pcg32(DeriveSeed(seed_, index), index);
}

Pcg32 FaultModel::LinkStream(int node) const {
  uint64_t index = kStreamsPerNode * static_cast<uint64_t>(node) + kLinkStream;
  return Pcg32(DeriveSeed(seed_, index), index);
}

double FaultModel::NextUptime(Pcg32* rng) const {
  DMLSCALE_CHECK(spec_.CrashesEnabled());
  if (spec_.distribution == FaultDistribution::kWeibull) {
    double u = rng->NextDouble();
    return weibull_scale_ *
           std::pow(-std::log(1.0 - u), 1.0 / spec_.weibull_shape);
  }
  return NextExponential(rng, spec_.mtbf_seconds);
}

double FaultModel::NextLinkUptime(Pcg32* rng) const {
  DMLSCALE_CHECK(spec_.LinkFaultsEnabled());
  return NextExponential(rng, spec_.link_mtbf_seconds);
}

double FaultModel::NextSlowdown(Pcg32* rng) const {
  if (spec_.straggler_sigma <= 0.0) return 1.0;
  double x = rng->NextLogNormal(spec_.straggler_sigma);
  if (spec_.recovery == RecoveryStrategy::kSpeculativeReexec &&
      x > spec_.speculation_threshold) {
    // The backup copy starts once the straggler is `threshold`x late and
    // races the original: effective time is whichever finishes first.
    double backup = rng->NextLogNormal(spec_.straggler_sigma);
    x = std::min(x, spec_.speculation_threshold + backup);
  }
  return x;
}

double YoungDalyInterval(double checkpoint_cost_s, double system_mtbf_s) {
  DMLSCALE_CHECK_GE(checkpoint_cost_s, 0.0);
  DMLSCALE_CHECK_GE(system_mtbf_s, 0.0);
  return std::sqrt(2.0 * checkpoint_cost_s * system_mtbf_s);
}

double Availability(const FaultSpec& spec) {
  if (!spec.CrashesEnabled()) return 1.0;
  return spec.mtbf_seconds / (spec.mtbf_seconds + spec.mttr_seconds);
}

CheckpointPlan ResolveCheckpointPlan(const FaultSpec& spec, int n,
                                     double work_seconds) {
  DMLSCALE_CHECK_GE(n, 1);
  DMLSCALE_CHECK(work_seconds > 0.0);
  double interval = spec.checkpoint_interval_s;
  if (interval <= 0.0 && spec.CrashesEnabled() &&
      spec.checkpoint_cost_s > 0.0 &&
      spec.recovery != RecoveryStrategy::kReplicaTakeover) {
    interval = YoungDalyInterval(spec.checkpoint_cost_s,
                                 spec.mtbf_seconds / static_cast<double>(n));
  }
  CheckpointPlan plan;
  if (interval > 0.0) {
    double segments = std::round(work_seconds / interval);
    // Cap the schedule so a tiny interval cannot explode the event count.
    plan.segments = static_cast<int>(std::clamp(segments, 1.0, 10000.0));
  }
  plan.interval_s = work_seconds / static_cast<double>(plan.segments);
  return plan;
}

double ExpectedMaxSlowdown(const FaultSpec& spec, int n) {
  if (spec.straggler_sigma <= 0.0 || n < 1) return 1.0;
  const double sigma = spec.straggler_sigma;
  if (!(sigma <= kMaxStragglerSigma)) {
    return std::numeric_limits<double>::infinity();
  }
  const double dn = static_cast<double>(n);
  // 1 - (1 - q)^n for a per-draw tail probability q, without cancelling
  // when n * q is tiny.
  auto survival = [dn](double q) { return -std::expm1(dn * std::log1p(-q)); };
  // survival * e^{sigma x}, in log space: a huge e^{sigma x} times a tiny
  // survival stays finite.
  auto stretched = [sigma](double x, double s) {
    return s > 0.0 ? std::exp(sigma * x + std::log(s)) : 0.0;
  };
  // E[max] = integral of 1 - F(t)^n dt. In z = ln t / sigma the integrand
  // survival(Phi(-z)) * sigma e^{sigma z} is smooth and its body sits near
  // z = sigma. Below lo, F(t)^n <= Phi(-9) ~ 1e-19, so that sliver adds its
  // width e^{sigma lo}. Above hi the integrand is ~9 standard deviations past
  // both the body and the max of n draws (z ~ sqrt(2 ln n)).
  const double lo = -9.0;
  const double hi = sigma + 9.0 + std::sqrt(2.0 * std::log(dn));
  auto plain = [&](double z) { return stretched(z, survival(Phi(-z))); };
  const double theta = spec.speculation_threshold;
  // Speculative: past t = theta the backup, started at theta, must be late
  // too. In w = ln(t - theta) / sigma that tail is smooth:
  // q = Phi(-ln t / sigma) * Phi(-w). Below w = lo the backup is late for
  // sure, so the plain integrand holds up to t = theta + e^{sigma lo}.
  const double z_join =
      (std::log(theta) + std::log1p(std::exp(sigma * lo) / theta)) / sigma;
  if (spec.recovery != RecoveryStrategy::kSpeculativeReexec ||
      z_join >= hi) {
    return std::exp(sigma * lo) +
           sigma * CompositeGauss16(lo, hi, kGaussPanels, plain);
  }
  auto backed_up = [&](double w) {
    const double z =
        (std::log(theta) + std::log1p(std::exp(sigma * w) / theta)) / sigma;
    return stretched(w, survival(Phi(-z) * Phi(-w)));
  };
  // The panels are shared between the two pieces by length.
  const int below = std::clamp(
      static_cast<int>(std::lround(kGaussPanels * (z_join - lo) /
                                   ((z_join - lo) + (hi - lo)))),
      1, kGaussPanels - 1);
  return std::exp(sigma * lo) +
         sigma * (CompositeGauss16(lo, z_join, below, plain) +
                  CompositeGauss16(lo, hi, kGaussPanels - below, backed_up));
}

Result<double> ExpectedCompletionSeconds(const FaultSpec& spec, int n,
                                         double work_seconds) {
  DMLSCALE_RETURN_NOT_OK(spec.Validate());
  if (n < 1) return Status::InvalidArgument("n must be >= 1");
  if (!(work_seconds > 0.0)) {
    return Status::InvalidArgument("work_seconds must be > 0");
  }
  const CheckpointPlan plan = ResolveCheckpointPlan(spec, n, work_seconds);
  const double jitter = ExpectedMaxSlowdown(spec, n);
  if (!std::isfinite(jitter)) {
    return Status::InvalidArgument(
        "straggler_sigma = " + FormatDouble(spec.straggler_sigma) +
        " is past the straggler model's range (<= " +
        FormatDouble(kMaxStragglerSigma) +
        "; one draw alone averages e^(sigma^2/2)); lower straggler_sigma");
  }
  const double segment =
      plan.interval_s * jitter + spec.checkpoint_cost_s;
  const double base = static_cast<double>(plan.segments) * segment;
  if (!std::isfinite(base)) {
    return Status::InvalidArgument(
        "the expected time of " + std::to_string(plan.segments) +
        " checkpoint segments overflows (straggler slowdown " +
        FormatDouble(jitter) + "x); lower straggler_sigma or the work");
  }
  if (!spec.CrashesEnabled()) return base;

  // System crash-notification rate: n independent up/down renewal processes,
  // each cycling (uptime ~ mtbf, downtime mttr).
  const double lambda =
      static_cast<double>(n) / (spec.mtbf_seconds + spec.mttr_seconds);
  if (spec.recovery == RecoveryStrategy::kReplicaTakeover) {
    // Every crash stalls the job `takeover` seconds without losing work:
    // T = B + lambda * T * D.
    const double drag = lambda * spec.takeover_seconds;
    if (drag >= 1.0) {
      return Status::InvalidArgument(
          "replica takeover cannot keep up: crash rate x takeover_seconds = " +
          std::to_string(drag) + " >= 1 (shrink takeover_seconds or the "
          "cluster, or raise mtbf_seconds)");
    }
    return base / (1.0 - drag);
  }
  // Daly's expected completion: each segment retries on failure (losing its
  // elapsed work), failures during the R-second recovery restart it.
  const double mtbf_sys = 1.0 / lambda;
  const double expected = static_cast<double>(plan.segments) * mtbf_sys *
                          std::exp(spec.mttr_seconds / mtbf_sys) *
                          (std::exp(segment / mtbf_sys) - 1.0);
  if (!std::isfinite(expected)) {
    return Status::InvalidArgument(
        "expected completion overflows: a checkpoint segment of " +
        FormatDouble(segment) + " s (straggler slowdown " +
        FormatDouble(jitter) + "x) against a system MTBF of " +
        FormatDouble(mtbf_sys) +
        " s never finishes between crashes; lower straggler_sigma, shorten "
        "checkpoint_interval_s, or raise mtbf_seconds");
  }
  return expected;
}

}  // namespace dmlscale::core
