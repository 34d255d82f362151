// dmlbench: the repository benchmark. One client answers a fixed,
// seed-generated list of questions back to back (a closed loop, one shard,
// one thread) for a set number of seconds, checks every answer, and prints
// the end-to-end metrics. With --trace 1 it instead times the calls into
// each layer and prints the per-layer metrics.
//
//   dmlbench --workload plan|des|serve|calibrate|all --seed N --seconds S
//            [--trace 0|1] [--spans PATH] [--corrupt 1]
//
// With --workload all the workloads run one after another in this process,
// so peak_rss_mb, the process-wide high-water mark, is reported only for a
// single-workload run.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "layers.h"

namespace dmlbench {
namespace {

const int64_t kProcessStartNs = NowNs();

/// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
  bool corrupt = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "plan") return MakePlan();
  if (name == "des") return MakeDes();
  if (name == "serve") return MakeServe();
  if (name == "calibrate") return MakeCalibrate();
  return nullptr;
}

const std::vector<std::string> kWorkloads = {"plan", "des", "serve",
                                             "calibrate"};

/// Linear interpolation between closest ranks of the sorted samples.
double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Loop {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t start_ns = 0;
  /// Per attempted answer: when it was checked, and the work it did (0 for
  /// a failed or wrong answer).
  std::vector<int64_t> end_ns;
  std::vector<double> work;
  /// Per answered question, its time.
  std::vector<double> answer_ms;

  double wall_s() const { return (end_ns.back() - start_ns) * 1e-9; }

  /// Work per wall second: the median over kParts consecutive parts of the
  /// loop, each a whole number of passes over the `questions`-long list,
  /// so a slow phase of the host shifts one part, not the figure. Falls
  /// back to the whole loop when it holds fewer than kParts passes.
  double WorkPerSecond(size_t questions) const {
    constexpr size_t kParts = 5;
    const size_t per_part = end_ns.size() / (kParts * questions) * questions;
    if (per_part == 0) {
      double total = 0.0;
      for (double w : work) total += w;
      return total / wall_s();
    }
    std::vector<double> rates;
    for (size_t k = 0; k < kParts; ++k) {
      const size_t first = k * per_part;
      const int64_t from = first == 0 ? start_ns : end_ns[first - 1];
      double total = 0.0;
      for (size_t i = first; i < first + per_part; ++i) total += work[i];
      rates.push_back(total / ((end_ns[first + per_part - 1] - from) * 1e-9));
    }
    return Median(rates);
  }
};

/// Answers questions back to back for `seconds`, checking each answer.
Loop RunLoop(Workload* workload, double seconds, Tracer* tracer,
             bool corrupt, int64_t first_answer_id) {
  Loop loop;
  loop.start_ns = NowNs();
  const int64_t deadline =
      loop.start_ns + static_cast<int64_t>(seconds * 1e9);
  for (int64_t i = 0; i == 0 || NowNs() < deadline; ++i) {
    const size_t question = static_cast<size_t>(i) % workload->num_questions();
    const int64_t t0 = NowNs();
    Result<Answer> answer =
        workload->Ask(question, first_answer_id + i, tracer);
    const int64_t t1 = NowNs();
    ++loop.attempted;
    double work = 0.0;
    if (!answer.ok()) {
      ++loop.failed;
      std::cout << "answer " << i << " failed: " << answer.status().ToString()
                << "\n";
    } else {
      loop.answer_ms.push_back((t1 - t0) * 1e-6);
      Answer a = std::move(answer).value();
      if (corrupt && i == 0 && !a.outputs.empty()) {
        a.outputs[0] = std::nextafter(a.outputs[0], 1e300) + 1.0;
      }
      std::string why = workload->Check(question, a);
      if (why.empty()) {
        work = a.work;
      } else {
        ++loop.failed;
        std::cout << "answer " << i << " (question " << question
                  << ") is wrong: " << why << "\n";
      }
    }
    loop.end_ns.push_back(NowNs());
    loop.work.push_back(work);
  }
  return loop;
}

/// The end-to-end run: set-up kSetups times (the first from process
/// start), then the timed loop on the last set-up.
Result<Outcome> RunEndToEnd(const std::string& name, const Options& options,
                            int64_t setup_start_ns, bool report_rss) {
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    const int64_t t0 = k == 0 ? setup_start_ns : NowNs();
    workload = Make(name);
    DMLSCALE_RETURN_NOT_OK(workload->Setup(options.seed, nullptr));
    setup_s.push_back((NowNs() - t0) * 1e-9);
  }
  Loop loop = RunLoop(workload.get(), options.seconds, nullptr,
                      options.corrupt, 0);
  Outcome out;
  out.attempted = loop.attempted;
  out.failed = loop.failed;
  if (loop.answer_ms.empty()) return out;
  const double p = workload->tail_percentile();
  const size_t n = loop.answer_ms.size();
  const double beyond = std::floor(static_cast<double>(n) * (1.0 - p / 100.0));
  std::cout << name << ": " << n << " answers in " << loop.wall_s()
            << " s; tail = p" << p << " (" << beyond
            << " answers beyond it)"
            << (beyond < 10 ? " WARNING: fewer than 10 beyond the tail" : "")
            << "; set-ups:";
  for (double s : setup_s) std::cout << " " << s;
  std::cout << " s; work = " << workload->work_unit() << "\n";
  out.metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"work_per_s", loop.WorkPerSecond(workload->num_questions()),
       "work/s"},
      {"answer_p50_ms", Percentile(loop.answer_ms, 50.0), "ms"},
      {"answer_tail_ms", Percentile(loop.answer_ms, p), "ms"},
  };
  if (report_rss) out.metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  return out;
}

/// The traced run: half the time untraced, half traced (their work_per_s
/// ratio is the tracing overhead), then the per-layer metrics.
Result<Outcome> RunTraced(const std::string& name, const Options& options,
                          Tracer* tracer) {
  std::unique_ptr<Workload> workload = Make(name);
  DMLSCALE_RETURN_NOT_OK(workload->Setup(options.seed, tracer));
  const double half = options.seconds / 2.0;
  Loop plain = RunLoop(workload.get(), half, nullptr, options.corrupt, 0);
  Loop traced = RunLoop(workload.get(), half, tracer, false, plain.attempted);
  DMLSCALE_RETURN_NOT_OK(workload->FinishTrace(tracer));
  Outcome out;
  out.attempted = plain.attempted + traced.attempted;
  out.failed = plain.failed + traced.failed;
  std::vector<LayerMetric> layers;
  try {
    layers = MeasureLayers(tracer);
  } catch (const ProbeError& e) {
    return Status::Internal(e.what());
  }
  for (const LayerMetric& m : layers) {
    out.metrics.push_back({m.name, m.value, m.unit});
  }
  const double plain_rate = plain.WorkPerSecond(workload->num_questions());
  const double traced_rate = traced.WorkPerSecond(workload->num_questions());
  out.metrics.push_back(
      {"trace.work_per_s_ratio", traced_rate / plain_rate, "ratio"});
  std::cout << name << ": untraced " << plain_rate << " / traced "
            << traced_rate << " work/s; work = " << workload->work_unit()
            << "\n";
  std::cout << "span                       spans    total_s     self_s\n";
  for (const auto& [span, t] : tracer->Summarize()) {
    std::printf("%-24s %7lld %10.4f %10.4f\n", span.c_str(),
                static_cast<long long>(t.spans), t.total_s, t.self_s);
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--spans") {
      options->spans_path = value;
    } else if (flag == "--corrupt") {
      options->corrupt = value == "1";
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return false;
    }
  }
  if (argc % 2 != 1) {
    std::cerr << "flags take one value each\n";
    return false;
  }
  const bool known = options->workload == "all" || Make(options->workload);
  if (!known) {
    std::cerr << "--workload must be plan, des, serve, calibrate or all\n";
    return false;
  }
  if (options->seconds <= 0.0) {
    std::cerr << "--seconds must be given and > 0\n";
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) return 2;
  const std::string build_type = DMLBENCH_BUILD_TYPE;
  std::cout << "# build_type=" << build_type
            << " nproc=" << std::thread::hardware_concurrency()
            << " compiler=\"" << DMLBENCH_COMPILER << "\" seed="
            << options.seed << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << "\n";
  if (build_type != "Release") {
    std::cerr << "refusing to report numbers from a " << build_type
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  std::vector<std::string> names =
      options.workload == "all" ? kWorkloads
                                : std::vector<std::string>{options.workload};
  Outcome total;
  std::vector<Tracer> tracers(names.size());
  for (size_t w = 0; w < names.size(); ++w) {
    const std::string& name = names[w];
    const int64_t start = w == 0 ? kProcessStartNs : NowNs();
    Result<Outcome> outcome = options.trace
                                  ? RunTraced(name, options, &tracers[w])
                                  : RunEndToEnd(name, options, start,
                                                names.size() == 1);
    if (!outcome.ok()) {
      std::cerr << name << ": " << outcome.status().ToString() << "\n";
      return 1;
    }
    total.attempted += outcome->attempted;
    total.failed += outcome->failed;
    for (Metric m : outcome->metrics) {
      std::cout << "  " << name << " " << m.name << " = " << m.value << " "
                << m.unit << "\n";
      if (names.size() > 1) m.name = name + "." + m.name;
      total.metrics.push_back(std::move(m));
    }
  }
  if (options.trace && !options.spans_path.empty()) {
    for (size_t w = 0; w < names.size(); ++w) {
      const std::string path = names.size() > 1
                                   ? options.spans_path + "." + names[w]
                                   : options.spans_path;
      Status written = tracers[w].WriteJson(path);
      if (!written.ok()) {
        std::cerr << written.ToString() << "\n";
        return 1;
      }
    }
  }
  std::ostringstream json;
  json << "{\"correct\": " << (total.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << total.attempted
       << ", \"failed\": " << total.failed << ", \"metrics\": {";
  for (size_t i = 0; i < total.metrics.size(); ++i) {
    const Metric& m = total.metrics[i];
    json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
         << JsonNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace dmlbench

int main(int argc, char** argv) { return dmlbench::Main(argc, argv); }
