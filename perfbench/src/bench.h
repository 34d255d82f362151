// Shared pieces of the dmlbench binary: the seeded input generator, the
// in-memory span tracer, and the interface every workload implements.
#ifndef DMLBENCH_BENCH_H_
#define DMLBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dmlbench {

using dmlscale::Result;
using dmlscale::Status;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// splitmix64: the benchmark's own input generator, so the inputs a seed
/// produces do not change when the program's RNGs do.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  /// Uniform integer in [lo, hi].
  int Int(int lo, int hi) {
    return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

/// `count` Latin-hypercube samples in [0, 1): one in each of `count` equal
/// strata. `order` assigns strata to positions and `jitter` places each
/// sample inside its stratum. Giving `order` a fixed seed and `jitter` the
/// benchmark seed keeps every seed's inputs spread the same way, so a
/// workload's cost mix barely moves with the seed.
inline std::vector<double> Strata(Rng* order, Rng* jitter, int count) {
  std::vector<int> slot(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) slot[static_cast<size_t>(i)] = i;
  for (int i = count - 1; i > 0; --i) {
    std::swap(slot[static_cast<size_t>(i)],
              slot[static_cast<size_t>(order->Int(0, i))]);
  }
  std::vector<double> out;
  for (int s : slot) out.push_back((s + jitter->Uniform(0.0, 1.0)) / count);
  return out;
}

/// One timed interval around a call into a layer. `parent` is the index of
/// the span that caused it (-1 for a root); `answer` groups the spans of
/// one answer (-1 outside the timed loop); `count` is the work the call did
/// where the layer reports one (engine events), else 0.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  int64_t answer;
  double count;
};

/// Keeps every span in memory until the process exits. A null Tracer* means
/// "untraced": ScopedSpan then does nothing, so the end-to-end run carries
/// no tracing cost.
class Tracer {
 public:
  int32_t Begin(const char* name, int64_t answer, int32_t parent) {
    spans_.push_back(Span{name, NowNs(), 0, parent, answer, 0.0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }
  void SetCount(int32_t id, double count) {
    spans_[static_cast<size_t>(id)].count = count;
  }
  /// Records an interval measured elsewhere (replayed calls).
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t answer, int32_t parent) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, answer, 0.0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: how many spans, their total duration, their total
  /// self time (duration minus the durations of their child spans), and
  /// the sum of their counts.
  struct Totals {
    int64_t spans = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    double count = 0.0;
  };
  std::map<std::string, Totals> Summarize() const;

  /// Writes the spans as a JSON array (name, start_ns, end_ns, parent,
  /// answer) to `path`.
  Status WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t answer,
             int32_t parent = -1)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(name, answer, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(id_);
  }
  void SetCount(double count) {
    if (tracer_) tracer_->SetCount(id_, count);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// What one answer produced: the work it did (in the workload's unit) and
/// the outputs the check reads.
struct Answer {
  double work = 0.0;
  std::vector<double> outputs;
};

/// One workload: a fixed list of questions generated from the seed and
/// answered back to back by a single client.
class Workload {
 public:
  virtual ~Workload() = default;
  /// What one unit of Answer::work counts, for the report.
  virtual const char* work_unit() const = 0;
  /// The answer-time percentile reported as answer_tail_ms: the highest one
  /// with at least ten answers beyond it at the workload's answer rate.
  virtual double tail_percentile() const = 0;
  /// Generates the question list from `seed`, resolves every scenario and
  /// spec, runs any fits, and answers each distinct kind once, untimed.
  virtual Status Setup(uint64_t seed, Tracer* tracer) = 0;
  virtual size_t num_questions() const = 0;
  virtual Result<Answer> Ask(size_t question, int64_t answer_id,
                             Tracer* tracer) = 0;
  /// Empty when `answer` is a correct answer to `question`; else the reason.
  virtual std::string Check(size_t question, const Answer& answer) = 0;
  /// Runs once after the traced loop, outside its timing, for the spans a
  /// workload cannot record while it answers.
  virtual Status FinishTrace(Tracer* /*tracer*/) { return Status::OK(); }
};

std::unique_ptr<Workload> MakePlan();
std::unique_ptr<Workload> MakeDes();
std::unique_ptr<Workload> MakeServe();
std::unique_ptr<Workload> MakeCalibrate();

/// Workloads whose answers are checked against the untimed warm-up answer
/// to the same question: the outputs must match bit for bit.
std::string CompareBits(const std::vector<double>& expected,
                        const std::vector<double>& actual);

}  // namespace dmlbench

#endif  // DMLBENCH_BENCH_H_
