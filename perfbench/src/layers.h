#ifndef DMLBENCH_LAYERS_H_
#define DMLBENCH_LAYERS_H_

#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"

namespace dmlbench {

struct LayerMetric {
  std::string name;
  double value;
  const char* unit;
};

/// A probe run failed; the traced run reports no per-layer numbers.
class ProbeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Completes `tracer` with fixed-seed probe answers for the layers the
/// traced workload did not call, runs the fixed reference inputs, and
/// returns every per-layer metric. Throws ProbeError when a probe fails.
std::vector<LayerMetric> MeasureLayers(Tracer* tracer);

}  // namespace dmlbench

#endif  // DMLBENCH_LAYERS_H_
