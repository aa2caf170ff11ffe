// Test helper: reads a process-wide counter by its Prometheus metric name,
// the same name the component that bumps it registers.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace apollo {

// Value of the unlabelled counter `name` in the global registry; 0 until
// something bumps it. Registering here resolves the cell the component's
// own handle uses, whichever side registers first.
inline std::uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Value();
}

}  // namespace apollo
