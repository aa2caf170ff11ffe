// Telemetry record types flowing through Apollo's pub-sub fabric.
//
// The paper stores Information as a tuple (timestamp, fact/insight value,
// predicted|measured). Sample is that tuple; it is trivially copyable so the
// Archiver can persist it as a fixed binary record.
#pragma once

#include <cstdint>
#include <type_traits>

#include "common/clock.h"

namespace apollo {

enum class Provenance : std::uint8_t { kMeasured = 0, kPredicted = 1 };

struct Sample {
  TimeNs timestamp = 0;
  double value = 0.0;
  Provenance provenance = Provenance::kMeasured;

  bool measured() const { return provenance == Provenance::kMeasured; }

  friend bool operator==(const Sample& a, const Sample& b) {
    return a.timestamp == b.timestamp && a.value == b.value &&
           a.provenance == b.provenance;
  }
};

static_assert(std::is_trivially_copyable_v<Sample>);

}  // namespace apollo
