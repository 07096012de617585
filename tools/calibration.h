// The seven Table VII calibration anchors (DESIGN.md §5): per-packet modeled
// cycles of the single-core configurations the cost model is tuned against.
// tools/calibrate prints them; tests/core/calibration_test.cpp gates them.
#pragma once

#include <cstdint>
#include <vector>

namespace linuxfp::calibration {

struct Anchor {
  const char* name = "";
  std::uint64_t cycles = 0;  // modeled cycles of one 64 B packet
  double mpps = 0;           // single-core rate: cpu_hz / cycles
  double target_mpps = 0;    // DESIGN.md §5
};

// Builds each configuration from scratch and times one packet through it.
std::vector<Anchor> measure_anchors();

}  // namespace linuxfp::calibration
