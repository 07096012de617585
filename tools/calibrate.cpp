// Calibration probe: prints per-packet cycle totals for the configurations
// the cost model is calibrated against (DESIGN.md §5). Not a benchmark —
// a development tool used to tune cost_model.h. The same anchors are gated
// within 5% by tests/core/calibration_test.cpp.
#include <cstdio>
#include <string>

#include "tools/calibration.h"

int main() {
  for (const auto& a : linuxfp::calibration::measure_anchors()) {
    std::printf("%-17s %6llu cycles  %.3f Mpps (target %.3f)\n",
                (std::string(a.name) + ":").c_str(),
                static_cast<unsigned long long>(a.cycles), a.mpps,
                a.target_mpps);
  }
  return 0;
}
