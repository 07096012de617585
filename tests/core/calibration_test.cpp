// Fixed points of the cost model: the seven Table VII calibration anchors
// (DESIGN.md §5) must each stay within 5% of their target rate. Every other
// modeled figure is emergent from these, so a constant in cost_model.h that
// drifts one of them moves the whole reproduction.
#include <gtest/gtest.h>

#include <cmath>

#include "tools/calibration.h"

namespace linuxfp::calibration {
namespace {

TEST(Calibration, TableSevenAnchorsWithinFivePercent) {
  const std::vector<Anchor> anchors = measure_anchors();
  ASSERT_EQ(anchors.size(), 7u);
  for (const Anchor& a : anchors) {
    const double residual = std::abs(a.mpps - a.target_mpps) / a.target_mpps;
    EXPECT_LE(residual, 0.05)
        << a.name << ": " << a.cycles << " cycles = " << a.mpps
        << " Mpps vs target " << a.target_mpps << " Mpps";
  }
}

}  // namespace
}  // namespace linuxfp::calibration
