// Tests for the workload metrics and table printer.

#include <gtest/gtest.h>

#include "dpcluster/geo/ball.h"
#include "dpcluster/workload/metrics.h"
#include "dpcluster/workload/table.h"
#include "test_util.h"

namespace dpcluster {
namespace {

TEST(MetricsTest, EvaluateOnHandMadeExample) {
  const PointSet s = testing_util::MakePointSet(1, {0.0, 0.1, 0.2, 0.9, 1.0});
  Ball found;
  found.center = {0.1};
  found.radius = 0.1;
  ASSERT_OK_AND_ASSIGN(EvalMetrics m, Evaluate(s, 3, found));
  EXPECT_EQ(m.captured, 3u);
  EXPECT_DOUBLE_EQ(m.delta, 0.0);
  EXPECT_DOUBLE_EQ(m.r_opt_lower, 0.1);  // Exact 1D optimum.
  EXPECT_DOUBLE_EQ(m.w_reported, 1.0);
  EXPECT_DOUBLE_EQ(m.tight_radius, 0.1);
  EXPECT_DOUBLE_EQ(m.w_effective, 1.0);
}

TEST(MetricsTest, DeltaCanBeNegativeWhenOverCapturing) {
  const PointSet s = testing_util::MakePointSet(1, {0.0, 0.1, 0.2});
  Ball found;
  found.center = {0.1};
  found.radius = 1.0;
  ASSERT_OK_AND_ASSIGN(EvalMetrics m, Evaluate(s, 2, found));
  EXPECT_EQ(m.captured, 3u);
  EXPECT_DOUBLE_EQ(m.delta, -1.0);
}

TEST(MetricsTest, RejectsDimensionMismatch) {
  const PointSet s = testing_util::MakePointSet(2, {0.0, 0.0});
  Ball found;
  found.center = {0.1};
  EXPECT_FALSE(Evaluate(s, 1, found).ok());
}

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable table({"method", "delta", "w"});
  table.AddRow({"this work", "12.0", "1.5"});
  table.AddRow({"exp-mech", "3.0", "1.0"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("method"), std::string::npos);
  EXPECT_NE(out.find("this work"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  // Header line comes first.
  EXPECT_LT(out.find("method"), out.find("this work"));
}

TEST(TextTableTest, Formatting) {
  EXPECT_EQ(TextTable::Fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::Fmt(2.0, 0), "2");
  EXPECT_EQ(TextTable::FmtInt(1234), "1234");
}

}  // namespace
}  // namespace dpcluster
