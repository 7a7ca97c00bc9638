// Shared helpers for the dpcluster test suite.

#ifndef DPCLUSTER_TESTS_TEST_UTIL_H_
#define DPCLUSTER_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "dpcluster/common/status.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/geo/point_set.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/random/rng.h"

#define ASSERT_OK(expr) ASSERT_TRUE((expr).ok()) << (expr).ToString()
#define EXPECT_OK(expr) EXPECT_TRUE((expr).ok()) << (expr).ToString()

#define ASSERT_OK_AND_ASSIGN(lhs, expr)            \
  ASSERT_OK_AND_ASSIGN_IMPL_(                      \
      DPC_STATUS_CONCAT_(_test_result, __LINE__), lhs, expr)

#define ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, expr)        \
  auto tmp = (expr);                                      \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();      \
  lhs = std::move(tmp).value()

namespace dpcluster {
namespace testing_util {

/// A d-dimensional PointSet from an initializer-style flat buffer.
inline PointSet MakePointSet(std::size_t dim, std::vector<double> flat) {
  return PointSet(dim, std::move(flat));
}

/// n points iid uniform over [0, 1]^dim.
inline PointSet UniformCube(Rng& rng, std::size_t n, std::size_t dim) {
  PointSet s(dim);
  std::vector<double> p(dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (double& x : p) x = rng.NextDouble();
    s.Add(p);
  }
  return s;
}

/// Plain O(n^2) reference for GoodRadius's capped average (Algorithm 1)
///   L(r, S) = (1/cap) * sum of the cap largest min(B_r(x_i, S), cap),
/// B_r counting every point within r of x_i (itself included). Each row holds
/// a point's distances to all n points from la Distance, narrowed to float
/// with the library's inclusive one-ulp rounding (BumpDistanceUp) and sorted
/// ascending, so a radius resolves exactly as in KnnCappedCounts.
class ReferenceCappedCounts {
 public:
  explicit ReferenceCappedCounts(const PointSet& s) : rows_(s.size()) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      for (std::size_t j = 0; j < s.size(); ++j) {
        rows_[i].push_back(
            BumpDistanceUp(static_cast<float>(Distance(s[i], s[j]))));
      }
      std::sort(rows_[i].begin(), rows_[i].end());
    }
  }

  double CappedTopAverage(double r, std::size_t cap) const {
    const float bound = std::nextafter(static_cast<float>(r),
                                       std::numeric_limits<float>::infinity());
    std::vector<std::size_t> counts;
    for (const std::vector<float>& row : rows_) {
      const auto within = static_cast<std::size_t>(
          std::upper_bound(row.begin(), row.end(), bound) - row.begin());
      counts.push_back(r < 0.0 ? 0 : std::min(within, cap));
    }
    std::sort(counts.rbegin(), counts.rend());
    double sum = 0.0;
    for (std::size_t i = 0; i < cap; ++i) sum += static_cast<double>(counts[i]);
    return sum / static_cast<double>(cap);
  }

 private:
  std::vector<std::vector<float>> rows_;
};

/// Sample mean of a scalar callback over `trials` evaluations.
template <typename F>
double SampleMean(std::size_t trials, F&& f) {
  double sum = 0.0;
  for (std::size_t i = 0; i < trials; ++i) sum += f();
  return sum / static_cast<double>(trials);
}

}  // namespace testing_util
}  // namespace dpcluster

#endif  // DPCLUSTER_TESTS_TEST_UTIL_H_
