// Tests for the Johnson-Lindenstrauss transform (Lemma 4.10).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dpcluster/la/jl_transform.h"
#include "dpcluster/random/distributions.h"
#include "dpcluster/la/vector_ops.h"
#include "test_util.h"

namespace dpcluster {
namespace {

TEST(JlTransformTest, OutputDimension) {
  Rng rng(1);
  const JlTransform jl(rng, 64, 10);
  EXPECT_EQ(jl.in_dim(), 64u);
  EXPECT_EQ(jl.out_dim(), 10u);
  const std::vector<double> x(64, 1.0);
  EXPECT_EQ(jl.Apply(x).size(), 10u);
}

TEST(JlTransformTest, LinearInInput) {
  Rng rng(2);
  const JlTransform jl(rng, 16, 8);
  std::vector<double> x(16);
  std::vector<double> y(16);
  FillGaussian(rng, 1.0, x);
  FillGaussian(rng, 1.0, y);
  const auto fx = jl.Apply(x);
  const auto fy = jl.Apply(y);
  const auto fsum = jl.Apply(Add(x, y));
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(fsum[i], fx[i] + fy[i], 1e-10);
  }
}

TEST(JlTransformTest, NormPreservedInExpectation) {
  // E||f(x)||^2 = ||x||^2 for the scaled Gaussian projection.
  Rng rng(3);
  std::vector<double> x(32);
  FillGaussian(rng, 1.0, x);
  const double norm2 = Dot(x, x);
  double sum = 0.0;
  const int trials = 3000;
  for (int i = 0; i < trials; ++i) {
    const JlTransform jl(rng, 32, 8);
    const auto fx = jl.Apply(x);
    sum += Dot(fx, fx);
  }
  EXPECT_NEAR(sum / trials / norm2, 1.0, 0.05);
}

// Distance-preservation sweep over the source dimension: with k sized by
// DimensionFor, all pairwise distances of a point cloud stay within 1 +- eta.
class JlDistortionTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(JlDistortionTest, AllPairDistancesPreserved) {
  const std::size_t d = GetParam();
  Rng rng(100 + d);
  const std::size_t n = 24;
  const double eta = 0.5;
  const std::size_t k = JlTransform::DimensionFor(n, eta, 0.01);
  const JlTransform jl(rng, d, k);

  const PointSet cloud = testing_util::UniformCube(rng, n, d);
  std::vector<std::vector<double>> projected;
  projected.reserve(n);
  for (std::size_t i = 0; i < n; ++i) projected.push_back(jl.Apply(cloud[i]));

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double orig = SquaredDistance(cloud[i], cloud[j]);
      const double proj = SquaredDistance(projected[i], projected[j]);
      EXPECT_GE(proj, (1.0 - eta) * orig);
      EXPECT_LE(proj, (1.0 + eta) * orig);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, JlDistortionTest,
                         ::testing::Values<std::size_t>(4, 16, 64, 256));

TEST(JlTransformTest, DimensionForFormula) {
  // k = ceil(8/eta^2 ln(2 n^2 / beta)).
  const std::size_t k = JlTransform::DimensionFor(1000, 0.5, 0.1);
  const double expect = 8.0 / 0.25 * std::log(2.0 * 1000.0 * 1000.0 / 0.1);
  EXPECT_EQ(k, static_cast<std::size_t>(std::ceil(expect)));
  // Smaller eta needs more dimensions.
  EXPECT_GT(JlTransform::DimensionFor(1000, 0.1, 0.1),
            JlTransform::DimensionFor(1000, 0.5, 0.1));
}

}  // namespace
}  // namespace dpcluster
