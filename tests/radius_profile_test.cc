// Tests for RadiusProfile: the exact L(r, S) step function must agree with the
// direct definition at every radius.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dpcluster/core/radius_profile.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/geo/spatial_grid.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/parallel/thread_pool.h"
#include "test_util.h"

namespace dpcluster {
namespace {

using testing_util::MakePointSet;

TEST(RadiusProfileTest, ValidatesArguments) {
  const GridDomain domain(16, 2);
  const PointSet empty(2);
  EXPECT_FALSE(RadiusProfile::Build(empty, 1, domain, 100).ok());
  const PointSet s = MakePointSet(2, {0.0, 0.0, 1.0, 1.0});
  EXPECT_FALSE(RadiusProfile::Build(s, 0, domain, 100).ok());
  EXPECT_FALSE(RadiusProfile::Build(s, 3, domain, 100).ok());
  EXPECT_EQ(RadiusProfile::Build(s, 1, domain, 1).status().code(),
            StatusCode::kResourceExhausted);
  const PointSet wrong_dim = MakePointSet(1, {0.0});
  EXPECT_FALSE(RadiusProfile::Build(wrong_dim, 1, domain, 100).ok());
}

TEST(RadiusProfileTest, MatchesDirectEvaluation) {
  Rng rng(1);
  const GridDomain domain(64, 2);
  for (int trial = 0; trial < 8; ++trial) {
    PointSet s = testing_util::UniformCube(rng, 30, 2);
    domain.SnapAll(s);
    const std::size_t t = 1 + rng.NextUint64(29);
    ASSERT_OK_AND_ASSIGN(RadiusProfile profile,
                         RadiusProfile::Build(s, t, domain, 100));
    const testing_util::ReferenceCappedCounts reference(s);
    // Check agreement at every solution-grid radius.
    for (std::uint64_t g = 0; g < domain.RadiusGridSize(); g += 7) {
      const double r = domain.RadiusFromIndex(g);
      EXPECT_NEAR(profile.LAtSolutionIndex(g),
                  reference.CappedTopAverage(r, t), 1e-9)
          << "g=" << g << " t=" << t;
      // And at half radii (used by the quality's first term).
      EXPECT_NEAR(profile.LAtHalfSolutionIndex(g),
                  reference.CappedTopAverage(r / 2.0, t), 1e-9);
    }
  }
}

TEST(RadiusProfileTest, ZeroRadiusCountsDuplicates) {
  const GridDomain domain(16, 1);
  // Five copies of the same grid point, one far away; t = 4.
  const PointSet s = MakePointSet(1, {0.5, 0.5, 0.5, 0.5, 0.5, 1.0});
  ASSERT_OK_AND_ASSIGN(RadiusProfile profile, RadiusProfile::Build(s, 4, domain, 10));
  // Balls of radius 0 around the duplicates hold 5 points (capped at 4);
  // the far point holds 1: top-4 average = (4+4+4+4)/4 = 4.
  EXPECT_DOUBLE_EQ(profile.LAtZero(), 4.0);
}

TEST(RadiusProfileTest, MonotoneNonDecreasing) {
  Rng rng(2);
  const GridDomain domain(32, 2);
  PointSet s = testing_util::UniformCube(rng, 25, 2);
  domain.SnapAll(s);
  ASSERT_OK_AND_ASSIGN(RadiusProfile profile, RadiusProfile::Build(s, 10, domain, 100));
  double prev = -1.0;
  for (std::uint64_t g = 0; g < domain.RadiusGridSize(); ++g) {
    const double l = profile.LAtSolutionIndex(g);
    EXPECT_GE(l, prev - 1e-12);
    prev = l;
  }
}

TEST(RadiusProfileTest, SaturatesAtTForLargeRadius) {
  Rng rng(3);
  const GridDomain domain(32, 3);
  PointSet s = testing_util::UniformCube(rng, 20, 3);
  domain.SnapAll(s);
  const std::size_t t = 8;
  ASSERT_OK_AND_ASSIGN(RadiusProfile profile, RadiusProfile::Build(s, t, domain, 100));
  const std::uint64_t last = domain.RadiusGridSize() - 1;
  EXPECT_DOUBLE_EQ(profile.LAtSolutionIndex(last), static_cast<double>(t));
}

TEST(RadiusProfileTest, SensitivityAtMostTwoUnderReplacement) {
  // Lemma 4.5's core property, checked on the materialized profile.
  Rng rng(4);
  const GridDomain domain(32, 2);
  for (int trial = 0; trial < 6; ++trial) {
    PointSet s = testing_util::UniformCube(rng, 20, 2);
    domain.SnapAll(s);
    const std::size_t t = 1 + rng.NextUint64(19);
    PointSet s2 = s;
    std::vector<double> replacement = {domain.Snap(rng.NextDouble()),
                                       domain.Snap(rng.NextDouble())};
    s2.ReplaceRow(rng.NextUint64(s.size()), replacement);

    ASSERT_OK_AND_ASSIGN(RadiusProfile p0, RadiusProfile::Build(s, t, domain, 100));
    ASSERT_OK_AND_ASSIGN(RadiusProfile p1, RadiusProfile::Build(s2, t, domain, 100));
    // The SparseVector engine's L: the same bound on the t-NN count rows.
    ASSERT_OK_AND_ASSIGN(IndexedDataset i0, IndexedDataset::Create(s, domain));
    ASSERT_OK_AND_ASSIGN(IndexedDataset i1, IndexedDataset::Create(s2, domain));
    ASSERT_OK_AND_ASSIGN(KnnCappedCounts c0, KnnCappedCounts::Build(i0, t, 100));
    ASSERT_OK_AND_ASSIGN(KnnCappedCounts c1, KnnCappedCounts::Build(i1, t, 100));
    for (std::uint64_t g = 0; g < domain.RadiusGridSize(); g += 5) {
      EXPECT_LE(std::abs(p0.LAtSolutionIndex(g) - p1.LAtSolutionIndex(g)),
                2.0 + 1e-9)
          << "g=" << g;
      const double r = domain.RadiusFromIndex(g);
      EXPECT_LE(std::abs(c0.CappedTopAverage(r, t) - c1.CappedTopAverage(r, t)),
                2.0 + 1e-9)
          << "knn g=" << g;
    }
  }
}

void ExpectSameProfile(const RadiusProfile& a, const RadiusProfile& b,
                       const std::string& context) {
  ASSERT_EQ(a.fine_l().domain_size(), b.fine_l().domain_size()) << context;
  ASSERT_EQ(a.fine_l().num_pieces(), b.fine_l().num_pieces()) << context;
  for (std::size_t p = 0; p < a.fine_l().num_pieces(); ++p) {
    ASSERT_EQ(a.fine_l().starts()[p], b.fine_l().starts()[p])
        << context << " piece=" << p;
    ASSERT_EQ(a.fine_l().values()[p], b.fine_l().values()[p])
        << context << " piece=" << p;
  }
}

TEST(RadiusProfileTest, ProfileIndexNamesRoundTrip) {
  for (const auto index :
       {ProfileIndex::kAuto, ProfileIndex::kGrid, ProfileIndex::kExact}) {
    ASSERT_OK_AND_ASSIGN(ProfileIndex parsed,
                         ProfileIndexFromName(ProfileIndexName(index)));
    EXPECT_EQ(parsed, index);
  }
  EXPECT_FALSE(ProfileIndexFromName("fancy").ok());
}

TEST(RadiusProfileTest, AutoCrossoverPrefersGridForSmallT) {
  EXPECT_EQ(ResolveProfileIndex(ProfileIndex::kAuto, 4096, 256, 2),
            ProfileIndex::kGrid);
  EXPECT_EQ(ResolveProfileIndex(ProfileIndex::kAuto, 4096, 2048, 2),
            ProfileIndex::kExact);
  EXPECT_EQ(ResolveProfileIndex(ProfileIndex::kAuto, 100, 4, 2),
            ProfileIndex::kExact);
  EXPECT_EQ(ResolveProfileIndex(ProfileIndex::kGrid, 100, 50, 2),
            ProfileIndex::kGrid);
  EXPECT_EQ(ResolveProfileIndex(ProfileIndex::kExact, 4096, 2, 2),
            ProfileIndex::kExact);
}

TEST(RadiusProfileTest, AutoCrossoverExtendsGridRangeAtHighDimension) {
  // t - 1 in (n/4, n/2]: exact at low d, but at d >= 16 the cell grid
  // collapses to one cell, batched k-NN runs the blocked dense scan at a
  // cost independent of t, and the grid generator stays ahead of the pair
  // sweep.
  EXPECT_EQ(ResolveProfileIndex(ProfileIndex::kAuto, 4096, 1500, 2),
            ProfileIndex::kExact);
  EXPECT_EQ(ResolveProfileIndex(ProfileIndex::kAuto, 4096, 1500, 32),
            ProfileIndex::kGrid);
  // Beyond n/2 even the t-independent dense scan cannot pay for itself
  // against the events the sweep must then carry.
  EXPECT_EQ(ResolveProfileIndex(ProfileIndex::kAuto, 4096, 2500, 32),
            ProfileIndex::kExact);
  // The collapse predicate that moves the crossover from n/4 to n/2.
  EXPECT_TRUE(GridCollapsesToSingleCell(4096, 64, 16));
  EXPECT_TRUE(GridCollapsesToSingleCell(4096, 32, 1499));
  EXPECT_FALSE(GridCollapsesToSingleCell(4096, 2, 16));
}

// The lossless-pruning property: the grid-indexed profile must be
// bit-identical to the exact all-pairs sweep — same StepFunction breakpoints,
// same values — on every scenario family, for t spanning the degenerate
// edges (t=1: no events matter; t=n: nothing is pruned), at any thread count.
TEST(RadiusProfileTest, GridBitIdenticalToExactAcrossScenarioFamilies) {
  const ScenarioRegistry& registry = ScenarioRegistry::Global();
  const std::vector<std::string> families = registry.Names();
  ASSERT_EQ(families.size(), 9u);
  ThreadPool pool(8);
  std::uint64_t seed = 900;
  for (const std::string& family : families) {
    for (const auto& [n, dim] :
         std::vector<std::pair<std::size_t, std::size_t>>{{64, 1},
                                                          {192, 2},
                                                          {256, 3}}) {
      ScenarioSpec spec;
      spec.scenario = family;
      spec.n = n;
      spec.dim = dim;
      spec.levels = 1u << 8;
      Rng rng(++seed);
      ASSERT_OK_AND_ASSIGN(const ScenarioFamily* generator,
                           registry.Lookup(family));
      ASSERT_OK_AND_ASSIGN(ScenarioInstance instance,
                           generator->Generate(rng, spec));
      for (const std::size_t t :
           {std::size_t{1}, std::size_t{2}, instance.t, n / 2, n}) {
        ASSERT_OK_AND_ASSIGN(
            RadiusProfile exact,
            RadiusProfile::Build(instance.points, t, instance.domain, n,
                                 nullptr, ProfileIndex::kExact));
        ASSERT_OK_AND_ASSIGN(
            RadiusProfile grid,
            RadiusProfile::Build(instance.points, t, instance.domain, n,
                                 nullptr, ProfileIndex::kGrid));
        ASSERT_OK_AND_ASSIGN(
            RadiusProfile grid_mt,
            RadiusProfile::Build(instance.points, t, instance.domain, n,
                                 &pool, ProfileIndex::kGrid));
        const std::string context = family + " n=" + std::to_string(n) +
                                    " d=" + std::to_string(dim) +
                                    " t=" + std::to_string(t);
        ExpectSameProfile(exact, grid, context);
        ExpectSameProfile(exact, grid_mt, context + " (threads=8)");
      }
    }
  }
}

TEST(RadiusProfileTest, FineGridTwiceSolutionGrid) {
  const GridDomain domain(16, 2);
  const PointSet s = MakePointSet(2, {0.0, 0.0, 1.0, 1.0});
  ASSERT_OK_AND_ASSIGN(RadiusProfile profile, RadiusProfile::Build(s, 1, domain, 10));
  EXPECT_EQ(profile.fine_l().domain_size(),
            2 * (domain.RadiusGridSize() - 1) + 1);
  EXPECT_EQ(profile.solution_grid_size(), domain.RadiusGridSize());
}

// ------------------------------------------------ direct-evaluation oracle ---
//
// The cases below check the bucketed generators against the definition of L
// itself rather than against each other. Their points have coordinates on a
// 1/64 lattice, so every pairwise distance is sqrt(integer) / 64: distinct
// distances sit >= ~1e-4 apart, far above the float oracle's resolution, and
// duplicate rows are exactly distance 0 apart.

constexpr std::uint64_t kHugeLevels = std::uint64_t{1} << 40;

PointSet LatticePoints(Rng& rng, std::size_t n, std::size_t dim,
                       std::uint64_t lattice_size) {
  std::vector<double> flat;
  for (std::size_t i = 0; i < n * dim; ++i) {
    flat.push_back(static_cast<double>(rng.NextUint64(lattice_size + 1)) /
                   64.0);
  }
  return MakePointSet(dim, std::move(flat));
}

// At every distinct pairwise distance (0 included) the profile must equal
// the all-pairs reference over `expanded` (the duplicate-expanded points),
// read at a fine index that holds that distance but not the next.
// The last fine index must count every pair, including pairs beyond the
// grid's largest radius, which clamp onto it.
void ExpectMatchesOracle(const RadiusProfile& profile,
                         const PointSet& expanded, std::size_t t,
                         const GridDomain& domain, const std::string& context) {
  const testing_util::ReferenceCappedCounts reference(expanded);
  std::vector<double> dists = {0.0};
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    for (std::size_t j = i + 1; j < expanded.size(); ++j) {
      dists.push_back(Distance(expanded[i], expanded[j]));
    }
  }
  std::sort(dists.begin(), dists.end());
  dists.erase(std::unique(dists.begin(), dists.end()), dists.end());
  const double fine_step =
      domain.axis_length() / (4.0 * static_cast<double>(domain.levels()));
  const std::uint64_t last = profile.fine_l().domain_size() - 1;
  std::size_t checked = 0;
  for (std::size_t a = 0; a + 1 < dists.size(); ++a) {
    // Fine index g covers radii up to g * fine_step: it must hold dists[a]
    // and not dists[a + 1]. On a coarse grid two close distances can share
    // a fine cell; such gaps are skipped.
    const double g = std::floor((dists[a] + dists[a + 1]) / 2.0 / fine_step);
    if (g >= static_cast<double>(last)) break;  // Past the grid's reach.
    const double rg = g * fine_step;
    if (rg < dists[a] || dists[a + 1] < rg + 1e-9) continue;
    EXPECT_DOUBLE_EQ(profile.fine_l().ValueAt(static_cast<std::uint64_t>(g)),
                     reference.CappedTopAverage(dists[a], t))
        << context << " r=" << dists[a];
    ++checked;
  }
  EXPECT_GT(checked, dists.size() / 2) << context;
  EXPECT_DOUBLE_EQ(profile.fine_l().ValueAt(last),
                   reference.CappedTopAverage(dists.back() + 1.0, t))
      << context << " (last fine index)";
}

// Builds the profile through both unweighted generators, via the PointSet and
// the IndexedDataset entry points, at 1 and 4 threads, and checks each
// against the oracle.
void ExpectAllGeneratorsMatchOracle(const PointSet& s, const GridDomain& domain,
                                    const std::string& context) {
  const std::size_t n = s.size();
  ASSERT_OK_AND_ASSIGN(IndexedDataset index, IndexedDataset::Create(s, domain));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    for (const ProfileIndex generator : {ProfileIndex::kExact,
                                         ProfileIndex::kGrid}) {
      for (const std::size_t t :
           {std::size_t{1}, std::size_t{2}, std::size_t{5}, n / 2, n}) {
        const std::string where = context + " " +
                                  std::string(ProfileIndexName(generator)) +
                                  " t=" + std::to_string(t) +
                                  " threads=" + std::to_string(threads);
        ASSERT_OK_AND_ASSIGN(
            RadiusProfile direct,
            RadiusProfile::Build(s, t, domain, n, &pool, generator));
        ExpectMatchesOracle(direct, s, t, domain, where);
        ASSERT_OK_AND_ASSIGN(
            RadiusProfile indexed,
            RadiusProfile::Build(index, t, n, &pool, generator));
        ExpectSameProfile(direct, indexed, where + " (indexed)");
      }
    }
  }
}

// |X| = 2^40: the fine domain (~2^43 indices) dwarfs the event count, so the
// buckets stand for ranks of the distinct fine indices present, and the
// profile's breakpoints must land back on the original indices.
TEST(RadiusProfileOracleTest, SparseHugeDomainThroughRankMap) {
  Rng rng(71);
  for (const std::size_t dim : {std::size_t{1}, std::size_t{2}}) {
    const GridDomain domain(kHugeLevels, dim);
    const PointSet s = LatticePoints(rng, 40, dim, 64);
    ExpectAllGeneratorsMatchOracle(s, domain,
                                   "|X|=2^40 d=" + std::to_string(dim));
    ASSERT_OK_AND_ASSIGN(RadiusProfile profile,
                         RadiusProfile::Build(s, 5, domain, s.size()));
    EXPECT_GT(profile.fine_l().starts().back(), std::uint64_t{1} << 32);
  }
}

// Points outside the domain's cube lie farther apart than the grid's largest
// radius; their events clamp onto the last fine index, on the dense layout
// (|X| = 16) and through the rank map (|X| = 2^40) alike.
TEST(RadiusProfileOracleTest, DistancesClampAtMaxFine) {
  Rng rng(72);
  for (const std::uint64_t levels : {std::uint64_t{16}, kHugeLevels}) {
    const GridDomain domain(levels, 1);
    PointSet s = LatticePoints(rng, 24, 1, 64);
    for (const double far : {1.5, 2.25, 3.0, 3.0}) {
      s.Add(std::vector<double>{far});
    }
    ExpectAllGeneratorsMatchOracle(s, domain,
                                   "clamp |X|=" + std::to_string(levels));
  }
}

// Duplicate-heavy points (a 5x5 lattice holding 60 points): every duplicate
// pair is an event at fine index 0, which must be swept before L(0) is
// recorded.
TEST(RadiusProfileOracleTest, DuplicatesLandAtIndexZero) {
  Rng rng(73);
  std::vector<double> flat;
  for (std::size_t i = 0; i < 60 * 2; ++i) {
    flat.push_back(static_cast<double>(16 * rng.NextUint64(5)) / 64.0);
  }
  const PointSet s = MakePointSet(2, std::move(flat));
  for (const std::uint64_t levels : {std::uint64_t{1} << 8, kHugeLevels}) {
    ExpectAllGeneratorsMatchOracle(s, GridDomain(levels, 2),
                                   "duplicates |X|=" + std::to_string(levels));
  }
}

// Weighted rows (weights 1..4, some rows repeated outright) against the
// oracle over their duplicate expansion: pair (i, j) raises i by w(j) and j
// by w(i), and each row's w - 1 self-copies land at fine index 0.
TEST(RadiusProfileOracleTest, WeightedRowsMatchDuplicateExpansion) {
  Rng rng(74);
  for (const std::uint64_t levels : {std::uint64_t{1} << 10, kHugeLevels}) {
    const GridDomain domain(levels, 2);
    PointSet rows = LatticePoints(rng, 24, 2, 32);
    for (const std::size_t twin : {0, 1}) {  // Copy first: Add may reallocate.
      const std::vector<double> row(rows[twin].begin(), rows[twin].end());
      rows.Add(row);
    }
    std::vector<std::uint64_t> weights;
    PointSet expanded(2);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      weights.push_back(1 + rng.NextUint64(4));
      for (std::uint64_t copy = 0; copy < weights.back(); ++copy) {
        expanded.Add(rows[i]);
      }
    }
    ASSERT_OK_AND_ASSIGN(IndexedDataset index,
                         IndexedDataset::Create(rows, domain, weights));
    ASSERT_TRUE(index.weighted());
    const std::size_t mass = expanded.size();
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ThreadPool pool(threads);
      for (const std::size_t t : {std::size_t{1}, std::size_t{3}, mass / 4,
                                  mass / 2, mass}) {
        ASSERT_OK_AND_ASSIGN(
            RadiusProfile profile,
            RadiusProfile::Build(index, t, rows.size(), &pool));
        ExpectMatchesOracle(profile, expanded, t, domain,
                            "weighted |X|=" + std::to_string(levels) +
                                " t=" + std::to_string(t) +
                                " threads=" + std::to_string(threads));
      }
    }
  }
}

}  // namespace
}  // namespace dpcluster
