// Tests for geo/SpatialGrid: the expanding ring search must return exactly
// the brute-force k-NN distance multiset — same doubles, bit for bit — for
// every data shape (uniform, duplicate-heavy, degenerate, boundary) and at
// any thread count; the seeded batch must reproduce the ring search row for
// row.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dpcluster/data/registry.h"
#include "dpcluster/geo/spatial_grid.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/parallel/thread_pool.h"
#include "test_util.h"

namespace dpcluster {
namespace {

using testing_util::MakePointSet;

// Ascending brute-force distances from s[query] to every other point.
std::vector<double> BruteForceKnn(const PointSet& s, std::size_t query,
                                  std::size_t k) {
  std::vector<double> dists;
  for (std::size_t j = 0; j < s.size(); ++j) {
    if (j == query) continue;
    dists.push_back(Distance(s[query], s[j]));
  }
  std::sort(dists.begin(), dists.end());
  dists.resize(std::min(k, dists.size()));
  return dists;
}

void ExpectMatchesBruteForce(const PointSet& s, const GridDomain& domain,
                             std::size_t k) {
  ASSERT_OK_AND_ASSIGN(SpatialGrid grid, SpatialGrid::Build(s, domain, k));
  SpatialGrid::Workspace ws;
  std::vector<double> got;
  for (std::size_t i = 0; i < s.size(); ++i) {
    grid.KnnDistances(i, k, ws, got);
    const std::vector<double> want = BruteForceKnn(s, i, k);
    ASSERT_EQ(got.size(), want.size()) << "query=" << i << " k=" << k;
    for (std::size_t j = 0; j < want.size(); ++j) {
      ASSERT_EQ(got[j], want[j])
          << "query=" << i << " k=" << k << " rank=" << j;
    }
  }
}

TEST(SpatialGridTest, RingSearchMatchesBruteForceAcrossShapes) {
  Rng rng(101);
  for (const std::size_t d : {1u, 2u, 3u, 8u}) {
    const GridDomain domain(1u << 10, d);
    for (const std::size_t n : {2u, 33u, 257u}) {
      PointSet s = testing_util::UniformCube(rng, n, d);
      domain.SnapAll(s);
      for (const std::size_t k : {std::size_t{1}, std::size_t{5}, n - 1}) {
        ExpectMatchesBruteForce(s, domain, k);
      }
    }
  }
}

TEST(SpatialGridTest, DuplicateHeavyPointsCountAsNeighbors) {
  // Coordinates drawn from three levels only: most points are exact
  // duplicates, so many zero distances must survive self-exclusion.
  Rng rng(102);
  const std::size_t d = 2;
  const GridDomain domain(2, d);  // levels=2: snapping to {0, 1}.
  PointSet s = testing_util::UniformCube(rng, 120, d);
  domain.SnapAll(s);
  for (const std::size_t k : {1u, 10u, 119u}) {
    ExpectMatchesBruteForce(s, domain, k);
  }
}

TEST(SpatialGridTest, AllPointsIdentical) {
  const GridDomain domain(16, 2);
  PointSet s(2);
  const std::vector<double> p = {0.5, 0.5};
  for (int i = 0; i < 50; ++i) s.Add(p);
  ASSERT_OK_AND_ASSIGN(SpatialGrid grid, SpatialGrid::Build(s, domain, 49));
  SpatialGrid::Workspace ws;
  std::vector<double> out;
  grid.KnnDistances(7, 49, ws, out);
  ASSERT_EQ(out.size(), 49u);
  for (const double v : out) EXPECT_EQ(v, 0.0);
}

TEST(SpatialGridTest, BoundaryPointsStayInTheLastCell) {
  // Exact cube corners (coordinate 1.0 lands on the last cell's far edge).
  const GridDomain domain(1u << 10, 2);
  const PointSet s = MakePointSet(
      2, {0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.5, 0.5, 1.0, 1.0});
  for (const std::size_t k : {1u, 3u, 5u}) {
    ExpectMatchesBruteForce(s, domain, k);
  }
}

// Brute-force radius count over the live points: Distance() <= r, the query
// itself included.
std::size_t BruteForceCount(const PointSet& s, const SpatialGrid& grid,
                            std::size_t query, double r) {
  std::size_t count = 0;
  for (std::size_t j = 0; j < s.size(); ++j) {
    if (grid.IsLive(j) && Distance(s[query], s[j]) <= r) ++count;
  }
  return count;
}

// Batched radius counts against brute force at three radii, each an actual
// pairwise distance so the <= boundary is hit exactly, serial and threaded.
void ExpectCountsMatchBruteForce(const PointSet& s, const SpatialGrid& grid,
                                 std::span<const std::uint32_t> queries) {
  ThreadPool pool(4);
  for (const std::size_t j : {1u, 40u, 99u}) {
    const double r = Distance(s[0], s[j]);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      std::vector<std::size_t> counts(queries.size());
      grid.BatchCountWithin(queries, r, counts, p);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        ASSERT_EQ(counts[q], BruteForceCount(s, grid, queries[q], r))
            << "r=" << r << " query=" << queries[q];
      }
    }
  }
}

TEST(SpatialGridTest, DegenerateHighDimensionFallsBackToFullScan) {
  // d = 17 leaves a one-dimension tail in the panel kernel's 4-wide blocks;
  // d = 64 is the widest shape the benches run.
  for (const std::size_t d : {17u, 32u, 64u}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    Rng rng(103 + d);
    const std::size_t k = 20;
    const GridDomain domain(1u << 10, d);
    PointSet s = testing_util::UniformCube(rng, 150, d);
    domain.SnapAll(s);
    // At high d the grid collapses to one cell and every query scans the
    // full live prefix.
    ASSERT_OK_AND_ASSIGN(SpatialGrid grid, SpatialGrid::Build(s, domain, k));
    EXPECT_EQ(grid.cells_per_axis(), 1u);
    ExpectMatchesBruteForce(s, domain, k);

    // The one-cell batch runs the blocked dense pass: rows must equal the
    // per-query path bit for bit, sorted and unsorted (as multisets), at any
    // thread count, and for explicit query lists after a removal.
    SpatialGrid::Workspace ws;
    std::vector<double> row;
    for (const bool sorted : {true, false}) {
      std::vector<double> batch(s.size() * k);
      grid.BatchKnnDistances(k, batch, nullptr, sorted);
      for (std::size_t i = 0; i < s.size(); ++i) {
        grid.KnnDistances(i, k, ws, row, sorted);
        for (std::size_t j = 0; j < k; ++j) {
          ASSERT_EQ(batch[i * k + j], row[j])
              << "sorted=" << sorted << " i=" << i << " j=" << j;
        }
      }
      ThreadPool pool(4);
      std::vector<double> parallel(s.size() * k);
      grid.BatchKnnDistances(k, parallel, &pool, sorted);
      EXPECT_EQ(batch, parallel) << "sorted=" << sorted;
    }
    std::vector<std::uint32_t> all(s.size());
    for (std::uint32_t i = 0; i < s.size(); ++i) all[i] = i;
    ExpectCountsMatchBruteForce(s, grid, all);

    grid.Remove(17);
    std::vector<std::uint32_t> queries;
    for (std::uint32_t i = 0; i < s.size(); ++i) {
      if (i != 17) queries.push_back(i);
    }
    std::vector<double> batch_for(queries.size() * k);
    grid.BatchKnnDistancesFor(queries, k, batch_for, nullptr);
    for (std::size_t r = 0; r < queries.size(); ++r) {
      grid.KnnDistances(queries[r], k, ws, row);
      for (std::size_t j = 0; j < k; ++j) {
        ASSERT_EQ(batch_for[r * k + j], row[j]) << "r=" << r << " j=" << j;
      }
    }
    ExpectCountsMatchBruteForce(s, grid, queries);
  }
}

TEST(SpatialGridTest, KLargerThanNMinusOneIsClamped) {
  const GridDomain domain(16, 1);
  const PointSet s = MakePointSet(1, {0.25, 0.75});
  ASSERT_OK_AND_ASSIGN(SpatialGrid grid, SpatialGrid::Build(s, domain, 10));
  SpatialGrid::Workspace ws;
  std::vector<double> out;
  grid.KnnDistances(0, 10, ws, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Distance(s[0], s[1]));
  grid.KnnDistances(0, 0, ws, out);
  EXPECT_TRUE(out.empty());
}

TEST(SpatialGridTest, UnsortedModeReturnsTheSameMultiset) {
  Rng rng(104);
  const GridDomain domain(1u << 10, 3);
  PointSet s = testing_util::UniformCube(rng, 200, 3);
  domain.SnapAll(s);
  ASSERT_OK_AND_ASSIGN(SpatialGrid grid, SpatialGrid::Build(s, domain, 17));
  SpatialGrid::Workspace ws;
  std::vector<double> unsorted;
  for (std::size_t i = 0; i < s.size(); i += 13) {
    grid.KnnDistances(i, 17, ws, unsorted, /*sorted=*/false);
    std::sort(unsorted.begin(), unsorted.end());
    const std::vector<double> want = BruteForceKnn(s, i, 17);
    ASSERT_EQ(unsorted.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      ASSERT_EQ(unsorted[j], want[j]) << "query=" << i << " rank=" << j;
    }
  }
}

TEST(SpatialGridTest, BatchBitIdenticalAcrossThreadCounts) {
  Rng rng(105);
  const GridDomain domain(1u << 12, 2);
  PointSet s = testing_util::UniformCube(rng, 500, 2);
  domain.SnapAll(s);
  const std::size_t k = 31;
  ASSERT_OK_AND_ASSIGN(SpatialGrid grid, SpatialGrid::Build(s, domain, k));
  std::vector<double> serial(s.size() * k);
  grid.BatchKnnDistances(k, serial, nullptr);

  // The batch must equal the per-query path and be independent of threads.
  SpatialGrid::Workspace ws;
  std::vector<double> row;
  for (std::size_t i = 0; i < s.size(); ++i) {
    grid.KnnDistances(i, k, ws, row);
    for (std::size_t j = 0; j < k; ++j) {
      ASSERT_EQ(serial[i * k + j], row[j]) << "i=" << i << " j=" << j;
    }
  }
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<double> parallel(s.size() * k);
    grid.BatchKnnDistances(k, parallel, &pool);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
}

// Per-query ring-search rows for `queries` (row stride k).
std::vector<double> PerQueryRows(const SpatialGrid& grid,
                                 std::span<const std::uint32_t> queries,
                                 std::size_t k, bool sorted) {
  SpatialGrid::Workspace ws;
  std::vector<double> row;
  std::vector<double> rows(queries.size() * k);
  for (std::size_t r = 0; r < queries.size(); ++r) {
    grid.KnnDistances(queries[r], k, ws, row, sorted);
    std::copy(row.begin(), row.end(), rows.begin() + r * k);
  }
  return rows;
}

// Row r of `got` holds the same values as row r of `want`: byte for byte
// when sorted, as a multiset otherwise.
void ExpectSameRows(std::vector<double> got, std::vector<double> want,
                    std::size_t k, bool sorted, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  if (!sorted) {
    for (std::size_t r = 0; r * k < got.size(); ++r) {
      std::sort(got.begin() + r * k, got.begin() + (r + 1) * k);
      std::sort(want.begin() + r * k, want.begin() + (r + 1) * k);
    }
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << label << " row=" << i / k
                               << " rank=" << i % k;
  }
}

// The seeded batch against the per-query ring search: sorted rows byte for
// byte, unsorted rows as multisets, and every thread count byte-identical to
// the serial batch (unsorted rows included — the chains are cut by size).
void ExpectBatchMatchesPerQuery(const PointSet& s, const GridDomain& domain,
                                std::size_t k,
                                std::span<ThreadPool* const> pools,
                                const std::string& label) {
  ASSERT_OK_AND_ASSIGN(SpatialGrid grid, SpatialGrid::Build(s, domain, k));
  std::vector<std::uint32_t> all(s.size());
  for (std::uint32_t i = 0; i < s.size(); ++i) all[i] = i;
  for (const bool sorted : {true, false}) {
    const std::string where = label + " k=" + std::to_string(k) +
                              " sorted=" + std::to_string(sorted);
    std::vector<double> serial(s.size() * k);
    grid.BatchKnnDistances(k, serial, nullptr, sorted);
    ExpectSameRows(serial, PerQueryRows(grid, all, k, sorted), k, sorted,
                   where);
    for (ThreadPool* pool : pools) {
      std::vector<double> parallel(s.size() * k);
      grid.BatchKnnDistances(k, parallel, pool, sorted);
      ASSERT_EQ(parallel, serial)
          << where << " threads=" << pool->num_threads();
    }
  }
}

TEST(SpatialGridTest, SeededBatchMatchesPerQueryAcrossFamilies) {
  ThreadPool two(2);
  ThreadPool eight(8);
  ThreadPool* const pools[] = {&two, &eight};
  const std::size_t n = 320;
  for (const char* family : {"planted_cluster", "near_tie", "gaussian_mixture",
                             "annulus", "outlier_contaminated"}) {
    for (const std::size_t d : {1u, 2u, 3u, 5u}) {
      ScenarioSpec spec;
      spec.scenario = family;
      spec.n = n;
      spec.dim = d;
      spec.levels = 1u << 10;
      spec.cluster_fraction = 0.25;
      spec.cluster_radius = 0.05;
      Rng rng(110 + d);
      ASSERT_OK_AND_ASSIGN(ScenarioInstance instance,
                           GenerateScenario(rng, spec));
      for (const std::size_t k : {std::size_t{1}, std::size_t{7}, n / 8,
                                  n - 1}) {
        ExpectBatchMatchesPerQuery(
            instance.points, instance.domain, k, pools,
            std::string(family) + " d=" + std::to_string(d));
      }
    }
  }
}

TEST(SpatialGridTest, SeededBatchOnDuplicateLatticeAndCubeFaces) {
  // Coordinates on the 5-level lattice {0, 1/4, ..., 1}: nearly every point
  // has exact duplicates (zero distances and zero seeded bounds), and a
  // fifth of every axis sits on a cube face, where CellOf clamps coordinate
  // 1.0 into the last cell.
  ThreadPool two(2);
  ThreadPool eight(8);
  ThreadPool* const pools[] = {&two, &eight};
  const std::size_t n = 300;
  for (const std::size_t d : {1u, 2u, 3u, 5u}) {
    Rng rng(120 + d);
    const GridDomain domain(1u << 10, d);
    PointSet s(d);
    std::vector<double> p(d);
    for (std::size_t i = 0; i < n; ++i) {
      for (double& x : p) x = static_cast<double>(rng.NextUint64(5)) / 4.0;
      s.Add(p);
    }
    for (const std::size_t k : {std::size_t{1}, std::size_t{7}, n / 8,
                                n - 1}) {
      ExpectBatchMatchesPerQuery(s, domain, k, pools,
                                 "lattice d=" + std::to_string(d));
    }
  }
}

TEST(SpatialGridTest, SeededBatchForScatteredIdsAfterRemoveAndAppend) {
  // The query lists KnnCappedCounts::ApplyBatch issues: ascending, scattered
  // ids of survivors plus freshly appended points, on a grid that has lost
  // points (Remove) and grown past its build (Append, segment relocation).
  ThreadPool two(2);
  ThreadPool eight(8);
  for (const std::size_t d : {1u, 2u, 3u, 5u}) {
    Rng rng(130 + d);
    const GridDomain domain(1u << 10, d);
    const std::size_t n0 = 400;
    PointSet s = testing_util::UniformCube(rng, n0, d);
    domain.SnapAll(s);
    const std::size_t k = 24;
    ASSERT_OK_AND_ASSIGN(SpatialGrid grid, SpatialGrid::Build(s, domain, k));
    ASSERT_GT(grid.cells_per_axis(), 1u);
    for (std::size_t i = 0; i < n0; i += 3) grid.Remove(i);
    PointSet extra = testing_util::UniformCube(rng, 80, d);
    domain.SnapAll(extra);
    for (std::size_t i = 0; i < extra.size(); ++i) {
      s.Add(extra[i]);
      grid.Append(s.Data());
    }
    std::vector<std::uint32_t> queries;
    for (std::uint32_t id = 1; id < s.size(); id += 7) {
      if (grid.IsLive(id)) queries.push_back(id);
    }
    for (std::uint32_t id = static_cast<std::uint32_t>(n0); id < s.size();
         id += 2) {
      queries.push_back(id);
    }
    std::sort(queries.begin(), queries.end());
    queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
    for (const bool sorted : {true, false}) {
      const std::string where =
          "d=" + std::to_string(d) + " sorted=" + std::to_string(sorted);
      std::vector<double> serial(queries.size() * k);
      grid.BatchKnnDistancesFor(queries, k, serial, nullptr, sorted);
      ExpectSameRows(serial, PerQueryRows(grid, queries, k, sorted), k,
                     sorted, where);
      for (ThreadPool* pool : {&two, &eight}) {
        std::vector<double> parallel(queries.size() * k);
        grid.BatchKnnDistancesFor(queries, k, parallel, pool, sorted);
        ASSERT_EQ(parallel, serial) << where;
      }
    }
  }
}

}  // namespace
}  // namespace dpcluster
