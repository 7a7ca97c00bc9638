// RadiusProfile: the exact function L(r, S) of Algorithm 1 (GoodRadius),
//   L(r, S) = (1/t) max_{distinct i_1..i_t} sum_j min(B_r(x_{i_j}, S), t),
// materialized as a StepFunction of the radius.
//
// L is evaluated on a grid twice as fine as GoodRadius's solution grid
// {0, 1/(2|X|), ...} so that both L(r) and L(r/2) (the two ingredients of the
// quality Q of Algorithm 1, step 3) are exact lookups: solution index g maps
// to fine index 2g for L(r) and fine index g for L(r/2).
//
// Construction is an event sweep: each pair (i, j) raises B_.(x_i) by one at
// the fine index ceil(dist(i,j)/fine_step), and an amortized-O(1) tracker
// maintains the sum of the t largest capped counts. Two event generators
// feed the identical sweep:
//
//  * kExact  — all n(n-1)/2 unordered pairs, O(n^2 d): one 8-byte (i, j)
//    entry stands for both of a pair's events.
//  * kGrid   — only each point's t-1 nearest neighbors, found through a
//    geo/SpatialGrid index in ~O(n t) work at low dimension. This is lossless
//    pruning, not an approximation: every per-center count is capped at t, so
//    a center's increments beyond its t-1 nearest neighbors are no-ops in the
//    exact sweep (the t-1 smallest distances are exactly the effective
//    events), and the tracker's state after each fine index is a function of
//    the count histogram alone. The resulting StepFunction is therefore
//    bit-identical to the exact sweep's — same breakpoints, same values —
//    which determinism_test and radius_profile_test pin across all scenario
//    families and thread counts.
//
// Neither generator sorts its events. Both fill one bucket layout — a
// per-fine-index offset table over compact payloads — with a two-pass
// counting sort, O(E + fine-domain size) for E events (a fine domain much
// larger than E is first mapped to ranks of the fine indices present), and
// the sweep walks the buckets in index order. Peak transient memory is
// 12 bytes per pair (exact) or 16 bytes per neighbor (grid, counting the
// k-NN distances). Weighted rows (coreset summaries) take the exact
// generator with the same layout. BENCH_scaling.json's RadiusProfile/* rows
// time the three at the daemon's request shapes.
//
// kAuto picks between them with a measured crossover: the grid build wins
// once the pruned event stream is >= ~4x smaller than the pair stream, and
// the exact sweep keeps small inputs and t ~ n, where pruning saves nothing.

#ifndef DPCLUSTER_CORE_RADIUS_PROFILE_H_
#define DPCLUSTER_CORE_RADIUS_PROFILE_H_

#include <cstdint>
#include <string_view>

#include "dpcluster/common/status.h"
#include "dpcluster/dp/step_function.h"
#include "dpcluster/geo/grid_domain.h"
#include "dpcluster/geo/point_set.h"

namespace dpcluster {

class IndexedDataset;
class ThreadPool;

/// How RadiusProfile::Build generates the pair events (see file comment).
/// Every choice yields bit-identical profiles; only the runtime differs.
enum class ProfileIndex {
  kAuto,   ///< Measured crossover between the two (the default).
  kGrid,   ///< t-NN pruned events through a geo/SpatialGrid, ~O(n t) at low d.
  kExact,  ///< All-pairs event sweep, O(n^2 d).
};

/// "auto", "grid", "exact".
std::string_view ProfileIndexName(ProfileIndex index);

/// Inverse of ProfileIndexName; InvalidArgument on unknown names.
Result<ProfileIndex> ProfileIndexFromName(std::string_view name);

/// The generator kAuto resolves to for a given problem shape (exposed for
/// tests and benches; see the crossover note in the file comment). `d` is the
/// data dimension: when the spatial index's cell grid collapses to one cell
/// (d >= ~16 at bench sizes, or large t at moderate d) batched k-NN runs the
/// blocked dense scan at a per-query cost independent of t, so the grid
/// generator stays profitable up to a larger t (t-1 <= n/2 instead of n/4).
ProfileIndex ResolveProfileIndex(ProfileIndex requested, std::size_t n,
                                 std::size_t t, std::size_t d);

/// Exact L(r, S) over the fine radius grid.
class RadiusProfile {
 public:
  /// Builds the profile. Fails with ResourceExhausted when s.size() >
  /// max_points (see GoodRadiusOptions::max_profile_points). `pool`
  /// parallelizes the event generation (null = serial); chunk-ordered
  /// assembly keeps the profile bit-identical at any thread count. `index`
  /// selects the event generator (bit-identical either way, see above).
  static Result<RadiusProfile> Build(const PointSet& s, std::size_t t,
                                     const GridDomain& domain,
                                     std::size_t max_points,
                                     ThreadPool* pool = nullptr,
                                     ProfileIndex index = ProfileIndex::kAuto);

  /// Builds the profile over the *active* points of a prebuilt
  /// geo/IndexedDataset — bit-identical to Build(index.ActiveView(), ...),
  /// but the kGrid event generator queries the dataset's cached
  /// (deletion-pruned) spatial index instead of indexing the subset from
  /// scratch, which is what amortizes KCluster's per-round profile cost.
  /// The kExact generator sweeps the active pairs directly. `profile_index`
  /// resolves its kAuto crossover on (active_size, t), exactly as the
  /// subset-rebuild path would.
  static Result<RadiusProfile> Build(const IndexedDataset& index,
                                     std::size_t t, std::size_t max_points,
                                     ThreadPool* pool = nullptr,
                                     ProfileIndex profile_index =
                                         ProfileIndex::kAuto);

  /// L as a step function over fine indices [0, 2*(RadiusGridSize()-1)+1).
  const StepFunction& fine_l() const { return fine_l_; }

  /// L at solution-grid radius index g (i.e. radius g * axis/(2|X|)).
  double LAtSolutionIndex(std::uint64_t g) const;

  /// L at half the solution-grid radius g (i.e. radius g * axis/(4|X|)).
  double LAtHalfSolutionIndex(std::uint64_t g) const;

  /// L(0, S): handles duplicate input points (a zero-radius cluster).
  double LAtZero() const { return fine_l_.ValueAt(0); }

  /// Number of solution-grid indices (= GridDomain::RadiusGridSize()).
  std::uint64_t solution_grid_size() const { return solution_grid_; }

 private:
  RadiusProfile() : solution_grid_(0), fine_l_(StepFunction::Constant(1, 0.0)) {}

  std::uint64_t solution_grid_;
  StepFunction fine_l_;
};

}  // namespace dpcluster

#endif  // DPCLUSTER_CORE_RADIUS_PROFILE_H_
