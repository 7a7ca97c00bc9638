// Algorithm 2 (GoodCenter): given the radius r produced by GoodRadius, privately
// locate a center z such that a ball of radius O(r sqrt(log n)) around z
// contains >= t - O((1/eps) log(n/beta)) input points (Lemma 3.7 / 4.12).
//
// Pipeline (faithful to the paper's steps):
//  1. Johnson-Lindenstrauss projection into R^k, k = O(log n).
//  2-6. Repeatedly draw randomly shifted box partitions of R^k (side ~ 300 r)
//       and ask AboveThreshold whether some box captures ~t projected points.
//  7. Choose the heavy box B with a stability-based histogram; D = preimage.
//  8-9. Rotate R^d by a random orthonormal basis; on each rotated axis choose a
//       heavy length-p interval with a stability-based histogram (advanced
//       composition across the d axes) and extend it by p on both sides.
//  10. Intersect: a box of diameter O(r sqrt(k log(dn))) containing D; its
//      bounding sphere C caps the reach of the averaging step *deterministically*
//      (this is what makes step 11's sensitivity data-independent).
//  11. Release the noisy average of D ∩ C via NoisyAVG (Algorithm 5).
//
// Every proof constant is an option; GoodCenterOptions::PaperConstants() is the
// verbatim preset, the defaults are the practical preset used by the benches
// (DESIGN.md substitution #2).

#ifndef DPCLUSTER_CORE_GOOD_CENTER_H_
#define DPCLUSTER_CORE_GOOD_CENTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dpcluster/common/status.h"
#include "dpcluster/dp/privacy_params.h"
#include "dpcluster/geo/point_set.h"
#include "dpcluster/random/rng.h"

namespace dpcluster {

class IndexedDataset;

struct GoodCenterOptions {
  PrivacyParams params{1.0, 1e-9};
  /// Failure probability of the utility guarantee.
  double beta = 0.05;

  /// JL target dimension is ceil(jl_constant * ln(2n/beta)), clamped to
  /// [2, max_jl_dim] (0 disables the cap). Paper: jl_constant = 46, no cap.
  double jl_constant = 2.0;
  std::size_t max_jl_dim = 12;

  /// Box side in R^k is box_side_factor * r. Paper: 300. The practical default
  /// trades per-round success probability (1 - 3/factor)^k against how much
  /// background the heavy box can swallow; the retry loop absorbs the misses.
  double box_side_factor = 12.0;

  /// AboveThreshold threshold is t - (threshold_offset_factor/eps) ln(2n/beta).
  /// Paper: 100.
  double threshold_offset_factor = 16.0;

  /// Axis-interval length p = interval_multiplier * box_side_factor * r *
  /// sqrt(k ln(dn/beta) / d). Paper: 3 * 300 = 900. Only used when
  /// axis_cell_factor == 0.
  double interval_multiplier = 3.0;

  /// When > 0, the per-axis intervals of step 9 have length
  /// axis_cell_factor * r instead of the proof's worst-case p. The cluster's
  /// projection onto any direction spans at most 2r, so with factor >= 4 one
  /// cell holds at least half of the in-box cluster; the bounding sphere C
  /// then has radius O(r sqrt(d)) instead of O(r sqrt(k d log(dn))), which is
  /// what makes the averaging noise usable at laptop-scale t. Tradeoff: if the
  /// heavy box holds much more background than cluster, a background cell can
  /// win and C may miss the cluster (the paper's p is immune to that). 0 =
  /// paper formula (used by PaperConstants()).
  double axis_cell_factor = 4.0;

  /// Cap on the box-partition retry loop. The paper allows 2n log(1/beta)/beta
  /// rounds; the practical default keeps runtime bounded and is far above the
  /// expected handful of retries.
  std::size_t max_rounds = 4096;

  /// Worker threads for the deterministic numeric passes (batched JL
  /// projection, per-round box counting, axis projections). 0 = one per
  /// hardware thread, 1 = serial. Released outputs are bit-identical at any
  /// setting: threads never touch the Rng, and the work decomposition is
  /// independent of the thread count.
  std::size_t num_threads = 1;

  /// Side length of the (public) domain cube the data lives in. When > 0, the
  /// per-axis interval length and the bounding sphere C are clamped by the
  /// cube's diameter and C's center is clamped into the cube — all
  /// data-independent facts about the public domain, so privacy is unaffected,
  /// but the averaging noise stops scaling with the proof's worst-case reach
  /// when that reach exceeds the domain itself. 0 disables (paper-verbatim).
  double domain_axis_length = 1.0;

  /// Paper-verbatim constants (Algorithm 2 as printed).
  static GoodCenterOptions PaperConstants();

  Status Validate() const;
};

struct GoodCenterResult {
  /// The released center z (= noisy average of D ∩ C).
  std::vector<double> center;
  /// Radius for which the Lemma 4.12 guarantee is claimed:
  /// (sqrt(2) * box_side_factor + 1) * r * sqrt(k).
  double guarantee_radius = 0.0;
  /// JL dimension used.
  std::size_t jl_dim = 0;
  /// Box-partition rounds consumed before AboveThreshold fired.
  std::size_t rounds_used = 0;
  /// Noisy count of the chosen heavy box (releasable).
  double noisy_box_count = 0.0;
  /// Noisy lower bound on |D ∩ C| from NoisyAVG (releasable).
  double noisy_inlier_count = 0.0;
  /// Per-coordinate Gaussian sigma added by NoisyAVG (releasable).
  double noise_sigma = 0.0;
};

/// Runs GoodCenter on dataset s with target count t and radius r (> 0).
Result<GoodCenterResult> GoodCenter(Rng& rng, const PointSet& s, std::size_t t,
                                    double r, const GoodCenterOptions& options);

/// Runs GoodCenter on the *active* points of a prebuilt geo/IndexedDataset —
/// no ActiveView materialization: the JL projection gathers active rows
/// straight out of the full dataset and the heavy-box preimage D is assembled
/// through the active-id indirection. The released outputs are bit-identical
/// to GoodCenter(rng, index.ActiveView(), ...).
Result<GoodCenterResult> GoodCenter(Rng& rng, const IndexedDataset& index,
                                    std::size_t t, double r,
                                    const GoodCenterOptions& options);

}  // namespace dpcluster

#endif  // DPCLUSTER_CORE_GOOD_CENTER_H_
