#include "dpcluster/core/radius_profile.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dpcluster/common/check.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/geo/spatial_grid.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/parallel/parallel_for.h"

namespace dpcluster {
namespace {

// Maintains, for a multiset of per-center capped counts carrying integer
// multiplicities, the sum of the `top` largest values. A weighted row stands
// for `weight` expanded centers sharing one capped value, and a move carries
// a row's whole mass from `old_value` to a possibly much larger `new_value`
// in one step; an unweighted center is the mass-1, unit-step case. Values
// only grow, so the top-th-largest threshold `thr` is monotone
// non-decreasing and all updates are amortized O(1).
//
// Invariant: thr is the value of the top-set's smallest member, i.e.
//   cnt_above := #{elements > thr} < top   and   cnt_above + cnt[thr] >= top,
// and the top-t sum is sum_above + thr * (top - cnt_above).
//
// The invariant pins (thr, cnt_above, sum_above) as functions of the expanded
// count histogram alone (thr is exactly the top-th largest value), so the
// state after a batch of moves is independent of their order. That is what
// lets the sweep apply one fine index's events in any order, makes the t-NN
// pruned stream bit-identical to the all-pairs one, and makes weighted rows
// match their duplicate expansion. All sums are exact integers
// (<= top * cap < 2^53), so TopSum() is the same double whichever events
// produced the histogram.
class WeightedCappedTracker {
 public:
  WeightedCappedTracker(std::size_t cap, std::size_t top,
                        std::uint64_t total_mass)
      : top_(top), cnt_(cap + 2, 0) {
    DPC_CHECK_GE(top, 1u);
    DPC_CHECK_LE(top, total_mass);
    const std::size_t start = std::min<std::size_t>(1, cap);
    cnt_[start] = total_mass;
    thr_ = start;
    cnt_above_ = 0;
    sum_above_ = 0;
  }

  /// Moves `mass` expanded centers from capped value `old_value` to
  /// `new_value` (callers pass old_value < new_value <= cap).
  void MoveMass(std::uint64_t mass, std::size_t old_value,
                std::size_t new_value) {
    cnt_[old_value] -= mass;
    cnt_[new_value] += mass;
    if (old_value > thr_) {
      // The mass stays strictly above the threshold; only its sum moves.
      sum_above_ += mass * static_cast<std::uint64_t>(new_value - old_value);
    } else if (new_value > thr_) {
      // Lump jumps can carry mass from below the threshold to above it
      // (impossible under unit increments, but routine for weighted rows).
      cnt_above_ += mass;
      sum_above_ += mass * static_cast<std::uint64_t>(new_value);
      while (cnt_above_ >= top_) {  // Raise the threshold.
        ++thr_;
        cnt_above_ -= cnt_[thr_];
        sum_above_ -= static_cast<std::uint64_t>(thr_) * cnt_[thr_];
      }
    }
    // new_value <= thr_: the mass stays outside the top set; nothing moves.
  }

  double TopSum() const {
    return static_cast<double>(
        sum_above_ +
        static_cast<std::uint64_t>(thr_) *
            static_cast<std::uint64_t>(top_ - cnt_above_));
  }

 private:
  std::uint64_t top_;
  std::vector<std::uint64_t> cnt_;
  std::size_t thr_;
  std::uint64_t cnt_above_;
  std::uint64_t sum_above_;
};

// The sweep state: every row's ball count capped at t, plus the tracker over
// the expanded multiset of those counts. Every ball starts with its center.
class CappedSweep {
 public:
  CappedSweep(std::size_t rows, std::size_t t, std::uint64_t total_mass)
      : cap_(t),
        value_(rows, std::min<std::size_t>(1, t)),
        tracker_(t, t, total_mass),
        inv_t_(1.0 / static_cast<double>(t)) {}

  /// Row `row`, which stands for `mass` expanded centers, gains `add` points
  /// in its ball.
  void Raise(std::uint32_t row, std::uint64_t add, std::uint64_t mass) {
    const std::size_t old_value = value_[row];
    const auto new_value = static_cast<std::size_t>(
        std::min<std::uint64_t>(old_value + add, cap_));
    if (new_value == old_value) return;  // Already saturated.
    tracker_.MoveMass(mass, old_value, new_value);
    value_[row] = new_value;
  }

  /// L at the radius swept so far: the top-t sum over t.
  double L() const { return tracker_.TopSum() * inv_t_; }

 private:
  std::size_t cap_;
  std::vector<std::size_t> value_;
  WeightedCappedTracker tracker_;
  double inv_t_;
};

// Distance -> fine event index, ceil(dist / fine_step - 1e-12) clamped to
// [0, max_fine]; shared by every generator so identical pairs get identical
// indices. The ceil goes through an integer truncation: the x86-64 baseline
// has no rounding instruction, and this runs once per event.
inline std::uint64_t FineIndexOf(double dist, double fine_step,
                                 std::uint64_t max_fine) {
  const double x = std::max(dist / fine_step - 1e-12, 0.0);
  std::uint64_t g;
  if (x < 0x1p63) {
    const auto whole = static_cast<std::int64_t>(x);
    g = static_cast<std::uint64_t>(whole + (static_cast<double>(whole) < x));
  } else {  // Only at |X| >= 2^60, where every double is integral.
    g = x < 0x1p64 ? static_cast<std::uint64_t>(x) : max_fine;
  }
  return std::min(g, max_fine);
}

// The fine radius grid of a domain: index g stands for radius g * step, and
// distances beyond the last index clamp onto it.
struct FineGrid {
  explicit FineGrid(const GridDomain& domain)
      : size(2 * (domain.RadiusGridSize() - 1) + 1),
        step(domain.axis_length() /
             (4.0 * static_cast<double>(domain.levels()))) {}

  std::uint64_t IndexOf(double dist) const {
    return FineIndexOf(dist, step, size - 1);
  }

  std::uint64_t size;
  double step;
};

// An all-pairs payload: pair (i, j), i < j, stands for both of its events —
// i's ball gains j and j's ball gains i at the pair's fine index.
struct PairEvent {
  std::uint32_t i;
  std::uint32_t j;
};

// Event sources for BucketEvents. Each numbers its events ("slots") row by
// row: SlotBegin(r) is row r's first slot (SlotBegin(rows()) the total),
// Keys(r, out) writes row r's fine indices to consecutive `out` entries, and
// Walk(put) hands every slot's payload to `put` in slot order.

// All i < j pairs of a PointSet, row-major: row i owns pairs (i, i+1..n-1).
class PairSlots {
 public:
  using Payload = PairEvent;

  PairSlots(const PointSet& view, const FineGrid& fine)
      : view_(view), fine_(fine) {}

  std::size_t rows() const { return view_.size(); }
  std::size_t SlotBegin(std::size_t i) const {
    return i * (2 * view_.size() - i - 1) / 2;
  }
  template <typename Key>
  void Keys(std::size_t i, Key* out) const {
    // Distance() inlined: same accumulation order, same sqrt, same bits.
    const std::size_t d = view_.dim();
    const double* xi = view_[i].data();
    for (std::size_t j = i + 1; j < view_.size(); ++j) {
      *out++ = static_cast<Key>(fine_.IndexOf(
          std::sqrt(SquaredDistanceRows(xi, view_[j].data(), d))));
    }
  }
  template <typename Put>
  void Walk(Put&& put) const {
    const auto n = static_cast<std::uint32_t>(view_.size());
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = i + 1; j < n; ++j) put(PairEvent{i, j});
    }
  }

 private:
  const PointSet& view_;
  const FineGrid& fine_;
};

// Each center's k nearest-neighbor distances, read in place from the
// row-major n x k BatchKnn output: one slot per distance, whose payload is
// the center.
class KnnSlots {
 public:
  using Payload = std::uint32_t;

  KnnSlots(std::span<const double> knn, std::size_t n, std::size_t k,
           const FineGrid& fine)
      : knn_(knn), n_(n), k_(k), fine_(fine) {}

  std::size_t rows() const { return n_; }
  std::size_t SlotBegin(std::size_t i) const { return i * k_; }
  template <typename Key>
  void Keys(std::size_t i, Key* out) const {
    for (std::size_t j = 0; j < k_; ++j) {
      out[j] = static_cast<Key>(fine_.IndexOf(knn_[i * k_ + j]));
    }
  }
  template <typename Put>
  void Walk(Put&& put) const {
    for (std::uint32_t i = 0; i < n_; ++i) {
      for (std::size_t j = 0; j < k_; ++j) put(i);
    }
  }

 private:
  std::span<const double> knn_;
  std::size_t n_;
  std::size_t k_;
  const FineGrid& fine_;
};

// Events grouped by fine index: the one layout every generator fills and the
// sweep reads. Bucket b holds payload[ends[b-1], ends[b]) (ends[-1] = 0) and
// stands for fine index `fine[b]`, or for b itself when `fine` is empty (the
// dense layout: one bucket per fine index).
template <typename Payload>
struct EventBuckets {
  std::uint64_t FineIndex(std::size_t b) const {
    return fine.empty() ? b : fine[b];
  }

  std::vector<std::uint64_t> fine;
  std::vector<std::uint32_t> ends;
  std::unique_ptr<Payload[]> payload;
};

// Keys and bucket ends are 32-bit: events and dense buckets stay below 2^32.
constexpr std::uint64_t kMaxBucketKeys = std::uint64_t{1} << 32;
constexpr std::size_t kRowGrain = 32;

// Fills the bucket layout with a two-pass counting sort, so no event is ever
// compared:
//  1. every slot's fine index, computed over row chunks in parallel (each
//     chunk writes its own rows' slice of `keys`), then counted per bucket;
//  2. an exclusive prefix sum turning the counts into bucket starts;
//  3. a scatter of the payloads in slot order, which advances each start to
//     its bucket's end.
// A fine domain much larger than the event count (|X| is an unbounded u64)
// would make the dense layout mostly empty buckets, so there the fine
// indices are first mapped to dense ranks of the distinct indices present,
// and the same buckets stand for those ranks.
template <typename Slots>
EventBuckets<typename Slots::Payload> BucketEvents(const Slots& slots,
                                                   const FineGrid& fine,
                                                   ThreadPool* pool) {
  using Payload = typename Slots::Payload;
  const std::size_t rows = slots.rows();
  const std::size_t events = slots.SlotBegin(rows);
  DPC_CHECK_LT(events, kMaxBucketKeys);
  const auto fill_keys = [&](auto* keys) {
    ParallelForChunks(
        pool, 0, rows, kRowGrain,
        [&](std::size_t lo, std::size_t hi, std::size_t) {
          for (std::size_t i = lo; i < hi; ++i) {
            slots.Keys(i, keys + slots.SlotBegin(i));
          }
        },
        kAlwaysParallel);
  };

  EventBuckets<Payload> out;
  auto keys = std::make_unique_for_overwrite<std::uint32_t[]>(events);
  if (fine.size <= std::min<std::uint64_t>(8 * events + 1024, kMaxBucketKeys)) {
    fill_keys(keys.get());
    out.ends.assign(fine.size, 0);
  } else {
    auto wide = std::make_unique_for_overwrite<std::uint64_t[]>(events);
    fill_keys(wide.get());
    out.fine.assign(wide.get(), wide.get() + events);
    std::sort(out.fine.begin(), out.fine.end());
    out.fine.erase(std::unique(out.fine.begin(), out.fine.end()),
                   out.fine.end());
    for (std::size_t s = 0; s < events; ++s) {
      keys[s] = static_cast<std::uint32_t>(
          std::lower_bound(out.fine.begin(), out.fine.end(), wide[s]) -
          out.fine.begin());
    }
    out.ends.assign(out.fine.size(), 0);
  }

  for (std::size_t s = 0; s < events; ++s) ++out.ends[keys[s]];
  std::uint32_t start = 0;
  for (std::uint32_t& end : out.ends) {
    const std::uint32_t count = end;
    end = start;
    start += count;
  }
  out.payload = std::make_unique_for_overwrite<Payload[]>(events);
  std::size_t slot = 0;
  slots.Walk([&](const Payload& payload) {
    out.payload[out.ends[keys[slot++]]++] = payload;
  });
  return out;
}

// The one sweep: walks the buckets in fine-index order, applies each event
// through `apply` (which raises rows of `sweep`), and records a breakpoint
// wherever L changes. Fine index 0 is always recorded, so L(0) reflects
// duplicates. The order of events inside a bucket is irrelevant (see
// WeightedCappedTracker): the output depends only on which events share a
// fine index.
template <typename Payload, typename Apply>
StepFunction Sweep(const EventBuckets<Payload>& buckets,
                   std::uint64_t fine_domain, CappedSweep& sweep,
                   Apply&& apply) {
  std::vector<std::uint64_t> starts;
  std::vector<double> values;
  std::size_t b = 0;
  std::uint32_t e = 0;
  const auto run_bucket = [&] {
    for (; e < buckets.ends[b]; ++e) apply(buckets.payload[e]);
  };
  if (!buckets.ends.empty() && buckets.FineIndex(0) == 0) {
    run_bucket();
    ++b;
  }
  starts.push_back(0);
  values.push_back(sweep.L());
  for (; b < buckets.ends.size(); ++b) {
    if (buckets.ends[b] == e) continue;  // No events at this fine index.
    run_bucket();
    const double value = sweep.L();
    if (value != values.back()) {
      starts.push_back(buckets.FineIndex(b));
      values.push_back(value);
    }
  }
  return StepFunction::FromBreakpoints(fine_domain, std::move(starts),
                                       std::move(values));
}

// L from all pairs of `view`'s rows — the O(n^2 d) generator. `weights`
// holds each row's multiplicity (empty = unit rows). A weighted row's
// expanded copies all share one capped count: each copy's ball holds the
// row's own mass plus every within-range row's mass. So pair (i, j) raises
// i by weight(j) and j by weight(i), and each row's weight - 1 duplicate
// copies sit at distance 0, fine index 0. The weighted path always takes
// this generator: rows are coreset-sized (max_profile_points caps them),
// while a t-NN pruned stream would need ~rows * (t-1) entries at expanded t.
StepFunction PairProfile(const PointSet& view,
                         std::span<const std::uint64_t> weights, std::size_t t,
                         const FineGrid& fine, ThreadPool* pool) {
  const std::size_t n = view.size();
  std::uint64_t mass = weights.empty() ? n : 0;
  for (const std::uint64_t w : weights) mass += w;
  CappedSweep sweep(n, t, mass);
  const auto buckets = BucketEvents(PairSlots(view, fine), fine, pool);
  if (weights.empty()) {
    return Sweep(buckets, fine.size, sweep, [&sweep](const PairEvent& p) {
      sweep.Raise(p.i, 1, 1);
      sweep.Raise(p.j, 1, 1);
    });
  }
  // The self-mass joins fine index 0 ahead of that bucket's pairs; order
  // within one index is free.
  for (std::uint32_t i = 0; i < n; ++i) {
    if (weights[i] > 1) sweep.Raise(i, weights[i] - 1, weights[i]);
  }
  return Sweep(buckets, fine.size, sweep, [&](const PairEvent& p) {
    sweep.Raise(p.i, weights[p.j], weights[p.i]);
    sweep.Raise(p.j, weights[p.i], weights[p.j]);
  });
}

// L from each center's k = t - 1 nearest-neighbor distances (row-major
// n x k) — the t-NN pruned generator; every farther pair is a no-op in the
// capped sweep (see the header). The grid computes squared distances with
// the same accumulation order as Distance(), so the fine indices match the
// all-pairs generator's bit for bit.
StepFunction KnnProfile(std::span<const double> knn, std::size_t n,
                        std::size_t t, const FineGrid& fine,
                        ThreadPool* pool) {
  const auto buckets = BucketEvents(KnnSlots(knn, n, t - 1, fine), fine, pool);
  CappedSweep sweep(n, t, n);
  return Sweep(buckets, fine.size, sweep,
               [&sweep](std::uint32_t center) { sweep.Raise(center, 1, 1); });
}

// Validation shared by both Build entry points.
Status ValidateBuildArgs(std::size_t n, std::size_t t, std::size_t max_points) {
  if (n == 0) return Status::InvalidArgument("RadiusProfile: empty dataset");
  if (t < 1 || t > n) {
    return Status::InvalidArgument("RadiusProfile: t must satisfy 1 <= t <= n");
  }
  if (n > max_points) {
    return Status::ResourceExhausted(
        "RadiusProfile: n=" + std::to_string(n) + " exceeds max_points=" +
        std::to_string(max_points) +
        "; raise GoodRadiusOptions::max_profile_points or subsample the "
        "radius stage");
  }
  return Status::OK();
}

}  // namespace

std::string_view ProfileIndexName(ProfileIndex index) {
  switch (index) {
    case ProfileIndex::kAuto:
      return "auto";
    case ProfileIndex::kGrid:
      return "grid";
    case ProfileIndex::kExact:
      return "exact";
  }
  return "auto";
}

Result<ProfileIndex> ProfileIndexFromName(std::string_view name) {
  if (name == "auto") return ProfileIndex::kAuto;
  if (name == "grid") return ProfileIndex::kGrid;
  if (name == "exact") return ProfileIndex::kExact;
  return Status::InvalidArgument("ProfileIndex: unknown name '" +
                                 std::string(name) +
                                 "' (expected auto|grid|exact)");
}

ProfileIndex ResolveProfileIndex(ProfileIndex requested, std::size_t n,
                                 std::size_t t, std::size_t d) {
  if (requested != ProfileIndex::kAuto) return requested;
  if (n < 512) return ProfileIndex::kExact;  // Both builds sub-10ms; skip setup.
  // Crossover measured when the exact generator still sorted its events
  // (bench_scaling, n sweep at d in {2, 8}): the pruned stream must be a
  // few times smaller than the n(n-1)/2 pairs to pay for the k-NN search.
  // At t > n/4 pruning drops fewer than 4x of the events — unless the grid
  // collapses to one cell (high d, or large t at moderate d): there the
  // batched k-NN runs the blocked dense scan, one streamed pass over the
  // data per query chunk at a cost independent of t, so the grid generator
  // stays ahead up to t - 1 <= n / 2. Both generators now bucket their
  // events (~35 ns per pair, ~20 ns per neighbor plus the k-NN search at
  // d = 2, one thread), which favors exact somewhat more; the constants
  // stay put because EffectiveSubsampleCap consults this function, so
  // moving them would change which requests subsample and their bytes.
  const std::size_t t_cap =
      GridCollapsesToSingleCell(n, d, /*expected_neighbors=*/t > 1 ? t - 1 : 1)
          ? n / 2
          : n / 4;
  return t - 1 <= t_cap ? ProfileIndex::kGrid : ProfileIndex::kExact;
}

Result<RadiusProfile> RadiusProfile::Build(const PointSet& s, std::size_t t,
                                           const GridDomain& domain,
                                           std::size_t max_points,
                                           ThreadPool* pool,
                                           ProfileIndex index) {
  const std::size_t n = s.size();
  DPC_RETURN_IF_ERROR(ValidateBuildArgs(n, t, max_points));
  if (s.dim() != domain.dim()) {
    return Status::InvalidArgument("RadiusProfile: domain dimension mismatch");
  }

  RadiusProfile profile;
  profile.solution_grid_ = domain.RadiusGridSize();
  const FineGrid fine(domain);
  if (ResolveProfileIndex(index, n, t, s.dim()) == ProfileIndex::kGrid) {
    const std::size_t k = t - 1;
    std::vector<double> knn(n * k);
    if (k > 0) {  // t = 1: every increment saturates; no events.
      DPC_ASSIGN_OR_RETURN(SpatialGrid grid,
                           SpatialGrid::Build(s, domain, k));
      grid.BatchKnnDistances(k, knn, pool, /*sorted=*/false);
    }
    profile.fine_l_ = KnnProfile(knn, n, t, fine, pool);
  } else {
    profile.fine_l_ = PairProfile(s, {}, t, fine, pool);
  }
  return profile;
}

Result<RadiusProfile> RadiusProfile::Build(const IndexedDataset& index,
                                           std::size_t t,
                                           std::size_t max_points,
                                           ThreadPool* pool,
                                           ProfileIndex profile_index) {
  const std::size_t n = index.active_size();
  if (index.weighted()) {
    // Weighted t bound is against total mass, not rows: the profile models the
    // duplicate-expanded dataset, where t points may span fewer distinct rows.
    if (n == 0) return Status::InvalidArgument("RadiusProfile: empty dataset");
    if (t < 1 || t > index.active_mass()) {
      return Status::InvalidArgument(
          "RadiusProfile: t must satisfy 1 <= t <= active mass");
    }
    if (n > max_points) {
      return Status::ResourceExhausted(
          "RadiusProfile: n=" + std::to_string(n) + " exceeds max_points=" +
          std::to_string(max_points) +
          "; raise GoodRadiusOptions::max_profile_points or shrink the "
          "coreset");
    }
  } else {
    DPC_RETURN_IF_ERROR(ValidateBuildArgs(n, t, max_points));
  }
  RadiusProfile profile;
  profile.solution_grid_ = index.domain().RadiusGridSize();
  const FineGrid fine(index.domain());

  // Rows are active *ranks* (positions in the ascending active-id list),
  // which is exactly the row numbering of ActiveView(), so every generator
  // emits the same events the subset-rebuild path would.
  if (index.weighted()) {
    const PointSet view = index.ActiveView();
    const std::span<const std::uint32_t> active_ids = index.ActiveIds();
    std::vector<std::uint64_t> rank_weights(n);
    for (std::size_t rank = 0; rank < n; ++rank) {
      rank_weights[rank] = index.weight(active_ids[rank]);
    }
    profile.fine_l_ = PairProfile(view, rank_weights, t, fine, pool);
  } else if (ResolveProfileIndex(profile_index, n, t, index.dim()) ==
             ProfileIndex::kGrid) {
    const std::size_t k = t - 1;
    std::vector<double> knn(n * k);
    if (k > 0) index.BatchKnn(k, knn, pool, /*sorted=*/false);
    profile.fine_l_ = KnnProfile(knn, n, t, fine, pool);
  } else {
    // Materialize the active view once: the O(n^2 d) pair pass then streams
    // contiguous rows — a per-access rank indirection into the full dataset
    // costs ~10% in this hot loop, far more than one O(n d) copy.
    profile.fine_l_ = PairProfile(index.ActiveView(), {}, t, fine, pool);
  }
  return profile;
}

double RadiusProfile::LAtSolutionIndex(std::uint64_t g) const {
  DPC_CHECK_LT(g, solution_grid_);
  return fine_l_.ValueAt(2 * g);
}

double RadiusProfile::LAtHalfSolutionIndex(std::uint64_t g) const {
  DPC_CHECK_LT(g, solution_grid_);
  return fine_l_.ValueAt(g);
}

}  // namespace dpcluster
