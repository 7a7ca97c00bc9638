// Built-in scenario families. Every generator draws only from the supplied
// Rng (identical seeds => bit-identical instances), records the ground truth
// (labels + planted balls) before grid snapping, and keeps the invariant that
// exactly t points carry the primary label 0.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "dpcluster/common/check.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/data/scenario.h"
#include "dpcluster/la/vector_ops.h"
#include "dpcluster/random/distributions.h"

namespace dpcluster {
namespace {

// A random ball center such that the ball lies inside the cube.
std::vector<double> RandomInteriorCenter(Rng& rng, std::size_t dim,
                                         double margin, double axis_length) {
  DPC_CHECK_LT(2.0 * margin, axis_length);
  std::vector<double> c(dim);
  for (double& x : c) {
    x = margin + rng.NextDouble() * (axis_length - 2.0 * margin);
  }
  return c;
}

void AddLabeled(ScenarioInstance& instance, std::span<const double> p,
                int label) {
  instance.points.Add(p);
  instance.labels.push_back(label);
}

void AddBallPoints(Rng& rng, ScenarioInstance& instance, std::size_t count,
                   const Ball& ball, int label) {
  for (std::size_t i = 0; i < count; ++i) {
    AddLabeled(instance, SampleBall(rng, ball.center, ball.radius), label);
  }
}

void AddUniformBackground(Rng& rng, ScenarioInstance& instance,
                          std::size_t count, double axis_length) {
  std::vector<double> p(instance.points.dim());
  for (std::size_t i = 0; i < count; ++i) {
    for (double& x : p) x = rng.NextDouble() * axis_length;
    AddLabeled(instance, p, -1);
  }
}

// Uniform background rejecting points within `exclusion` of `center` (so the
// planted count stays exact); falls back to the last draw after 64 attempts
// (possible only when the exclusion ball nearly covers the cube).
void AddBackgroundOutside(Rng& rng, ScenarioInstance& instance,
                          std::size_t count, double axis_length,
                          std::span<const double> center, double exclusion) {
  std::vector<double> p(instance.points.dim());
  for (std::size_t i = 0; i < count; ++i) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      for (double& x : p) x = rng.NextDouble() * axis_length;
      if (Distance(p, center) > exclusion) break;
    }
    AddLabeled(instance, p, -1);
  }
}

ScenarioInstance NewInstance(const ScenarioSpec& spec) {
  ScenarioInstance instance;
  instance.scenario = spec.scenario;
  instance.domain = GridDomain(spec.levels, spec.dim, spec.axis_length);
  instance.points = PointSet(spec.dim);
  instance.labels.reserve(spec.n);
  return instance;
}

// Shared finalize: snap the generated points onto the domain grid.
ScenarioInstance Finish(ScenarioInstance instance) {
  instance.domain.SnapAll(instance.points);
  return instance;
}

// --------------------------------------------------------- planted_cluster ---

// The paper's core regime: a small tight cluster hidden in uniform noise.
class PlantedClusterFamily : public ScenarioFamily {
 public:
  std::string_view name() const override { return "planted_cluster"; }
  std::string_view description() const override {
    return "t points in a tight random ball, n-t uniform noise (the Table 1 / "
           "Theorem 3.2 regime)";
  }
  Status ValidateSpec(const ScenarioSpec&) const override {
    return Status::OK();
  }
  Result<ScenarioInstance> Generate(Rng& rng,
                                    const ScenarioSpec& spec) const override {
    ScenarioInstance instance = NewInstance(spec);
    instance.t = spec.PrimaryCount();
    Ball primary;
    primary.center = RandomInteriorCenter(rng, spec.dim, spec.cluster_radius,
                                          spec.axis_length);
    primary.radius = spec.cluster_radius;
    instance.true_balls = {primary};
    AddBallPoints(rng, instance, instance.t, primary, 0);
    AddUniformBackground(rng, instance, spec.n - instance.t, spec.axis_length);
    return Finish(std::move(instance));
  }
};

// -------------------------------------------------------- gaussian_mixture ---

// k spherical Gaussians with controllable separation and imbalance plus
// uniform background; the primary cluster is the smallest component.
class GaussianMixtureFamily : public ScenarioFamily {
 public:
  std::string_view name() const override { return "gaussian_mixture"; }
  std::string_view description() const override {
    return "k spherical Gaussians (separation, imbalance knobs) + uniform "
           "noise; primary = smallest component";
  }
  Status ValidateSpec(const ScenarioSpec& spec) const override {
    if (spec.k == 0) {
      return Status::InvalidArgument("gaussian_mixture: k must be >= 1");
    }
    if (!(spec.sigma > 0.0) || 8.0 * spec.sigma >= spec.axis_length) {
      return Status::InvalidArgument(
          "gaussian_mixture: sigma must be in (0, axis_length/8)");
    }
    if (spec.imbalance < 1.0) {
      return Status::InvalidArgument(
          "gaussian_mixture: imbalance must be >= 1 (largest/smallest)");
    }
    if (spec.noise_fraction < 0.0 || spec.noise_fraction >= 1.0) {
      return Status::InvalidArgument(
          "gaussian_mixture: noise_fraction must be in [0, 1)");
    }
    const auto noise = static_cast<std::size_t>(
        spec.noise_fraction * static_cast<double>(spec.n));
    if (spec.n - noise < spec.k) {
      return Status::InvalidArgument(
          "gaussian_mixture: fewer clustered points than components");
    }
    return Status::OK();
  }
  Result<ScenarioInstance> Generate(Rng& rng,
                                    const ScenarioSpec& spec) const override {
    ScenarioInstance instance = NewInstance(spec);
    const auto noise = static_cast<std::size_t>(
        spec.noise_fraction * static_cast<double>(spec.n));
    const std::size_t clustered = spec.n - noise;

    // Component sizes: geometric weights with largest/smallest = imbalance,
    // ordered smallest-first so component 0 is the primary small cluster.
    std::vector<std::size_t> sizes(spec.k, 1);
    {
      std::vector<double> weights(spec.k);
      for (std::size_t c = 0; c < spec.k; ++c) {
        const double frac =
            spec.k == 1 ? 0.0
                        : static_cast<double>(c) / static_cast<double>(spec.k - 1);
        weights[c] = std::pow(spec.imbalance, frac);  // 1 .. imbalance
      }
      const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
      std::size_t assigned = spec.k;  // one guaranteed point per component
      for (std::size_t c = 0; c < spec.k && assigned < clustered; ++c) {
        const auto extra = std::min<std::size_t>(
            clustered - assigned,
            static_cast<std::size_t>(
                weights[c] / total * static_cast<double>(clustered - spec.k)));
        sizes[c] += extra;
        assigned += extra;
      }
      sizes[spec.k - 1] += clustered - std::min(
          clustered,
          std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}));
    }
    instance.t = sizes[0];

    // Centers: rejection-sample for pairwise separation (best effort).
    std::vector<double> p(spec.dim);
    for (std::size_t c = 0; c < spec.k; ++c) {
      Ball ball;
      for (int attempt = 0; attempt < 200; ++attempt) {
        ball.center =
            RandomInteriorCenter(rng, spec.dim, 2.0 * spec.sigma,
                                 spec.axis_length);
        bool clear = true;
        for (const Ball& other : instance.true_balls) {
          if (Distance(ball.center, other.center) <
              spec.separation * spec.sigma) {
            clear = false;
            break;
          }
        }
        if (clear) break;
      }
      ball.radius = 2.0 * spec.sigma;  // nominal 2-sigma ball
      instance.true_balls.push_back(ball);
      for (std::size_t i = 0; i < sizes[c]; ++i) {
        for (std::size_t j = 0; j < spec.dim; ++j) {
          p[j] = std::clamp(ball.center[j] + SampleGaussian(rng, spec.sigma),
                            0.0, spec.axis_length);
        }
        AddLabeled(instance, p, static_cast<int>(c));
      }
    }
    AddUniformBackground(rng, instance, noise, spec.axis_length);
    return Finish(std::move(instance));
  }
};

// --------------------------------------------------- outlier_contaminated ---

// All but a noise_fraction of the points in one tight ball; the contamination
// is kept outside an exclusion zone so the inlier count is exact.
class OutlierContaminatedFamily : public ScenarioFamily {
 public:
  std::string_view name() const override { return "outlier_contaminated"; }
  std::string_view description() const override {
    return "1 - noise_fraction of the points in one tight ball, the rest "
           "scattered far away (Section 1.1 screening)";
  }
  Status ValidateSpec(const ScenarioSpec& spec) const override {
    if (spec.noise_fraction <= 0.0 || spec.noise_fraction >= 1.0) {
      return Status::InvalidArgument(
          "outlier_contaminated: noise_fraction must be in (0, 1)");
    }
    if (static_cast<std::size_t>((1.0 - spec.noise_fraction) *
                                 static_cast<double>(spec.n)) == 0) {
      return Status::InvalidArgument(
          "outlier_contaminated: no inliers at this n");
    }
    return Status::OK();
  }
  Result<ScenarioInstance> Generate(Rng& rng,
                                    const ScenarioSpec& spec) const override {
    ScenarioInstance instance = NewInstance(spec);
    const auto inliers = static_cast<std::size_t>(
        (1.0 - spec.noise_fraction) * static_cast<double>(spec.n));
    instance.t = inliers;
    Ball primary;
    primary.center = RandomInteriorCenter(rng, spec.dim, spec.cluster_radius,
                                          spec.axis_length);
    primary.radius = spec.cluster_radius;
    instance.true_balls = {primary};
    AddBallPoints(rng, instance, inliers, primary, 0);
    AddBackgroundOutside(rng, instance, spec.n - inliers, spec.axis_length,
                         primary.center, 3.0 * spec.cluster_radius);
    return Finish(std::move(instance));
  }
};

// ------------------------------------------------------------ heavy_tailed ---

// One center, radial Lomax (shifted Pareto) distances: a dense core with
// far-flung stragglers. The true ball is the tightest ball around the center
// holding the t core points, computed from the generated sample itself.
class HeavyTailedFamily : public ScenarioFamily {
 public:
  std::string_view name() const override { return "heavy_tailed"; }
  std::string_view description() const override {
    return "radial Lomax(tail_index) cloud: dense core + heavy-tailed "
           "stragglers; truth = tightest t-ball around the center";
  }
  Status ValidateSpec(const ScenarioSpec& spec) const override {
    if (!(spec.tail_index > 0.0)) {
      return Status::InvalidArgument(
          "heavy_tailed: tail_index must be positive");
    }
    return Status::OK();
  }
  Result<ScenarioInstance> Generate(Rng& rng,
                                    const ScenarioSpec& spec) const override {
    ScenarioInstance instance = NewInstance(spec);
    instance.t = spec.PrimaryCount();
    const std::vector<double> center = RandomInteriorCenter(
        rng, spec.dim, spec.cluster_radius, spec.axis_length);

    std::vector<double> p(spec.dim);
    std::vector<double> dist(spec.n);
    for (std::size_t i = 0; i < spec.n; ++i) {
      // Lomax radius: scale * (U^(-1/alpha) - 1), heavy tail for small alpha.
      const double u = rng.NextDoubleOpenZero();
      const double r =
          spec.cluster_radius *
          (std::pow(u, -1.0 / spec.tail_index) - 1.0);
      const auto dir = SampleUnitSphere(rng, static_cast<int>(spec.dim));
      for (std::size_t j = 0; j < spec.dim; ++j) {
        p[j] = std::clamp(center[j] + r * dir[j], 0.0, spec.axis_length);
      }
      AddLabeled(instance, p, -1);  // relabeled below once distances are known
      dist[i] = Distance(instance.points[i], center);
    }

    // Label the t closest points (post-clamp distances; ties broken by index)
    // as the core and size the true ball to exactly enclose them.
    std::vector<std::size_t> order(spec.n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&dist](std::size_t a, std::size_t b) {
                       return dist[a] < dist[b];
                     });
    Ball primary;
    primary.center = center;
    primary.radius = dist[order[instance.t - 1]];
    for (std::size_t i = 0; i < instance.t; ++i) instance.labels[order[i]] = 0;
    instance.true_balls = {primary};
    return Finish(std::move(instance));
  }
};

// --------------------------------------------------------- axis_degenerate ---

// The cluster varies in only intrinsic_dim of the d coordinates (a low-rank /
// axis-degenerate slice); background noise is full-dimensional.
class AxisDegenerateFamily : public ScenarioFamily {
 public:
  std::string_view name() const override { return "axis_degenerate"; }
  std::string_view description() const override {
    return "cluster confined to intrinsic_dim coordinates (low-rank slice) "
           "inside full-dimensional noise";
  }
  Status ValidateSpec(const ScenarioSpec& spec) const override {
    if (spec.intrinsic_dim == 0 || spec.intrinsic_dim > spec.dim) {
      return Status::InvalidArgument(
          "axis_degenerate: intrinsic_dim must be in [1, dim]");
    }
    return Status::OK();
  }
  Result<ScenarioInstance> Generate(Rng& rng,
                                    const ScenarioSpec& spec) const override {
    ScenarioInstance instance = NewInstance(spec);
    instance.t = spec.PrimaryCount();
    Ball primary;
    primary.center = RandomInteriorCenter(rng, spec.dim, spec.cluster_radius,
                                          spec.axis_length);
    primary.radius = spec.cluster_radius;
    instance.true_balls = {primary};

    // Pick the intrinsic_dim coordinates the cluster varies in (partial
    // Fisher-Yates on the coordinate indices).
    std::vector<std::size_t> axes(spec.dim);
    std::iota(axes.begin(), axes.end(), std::size_t{0});
    for (std::size_t j = 0; j + 1 < spec.dim && j < spec.intrinsic_dim; ++j) {
      std::swap(axes[j], axes[j + rng.NextUint64(spec.dim - j)]);
    }

    std::vector<double> p(spec.dim);
    for (std::size_t i = 0; i < instance.t; ++i) {
      const auto low = SampleBall(
          rng, std::span<const double>(primary.center.data(),
                                       spec.intrinsic_dim),
          spec.cluster_radius);
      p = primary.center;
      for (std::size_t j = 0; j < spec.intrinsic_dim; ++j) {
        p[axes[j]] = std::clamp(primary.center[axes[j]] +
                                    (low[j] - primary.center[j]),
                                0.0, spec.axis_length);
      }
      AddLabeled(instance, p, 0);
    }
    AddUniformBackground(rng, instance, spec.n - instance.t, spec.axis_length);
    return Finish(std::move(instance));
  }
};

// ------------------------------------------------------------ grid_snapped ---

// A planted cluster collapsed onto a coarse sub-grid: massive duplication,
// r_opt frequently 0, selection ties everywhere — the degenerate quantized
// instance class.
class GridSnappedFamily : public ScenarioFamily {
 public:
  std::string_view name() const override { return "grid_snapped"; }
  std::string_view description() const override {
    return "planted cluster collapsed onto a coarse snap_levels sub-grid "
           "(duplicate-heavy, near-zero r_opt)";
  }
  Status ValidateSpec(const ScenarioSpec& spec) const override {
    if (spec.snap_levels < 2 || spec.snap_levels > spec.levels) {
      return Status::InvalidArgument(
          "grid_snapped: snap_levels must be in [2, levels]");
    }
    return Status::OK();
  }
  Result<ScenarioInstance> Generate(Rng& rng,
                                    const ScenarioSpec& spec) const override {
    ScenarioInstance instance = NewInstance(spec);
    instance.t = spec.PrimaryCount();
    const GridDomain coarse(spec.snap_levels, spec.dim, spec.axis_length);
    Ball primary;
    primary.center = RandomInteriorCenter(rng, spec.dim, spec.cluster_radius,
                                          spec.axis_length);
    // Coarse snapping moves a point by at most half a coarse grid diagonal.
    primary.radius = spec.cluster_radius +
                     0.5 * coarse.step() * std::sqrt(static_cast<double>(spec.dim));
    instance.true_balls = {primary};
    Ball tight;
    tight.center = primary.center;
    tight.radius = spec.cluster_radius;
    AddBallPoints(rng, instance, instance.t, tight, 0);
    AddUniformBackground(rng, instance, spec.n - instance.t, spec.axis_length);
    coarse.SnapAll(instance.points);
    return Finish(std::move(instance));
  }
};

// ----------------------------------------------------------------- annulus ---

// Cluster points on a thin spherical shell: the centroid is far from every
// data point, which defeats mean-style centers.
class AnnulusFamily : public ScenarioFamily {
 public:
  std::string_view name() const override { return "annulus"; }
  std::string_view description() const override {
    return "t points on a thin shell of radius cluster_radius (centroid far "
           "from all points; adversarial for mean centers)";
  }
  Status ValidateSpec(const ScenarioSpec& spec) const override {
    if (spec.shell_thickness < 0.0 || spec.shell_thickness > 1.0) {
      return Status::InvalidArgument(
          "annulus: shell_thickness must be in [0, 1] (fraction of radius)");
    }
    return Status::OK();
  }
  Result<ScenarioInstance> Generate(Rng& rng,
                                    const ScenarioSpec& spec) const override {
    ScenarioInstance instance = NewInstance(spec);
    instance.t = spec.PrimaryCount();
    Ball primary;
    primary.center = RandomInteriorCenter(rng, spec.dim, spec.cluster_radius,
                                          spec.axis_length);
    primary.radius = spec.cluster_radius;
    instance.true_balls = {primary};
    const double inner = spec.cluster_radius * (1.0 - spec.shell_thickness);
    std::vector<double> p(spec.dim);
    for (std::size_t i = 0; i < instance.t; ++i) {
      const auto dir = SampleUnitSphere(rng, static_cast<int>(spec.dim));
      const double r = inner + rng.NextDouble() * (spec.cluster_radius - inner);
      for (std::size_t j = 0; j < spec.dim; ++j) {
        p[j] = std::clamp(primary.center[j] + r * dir[j], 0.0,
                          spec.axis_length);
      }
      AddLabeled(instance, p, 0);
    }
    AddUniformBackground(rng, instance, spec.n - instance.t, spec.axis_length);
    return Finish(std::move(instance));
  }
};

// ---------------------------------------------------------------- near_tie ---

// Two planted clusters whose (size, radius) pairs nearly tie: the decoy holds
// t-1 points in a slightly tighter ball, so private selection steps face
// adjacent scores whichever way they break the tie.
class NearTieFamily : public ScenarioFamily {
 public:
  std::string_view name() const override { return "near_tie"; }
  std::string_view description() const override {
    return "primary t-ball vs decoy (t-1)-ball with tie_margin tighter "
           "radius: adversarial near-tie selection";
  }
  Status ValidateSpec(const ScenarioSpec& spec) const override {
    if (spec.tie_margin < 0.0 || spec.tie_margin >= 1.0) {
      return Status::InvalidArgument(
          "near_tie: tie_margin must be in [0, 1)");
    }
    if (2 * spec.PrimaryCount() > spec.n + 1) {
      return Status::InvalidArgument(
          "near_tie: needs 2t - 1 <= n (lower cluster_fraction)");
    }
    if (4.0 * spec.cluster_radius >= 0.4 * spec.axis_length *
                                         std::sqrt(static_cast<double>(spec.dim))) {
      return Status::InvalidArgument(
          "near_tie: cluster_radius too large for two separated clusters");
    }
    return Status::OK();
  }
  Result<ScenarioInstance> Generate(Rng& rng,
                                    const ScenarioSpec& spec) const override {
    ScenarioInstance instance = NewInstance(spec);
    instance.t = spec.PrimaryCount();
    Ball primary;
    Ball decoy;
    // Opposite corners (as in the two-cluster workload) so no ball covers both.
    primary.center.assign(spec.dim, 0.3 * spec.axis_length);
    decoy.center.assign(spec.dim, 0.7 * spec.axis_length);
    primary.radius = spec.cluster_radius;
    decoy.radius = spec.cluster_radius * (1.0 - spec.tie_margin);
    instance.true_balls = {primary, decoy};
    AddBallPoints(rng, instance, instance.t, primary, 0);
    AddBallPoints(rng, instance, instance.t - 1, decoy, 1);
    AddUniformBackground(rng, instance,
                         spec.n - (2 * instance.t - 1), spec.axis_length);
    return Finish(std::move(instance));
  }
};

// --------------------------------------------------------------- streaming ---

// Points arrive and expire over `ticks` rounds while the planted cluster
// drifts along a random chord. The instance's points/labels/balls describe
// the final tick — what a long-lived stream consumer is asked about — and
// the full arrival/expiry history is recorded in instance.stream, so replay
// harnesses (dpcluster_cli --stream-ticks, the streaming benches, the
// service tests) can drive the incremental index through the exact same
// edits and check byte-identity against indexing the final state directly.
class StreamingFamily : public ScenarioFamily {
 public:
  std::string_view name() const override { return "streaming"; }
  std::string_view description() const override {
    return "points arrive/expire over ticks while the planted cluster "
           "drifts; truth = final-tick ball, replay schedule in "
           "instance.stream";
  }
  Status ValidateSpec(const ScenarioSpec& spec) const override {
    if (spec.ticks < 1 || spec.ticks > 1024) {
      return Status::InvalidArgument("streaming: ticks must be in [1, 1024]");
    }
    return Status::OK();
  }
  Result<ScenarioInstance> Generate(Rng& rng,
                                    const ScenarioSpec& spec) const override {
    ScenarioInstance instance = NewInstance(spec);
    instance.t = spec.PrimaryCount();
    const std::size_t ticks = spec.ticks;
    const std::size_t window = std::max<std::size_t>(1, ticks / 4);
    const std::size_t background = spec.n - instance.t;

    StreamSchedule& stream = instance.stream;
    stream.ticks = ticks;
    stream.arrivals = PointSet(spec.dim);
    const std::vector<double> from = RandomInteriorCenter(
        rng, spec.dim, spec.cluster_radius, spec.axis_length);
    const std::vector<double> to = RandomInteriorCenter(
        rng, spec.dim, spec.cluster_radius, spec.axis_length);
    stream.tick_balls.reserve(ticks);
    for (std::size_t u = 0; u < ticks; ++u) {
      const double f = ticks == 1 ? 1.0
                                  : static_cast<double>(u) /
                                        static_cast<double>(ticks - 1);
      Ball ball;
      ball.center.resize(spec.dim);
      for (std::size_t j = 0; j < spec.dim; ++j) {
        ball.center[j] = from[j] + f * (to[j] - from[j]);
      }
      ball.radius = spec.cluster_radius;
      stream.tick_balls.push_back(std::move(ball));
    }
    instance.true_balls = {stream.tick_balls.back()};

    const auto arrive = [&stream](std::span<const double> p, std::size_t at,
                                  std::size_t expiry) {
      stream.arrivals.Add(p);
      stream.arrival_tick.push_back(static_cast<std::uint32_t>(at));
      stream.expiry_tick.push_back(static_cast<std::uint32_t>(expiry));
    };
    std::vector<double> p(spec.dim);
    for (std::size_t u = 0; u < ticks; ++u) {
      // Background survivors arrive evenly across ticks and never expire.
      const std::size_t batch =
          background / ticks + (u < background % ticks ? 1 : 0);
      for (std::size_t i = 0; i < batch; ++i) {
        for (double& x : p) x = rng.NextDouble() * spec.axis_length;
        arrive(p, u, ticks);
        AddLabeled(instance, p, -1);
      }
      // The tick's cluster batch around the drifted center: transient before
      // the final tick (expires after `window` ticks, always before the
      // end), planted truth at the final one.
      const Ball& ball = stream.tick_balls[u];
      for (std::size_t i = 0; i < instance.t; ++i) {
        const auto q = SampleBall(rng, ball.center, ball.radius);
        if (u + 1 == ticks) {
          arrive(q, u, ticks);
          AddLabeled(instance, q, 0);
        } else {
          arrive(q, u, std::min(u + window, ticks - 1));
        }
      }
    }
    // Snap the schedule exactly like the instance: surviving rows stay
    // byte-identical between the two views.
    instance.domain.SnapAll(stream.arrivals);
    return Finish(std::move(instance));
  }
};

}  // namespace

Status RegisterBuiltinScenarios(ScenarioRegistry& registry) {
  const auto add = [&registry](std::unique_ptr<ScenarioFamily> family) {
    if (registry.Contains(family->name())) return Status::OK();
    return registry.Register(std::move(family));
  };
  DPC_RETURN_IF_ERROR(add(std::make_unique<PlantedClusterFamily>()));
  DPC_RETURN_IF_ERROR(add(std::make_unique<GaussianMixtureFamily>()));
  DPC_RETURN_IF_ERROR(add(std::make_unique<OutlierContaminatedFamily>()));
  DPC_RETURN_IF_ERROR(add(std::make_unique<HeavyTailedFamily>()));
  DPC_RETURN_IF_ERROR(add(std::make_unique<AxisDegenerateFamily>()));
  DPC_RETURN_IF_ERROR(add(std::make_unique<GridSnappedFamily>()));
  DPC_RETURN_IF_ERROR(add(std::make_unique<AnnulusFamily>()));
  DPC_RETURN_IF_ERROR(add(std::make_unique<NearTieFamily>()));
  DPC_RETURN_IF_ERROR(add(std::make_unique<StreamingFamily>()));
  return Status::OK();
}

}  // namespace dpcluster
