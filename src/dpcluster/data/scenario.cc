#include "dpcluster/data/scenario.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "dpcluster/coreset/coreset.h"

namespace dpcluster {
namespace {

// floor(fraction * n), except that a product within 1e-9 below an integer
// counts as that integer: t / n as a double times n can land one ulp short
// of t, and truncating it would plant t - 1 points.
std::size_t RoundedClusterCount(double fraction, std::size_t n) {
  return static_cast<std::size_t>(
      std::floor(fraction * static_cast<double>(n) + 1e-9));
}

}  // namespace

Status ScenarioSpec::Validate() const {
  if (n == 0) return Status::InvalidArgument("ScenarioSpec: n must be >= 1");
  if (dim == 0) return Status::InvalidArgument("ScenarioSpec: dim must be >= 1");
  if (levels < 2) {
    return Status::InvalidArgument("ScenarioSpec: levels must be >= 2");
  }
  if (!(axis_length > 0.0)) {
    return Status::InvalidArgument("ScenarioSpec: axis_length must be > 0");
  }
  if (!(cluster_radius > 0.0) ||
      2.0 * cluster_radius >= axis_length) {
    return Status::InvalidArgument(
        "ScenarioSpec: cluster_radius must be in (0, axis_length/2)");
  }
  if (!(cluster_fraction > 0.0) || cluster_fraction > 1.0) {
    return Status::InvalidArgument(
        "ScenarioSpec: cluster_fraction must be in (0, 1]");
  }
  if (RoundedClusterCount(cluster_fraction, n) == 0) {
    return Status::InvalidArgument(
        "ScenarioSpec: cluster_fraction * n rounds to an empty cluster");
  }
  return Status::OK();
}

std::size_t ScenarioSpec::PrimaryCount() const {
  return std::clamp<std::size_t>(RoundedClusterCount(cluster_fraction, n), 1,
                                 n);
}

std::size_t ScenarioInstance::LabelCount(int label) const {
  return static_cast<std::size_t>(
      std::count(labels.begin(), labels.end(), label));
}

Result<IndexedDataset> ScenarioInstance::WeightedDistinctIndex() const {
  if (points.empty()) {
    return Status::InvalidArgument(
        "ScenarioInstance: no points to collapse");
  }
  return MakeWeightedIndex(CollapseDuplicates(points), domain);
}

Status ScenarioInstance::CheckInvariants() const {
  if (labels.size() != points.size()) {
    return Status::Internal("ScenarioInstance: labels/points size mismatch");
  }
  if (true_balls.empty()) {
    return Status::Internal("ScenarioInstance: no planted balls");
  }
  if (t == 0 || t > points.size()) {
    return Status::Internal("ScenarioInstance: t out of [1, n]");
  }
  if (LabelCount(0) != t) {
    return Status::Internal(
        "ScenarioInstance: t (" + std::to_string(t) +
        ") != primary label count (" + std::to_string(LabelCount(0)) + ")");
  }
  for (const Ball& ball : true_balls) {
    if (ball.center.size() != points.dim()) {
      return Status::Internal("ScenarioInstance: planted ball dim mismatch");
    }
  }
  for (int label : labels) {
    if (label < -1 || label >= static_cast<int>(true_balls.size())) {
      return Status::Internal("ScenarioInstance: label out of range");
    }
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = 0; j < points.dim(); ++j) {
      if (!domain.OnGrid(points[i][j])) {
        return Status::Internal("ScenarioInstance: point off the domain grid");
      }
    }
  }
  return Status::OK();
}

}  // namespace dpcluster
