#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dpcluster/api/request.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/random/rng.h"
#include "dpcluster/service/json.h"
#include "dpcluster/service/protocol.h"

namespace perfbench {
namespace {

using dpcluster::JsonValue;
using dpcluster::Result;
using dpcluster::Rng;
using dpcluster::ScenarioInstance;
using dpcluster::ScenarioSpec;
using dpcluster::WireRequest;

constexpr double kEpsilon = 8.0;
constexpr double kDelta = 1e-9;
constexpr std::uint64_t kLevels = std::uint64_t{1} << 12;
constexpr std::size_t kStreamLive = 1024;

/// SplitMix64 finalizer: independent sub-seeds from (seed, salt).
std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// A never-zero wire seed (0 would mean "the server's default").
std::uint64_t WireSeed(std::uint64_t seed, std::uint64_t salt) {
  return Mix(seed, salt) | 1;
}

struct Planted {
  std::size_t n = 512;
  std::size_t dim = 2;
  std::uint64_t levels = kLevels;
  double fraction = 0.375;
  double radius = 0.02;
};

Result<ScenarioInstance> Generate(std::uint64_t seed, const Planted& p) {
  ScenarioSpec spec;
  spec.scenario = "planted_cluster";
  spec.n = p.n;
  spec.dim = p.dim;
  spec.levels = p.levels;
  spec.cluster_fraction = p.fraction;
  spec.cluster_radius = p.radius;
  Rng rng(seed);
  return dpcluster::GenerateScenario(rng, spec);
}

// The request shapes. The primary solve (one_cluster at n = 4096,
// t = 512) sits at the default max_profile_points ceiling.
const Planted kPrimary{4096, 2, kLevels, 0.125, 0.02};
const Planted kHeavy{std::size_t{1} << 17, 2, kLevels, 0.125, 0.02};
const Planted kProbe{512, 2, kLevels, 0.375, 0.02};
const Planted kLine{1200, 1, kLevels, 0.58, 0.015};
const Planted kCoarse{512, 2, 32, 0.375, 0.02};

std::string SolveBody(const std::string& tenant, const std::string& dataset,
                      const std::string& algorithm,
                      const ScenarioInstance& instance, std::uint64_t seed,
                      bool coreset = false) {
  WireRequest wire;
  wire.tenant = tenant;
  wire.dataset = dataset;
  wire.seed = seed;
  wire.request.algorithm = algorithm;
  wire.request.data = instance.points;
  wire.request.domain = instance.domain;
  wire.request.t = instance.t;
  wire.request.budget = {kEpsilon, kDelta};
  wire.request.tuning.coreset = coreset;
  return dpcluster::WireRequestToJson(wire).Encode();
}

std::string StreamSolveBody(const std::string& tenant, const std::string& key,
                            std::size_t t, std::uint64_t seed) {
  WireRequest wire;
  wire.tenant = tenant;
  wire.dataset = key;
  wire.seed = seed;
  wire.stream = true;
  wire.request.algorithm = "one_cluster";
  wire.request.t = t;
  wire.request.budget = {kEpsilon, kDelta};
  return dpcluster::WireRequestToJson(wire).Encode();
}

/// The expire body for `count` oldest rows of `key`.
std::string ExpireBody(const std::string& key, std::size_t count) {
  JsonValue body = JsonValue::Object();
  body.Set("dataset", JsonValue::String(key));
  body.Set("count", JsonValue::Number(static_cast<std::uint64_t>(count)));
  return body.Encode();
}

std::string AppendBody(const StreamSource& stream, std::size_t lo,
                       std::size_t hi, bool create) {
  JsonValue points = JsonValue::Array();
  for (std::size_t i = lo; i < hi; ++i) {
    JsonValue row = JsonValue::Array();
    for (const double c : stream.arrivals[i]) row.Append(JsonValue::Number(c));
    points.Append(std::move(row));
  }
  JsonValue body = JsonValue::Object();
  body.Set("dataset", JsonValue::String(stream.key));
  body.Set("points", std::move(points));
  if (create) {
    body.Set("levels", JsonValue::Number(stream.domain.levels()));
    body.Set("axis", JsonValue::Number(stream.domain.axis_length()));
  }
  return body.Encode();
}

Op SolveOp(OpClass cls, std::string body) {
  Op op;
  op.cls = cls;
  op.kind = OpKind::kSolve;
  op.path = "/v1/solve";
  op.body = std::move(body);
  return op;
}

/// Poisson arrivals at `rate` per second over [0, seconds).
std::vector<double> PoissonDue(std::uint64_t seed, double rate,
                               double seconds) {
  Rng rng(seed);
  std::vector<double> due;
  double t = -std::log(rng.NextDoubleOpenZero()) / rate;
  while (t < seconds) {
    due.push_back(t);
    t += -std::log(rng.NextDoubleOpenZero()) / rate;
  }
  return due;
}

/// A stream whose arrivals are a shuffled planted_cluster instance (so any
/// window of live rows holds a share of the cluster), sized for the
/// preload plus `appends` batches.
Result<StreamSource> MakeStream(std::uint64_t seed, const std::string& key,
                                std::size_t appends) {
  Planted p{kStreamLive + kBatchRows * appends, 2, kLevels, 0.375, 0.02};
  DPC_ASSIGN_OR_RETURN(ScenarioInstance instance, Generate(seed, p));
  std::vector<std::size_t> order(instance.points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(Mix(seed, 1));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextUint64(i)]);
  }
  StreamSource stream;
  stream.key = key;
  stream.domain = instance.domain;
  stream.arrivals = instance.points.Subset(order);
  stream.preload = kStreamLive;
  stream.preload_body = AppendBody(stream, 0, kStreamLive, /*create=*/true);
  return stream;
}

/// The appends a periodic schedule of `period`-spaced slots needs over
/// `seconds`, `appends_per_cycle` per cycle, plus the warm-up's one.
std::size_t CountAppends(double seconds, double period, std::size_t cycle,
                         std::size_t appends_per_cycle) {
  const auto slots = static_cast<std::size_t>(std::ceil(seconds / period));
  return (slots / cycle + 1) * appends_per_cycle + 1;
}

/// Fills `sender` with a periodic open-loop schedule on `stream`: one op
/// due every `period` seconds, repeating `cycle`. Appends carry the next
/// unsent arrival rows, expires drop the 64 oldest, stream solves ask
/// one_cluster with target size `t`. The warm-up holds one op of each kind.
void FillStreamSender(Sender& sender, const StreamSource& stream,
                      double seconds, double period,
                      const std::vector<OpKind>& cycle, std::size_t t,
                      std::uint64_t seed) {
  std::size_t next_row = stream.preload;
  std::uint64_t salt = 0;
  const auto make = [&](OpKind kind) {
    Op op;
    op.kind = kind;
    if (kind == OpKind::kAppend) {
      op.cls = OpClass::kIngest;
      op.path = "/v1/stream/append";
      op.rows_lo = next_row;
      op.rows_hi = next_row + kBatchRows;
      op.body = AppendBody(stream, op.rows_lo, op.rows_hi, false);
      next_row = op.rows_hi;
    } else if (kind == OpKind::kExpire) {
      op.cls = OpClass::kIngest;
      op.path = "/v1/stream/expire";
      op.rows_hi = kBatchRows;
      op.body = ExpireBody(stream.key, kBatchRows);
    } else {
      op.cls = OpClass::kSolve;
      op.path = "/v1/solve";
      op.body = StreamSolveBody(sender.name, stream.key, t,
                                WireSeed(seed, ++salt));
    }
    return op;
  };
  for (const OpKind kind : cycle) {
    if (std::none_of(sender.warmup.begin(), sender.warmup.end(),
                     [&](const Op& op) { return op.kind == kind; })) {
      sender.warmup.push_back(make(kind));
    }
  }
  sender.open_loop = true;
  for (std::size_t slot = 0;; ++slot) {
    const double due = static_cast<double>(slot) * period;
    if (due >= seconds) break;
    sender.ops.push_back(make(cycle[slot % cycle.size()]));
    sender.due_s.push_back(due);
  }
}

/// An open-loop sender of cheap solves at Poisson `rate` per second, its
/// ops dealt round-robin to `tenants`. With `rotate`, each tenant cycles
/// noisy_mean_baseline, interior_point (d = 1) and exp_mech_baseline
/// (|X| = 32) over its own three datasets; otherwise it sends
/// noisy_mean_baseline only. The warm-up holds one op per dataset.
Result<Sender> CheapSender(const std::string& name,
                           const std::vector<std::string>& tenants,
                           bool rotate, double rate, std::uint64_t seed,
                           std::uint64_t salt, double seconds) {
  struct Dataset {
    std::string tenant, key, algorithm;
    ScenarioInstance instance;
  };
  std::vector<Dataset> datasets;  // tenant-major, algorithm-minor
  const std::size_t kinds = rotate ? 3 : 1;
  for (const std::string& tenant : tenants) {
    const std::uint64_t base = salt + 10 * datasets.size();
    DPC_ASSIGN_OR_RETURN(ScenarioInstance planted,
                         Generate(Mix(seed, base), kProbe));
    datasets.push_back({tenant, tenant + "/planted", "noisy_mean_baseline",
                        std::move(planted)});
    if (!rotate) continue;
    DPC_ASSIGN_OR_RETURN(ScenarioInstance line,
                         Generate(Mix(seed, base + 1), kLine));
    datasets.push_back({tenant, tenant + "/line", "interior_point",
                        std::move(line)});
    DPC_ASSIGN_OR_RETURN(ScenarioInstance coarse,
                         Generate(Mix(seed, base + 2), kCoarse));
    datasets.push_back({tenant, tenant + "/coarse", "exp_mech_baseline",
                        std::move(coarse)});
  }
  const auto op = [&](const Dataset& d, std::uint64_t op_salt) {
    return SolveOp(OpClass::kCheap,
                   SolveBody(d.tenant, d.key, d.algorithm, d.instance,
                             WireSeed(seed, op_salt)));
  };
  Sender sender;
  sender.name = name;
  sender.open_loop = true;
  for (std::size_t i = 0; i < datasets.size(); ++i) {
    sender.warmup.push_back(op(datasets[i], salt + 1000 + i));
  }
  sender.due_s = PoissonDue(Mix(seed, salt + 1), rate, seconds);
  for (std::size_t i = 0; i < sender.due_s.size(); ++i) {
    const std::size_t tenant = i % tenants.size();
    const std::size_t kind = (i / tenants.size()) % kinds;
    sender.ops.push_back(op(datasets[tenant * kinds + kind], salt + 2000 + i));
  }
  return sender;
}

Result<Workload> ProfileWorkload(const std::string& name, std::uint64_t seed,
                                 double seconds, bool fresh) {
  Workload w;
  w.name = name;
  w.layer_rounds = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(0.3 * seconds)));
  // A closed-loop solve at n = 4096 takes >= ~170 ms here, so this pool
  // outlasts the window; a closed loop cycles it if not.
  const std::size_t pool =
      static_cast<std::size_t>(std::ceil(6.0 * seconds)) + 4;
  DPC_ASSIGN_OR_RETURN(ScenarioInstance shared,
                       Generate(Mix(seed, 1), kPrimary));
  for (const char* tenant : {"analyst-a", "analyst-b"}) {
    Sender analyst;
    analyst.name = tenant;
    const std::uint64_t base = tenant[8] == 'a' ? 10000 : 20000;
    for (std::size_t i = 0; i <= pool; ++i) {
      ScenarioInstance fresh_instance;
      if (fresh) {
        DPC_ASSIGN_OR_RETURN(fresh_instance,
                             Generate(Mix(seed, base + i), kPrimary));
      }
      Op op = SolveOp(OpClass::kSolve,
                      SolveBody(tenant, "shared", "one_cluster",
                                fresh ? fresh_instance : shared,
                                WireSeed(seed, base + i)));
      if (i == 0) {
        analyst.warmup.push_back(std::move(op));
      } else {
        analyst.ops.push_back(std::move(op));
      }
    }
    w.senders.push_back(std::move(analyst));
  }
  // noisy_mean_baseline probes from four other tenants.
  DPC_ASSIGN_OR_RETURN(
      Sender probes,
      CheapSender("probes", {"probe-0", "probe-1", "probe-2", "probe-3"},
                  /*rotate=*/false, 20.0, seed, 300, seconds));
  w.senders.push_back(std::move(probes));
  return w;
}

Result<Workload> CoresetWorkload(std::uint64_t seed, double seconds) {
  Workload w;
  w.name = "coreset_contention";
  w.layer_rounds = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(0.15 * seconds)));
  // A heavy solve takes ~1.3 s; the pool cycles if the window outlasts it.
  const std::size_t pool = static_cast<std::size_t>(std::ceil(seconds)) + 2;
  Sender heavy;
  heavy.name = "heavy";
  for (std::size_t i = 0; i <= pool; ++i) {
    DPC_ASSIGN_OR_RETURN(ScenarioInstance instance,
                         Generate(Mix(seed, 30000 + i), kHeavy));
    Op op = SolveOp(OpClass::kSolve,
                    SolveBody("heavy", "big", "one_cluster", instance,
                              WireSeed(seed, 30000 + i), /*coreset=*/true));
    if (i == 0) {
      heavy.warmup.push_back(std::move(op));
    } else {
      heavy.ops.push_back(std::move(op));
    }
  }
  w.senders.push_back(std::move(heavy));
  // noisy_mean_baseline probes from four other tenants.
  DPC_ASSIGN_OR_RETURN(
      Sender probes,
      CheapSender("probes", {"probe-0", "probe-1", "probe-2", "probe-3"},
                  /*rotate=*/false, 20.0, seed, 300, seconds));
  w.senders.push_back(std::move(probes));
  return w;
}

Result<Workload> TenantMixWorkload(std::uint64_t seed, double seconds) {
  Workload w;
  w.name = "tenant_mix";
  w.layer_rounds = std::max<std::size_t>(
      5, static_cast<std::size_t>(std::lround(6.0 * seconds)));
  for (const char* tenant : {"tenant-a", "tenant-b"}) {
    DPC_ASSIGN_OR_RETURN(
        Sender sender,
        CheapSender(tenant, {tenant}, /*rotate=*/true, 10.0, seed,
                    tenant[7] == 'a' ? 40000 : 50000, seconds));
    w.senders.push_back(std::move(sender));
  }
  // The stream owner: one connection ingesting 64-row batches and asking
  // stream one_cluster solves, 10 ops/s in a fixed five-slot cycle. A stream
  // solve takes ~110 ms, so the connection is busy about a quarter of the
  // time: at twice the rate, a machine slowed by half kept it busy nearly
  // throughout, and queueing behind itself doubled the solve latency.
  const double period = 0.1;
  const std::vector<OpKind> cycle{OpKind::kAppend, OpKind::kExpire,
                                  OpKind::kAppend, OpKind::kExpire,
                                  OpKind::kStreamSolve};
  DPC_ASSIGN_OR_RETURN(
      StreamSource stream,
      MakeStream(Mix(seed, 60000), "live",
                 CountAppends(seconds, period, cycle.size(), 2)));
  Sender owner;
  owner.name = "stream-owner";
  owner.stream = 0;
  FillStreamSender(owner, stream, seconds, period, cycle,
                   /*t=*/320, Mix(seed, 60001));
  w.streams.push_back(std::move(stream));
  w.senders.push_back(std::move(owner));
  return w;
}

}  // namespace

Op PreloadOp(const StreamSource& stream) {
  Op op;
  op.cls = OpClass::kIngest;
  op.kind = OpKind::kAppend;
  op.path = "/v1/stream/append";
  op.body = stream.preload_body;
  op.rows_hi = stream.preload;
  return op;
}

const char* ClassName(OpClass cls) {
  switch (cls) {
    case OpClass::kSolve: return "solve";
    case OpClass::kCheap: return "cheap";
    case OpClass::kIngest: return "ingest";
  }
  return "?";
}

Result<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                              double seconds) {
  if (name == "profile_repeat") {
    return ProfileWorkload(name, seed, seconds, /*fresh=*/false);
  }
  if (name == "profile_fresh") {
    return ProfileWorkload(name, seed, seconds, /*fresh=*/true);
  }
  if (name == "tenant_mix") return TenantMixWorkload(seed, seconds);
  if (name == "coreset_contention") return CoresetWorkload(seed, seconds);
  return dpcluster::Status::InvalidArgument("unknown workload \"" + name +
                                            "\"");
}

}  // namespace perfbench
