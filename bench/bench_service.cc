// Service daemon throughput: the full stack (HTTP/1.1 over loopback ->
// bounded admission queue -> ThreadPool drain -> ClusterService ->
// Solver) under mixed multi-tenant traffic, swept over worker counts.
//
// Traffic mix (per client, round-robin): one_cluster on a planted 2-d
// cluster, noisy_mean_baseline, nonprivate, interior_point on 1-d data,
// and exp_mech_baseline on a coarse grid. Each client is its own tenant
// with its own dataset key, so the run exercises the per-(tenant, dataset)
// ledgers and the keyed index cache concurrently. Budgets are set huge so
// no request is budget-rejected — rejection behavior is service_test's
// job; this harness measures throughput.
//
// `--smoke` runs the perf regression gate instead (exit 1 on a miss). The
// scaling floor is HARDWARE-AWARE: the ThreadPool caps workers at the core
// count, so the 8-worker/1-worker throughput ratio physically cannot reach
// 4x on fewer than 8 cores. The floor is
//     cores >= 8:  4.0x
//     cores >= 2:  0.45 * min(8, cores)
//     cores == 1:  0.80x (no-regression: queueing must not cost throughput)
// and every reply in the sweep must be HTTP 200. The ratio is measured on
// the daemon, not on the machine's idle-to-busy ramp: a discarded full-load
// warm-up window comes first, then 1-worker and 8-worker windows alternate
// (ABAB...), and the gate takes the median of the per-pair ratios, so a
// drift in machine speed across the run moves both halves of a pair alike. A "stream": true one_cluster
// solve over 1024 live rows at t=320 must also answer under a p50 latency
// floor. BENCH_service.json records the measured requests/second per worker
// count, the stream-solve p50, plus a "service/cores" row, so the floor
// context travels with the numbers (see docs/OPERATIONS.md).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "dpcluster/data/registry.h"
#include "dpcluster/random/rng.h"
#include "dpcluster/service/http_client.h"
#include "dpcluster/service/http_server.h"
#include "dpcluster/service/json.h"
#include "dpcluster/service/protocol.h"
#include "dpcluster/service/service.h"

namespace dpcluster {
namespace {

constexpr std::size_t kClients = 8;

/// Pre-encoded wire bodies for one client (its own tenant + dataset key).
std::vector<std::string> ClientBodies(std::uint64_t client) {
  Rng rng(1000 + client);
  std::vector<std::string> bodies;

  ScenarioSpec spec;
  spec.n = 512;
  spec.cluster_fraction = 0.375;  // t = 192
  spec.dim = 2;
  spec.levels = 1u << 10;
  spec.cluster_radius = 0.02;
  const Result<ScenarioInstance> cluster = GenerateScenario(rng, spec);
  // interior_point solves 1-cluster on a middle sub-database of n/2 points;
  // it needs the larger 1-d instance to stay reliably answerable at eps=8.
  ScenarioSpec line;
  line.n = 1200;
  line.cluster_fraction = 700.0 / 1200;  // t = 700
  line.dim = 1;
  line.levels = 1u << 10;
  line.cluster_radius = 0.015;
  const Result<ScenarioInstance> interior = GenerateScenario(rng, line);
  // exp_mech_baseline enumerates all |X|^d grid centers; keep it under the
  // documented center cap with a coarse 2-d universe.
  ScenarioSpec coarse = spec;
  coarse.levels = 1u << 5;
  const Result<ScenarioInstance> coarse2d = GenerateScenario(rng, coarse);

  const std::string tenant = "tenant" + std::to_string(client);
  const auto encode = [&](const Result<ScenarioInstance>& generated,
                          const std::string& algorithm,
                          const std::string& dataset_suffix) {
    if (!generated.ok()) {
      std::fprintf(stderr, "bench_service: %s\n",
                   generated.status().ToString().c_str());
      std::exit(1);
    }
    const ScenarioInstance& w = *generated;
    WireRequest wire;
    wire.tenant = tenant;
    wire.dataset = tenant + "/" + dataset_suffix;
    wire.seed = 77 + client;
    wire.request.algorithm = algorithm;
    wire.request.data = w.points;
    wire.request.domain = w.domain;
    wire.request.t = w.t;
    wire.request.budget = {8.0, 1e-9};
    bodies.push_back(WireRequestToJson(wire).Encode());
  };
  encode(cluster, "one_cluster", "planted2d");
  encode(cluster, "noisy_mean_baseline", "planted2d");
  encode(cluster, "nonprivate", "planted2d");
  encode(interior, "interior_point", "line1d");
  encode(coarse2d, "exp_mech_baseline", "coarse2d");
  return bodies;
}

struct SweepPoint {
  std::size_t workers = 0;
  double requests_per_s = 0.0;
  bool all_ok = true;
};

/// Serves kClients concurrent clients, `per_client` requests each, against
/// a fresh daemon with `workers` drain loops; returns the measured rate.
SweepPoint RunSweep(std::size_t workers, std::size_t per_client,
                    const std::vector<std::vector<std::string>>& bodies) {
  ServiceOptions service_options;
  service_options.default_budget = {1e9, 0.5};  // Never budget-reject here.
  service_options.diagnostics = false;
  ClusterService service(service_options);
  HttpServerOptions http_options;
  http_options.workers = workers;
  http_options.queue_depth = 256;
  HttpServer server(&service, http_options);
  if (Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "bench_service: %s\n",
                 std::string(status.message()).c_str());
    return {workers, 0.0, false};
  }

  std::atomic<bool> all_ok{true};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < per_client; ++i) {
        const std::string& body = bodies[c][i % bodies[c].size()];
        const auto reply = HttpPost(server.port(), "/v1/solve", body);
        if (!reply.ok() || reply->status != 200) {
          if (!all_ok.exchange(false, std::memory_order_relaxed)) continue;
          if (!reply.ok()) {
            std::fprintf(stderr, "  client %zu request %zu: transport: %s\n",
                         c, i, std::string(reply.status().message()).c_str());
          } else {
            std::fprintf(stderr, "  client %zu request %zu: HTTP %d: %.160s\n",
                         c, i, reply->status, reply->body.c_str());
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  server.Stop();
  const double total = static_cast<double>(kClients * per_client);
  return {workers, total / seconds, all_ok.load()};
}

std::vector<std::vector<std::string>> AllClientBodies() {
  std::vector<std::vector<std::string>> bodies;
  for (std::size_t c = 0; c < kClients; ++c) {
    bodies.push_back(ClientBodies(c));
  }
  return bodies;
}

std::vector<SweepPoint> RunAll(
    std::size_t per_client,
    const std::vector<std::vector<std::string>>& bodies) {
  std::vector<SweepPoint> points;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    points.push_back(RunSweep(workers, per_client, bodies));
    std::printf("  workers=%zu: %7.1f req/s%s\n", points.back().workers,
                points.back().requests_per_s,
                points.back().all_ok ? "" : "  [non-200 replies!]");
  }
  return points;
}

/// One-shot vs kept-alive transport cost on the same daemon. The request is
/// GET /healthz — cheap enough that the TCP handshake dominates, so the
/// ratio isolates what connection reuse buys a chatty client (a streaming
/// ingester appending small batches is exactly that shape).
struct ReusePoint {
  double oneshot_rps = 0.0;
  double reuse_rps = 0.0;
  std::uint64_t reused = 0;       ///< Server-counted kept-alive requests.
  std::uint64_t reconnects = 0;   ///< Client-side re-dials (cap/idle fired).
  bool all_ok = true;
};

ReusePoint RunReuse(std::size_t requests) {
  ClusterService service(ServiceOptions{});
  HttpServerOptions http_options;
  http_options.workers = 2;
  HttpServer server(&service, http_options);
  if (Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "bench_service: %s\n",
                 std::string(status.message()).c_str());
    return {0.0, 0.0, 0, 0, false};
  }
  ReusePoint point;

  auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    const auto reply = HttpGet(server.port(), "/healthz");
    if (!reply.ok() || reply->status != 200) point.all_ok = false;
  }
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  point.oneshot_rps = static_cast<double>(requests) / seconds;

  HttpConnection connection(server.port());
  start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    const auto reply = connection.Get("/healthz");
    if (!reply.ok() || reply->status != 200) point.all_ok = false;
  }
  seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  point.reuse_rps = static_cast<double>(requests) / seconds;
  point.reconnects = connection.reconnects();
  point.reused = server.GetStats().reused;
  server.Stop();
  return point;
}

/// Daemon latency of a "stream": true one_cluster solve: a resident stream
/// of 1024 live planted_cluster rows (d = 2, |X| = 2^12, 37.5% in a cluster
/// of radius 0.02) asked for t = 320, one solve at a time over a kept-alive
/// connection. t - 1 > n/4 there, so the radius profile takes the all-pairs
/// generator: this is the end-to-end number of the RadiusProfile layer.
struct StreamSolvePoint {
  double p50_ms = 0.0;
  bool all_ok = true;
};

constexpr std::size_t kStreamRows = 1024;
constexpr std::size_t kStreamT = 320;

StreamSolvePoint RunStreamSolve(std::size_t solves) {
  ServiceOptions service_options;
  service_options.default_budget = {1e9, 0.5};  // Never budget-reject here.
  service_options.diagnostics = false;
  ClusterService service(service_options);
  HttpServerOptions http_options;
  http_options.workers = 1;
  HttpServer server(&service, http_options);
  if (Status status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "bench_service: %s\n",
                 std::string(status.message()).c_str());
    return {0.0, false};
  }

  ScenarioSpec spec;
  spec.scenario = "planted_cluster";
  spec.n = kStreamRows;
  spec.dim = 2;
  spec.levels = 1u << 12;
  spec.cluster_fraction = 0.375;
  spec.cluster_radius = 0.02;
  Rng rng(1100);
  Result<ScenarioInstance> instance = GenerateScenario(rng, spec);
  if (!instance.ok()) return {0.0, false};
  JsonValue rows = JsonValue::Array();
  for (std::size_t i = 0; i < instance->points.size(); ++i) {
    JsonValue row = JsonValue::Array();
    for (const double c : instance->points[i]) row.Append(JsonValue::Number(c));
    rows.Append(std::move(row));
  }
  JsonValue append = JsonValue::Object();
  append.Set("dataset", JsonValue::String("live"));
  append.Set("points", std::move(rows));
  append.Set("levels", JsonValue::Number(instance->domain.levels()));
  append.Set("axis", JsonValue::Number(instance->domain.axis_length()));

  WireRequest wire;
  wire.tenant = "stream-owner";
  wire.dataset = "live";
  wire.seed = 1101;
  wire.stream = true;
  wire.request.algorithm = "one_cluster";
  wire.request.t = kStreamT;
  wire.request.budget = {8.0, 1e-9};
  const std::string solve = WireRequestToJson(wire).Encode();

  StreamSolvePoint point;
  HttpConnection connection(server.port());
  const auto created = connection.Post("/v1/stream/append", append.Encode());
  point.all_ok = created.ok() && created->status == 200;
  std::vector<double> ms;
  for (std::size_t i = 0; i < solves && point.all_ok; ++i) {
    Result<HttpResponse> reply = Status::Internal("unset");
    ms.push_back(bench::TimeMs(
        [&] { reply = connection.Post("/v1/solve", solve); }));
    if (!reply.ok() || reply->status != 200) {
      point.all_ok = false;
      std::fprintf(stderr, "  stream solve %zu: %s\n", i,
                   reply.ok() ? reply->body.substr(0, 160).c_str()
                              : std::string(reply.status().message()).c_str());
    }
  }
  server.Stop();
  if (ms.empty()) return {0.0, false};
  std::sort(ms.begin(), ms.end());
  point.p50_ms = ms[ms.size() / 2];
  std::printf("  stream one_cluster solve, %zu live rows, t=%zu: p50 %.1f ms "
              "over %zu solves%s\n",
              kStreamRows, kStreamT, point.p50_ms, ms.size(),
              point.all_ok ? "" : "  [non-200 replies!]");
  return point;
}

void RecordStreamSolve(bench::JsonReporter& reporter,
                       const StreamSolvePoint& point) {
  reporter.Add("service/stream_one_cluster_p50", kStreamRows, 2, 1,
               point.p50_ms * 1e6);
}

void Record(bench::JsonReporter& reporter,
            const std::vector<SweepPoint>& points) {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  reporter.Add("service/cores", cores, 0, 1, 0.0);
  for (const SweepPoint& p : points) {
    reporter.Add("service/mixed_traffic", kClients, 2, p.workers,
                 p.requests_per_s > 0.0 ? 1e9 / p.requests_per_s : 0.0);
  }
}

void RecordReuse(bench::JsonReporter& reporter, const ReusePoint& reuse) {
  reporter.Add("service/oneshot_healthz", 1, 0, 1,
               reuse.oneshot_rps > 0.0 ? 1e9 / reuse.oneshot_rps : 0.0);
  reporter.Add("service/keepalive_healthz", 1, 0, 1,
               reuse.reuse_rps > 0.0 ? 1e9 / reuse.reuse_rps : 0.0);
}

void PrintReuse(const ReusePoint& reuse) {
  std::printf(
      "  connection reuse: one-shot %7.1f req/s, kept-alive %7.1f req/s "
      "(%.2fx); server reused %llu, client re-dialed %llu%s\n",
      reuse.oneshot_rps, reuse.reuse_rps,
      reuse.oneshot_rps > 0.0 ? reuse.reuse_rps / reuse.oneshot_rps : 0.0,
      static_cast<unsigned long long>(reuse.reused),
      static_cast<unsigned long long>(reuse.reconnects),
      reuse.all_ok ? "" : "  [non-200 replies!]");
}

/// The 8-worker/1-worker throughput ratio as the smoke gate measures it: one
/// discarded 8-worker warm-up window, then `pairs` alternating 1-worker /
/// 8-worker windows; returns the median of the per-pair ratios (0 when a
/// window saw a non-200 reply or no throughput).
struct PairedScaling {
  double median_ratio = 0.0;
  std::vector<double> ratios;
  bool all_ok = true;
};

PairedScaling RunPairedScaling(
    std::size_t per_client, std::size_t pairs,
    const std::vector<std::vector<std::string>>& bodies) {
  PairedScaling out;
  out.all_ok = RunSweep(8, per_client, bodies).all_ok;  // Warm-up.
  for (std::size_t i = 0; i < pairs; ++i) {
    const SweepPoint one = RunSweep(1, per_client, bodies);
    const SweepPoint eight = RunSweep(8, per_client, bodies);
    out.all_ok = out.all_ok && one.all_ok && eight.all_ok;
    out.ratios.push_back(one.requests_per_s > 0.0
                             ? eight.requests_per_s / one.requests_per_s
                             : 0.0);
    std::printf("  pair %zu: 1 worker %7.1f req/s, 8 workers %7.1f req/s -> "
                "%.2fx\n",
                i, one.requests_per_s, eight.requests_per_s,
                out.ratios.back());
  }
  std::vector<double> sorted = out.ratios;
  std::sort(sorted.begin(), sorted.end());
  out.median_ratio = sorted.empty() ? 0.0 : sorted[sorted.size() / 2];
  return out;
}

/// The hardware-aware 8-worker/1-worker scaling floor (see file banner).
double ScalingFloor(std::size_t cores) {
  if (cores >= 8) return 4.0;
  if (cores >= 2) return 0.45 * static_cast<double>(std::min<std::size_t>(8, cores));
  return 0.8;
}

int RunSmoke(const std::string& out_path) {
  bench::Banner("service daemon throughput smoke");
  const std::vector<std::vector<std::string>> bodies = AllClientBodies();
  const PairedScaling paired =
      RunPairedScaling(/*per_client=*/6, /*pairs=*/5, bodies);
  const std::vector<SweepPoint> points = RunAll(/*per_client=*/6, bodies);
  const ReusePoint reuse = RunReuse(/*requests=*/64);
  PrintReuse(reuse);
  const StreamSolvePoint stream = RunStreamSolve(/*solves=*/15);
  bench::JsonReporter reporter(out_path);
  Record(reporter, points);
  RecordReuse(reporter, reuse);
  RecordStreamSolve(reporter, stream);
  reporter.Write();

  int failures = 0;
  // Functional (deterministic) keep-alive gates: every reply is 200, and
  // the server actually served request #2+ on reused connections. The
  // req/s ratio itself is not a floor — loopback handshakes are cheap
  // enough that the margin is machine-dependent.
  if (!reuse.all_ok) {
    std::printf("smoke: keep-alive section saw a non-200 reply -> FAIL\n");
    ++failures;
  }
  if (reuse.reused == 0) {
    std::printf("smoke: server never reused a connection -> FAIL\n");
    ++failures;
  }
  // Stream-solve latency floor: ~3x over the p50 measured with the bucketed
  // profile (~15 ms, BENCH_service.json). Sorting the profile's pair events,
  // as the all-pairs generator once did, put this p50 at ~108 ms.
  constexpr double kStreamSolveFloorMs = 50.0;
  const bool stream_ok = stream.all_ok && stream.p50_ms < kStreamSolveFloorMs;
  std::printf("smoke: stream one_cluster n=%zu t=%zu p50 %.1fms (floor %.0fms)"
              " -> %s\n",
              kStreamRows, kStreamT, stream.p50_ms, kStreamSolveFloorMs,
              stream_ok ? "OK" : "FAIL");
  failures += stream_ok ? 0 : 1;
  for (const SweepPoint& p : points) {
    if (!p.all_ok) {
      std::printf("smoke: workers=%zu saw a non-200 reply -> FAIL\n",
                  p.workers);
      ++failures;
    }
  }
  if (!paired.all_ok) {
    std::printf("smoke: paired scaling windows saw a non-200 reply -> FAIL\n");
    ++failures;
  }
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  const double floor = ScalingFloor(cores);
  const bool scaling_ok = paired.median_ratio >= floor;
  std::printf(
      "smoke: mixed traffic, %zu clients on %zu cores: median 8-worker/"
      "1-worker ratio over %zu ABAB pairs %.2fx (hardware-aware floor %.2fx)"
      " -> %s\n",
      kClients, cores, paired.ratios.size(), paired.median_ratio, floor,
      scaling_ok ? "OK" : "FAIL");
  failures += scaling_ok ? 0 : 1;
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dpcluster

int main(int argc, char** argv) {
  using namespace dpcluster;
  std::string out = "BENCH_service.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }
  if (smoke) return RunSmoke(out);

  bench::Banner("service daemon throughput (mixed multi-tenant traffic)");
  const std::vector<SweepPoint> points =
      RunAll(/*per_client=*/12, AllClientBodies());
  const ReusePoint reuse = RunReuse(/*requests=*/512);
  PrintReuse(reuse);
  const StreamSolvePoint stream = RunStreamSolve(/*solves=*/41);
  bench::JsonReporter reporter(out);
  Record(reporter, points);
  RecordReuse(reporter, reuse);
  RecordStreamSolve(reporter, stream);
  reporter.Write();
  bench::Note(
      "\nEach of the 8 clients is its own tenant with its own dataset key;"
      "\nthe sweep exercises the admission queue, the per-tenant ledgers,"
      "\nand the keyed index cache concurrently. The ThreadPool hardware-"
      "\ncaps workers, so scaling saturates at the core count (the"
      "\n'service/cores' record pins the machine the numbers came from).");
  return 0;
}
