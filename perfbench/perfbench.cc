// perfbench: the dpcluster end-to-end benchmark.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--trace-dir DIR] [--selftest corrupt|refuse]
//
// --trace 0 starts dpcluster_serve as a child process and drives it over
// HTTP/1.1 keep-alive on loopback with the workload's clients (one thread
// and one connection each, at most four), then checks every released
// answer against an in-process Solver::Run of the same request and seed.
// It prints the end-to-end metrics. --trace 1 replays the same generated
// bodies in-process through each layer's public functions, recording spans
// from this file, and prints the per-layer metrics. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// README.md in this directory lists the workloads, the metrics and which
// layer each metric belongs to.

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dpcluster/api/registry.h"
#include "dpcluster/api/solver.h"
#include "dpcluster/core/good_center.h"
#include "dpcluster/core/good_radius.h"
#include "dpcluster/core/radius_profile.h"
#include "dpcluster/coreset/coreset.h"
#include "dpcluster/geo/dataset.h"
#include "dpcluster/service/http_client.h"
#include "dpcluster/service/http_server.h"
#include "dpcluster/service/index_cache.h"
#include "dpcluster/service/json.h"
#include "dpcluster/service/protocol.h"
#include "dpcluster/service/service.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dpcluster;

constexpr std::size_t kMaxThreads = 4;  // nproc of the reference machine.
constexpr int kSetups = 5;

// ------------------------------------------------------------------ args ---

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";
  std::string selftest;  // "", "corrupt" or "refuse"
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else if (flag == "--selftest") {
      args.selftest = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0.0 &&
         (args.selftest.empty() || args.selftest == "corrupt" ||
          args.selftest == "refuse");
}

// ---------------------------------------------------------------- output ---

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void Report(const char* format, ...) __attribute__((format(printf, 1, 2)));
void Report(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::fputs("perfbench: ", stdout);
  std::vprintf(format, args);
  std::fputc('\n', stdout);
  va_end(args);
}

/// The result object, printed as the last stdout line.
void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  JsonValue out = JsonValue::Object();
  out.Set("correct", JsonValue::Bool(correct));
  out.Set("attempted", JsonValue::Number(static_cast<std::uint64_t>(attempted)));
  out.Set("failed", JsonValue::Number(static_cast<std::uint64_t>(failed)));
  JsonValue values = JsonValue::Object();
  for (const Metric& m : metrics) {
    // A class with no successful sample has no latency; report it as a
    // miss of any limit rather than dropping the metric.
    const double v = std::isfinite(m.value) ? m.value : 1e9;
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Number(v));
    entry.Set("unit", JsonValue::String(m.unit));
    values.Set(m.name, std::move(entry));
  }
  out.Set("metrics", std::move(values));
  std::printf("%s\n", out.Encode().c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------- daemon process ---

/// dpcluster_serve as a child process on an ephemeral loopback port.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  Status Start(const std::vector<std::string>& args) {
    int fds[2];
    if (pipe(fds) != 0) return Status::Internal("pipe failed");
    const pid_t pid = fork();
    if (pid < 0) return Status::Internal("fork failed");
    if (pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);  // Never outlive the benchmark.
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      std::vector<char*> argv;
      std::string path = PERFBENCH_SERVE_PATH;
      argv.push_back(path.data());
      std::vector<std::string> copy = args;
      for (std::string& a : copy) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(path.c_str(), argv.data());
      _exit(127);
    }
    close(fds[1]);
    pid_ = pid;
    out_fd_ = fds[0];
    out_.clear();
    // The daemon prints "listening on 127.0.0.1:<port>" once bound.
    const std::string marker = "listening on 127.0.0.1:";
    while (true) {
      const std::size_t at = out_.find(marker);
      if (at != std::string::npos && out_.find('\n', at) != std::string::npos) {
        port_ = std::atoi(out_.c_str() + at + marker.size());
        return Status::OK();
      }
      if (!ReadSome(10000)) {
        return Status::Internal("dpcluster_serve did not start: " + out_);
      }
    }
  }

  int port() const { return port_; }

  /// Resident high-water mark (VmHWM) of the daemon so far, in MB.
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return std::numeric_limits<double>::quiet_NaN();
  }

  /// Graceful drain (SIGTERM), then reap. Returns everything the daemon
  /// printed, including its exit counter line.
  std::string Stop() {
    if (pid_ <= 0) return out_;
    kill(pid_, SIGTERM);
    const auto give_up = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < give_up && ReadSome(1000)) {
    }
    if (Clock::now() >= give_up) kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    close(out_fd_);
    pid_ = -1;
    out_fd_ = -1;
    return out_;
  }

 private:
  /// Appends available daemon output; false on EOF, error or timeout.
  bool ReadSome(int timeout_ms) {
    pollfd pfd{out_fd_, POLLIN, 0};
    if (poll(&pfd, 1, timeout_ms) <= 0) return false;
    char buffer[4096];
    const ssize_t got = read(out_fd_, buffer, sizeof(buffer));
    if (got <= 0) return false;
    out_.append(buffer, static_cast<std::size_t>(got));
    return true;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  std::string out_;
};

/// Aggregate CPU jiffies from /proc/stat: {steal, total}.
std::pair<double, double> CpuJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double steal = 0.0, total = 0.0;
  for (int field = 0; field < 10; ++field) {
    double value = 0.0;
    if (!(stat >> value)) break;
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

std::vector<std::string> DaemonArgs(const Args& args) {
  // Budgets are set out of reach: this benchmark measures serving, and
  // service_test owns budget refusal. Diagnostics are off, as for a daemon
  // serving real data: they are a non-private evaluation pass over the raw
  // rows that costs about as much as the one_cluster solve at n = 4096.
  // The refuse self-test adds one tenant whose cap cannot cover a request.
  std::vector<std::string> out{"--port",        "0",    "--workers",
                               "4",             "--budget-eps", "1e15",
                               "--budget-delta", "1", "--no-diagnostics"};
  if (args.selftest == "refuse") {
    out.push_back("--tenant-budget");
    out.push_back("refused=1:1e-6");
  }
  return out;
}

// ------------------------------------------------------ client senders ---

struct Reply {
  bool transport_ok = false;
  int status = 0;
  std::string body;
};

/// How a sender delivers one op: over HTTP in the end-to-end run, straight
/// into a bench-owned IndexCache in the traced run's contention replay.
using Exec = std::function<Reply(const Op&)>;

/// The live arrival rows of a stream, in arrival order, as its one
/// mutating sender sees them from its own successful replies.
class LiveRows {
 public:
  explicit LiveRows(std::size_t preload) {
    for (std::size_t i = 0; i < preload; ++i) rows_.push_back(i);
  }
  void Apply(const Op& op) {
    if (op.kind == OpKind::kAppend) {
      for (std::size_t i = op.rows_lo; i < op.rows_hi; ++i) rows_.push_back(i);
    } else if (op.kind == OpKind::kExpire) {
      for (std::size_t i = op.rows_lo; i < op.rows_hi && !rows_.empty(); ++i) {
        rows_.pop_front();
      }
    }
  }
  std::vector<std::size_t> Snapshot() const {
    return {rows_.begin(), rows_.end()};
  }
  std::size_t size() const { return rows_.size(); }

 private:
  std::deque<std::size_t> rows_;
};

struct Record {
  int sender = 0;
  const Op* op = nullptr;
  double due = 0.0;    ///< Seconds after the window opened.
  double start = 0.0;
  double end = 0.0;
  Reply reply;
  std::vector<std::size_t> live;  ///< Stream solves: the rows solved over.
  std::size_t expect_live = 0;    ///< Ingest: live rows after success.

  bool ok() const { return reply.transport_ok && reply.status == 200; }
  /// Open loop: from when the request was due; closed loop: from sending.
  double latency_ms(bool open_loop) const {
    if (!ok()) return std::numeric_limits<double>::infinity();
    return (end - (open_loop ? due : start)) * 1e3;
  }
};

/// Sends one op, keeping the stream's live rows in step with the replies.
Record SendOne(int sender_index, const Op& op, const Exec& exec,
               LiveRows* live, Clock::time_point t0, double due) {
  Record record;
  record.sender = sender_index;
  record.op = &op;
  record.due = due;
  if (live != nullptr && op.kind == OpKind::kStreamSolve) {
    record.live = live->Snapshot();
  }
  record.start = SecondsBetween(t0, Clock::now());
  record.reply = exec(op);
  record.end = SecondsBetween(t0, Clock::now());
  if (live != nullptr && record.ok()) {
    live->Apply(op);
    record.expect_live = live->size();
  }
  return record;
}

/// Runs one sender's window: an open loop sends each op when it falls due
/// (late if the previous reply is late); a closed loop sends back to back
/// until `seconds` have passed. In-flight requests always complete.
std::vector<Record> RunWindow(int sender_index, const Sender& sender,
                              const Exec& exec, LiveRows* live,
                              Clock::time_point t0, double seconds) {
  std::vector<Record> records;
  if (sender.open_loop) {
    for (std::size_t i = 0; i < sender.ops.size(); ++i) {
      if (sender.due_s[i] >= seconds) break;
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(sender.due_s[i]));
      // Sleep to just short of the due time, then spin: a timer wake-up on
      // a busy machine can run milliseconds late, and that lateness would
      // count against the daemon's latency.
      std::this_thread::sleep_until(due - std::chrono::milliseconds(2));
      while (Clock::now() < due) {
      }
      records.push_back(
          SendOne(sender_index, sender.ops[i], exec, live, t0, sender.due_s[i]));
    }
  } else {
    for (std::size_t i = 0; SecondsBetween(t0, Clock::now()) < seconds; ++i) {
      const Op& op = sender.ops[i % sender.ops.size()];
      const double now = SecondsBetween(t0, Clock::now());
      records.push_back(SendOne(sender_index, op, exec, live, t0, now));
    }
  }
  return records;
}

Exec HttpExec(HttpConnection& connection) {
  return [&connection](const Op& op) {
    Reply reply;
    auto r = connection.Post(op.path, op.body);
    if (r.ok()) {
      reply.transport_ok = true;
      reply.status = r->status;
      reply.body = std::move(r->body);
    } else {
      reply.body = std::string(r.status().message());
    }
    return reply;
  };
}

/// "QueueFull" etc. from an error reply; "transport" when none arrived.
std::string ErrorCodeOf(const Reply& reply) {
  if (!reply.transport_ok) return "transport";
  auto json = JsonValue::Parse(reply.body);
  if (json.ok()) {
    const JsonValue* error = json->Find("error");
    const JsonValue* code = error != nullptr ? error->Find("code") : nullptr;
    if (code != nullptr && code->is_string()) return code->AsString();
  }
  return "HTTP " + std::to_string(reply.status);
}

// ------------------------------------------------------------ reference ---

/// The released fields of a /v1/solve reply's "response" object, encoded:
/// ball, balls and charged. Never wall_ms or diagnostics.
std::string ReleasedFields(const JsonValue& response) {
  std::string out;
  for (const char* key : {"ball", "balls", "charged"}) {
    const JsonValue* v = response.Find(key);
    out += key;
    out += '=';
    out += v != nullptr ? v->Encode() : "<missing>";
    out += ';';
  }
  return out;
}

/// The Request the daemon ran for `body`: the wire request itself, or for
/// a stream solve the live rows the client knows, in arrival order.
Result<WireRequest> RequestFor(const Op& op, const std::vector<std::size_t>& live,
                               const Workload& workload, int stream) {
  DPC_ASSIGN_OR_RETURN(WireRequest wire, ParseWireRequest(op.body));
  if (op.kind == OpKind::kStreamSolve) {
    const StreamSource& source = workload.streams[static_cast<std::size_t>(stream)];
    wire.request.data = source.arrivals.Subset(live);
    wire.request.domain = source.domain;
  }
  return wire;
}

/// In-process Solver::Run of `wire`, seeded as the daemon seeds it.
Result<Response> ReferenceRun(const WireRequest& wire) {
  SolverOptions options;
  options.seed = wire.seed;
  options.diagnostics = false;  // As the daemon runs (see DaemonArgs).
  Solver solver(options);
  return solver.Run(wire.request);
}

struct CheckResult {
  std::size_t checked = 0;
  std::size_t mismatched = 0;
  std::size_t charged_wrong = 0;
  std::string first_problem;
};

/// Compares every 200 solve against the in-process reference and every 200
/// ingest reply against the live-row count the client expects. `corrupt`
/// alters one reference (the self-test of this check).
CheckResult CheckRecords(const Workload& workload,
                         const std::vector<Record>& records, bool corrupt) {
  std::vector<const Record*> todo;
  for (const Record& r : records) {
    if (r.ok()) todo.push_back(&r);
  }
  CheckResult result;
  std::mutex mutex;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> corrupted{false};
  const auto note = [&](const std::string& problem, bool charged) {
    std::lock_guard<std::mutex> lock(mutex);
    ++(charged ? result.charged_wrong : result.mismatched);
    if (result.first_problem.empty()) result.first_problem = problem;
  };
  const auto worker = [&] {
    for (std::size_t i = next++; i < todo.size(); i = next++) {
      const Record& r = *todo[i];
      const Op& op = *r.op;
      auto reply = JsonValue::Parse(r.reply.body);
      if (!reply.ok()) {
        note("unparsable reply", false);
        continue;
      }
      if (op.cls == OpClass::kIngest) {
        const JsonValue* live = reply->Find("live");
        const auto got = live != nullptr && live->is_number()
                             ? live->AsU64()
                             : Result<std::uint64_t>(Status::Internal("none"));
        if (!got.ok() || *got != r.expect_live) {
          note("ingest reply live count differs from the client's rows", false);
        }
        continue;
      }
      const int stream = workload.senders[static_cast<std::size_t>(r.sender)].stream;
      auto wire = RequestFor(op, r.live, workload, stream);
      const JsonValue* response = reply->Find("response");
      if (!wire.ok() || response == nullptr) {
        note("request or reply unusable", false);
        continue;
      }
      auto reference = ReferenceRun(*wire);
      if (!reference.ok()) {
        note("reference failed: " + std::string(reference.status().message()),
             false);
        continue;
      }
      if (corrupt && !corrupted.exchange(true)) {
        reference->charged.epsilon += 1e-9;
      }
      if (ReleasedFields(*response) !=
          ReleasedFields(ResponseToJson(*reference))) {
        note("released fields differ from Solver::Run", false);
      }
      const JsonValue* charged = response->Find("charged");
      const PrivacyParams want = wire->request.budget;
      const auto close = [](double a, double b) {
        return std::fabs(a - b) <= 1e-12 * std::fabs(b);
      };
      // The whole requested budget is spent, except that a pure epsilon-DP
      // mechanism (exp_mech_baseline) spends, and reports, no delta.
      const JsonValue* eps = charged != nullptr ? charged->Find("epsilon") : nullptr;
      const JsonValue* delta = charged != nullptr ? charged->Find("delta") : nullptr;
      if (eps == nullptr || delta == nullptr ||
          !close(eps->AsDouble(), want.epsilon) ||
          !(close(delta->AsDouble(), want.delta) || delta->AsDouble() == 0.0)) {
        note("charged " + (charged != nullptr ? charged->Encode() : "none") +
                 " differs from the requested budget (" + wire->request.algorithm +
                 ")",
             true);
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kMaxThreads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  result.checked = todo.size();
  return result;
}

// ----------------------------------------------------- end-to-end run ---

/// Counters from GET /v1/stats, flattened ("index_cache.hits" -> n).
std::map<std::string, double> DaemonCounters(HttpConnection& connection) {
  std::map<std::string, double> out;
  auto reply = connection.Get("/v1/stats");
  if (!reply.ok() || reply->status != 200) return out;
  auto json = JsonValue::Parse(reply->body);
  if (!json.ok()) return out;
  for (const char* group : {"requests", "stream", "index_cache"}) {
    const JsonValue* object = json->Find(group);
    if (object == nullptr || !object->is_object()) continue;
    for (const auto& [key, value] : object->members()) {
      if (value.is_number()) out[std::string(group) + "." + key] = value.AsDouble();
    }
  }
  return out;
}

struct Setup {
  std::vector<std::unique_ptr<HttpConnection>> connections;
  std::vector<std::unique_ptr<LiveRows>> live;
};

/// Preloads the streams and sends every sender's warm-up ops on its own
/// connection. Any non-200 aborts the run.
Status PrepareDaemon(const Workload& w, int port, Setup& setup) {
  // The daemon serves each kept-alive connection on one worker until it
  // closes, so the benchmark never holds more connections than the four
  // workers: the loader closes before the senders connect.
  for (const StreamSource& stream : w.streams) {
    auto r = HttpConnection(port).Post("/v1/stream/append", stream.preload_body);
    if (!r.ok() || r->status != 200) {
      return Status::Internal(
          "stream preload failed: " +
          (r.ok() ? r->body.substr(0, 200) : std::string(r.status().message())));
    }
  }
  setup.connections.clear();
  setup.live.clear();
  for (std::size_t s = 0; s < w.senders.size(); ++s) {
    const Sender& sender = w.senders[s];
    setup.connections.push_back(std::make_unique<HttpConnection>(port));
    setup.live.push_back(
        sender.stream >= 0
            ? std::make_unique<LiveRows>(
                  w.streams[static_cast<std::size_t>(sender.stream)].preload)
            : nullptr);
    const Exec exec = HttpExec(*setup.connections.back());
    for (const Op& op : sender.warmup) {
      const Record r = SendOne(static_cast<int>(s), op, exec,
                               setup.live.back().get(), Clock::now(), 0.0);
      if (!r.ok()) {
        return Status::Internal("warm-up " + std::string(ClassName(op.cls)) +
                                " request failed: " + ErrorCodeOf(r.reply) +
                                " " + r.reply.body.substr(0, 200));
      }
    }
  }
  return Status::OK();
}

/// The refuse self-test: the first three ops of the first open-loop sender
/// come from a tenant whose cap cannot cover them (429 BudgetExhausted).
void InjectRefusals(Workload& w) {
  for (Sender& sender : w.senders) {
    if (!sender.open_loop || sender.stream >= 0) continue;
    for (std::size_t i = 0; i < 3 && i < sender.ops.size(); ++i) {
      auto json = JsonValue::Parse(sender.ops[i].body);
      if (!json.ok()) continue;
      json->Set("tenant", JsonValue::String("refused"));
      sender.ops[i].body = json->Encode();
    }
    return;
  }
}

int RunEndToEnd(const Args& args, Workload& w) {
  if (args.selftest == "refuse") InjectRefusals(w);
  const auto run_begin = Clock::now();

  // Set-up, timed kSetups times on fresh daemons; the last one serves.
  std::vector<double> setup_s, start_s;
  Daemon daemon;
  Setup setup;
  for (int rep = 0; rep < kSetups; ++rep) {
    const auto begin = Clock::now();
    if (Status s = daemon.Start(DaemonArgs(args)); !s.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", std::string(s.message()).c_str());
      return 1;
    }
    start_s.push_back(SecondsBetween(begin, Clock::now()));
    if (Status s = PrepareDaemon(w, daemon.port(), setup); !s.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", std::string(s.message()).c_str());
      return 1;
    }
    setup_s.push_back(SecondsBetween(begin, Clock::now()));
    if (rep + 1 < kSetups) {
      setup.connections.clear();
      daemon.Stop();
    }
  }

  // Counters travel on the first sender's connection (see PrepareDaemon).
  HttpConnection& stats_connection = *setup.connections.front();
  const auto before = DaemonCounters(stats_connection);
  std::vector<std::vector<Record>> per_sender(w.senders.size());
  const auto jiffies0 = CpuJiffies();
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < w.senders.size(); ++s) {
      threads.emplace_back([&, s] {
        per_sender[s] =
            RunWindow(static_cast<int>(s), w.senders[s],
                      HttpExec(*setup.connections[s]), setup.live[s].get(), t0,
                      args.seconds);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const auto jiffies1 = CpuJiffies();
  const auto after = DaemonCounters(stats_connection);
  const double peak_rss_mb = daemon.PeakRssMb();
  setup.connections.clear();
  const auto window_end = Clock::now();
  const std::string daemon_out = daemon.Stop();
  const auto stopped = Clock::now();

  std::vector<Record> records;
  for (auto& rs : per_sender) {
    for (Record& r : rs) records.push_back(std::move(r));
  }

  // Per-class latency and failure accounting.
  std::map<OpClass, std::vector<double>> latency, wall;
  std::vector<double> lateness;
  std::map<std::string, std::pair<std::size_t, std::string>> errors;
  std::size_t failed = 0, solves_ok = 0;
  double last_solve_end = 0.0;
  for (const Record& r : records) {
    const Sender& sender = w.senders[static_cast<std::size_t>(r.sender)];
    latency[r.op->cls].push_back(r.latency_ms(sender.open_loop));
    if (sender.open_loop) lateness.push_back((r.start - r.due) * 1e3);
    if (!r.ok()) {
      ++failed;
      auto& [count, example] = errors[ErrorCodeOf(r.reply) + " on " +
                                      r.op->path + " (" +
                                      ClassName(r.op->cls) + ")"];
      if (count++ == 0) example = r.reply.body.substr(0, 300);
    } else if (r.op->cls == OpClass::kSolve) {
      ++solves_ok;
      last_solve_end = std::max(last_solve_end, r.end);
    }
    if (r.ok() && r.op->cls != OpClass::kIngest) {
      auto json = JsonValue::Parse(r.reply.body);
      const JsonValue* response = json.ok() ? json->Find("response") : nullptr;
      const JsonValue* ms = response != nullptr ? response->Find("wall_ms") : nullptr;
      if (ms != nullptr && ms->is_number()) wall[r.op->cls].push_back(ms->AsDouble());
    }
  }

  const CheckResult check =
      CheckRecords(w, records, args.selftest == "corrupt");
  Report("phases: set-up %.2f s, window %.2f s, daemon stop %.2f s, check %.2f s",
         SecondsBetween(run_begin, t0), SecondsBetween(t0, window_end),
         SecondsBetween(window_end, stopped), SecondsBetween(stopped, Clock::now()));

  // Every end-to-end metric by name; the result line carries the gated ones.
  for (const OpClass cls : {OpClass::kSolve, OpClass::kCheap, OpClass::kIngest}) {
    const auto& v = latency[cls];
    const char* name = ClassName(cls);
    if (v.empty()) {
      Report("%s_p50_ms, %s_p90_ms: this workload sends no %s requests", name,
             name, name);
      continue;
    }
    const std::string wall_ms =
        wall[cls].empty()
            ? ""
            : "; the algorithm's wall_ms p50 " +
                  std::to_string(Median(wall[cls])) + " ms";
    Report("%s_p50_ms = %.3f ms, %s_p90_ms = %.3f ms over %zu requests%s%s",
           name, Quantile(v, 0.5), name, Quantile(v, 0.9), v.size(),
           v.size() >= 100 ? "" : " (p90 has < 10 samples beyond it)",
           wall_ms.c_str());
  }
  Report("solves_per_s = %.4f 1/s (%zu successful primary solves)",
         last_solve_end > 0.0 ? static_cast<double>(solves_ok) / last_solve_end
                              : 0.0,
         solves_ok);
  Report("failed_frac = %.6f frac (%zu of %zu attempts)",
         records.empty() ? 0.0 : static_cast<double>(failed) / records.size(),
         failed, records.size());
  for (const auto& [code, tally] : errors) {
    Report("error %s: %zu (first: %s)", code.c_str(), tally.first,
           tally.second.c_str());
  }
  Report("mismatch_frac = %.6f frac (%zu of %zu 200 replies)",
         check.checked == 0
             ? 0.0
             : static_cast<double>(check.mismatched) / check.checked,
         check.mismatched, check.checked);
  if (check.charged_wrong > 0 || !check.first_problem.empty()) {
    Report("check: %zu charged mismatches; first problem: %s",
           check.charged_wrong, check.first_problem.c_str());
  }
  std::string setups;
  for (const double v : setup_s) setups += " " + std::to_string(v);
  Report("setup_s = %.4f s, the median of %d fresh daemons (daemon start "
         "median %.4f s), each:%s", Median(setup_s), kSetups, Median(start_s),
         setups.c_str());
  Report("peak_rss_mb = %.1f MB", peak_rss_mb);
  Report("generator lateness p90=%.3f ms over %zu open-loop sends",
         Quantile(lateness, 0.9), lateness.size());
  // On a virtual machine, time the hypervisor gave this machine's CPUs to
  // other guests slows every timing above; large values explain outliers.
  const double jiffies = jiffies1.second - jiffies0.second;
  Report("cpu steal during the window: %.1f%%",
         jiffies > 0.0 ? 100.0 * (jiffies1.first - jiffies0.first) / jiffies : 0.0);
  // Counter deltas over the window. Hits, bypasses and replacements depend
  // on how requests interleave; appends, expires and solved repeat exactly
  // when nothing fails.
  for (const auto& [key, value] : after) {
    const auto it = before.find(key);
    Report("daemon counter %s +%.0f", key.c_str(),
           value - (it == before.end() ? 0.0 : it->second));
  }
  if (const auto at = daemon_out.find("served="); at != std::string::npos) {
    Report("daemon lifetime (incl. set-up): %s",
           daemon_out.substr(at, daemon_out.find('\n', at) - at).c_str());
  }

  std::vector<Metric> metrics{
      {"setup_s", Median(setup_s), "s"},
      {"solve_p50_ms", Quantile(latency[OpClass::kSolve], 0.5), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  // Every request of these workloads succeeds on a correct daemon, so a
  // failed one makes the run incorrect as a mismatch does.
  const bool correct =
      check.mismatched == 0 && check.charged_wrong == 0 && failed == 0;
  PrintResult(correct, records.size(), failed, metrics);
  return correct ? 0 : 1;
}

// ------------------------------------------------------------ traced run ---

ServiceOptions DaemonLikeOptions() {
  ServiceOptions options;  // The daemon's settings (see DaemonArgs).
  options.default_budget = {1e15, 1.0};
  options.diagnostics = false;
  return options;
}

CoresetOptions CoresetFrom(const Request& request) {
  CoresetOptions coreset;
  coreset.enabled = request.tuning.coreset;
  coreset.min_points = request.tuning.coreset_min_points;
  coreset.target_size = request.tuning.coreset_target_size;
  return coreset;
}

/// The mutation StreamMutate applies: insert the arrivals, or expire the
/// `count` oldest live rows.
Result<std::size_t> Mutate(IndexedDataset& index, const StreamRequest& stream,
                           bool append) {
  if (append) {
    for (std::size_t i = 0; i < stream.points.size(); ++i) {
      DPC_RETURN_IF_ERROR(index.Insert(stream.points[i]).status());
    }
    return stream.points.size();
  }
  const auto active = index.ActiveIds();
  const std::size_t count =
      std::min<std::size_t>(stream.expire_count, active.size());
  const std::vector<std::uint32_t> doomed(active.begin(),
                                          active.begin() + static_cast<std::ptrdiff_t>(count));
  index.Remove(doomed);
  return count;
}

/// What one op did on its way through MirrorOp.
struct Mirrored {
  bool ok = false;
  bool busy = false;         ///< The cache refused it: the stream was leased.
  double cache_ms = 0.0;     ///< Acquire / AcquireStream / MutateStream.
  /// When that call compacted the stream (StreamStatus::compacted): its time
  /// less the Insert / Remove inside it. Negative otherwise.
  double compact_ms = -1.0;
  double root_ms = 0.0;      ///< The whole request.
  double children_ms = 0.0;  ///< Its timed steps.
  std::string released;      ///< Solves: the encoded released fields.
  std::optional<WireRequest> solved;  ///< Solves: the request as run.
};

/// One op through a bench-owned IndexCache along ClusterService's path:
/// decode, index lease or stream mutation, validation, Solver::Run and
/// encode, each a span under one root span of `request`. A stream edit's
/// Insert / Remove batch is a span inside the MutateStream call.
Mirrored MirrorOp(IndexCache& cache, SpanRecorder& spans, std::uint64_t request,
                  const Op& op) {
  Mirrored out;
  SpanRecorder::Scope root(spans, "service.mirror", request);
  const auto step = [&](const char* name, const auto& body) {
    const auto start = Clock::now();
    {
      SpanRecorder::Scope span(spans, name, request);
      body();
    }
    const double ms = SecondsBetween(start, Clock::now()) * 1e3;
    out.children_ms += ms;
    return ms;
  };
  const auto done = [&](bool ok) {
    out.ok = ok;
    out.root_ms = root.ms();
    return std::move(out);
  };

  if (op.cls == OpClass::kIngest) {
    const bool append = op.kind == OpKind::kAppend;
    std::optional<StreamRequest> stream;
    step("protocol.decode", [&] {
      auto parsed = append ? ParseStreamAppend(op.body) : ParseStreamExpire(op.body);
      if (parsed.ok()) stream = std::move(*parsed);
    });
    if (!stream.has_value()) return done(false);
    std::optional<GridDomain> create;
    if (append && stream->levels > 0) {
      create.emplace(stream->levels, stream->points.dim(), stream->axis);
    }
    double edit_ms = 0.0;
    std::optional<Result<IndexCache::StreamStatus>> status;
    out.cache_ms = step("index_cache.mutate", [&] {
      status = cache.MutateStream(
          stream->dataset, create.has_value() ? &*create : nullptr,
          stream->tuning.stream_compact_fraction, [&](IndexedDataset& index) {
            const auto start = Clock::now();
            std::optional<Result<std::size_t>> touched;
            {
              SpanRecorder::Scope span(
                  spans, append ? "geo.insert_batch" : "geo.remove_batch", request);
              touched = Mutate(index, *stream, append);
            }
            edit_ms = SecondsBetween(start, Clock::now()) * 1e3;
            return std::move(*touched);
          });
    });
    if (!status->ok()) {
      out.busy = status->status().code() == StatusCode::kResourceExhausted;
      return done(false);
    }
    if ((*status)->compacted) out.compact_ms = out.cache_ms - edit_ms;
    return done(true);
  }

  std::optional<WireRequest> wire;
  step("protocol.decode", [&] {
    auto parsed = ParseWireRequest(op.body);
    if (parsed.ok()) wire = std::move(*parsed);
  });
  if (!wire.has_value()) return done(false);
  Request& req = wire->request;
  IndexCache::Lease lease;
  IndexCache::StreamStatus stream_status;
  bool leased = true;
  out.cache_ms = step("index_cache.acquire", [&] {
    if (op.kind != OpKind::kStreamSolve) {
      lease = cache.Acquire(wire->dataset, req.data, *req.domain, CoresetFrom(req));
      return;
    }
    PointSet active;
    GridDomain domain(2, 1);
    auto got = cache.AcquireStream(wire->dataset, CoresetFrom(req),
                                   req.tuning.coreset_staleness_fraction,
                                   &active, &domain, &stream_status);
    if (!got.ok()) {
      leased = false;
      out.busy = got.status().code() == StatusCode::kResourceExhausted;
      return;
    }
    lease = std::move(*got);
    req.data = std::move(active);
    req.domain = domain;
  });
  if (!leased) return done(false);
  if (stream_status.compacted) out.compact_ms = out.cache_ms;
  bool valid = true;
  step("service.validate", [&] {
    auto algorithm = AlgorithmRegistry::Global().Lookup(req.algorithm);
    valid = algorithm.ok() && req.Validate().ok() &&
            (*algorithm)->ValidateRequest(req).ok();
  });
  if (!valid) return done(false);
  if (lease) req.shared_index = lease.index();
  std::optional<Response> response;
  step("solver.run", [&] {
    SolverOptions options;
    options.seed = wire->seed;
    options.diagnostics = false;
    Solver solver(options);
    auto run = solver.Run(req);
    if (run.ok()) response = std::move(*run);
  });
  req.shared_index.reset();
  lease = IndexCache::Lease();
  if (!response.has_value()) return done(false);
  std::string encoded;
  step("protocol.encode", [&] { encoded = ResponseToJson(*response).Encode(); });
  auto json = JsonValue::Parse(encoded);
  if (!json.ok()) return done(false);
  out.released = ReleasedFields(*json);
  out.solved = std::move(wire);
  return done(true);
}

struct OpTiming {
  const Op* op = nullptr;
  std::uint64_t request = 0;   ///< Span request id.
  double handle_ms = 0.0;      ///< ClusterService::Handle, untraced.
  double round_trip_ms = 0.0;  ///< HttpConnection::Post to an HttpServer.
  double mirror_ms = 0.0;      ///< MirrorOp's root span.
  double children_ms = 0.0;    ///< Its timed steps.
  bool ok = true;
};

class TracedRun {
 public:
  TracedRun(const Args& args, const Workload& w) : args_(args), w_(w) {}

  int Run();

 private:
  /// The solve's inner layers, timed on the same inputs.
  void Layers(std::uint64_t request, const WireRequest& wire);
  /// Sequential pass: every op through an untraced ClusterService, MirrorOp
  /// and an HttpServer, for layer_rounds rounds.
  bool LayerPass(std::vector<OpTiming>& timings, std::size_t& attempted,
                 std::size_t& failed, std::map<std::string, double>& counters,
                 HttpServer::Stats& http);
  /// Concurrent pass: the workload's clients through MirrorOp against one
  /// bench-owned IndexCache.
  void ContentionPass();
  /// Writes every kept span, with its self time, as JSON lines.
  void WriteSpans() const;

  const Args& args_;
  const Workload& w_;
  SpanRecorder spans_;
  std::vector<Span> kept_;  ///< The layer pass's spans, set-up excluded.
  IndexCache mirror_cache_{DaemonLikeOptions().cache_capacity};
  bool mirror_correct_ = true;
  double coreset_rows_ = 0.0;
  std::vector<double> stream_compact_ms_;  ///< Mirrored::compact_ms values.

  // Contention-pass results.
  std::mutex contention_mutex_;
  std::vector<double> acquire_ms_;
  std::vector<double> lateness_ms_;
  std::size_t stream_refused_ = 0;
  IndexCache::Stats contention_cache_;
};

void TracedRun::Layers(std::uint64_t request, const WireRequest& wire) {
  SpanRecorder::Scope root(spans_, "layers", request);
  const Request& req = wire.request;
  const GridDomain& domain = *req.domain;
  {
    SpanRecorder::Scope span(spans_, "geo.fingerprint", request);
    volatile std::uint64_t fingerprint = GeometryFingerprint(req.data, domain);
    (void)fingerprint;
  }
  // Create defers the spatial grid to the first neighbour query; the span
  // includes that build (cell size for the profile's (t-1)-NN queries), so
  // the profile below times what a solve on a cached index pays.
  std::optional<IndexedDataset> index;
  {
    SpanRecorder::Scope span(spans_, "geo.create", request);
    auto created = IndexedDataset::Create(req.data, domain);
    if (created.ok()) {
      index.emplace(std::move(*created));
      if (req.t >= 2 && index->size() > 0) index->EnsureGrid(req.t - 1);
    }
  }
  // The summary the coreset layer builds for this request's rows. On
  // workloads whose solves stay below coreset_min_points the service never
  // builds it; the span still times the layer on the same rows.
  CoresetOptions coreset = CoresetFrom(req);
  std::optional<IndexedDataset> summary;
  {
    SpanRecorder::Scope span(spans_, "coreset.build", request);
    auto built = BuildCoreset(req.data, domain, coreset, nullptr);
    if (built.ok()) {
      coreset_rows_ = static_cast<double>(built->points.size());
      auto weighted = MakeWeightedIndex(std::move(*built), domain);
      if (weighted.ok()) summary.emplace(std::move(*weighted));
    }
  }
  const bool compress = coreset.enabled && req.data.size() >= coreset.min_points;
  const IndexedDataset* target =
      compress && summary.has_value() ? &*summary
                                      : (index.has_value() ? &*index : nullptr);
  if (target == nullptr) return;

  // OneCluster's split of the budget and beta between its two phases.
  Rng rng(wire.seed);
  GoodRadiusOptions radius;
  radius.params = req.budget.Fraction(req.tuning.radius_budget_fraction);
  radius.beta = req.beta / 2.0;
  radius.profile_index = req.tuning.profile_index;
  {
    SpanRecorder::Scope span(spans_, "profile.build", request);
    auto profile = RadiusProfile::Build(*target, req.t, radius.max_profile_points);
    (void)profile;
  }
  double r = domain.RadiusFromIndex(1);
  {
    SpanRecorder::Scope span(spans_, "good_radius", request);
    auto found = GoodRadius(rng, *target, req.t, radius);
    if (found.ok()) r = std::max(found->radius, r);
  }
  GoodCenterOptions center;
  center.params = req.budget.Fraction(1.0 - req.tuning.radius_budget_fraction);
  center.beta = req.beta / 2.0;
  center.max_jl_dim = req.tuning.max_jl_dim;
  center.domain_axis_length = domain.axis_length();
  {
    SpanRecorder::Scope span(spans_, "good_center", request);
    auto found = GoodCenter(rng, *target, req.t, r, center);
    (void)found;
  }

  // A workload that sends no ingests still has its geo batch edits timed,
  // on this index: the ingest batch's worth of oldest rows removed, put
  // back, then compacted away. (On tenant_mix the ingests' own edits are
  // timed inside MutateStream instead.)
  if (!w_.streams.empty() || !index.has_value()) return;
  const auto active = index->ActiveIds();
  const std::vector<std::uint32_t> oldest(
      active.begin(),
      active.begin() + static_cast<std::ptrdiff_t>(std::min(kBatchRows, active.size())));
  {
    SpanRecorder::Scope span(spans_, "geo.remove_batch", request);
    index->Remove(oldest);
  }
  {
    SpanRecorder::Scope span(spans_, "geo.insert_batch", request);
    for (const std::uint32_t id : oldest) (void)index->Insert(req.data[id]);
  }
  {
    SpanRecorder::Scope span(spans_, "geo.compact", request);
    index->Compact();
  }
}

bool TracedRun::LayerPass(std::vector<OpTiming>& timings,
                          std::size_t& attempted, std::size_t& failed,
                          std::map<std::string, double>& counters,
                          HttpServer::Stats& http) {
  ClusterService untraced(DaemonLikeOptions());
  ClusterService served(DaemonLikeOptions());
  HttpServer server(&served, HttpServerOptions{});
  if (!server.Start().ok()) return false;
  HttpConnection connection(server.port());

  std::uint64_t next_request = 0;
  // Sends one op down all three paths; `timed` ops enter the metrics.
  const auto run = [&](const Op& op, bool timed) {
    const std::uint64_t request = ++next_request;
    OpTiming timing;
    timing.op = &op;
    timing.request = request;
    auto start = Clock::now();
    const ServiceReply direct = untraced.Handle("POST", op.path, op.body);
    timing.handle_ms = SecondsBetween(start, Clock::now()) * 1e3;
    const Mirrored mirrored = MirrorOp(mirror_cache_, spans_, request, op);
    timing.mirror_ms = mirrored.root_ms;
    timing.children_ms = mirrored.children_ms;
    if (timed && mirrored.compact_ms >= 0.0) {
      stream_compact_ms_.push_back(mirrored.compact_ms);
    }
    // The primary solve's inner layers, on the rows it solved over.
    if (op.cls == OpClass::kSolve && mirrored.solved.has_value()) {
      Layers(request, *mirrored.solved);
    }
    start = Clock::now();
    auto over_http = connection.Post(op.path, op.body);
    timing.round_trip_ms = SecondsBetween(start, Clock::now()) * 1e3;
    timing.ok = mirrored.ok && direct.http_status == 200 && over_http.ok() &&
                over_http->status == 200;
    if (timing.ok && op.cls != OpClass::kIngest) {
      // The three paths ran the same request with the same seed.
      auto a = JsonValue::Parse(direct.body);
      auto b = JsonValue::Parse(over_http->body);
      const JsonValue* ra = a.ok() ? a->Find("response") : nullptr;
      const JsonValue* rb = b.ok() ? b->Find("response") : nullptr;
      if (ra == nullptr || rb == nullptr ||
          ReleasedFields(*ra) != mirrored.released ||
          ReleasedFields(*rb) != mirrored.released) {
        mirror_correct_ = false;
      }
    }
    if (!timed) return;
    ++attempted;
    if (!timing.ok) ++failed;
    timings.push_back(timing);
  };

  for (const StreamSource& stream : w_.streams) run(PreloadOp(stream), false);
  for (const Sender& sender : w_.senders) {
    for (const Op& op : sender.warmup) run(op, false);
  }
  (void)spans_.Take();  // Set-up spans are not part of the trace.

  const ClusterService::Stats stats0 = untraced.GetStats();
  const IndexCache::Stats cache0 = untraced.CacheStats();
  const HttpServer::Stats http0 = server.GetStats();
  for (std::size_t round = 0; round < w_.layer_rounds; ++round) {
    for (const Sender& sender : w_.senders) {
      if (sender.ops.empty()) continue;
      run(sender.ops[round % sender.ops.size()], true);
    }
  }
  const ClusterService::Stats stats1 = untraced.GetStats();
  const IndexCache::Stats cache1 = untraced.CacheStats();
  const HttpServer::Stats http1 = server.GetStats();
  kept_ = spans_.Take();
  counters["counters.solved"] = static_cast<double>(stats1.solved - stats0.solved);
  counters["counters.cache_hits"] = static_cast<double>(cache1.hits - cache0.hits);
  counters["counters.cache_replaced"] =
      static_cast<double>(cache1.replaced - cache0.replaced);
  counters["counters.cache_bypasses"] =
      static_cast<double>(cache1.bypasses - cache0.bypasses);
  counters["counters.stream_compactions"] =
      static_cast<double>(stats1.stream_compactions - stats0.stream_compactions);
  http.served = http1.served - http0.served;
  http.reused = http1.reused - http0.reused;
  http.shed = http1.shed - http0.shed;
  server.Stop();
  return true;
}

void TracedRun::ContentionPass() {
  IndexCache cache(DaemonLikeOptions().cache_capacity);
  SpanRecorder untimed;  // MirrorOp's spans; this pass keeps none.
  const auto exec_for = [&](std::vector<double>& acquire,
                            std::size_t& refused) -> Exec {
    return [&](const Op& op) {
      const Mirrored m = MirrorOp(cache, untimed, 0, op);
      if (op.cls != OpClass::kIngest) acquire.push_back(m.cache_ms);
      if (m.busy) ++refused;
      Reply reply;
      reply.transport_ok = true;
      reply.status = m.ok ? 200 : 503;
      return reply;
    };
  };

  // Preload and warm up sequentially, as the daemon's set-up does.
  {
    std::vector<double> acquire;
    std::size_t refused = 0;
    const Exec exec = exec_for(acquire, refused);
    for (const StreamSource& stream : w_.streams) exec(PreloadOp(stream));
    for (const Sender& sender : w_.senders) {
      for (const Op& op : sender.warmup) exec(op);
    }
  }
  // The stream owner's ingests and solves become two clients here, each
  // sending at its scheduled times: a solve holding the stream then
  // refuses a concurrent mutation, which stream_refused counts.
  //
  // The cheap senders' ops are dealt to kLanes threads: one connection
  // queues every probe behind the one stalled in Acquire, which would hide
  // how long the others block in the cache itself.
  constexpr std::size_t kLanes = 8;
  std::vector<Sender> clients;
  for (const Sender& sender : w_.senders) {
    const bool mixed =
        std::any_of(sender.ops.begin(), sender.ops.end(),
                    [](const Op& op) { return op.cls == OpClass::kIngest; }) &&
        std::any_of(sender.ops.begin(), sender.ops.end(),
                    [](const Op& op) { return op.cls != OpClass::kIngest; });
    const bool cheap =
        sender.open_loop && !sender.ops.empty() &&
        std::all_of(sender.ops.begin(), sender.ops.end(),
                    [](const Op& op) { return op.cls == OpClass::kCheap; });
    if (cheap) {
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        Sender part = sender;
        part.ops.clear();
        part.due_s.clear();
        for (std::size_t i = lane; i < sender.ops.size(); i += kLanes) {
          part.ops.push_back(sender.ops[i]);
          part.due_s.push_back(sender.due_s[i]);
        }
        clients.push_back(std::move(part));
      }
      continue;
    }
    if (!mixed) {
      clients.push_back(sender);
      continue;
    }
    Sender ingest = sender, solve = sender;
    ingest.ops.clear();
    ingest.due_s.clear();
    solve.ops.clear();
    solve.due_s.clear();
    for (std::size_t i = 0; i < sender.ops.size(); ++i) {
      Sender& to = sender.ops[i].cls == OpClass::kIngest ? ingest : solve;
      to.ops.push_back(sender.ops[i]);
      to.due_s.push_back(sender.due_s[i]);
    }
    // An independent analyst keeps the owner's solve rate but not its
    // phase: Poisson arrivals, seeded from the benchmark seed.
    Rng rng(args_.seed);
    const double rate = static_cast<double>(solve.ops.size()) / args_.seconds;
    double due = 0.0;
    for (double& d : solve.due_s) {
      due += -std::log(rng.NextDoubleOpenZero()) / rate;
      d = due;
    }
    clients.push_back(std::move(ingest));
    clients.push_back(std::move(solve));
  }
  const double seconds = args_.seconds / 2.0;
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      std::vector<double> acquire;
      std::size_t refused = 0;
      const auto records = RunWindow(static_cast<int>(c), clients[c],
                                     exec_for(acquire, refused), nullptr, t0,
                                     seconds);
      std::lock_guard<std::mutex> lock(contention_mutex_);
      acquire_ms_.insert(acquire_ms_.end(), acquire.begin(), acquire.end());
      stream_refused_ += refused;
      if (clients[c].open_loop) {
        for (const Record& r : records) {
          lateness_ms_.push_back((r.start - r.due) * 1e3);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  contention_cache_ = cache.GetStats();
}

void TracedRun::WriteSpans() const {
  std::map<std::uint64_t, double> covered;  // Child time inside each span.
  for (const Span& span : kept_) {
    if (span.parent != 0) covered[span.parent] += span.ms();
  }
  std::error_code error;
  std::filesystem::create_directories(args_.trace_dir, error);
  const std::string path = args_.trace_dir + "/" + w_.name + "-seed" +
                           std::to_string(args_.seed) + ".spans.jsonl";
  std::ofstream out(path);
  if (kept_.empty()) return;
  const Clock::time_point origin = kept_.front().start;
  for (const Span& span : kept_) {
    JsonValue row = JsonValue::Object();
    row.Set("id", JsonValue::Number(span.id));
    row.Set("parent", JsonValue::Number(span.parent));
    row.Set("request", JsonValue::Number(span.request));
    row.Set("name", JsonValue::String(span.name));
    row.Set("start_us", JsonValue::Number(SecondsBetween(origin, span.start) * 1e6));
    row.Set("end_us", JsonValue::Number(SecondsBetween(origin, span.end) * 1e6));
    const auto it = covered.find(span.id);
    row.Set("self_us", JsonValue::Number(
                           (span.ms() - (it == covered.end() ? 0.0 : it->second)) * 1e3));
    out << row.Encode() << '\n';
  }
  Report("%zu spans written to %s", kept_.size(), path.c_str());
}

int TracedRun::Run() {
  std::vector<OpTiming> timings;
  std::size_t attempted = 0, failed = 0;
  std::map<std::string, double> counters;
  HttpServer::Stats http;
  if (!LayerPass(timings, attempted, failed, counters, http)) {
    std::fprintf(stderr, "perfbench: in-process HttpServer failed to start\n");
    return 1;
  }
  ContentionPass();

  // Span durations by name.
  std::map<std::string, std::vector<double>> by_name;
  for (const Span& span : kept_) by_name[span.name].push_back(span.ms());
  const auto median_of = [&](const char* name) { return Median(by_name[name]); };
  // Compaction: Layers' own geo.compact spans, or on a stream the cache
  // calls that compacted (MirrorOp derives those).
  std::vector<double> compact = by_name["geo.compact"];
  compact.insert(compact.end(), stream_compact_ms_.begin(), stream_compact_ms_.end());
  std::map<std::uint64_t, std::map<std::string, double>> per_request;
  for (const Span& span : kept_) per_request[span.request][span.name] += span.ms();

  // Per-class figures from the sequential pass.
  std::map<OpClass, std::vector<double>> handle, self, transport, decode, encode,
      body_kb;
  double handle_sum = 0.0, children_sum = 0.0, mirror_sum = 0.0;
  for (const OpTiming& t : timings) {
    const OpClass cls = t.op->cls;
    handle[cls].push_back(t.handle_ms);
    self[cls].push_back(t.handle_ms - t.children_ms);
    transport[cls].push_back(t.round_trip_ms - t.handle_ms);
    body_kb[cls].push_back(static_cast<double>(t.op->body.size()) / 1024.0);
    handle_sum += t.handle_ms;
    children_sum += t.children_ms;
    mirror_sum += t.mirror_ms;
  }
  // Spans of the primary solve class, by request.
  std::map<std::uint64_t, OpClass> class_of;
  for (const OpTiming& t : timings) class_of[t.request] = t.op->cls;
  std::vector<double> solver_run, solver_self, engine;
  for (const auto& [request, names] : per_request) {
    const auto cls = class_of.find(request);
    if (cls == class_of.end() || cls->second != OpClass::kSolve) continue;
    const auto has = [&](const char* n) { return names.count(n) != 0; };
    if (has("good_radius") && has("profile.build")) {
      engine.push_back(names.at("good_radius") - names.at("profile.build"));
    }
    if (has("solver.run") && has("good_radius") && has("good_center")) {
      solver_self.push_back(names.at("solver.run") - names.at("good_radius") -
                            names.at("good_center"));
    }
    if (has("solver.run")) solver_run.push_back(names.at("solver.run"));
    if (has("protocol.decode")) decode[OpClass::kSolve].push_back(names.at("protocol.decode"));
    if (has("protocol.encode")) encode[OpClass::kSolve].push_back(names.at("protocol.encode"));
  }
  const double handle_solve = Median(handle[OpClass::kSolve]);
  const double hits = static_cast<double>(contention_cache_.hits);
  const double lookups = hits + static_cast<double>(contention_cache_.misses +
                                                    contention_cache_.replaced +
                                                    contention_cache_.bypasses);

  std::vector<Metric> metrics{
      {"http.transport_p50_ms", Median(transport[OpClass::kCheap]), "ms"},
      {"http.reused_frac",
       http.served == 0 ? 0.0 : static_cast<double>(http.reused) / http.served,
       "frac"},
      {"http.shed", static_cast<double>(http.shed), "count"},
      {"protocol.decode_ms", Median(decode[OpClass::kSolve]), "ms"},
      {"protocol.encode_ms", Median(encode[OpClass::kSolve]), "ms"},
      {"protocol.body_kb", Median(body_kb[OpClass::kSolve]), "kB"},
      {"service.handle_ms", handle_solve, "ms"},
      {"service.self_ms", Median(self[OpClass::kSolve]), "ms"},
      {"service.cheap_handle_ms", Median(handle[OpClass::kCheap]), "ms"},
      {"service.cheap_self_ms", Median(self[OpClass::kCheap]), "ms"},
      {"index_cache.acquire_p50_ms", Quantile(acquire_ms_, 0.5), "ms"},
      {"index_cache.acquire_p90_ms", Quantile(acquire_ms_, 0.9), "ms"},
      {"index_cache.hit_frac", lookups == 0.0 ? 0.0 : hits / lookups, "frac"},
      {"index_cache.bypass_frac",
       lookups == 0.0 ? 0.0 : static_cast<double>(contention_cache_.bypasses) / lookups,
       "frac"},
      {"index_cache.replaced", static_cast<double>(contention_cache_.replaced), "count"},
      {"index_cache.stream_refused", static_cast<double>(stream_refused_), "count"},
      {"geo.fingerprint_ms", median_of("geo.fingerprint"), "ms"},
      {"geo.create_ms", median_of("geo.create"), "ms"},
      {"geo.insert_batch_ms", median_of("geo.insert_batch"), "ms"},
      {"geo.remove_batch_ms", median_of("geo.remove_batch"), "ms"},
      {"geo.compact_ms", Median(compact), "ms"},
      {"coreset.build_ms", median_of("coreset.build"), "ms"},
      {"coreset.rows", coreset_rows_, "count"},
      {"profile.build_ms", median_of("profile.build"), "ms"},
      {"profile.share", median_of("profile.build") / handle_solve, "frac"},
      {"engine.ms", Median(engine), "ms"},
      {"center.ms", median_of("good_center"), "ms"},
      {"solver.run_ms", Median(solver_run), "ms"},
      {"solver.self_ms", Median(solver_self), "ms"},
      {"trace.coverage", handle_sum == 0.0 ? 0.0 : children_sum / handle_sum, "frac"},
      {"trace.overhead_frac", handle_sum == 0.0 ? 0.0 : mirror_sum / handle_sum - 1.0,
       "frac"},
      {"harness.late_p90_ms", Quantile(lateness_ms_, 0.9), "ms"},
  };
  for (const auto& [name, value] : counters) metrics.push_back({name, value, "count"});
  for (const Metric& m : metrics) Report("%s = %.6g %s", m.name.c_str(), m.value, m.unit.c_str());
  Report("layer pass: %zu requests over %zu rounds, %zu compactions; "
         "contention pass: %zu acquires, cache hits=%llu misses=%llu replaced=%llu bypasses=%llu",
         timings.size(), w_.layer_rounds, compact.size(), acquire_ms_.size(),
         static_cast<unsigned long long>(contention_cache_.hits),
         static_cast<unsigned long long>(contention_cache_.misses),
         static_cast<unsigned long long>(contention_cache_.replaced),
         static_cast<unsigned long long>(contention_cache_.bypasses));
  WriteSpans();
  if (!mirror_correct_) {
    Report("mirror, ClusterService::Handle and HttpServer released different bytes");
  }
  PrintResult(mirror_correct_, attempted, failed, metrics);
  return mirror_correct_ ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S --trace 0|1\n"
                 "                 [--trace-dir DIR] [--selftest corrupt|refuse]\n");
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  const auto begin = Clock::now();
  auto workload = MakeWorkload(args.workload, args.seed, args.seconds);
  if (!workload.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 std::string(workload.status().message()).c_str());
    return 2;
  }
  Report("workload %s seed %llu, %.1f s window, inputs generated in %.2f s "
         "(build %s, %u hardware threads)",
         args.workload.c_str(), static_cast<unsigned long long>(args.seed),
         args.seconds, SecondsBetween(begin, Clock::now()), PERFBENCH_BUILD_TYPE,
         std::thread::hardware_concurrency());
  if (args.trace) {
    TracedRun run(args, *workload);
    return run.Run();
  }
  return RunEndToEnd(args, *workload);
}
