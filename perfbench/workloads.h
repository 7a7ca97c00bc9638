// The four perfbench workloads: every request body, arrival schedule and
// stream row is generated here from the benchmark seed (planted_cluster
// instances from the ScenarioRegistry) and pre-encoded before any timing
// starts. README.md in this directory explains why each workload exists.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dpcluster/common/status.h"
#include "dpcluster/geo/grid_domain.h"
#include "dpcluster/geo/point_set.h"

namespace perfbench {

/// Rows per stream append or expiry.
constexpr std::size_t kBatchRows = 64;

/// The request classes the end-to-end metrics are reported for.
enum class OpClass { kSolve, kCheap, kIngest };
const char* ClassName(OpClass cls);

enum class OpKind { kSolve, kStreamSolve, kAppend, kExpire };

/// One pre-encoded request.
struct Op {
  OpClass cls = OpClass::kSolve;
  OpKind kind = OpKind::kSolve;
  std::string path;
  std::string body;
  /// Append: the arrival rows [rows_lo, rows_hi) of the sender's stream it
  /// carries. Expire: rows_hi - rows_lo is the oldest-first count.
  std::size_t rows_lo = 0;
  std::size_t rows_hi = 0;
};

/// A resident stream: the rows it will ever receive, in arrival order.
struct StreamSource {
  std::string key;
  dpcluster::GridDomain domain{2, 1};
  dpcluster::PointSet arrivals;
  std::size_t preload = 0;    ///< Rows [0, preload) arrive in set-up.
  std::string preload_body;   ///< The /v1/stream/append body creating it.
};

/// The /v1/stream/append op that creates `stream` with its preload rows.
Op PreloadOp(const StreamSource& stream);

/// One client: its own connection and thread.
struct Sender {
  std::string name;
  /// Open loop: op i is due at due_s[i] seconds after the window opens.
  /// Closed loop: ops are sent back to back, cycling through `ops`.
  bool open_loop = false;
  std::vector<Op> warmup;
  std::vector<Op> ops;
  std::vector<double> due_s;
  /// Index into Workload::streams of the stream this sender mutates and
  /// solves (-1: none). Its live rows are tracked from the replies.
  int stream = -1;
};

struct Workload {
  std::string name;
  std::vector<StreamSource> streams;
  std::vector<Sender> senders;
  /// Rounds of the sequential layer pass of the traced run.
  std::size_t layer_rounds = 2;
};

/// Generates every input of workload `name` ("profile_repeat",
/// "profile_fresh", "tenant_mix" or "coreset_contention") for a window of
/// `seconds` from `seed`.
dpcluster::Result<Workload> MakeWorkload(const std::string& name,
                                         std::uint64_t seed, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
