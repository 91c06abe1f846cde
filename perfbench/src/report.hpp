// Run configuration and result record of the benchmark driver. The
// driver reports the metrics it measured by name; run.py adds the units
// from BENCHMARK.json and rejects a name that file does not declare.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Threads one workload runs: the parallel pool, client threads, and the
/// daemon threads (event loops plus workers) of servers and the router.
struct ThreadBudget {
  std::size_t pool = 1;
  std::size_t clients = 0;
  std::size_t server = 0;
  std::size_t server_workers = 0;  // per server, behind its event loop
  std::size_t router = 0;
  int pinned_cpu = -1;  // the one CPU every thread runs on; -1 = not pinned
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t nproc = 1;        // CPUs this process may run on
  ThreadBudget threads;
  std::string trace_path;       // where the traced run writes its spans
  std::string context_json;     // run context, also the trace header
};

/// What one run reports. `attempted`/`failed` count operations; a failed
/// correctness gate counts as a failed operation and clears `correct`.
class RunResult {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Records one failed operation with its reason (printed to stderr).
  void fail(const std::string& why);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// The result line: {"correct", "attempted", "failed", "values"}, with
  /// every metric set, by name; a value that is not finite reads null.
  std::string to_json() const;

 private:
  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t reasons_printed_ = 0;
};

/// Median of `v` (reorders it); 0 for an empty vector.
double median(std::vector<double> v);

/// Quantile `q` in [0, 1] of an ascending vector, linearly interpolated.
double quantile(const std::vector<double>& sorted, double q);

/// The highest of the quantiles 0.999, 0.99, 0.95, 0.9, 0.5 that has at
/// least ten samples beyond it, with its value.
struct Tail {
  double q = 0.0;
  double value = 0.0;
};
Tail tail(const std::vector<double>& sorted);

/// Peak resident set size of this process in MiB.
double peak_rss_mib();

}  // namespace perfbench
