// bmf_perfbench: the benchmark driver's measuring program. perfbench/run.py
// builds it and runs it as
//
//   bmf_perfbench --workload fit_ro|serve_eval|serve_mixed --seed N
//                 --seconds S --trace 0|1 [--trace-out FILE]
//
// in a scratch directory (the serve workloads create their sockets and
// store directories there). The first line of stdout is the run context
// ("context: {...}"); the last is the result: {"correct", "attempted",
// "failed", "values"}, every metric measured by name (run.py turns it into
// the benchmark's result line).
// The exit code is 0 when every correctness check passed, 1 when one
// failed (the result line is still printed), 2 on a usage or set-up error.
//
//   bmf_perfbench --emit-reference   prints fit_ro_reference.inc
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "linalg/kernels/kernels.hpp"
#include "parallel/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::size_t online_cpus() {
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// Restricts this process, and every thread it starts later, to the
/// highest-numbered CPU it may run on. Returns that CPU, or -1 if the
/// affinity cannot be read or set.
int pin_to_one_cpu() {
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return ::sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
  }
  return -1;
}

int usage(const std::string& why) {
  std::cerr << "bmf_perfbench: " << why
            << "\nusage: bmf_perfbench --workload fit_ro|serve_eval|"
               "serve_mixed --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] | --emit-reference\n";
  return 2;
}

#ifdef BMF_FAULT_INJECTION
constexpr bool kFaultHooks = true;
#else
constexpr bool kFaultHooks = false;
#endif

std::string context_json(const RunConfig& cfg) {
  namespace kernels = bmf::linalg::kernels;
  const kernels::DispatchInfo simd = kernels::dispatch_info();
  const char* env_threads = std::getenv("BMF_NUM_THREADS");
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %zu, \"simd_active\": \"%s\", "
      "\"simd_detected\": \"%s\", \"bmf_num_threads_env\": \"%s\", "
      "\"threads\": {\"pool\": %zu, \"clients\": %zu, \"server\": %zu, "
      "\"router\": %zu, \"pinned_cpu\": %d}, \"build_type\": \"%s\", "
      "\"fault_hooks\": %s, \"compiler\": \"%s\"}",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.seconds, cfg.trace ? 1 : 0, cfg.nproc,
      kernels::level_name(simd.active), kernels::level_name(simd.detected),
      env_threads != nullptr ? env_threads : "",
      cfg.threads.pool, cfg.threads.clients, cfg.threads.server,
      cfg.threads.router, cfg.threads.pinned_cpu, PERFBENCH_BUILD_TYPE,
      kFaultHooks ? "true" : "false", __VERSION__);
  return buf;
}

}  // namespace

void finish_trace(const RunConfig& cfg,
                  const std::vector<const SpanLog*>& logs, RunResult& result) {
  std::size_t spans = 0;
  for (const SpanLog* log : logs) spans += log->spans().size();
  result.set("trace.spans", static_cast<double>(spans));
  std::fprintf(stderr, "perfbench: %-36s %8s %14s %14s\n", "span", "count",
               "median_us", "self_total_us");
  for (const auto& [name, times] : summarize(logs))
    std::fprintf(stderr, "perfbench: %-36s %8zu %14.3f %14.1f\n",
                 name.c_str(), times.durations_s.size(),
                 median(times.durations_s) * 1e6, times.self_s * 1e6);
  if (cfg.trace_path.empty()) return;
  if (write_trace(cfg.trace_path, cfg.context_json, logs))
    std::cerr << "perfbench: wrote " << spans << " spans to " << cfg.trace_path
              << "\n";
  else
    std::cerr << "perfbench: cannot write " << cfg.trace_path << "\n";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release")
    return usage(std::string("refusing to measure a ") +
                 PERFBENCH_BUILD_TYPE + " build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release");

  RunConfig cfg;
  cfg.nproc = online_cpus();
  bool have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--emit-reference") {
        return emit_fit_ro_reference();
      }
      if (i + 1 >= argc) return usage("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        cfg.workload = value;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value);
        have_seconds = cfg.seconds > 0.0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        cfg.trace = value == "1";
        have_trace = true;
      } else if (arg == "--trace-out") {
        cfg.trace_path = value;
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds (> 0) and --trace are required");

  RunResult (*run)(const RunConfig&) = nullptr;
  if (cfg.workload == "fit_ro") run = run_fit_ro;
  if (cfg.workload == "serve_eval") run = run_serve_eval;
  if (cfg.workload == "serve_mixed") run = run_serve_mixed;
  if (run == nullptr) return usage("unknown workload '" + cfg.workload + "'");

  // Thread budgets. fit_ro: the parallel pool, never wider than the CPUs
  // this process has. The serve workloads run every thread (clients,
  // servers with one worker behind each event loop, router) on one pinned
  // CPU, with the evaluation kernel inline (pool of 1): on a shared
  // virtual machine a request that hops between CPUs waits for each hop's
  // CPU to be scheduled, which varies with the host's load far more than
  // the serve path's own cost does. Pinned, the serve workloads measure
  // that cost: the CPU time per request of every layer together.
  ThreadBudget& t = cfg.threads;
  if (cfg.workload == "fit_ro") {
    t.pool = std::min(bmf::parallel::num_threads(), cfg.nproc);
  } else {
    t.pinned_cpu = pin_to_one_cpu();
    if (t.pinned_cpu < 0)
      return usage("cannot pin the serve workload to a CPU");
    t.server_workers = 1;
    const bool mixed = cfg.workload == "serve_mixed";
    t.clients = mixed ? 3 : 2;
    t.server = (mixed ? 2 : 1) * (1 + t.server_workers);
    t.router = mixed ? 1 : 0;
  }
  bmf::parallel::set_num_threads(t.pool);
  cfg.context_json = context_json(cfg);
  std::cout << "context: " << cfg.context_json << "\n";

  try {
    const RunResult result = run(cfg);
    std::cout << result.to_json() << std::endl;
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bmf_perfbench: " << cfg.workload << ": " << e.what() << "\n";
    return 2;
  }
}
