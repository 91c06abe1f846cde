// serve_eval and serve_mixed: the serve path, in-process, over UNIX sockets
// created in the working directory.
//
// serve_eval: one Server with one published 24-variable linear model; two
// closed-loop client connections send 4096-row evaluate batches at
// pipeline depth 1. Router and store stay idle.
//
// serve_mixed: a Router (replicas = 2) fronting two Servers, each with a
// durable store (SyncPolicy::kAlways). Two closed-loop connections send
// 256-row evaluates across four model names while one open-loop publisher
// re-publishes those names with fresh coefficients at kPublishHz (about
// 1 % of the requests). With every thread on one CPU, a publish holding
// the registry's exclusive lock can only delay a resolve if it is
// preempted inside it; the traced run reports how many evaluates were in
// flight while a publish was (publish.overlap_share).
//
// Model coefficients are a pure function of (seed, name, version), so a
// reader can rebuild the model of any version a reply reports: every reply
// must equal an in-process BatchEvaluator on that model bit for bit, and
// the versions a connection sees for one name must never go backwards.
//
// main() pins every thread of these workloads to one CPU (see the thread
// budget there). A traced run cycles through one-second windows (see
// Phase), records a span per request in its traced windows, and afterwards
// replays each stage of the request on identical bytes: protocol
// encode/decode, registry resolve, the fused evaluation kernel and, for
// serve_mixed, the publish path (codec, registry publish, one WAL append
// with fsync). The residual serve.transport_us is the CPU time per request
// minus the replayed stage medians.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "basis/basis_set.hpp"
#include "router/router.hpp"
#include "serve/batch_evaluator.hpp"
#include "serve/client.hpp"
#include "serve/model_codec.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "stats/rng.hpp"
#include "store/store.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bmf;

constexpr std::size_t kDim = 24;
constexpr std::size_t kBatchesPerConnection = 8;
constexpr std::size_t kReaders = 2;
constexpr std::size_t kSetupRepeats = 51;
constexpr std::int64_t kWarmupNs = 1'000'000'000;  // unmeasured load first
constexpr std::size_t kReplays = 200;
constexpr std::size_t kStoreReplays = 40;
// serve_mixed's open-loop publish rate. Publishes are meant to be about
// 1 % of its requests, an assumed write share for a model registry that is
// read far more often than refitted: at the ~8,400 evaluates/s this
// workload served on one pinned CPU of a 4-vCPU x86 VM, that is 85/s. The
// rate is fixed, so a change to the read path moves the share;
// publish.share reports the share a run measured.
constexpr double kPublishHz = 85.0;
constexpr std::uint64_t kMaxFailures = 100;  // per thread, then it stops
constexpr int kTimeoutMs = 30000;
constexpr std::int64_t kWindowNs = 1'000'000'000;
constexpr std::int64_t kRateWindowNs = 250'000'000;
constexpr std::int64_t kEvalPhases = 2;   // untraced, traced
constexpr std::int64_t kMixedPhases = 3;  // untraced, traced, bypass

/// The model published as version `version` of name `name_index`.
serve::FittedModel make_model(std::uint64_t seed, std::size_t name_index,
                              std::uint64_t version) {
  basis::BasisSet b = basis::BasisSet::linear(kDim);
  stats::Rng rng(seed * 0x9E3779B97F4A7C15ull + name_index * 1000003ull +
                 version);
  linalg::Vector coeffs(b.size());
  for (double& c : coeffs) c = rng.normal();
  serve::FittedModel fitted;
  fitted.model = basis::PerformanceModel(std::move(b), std::move(coeffs));
  fitted.provenance = serve::PriorProvenance::kNonzeroMean;
  fitted.tau = 0.05;
  fitted.num_samples = 100;
  return fitted;
}

std::vector<linalg::Matrix> make_batches(std::uint64_t seed,
                                         std::size_t connection,
                                         std::size_t rows) {
  stats::Rng rng(seed * 0x2545F4914F6CDD1Dull + 7 * connection + 1);
  std::vector<linalg::Matrix> batches;
  for (std::size_t b = 0; b < kBatchesPerConnection; ++b) {
    linalg::Matrix points(rows, kDim);
    for (std::size_t i = 0; i < points.size(); ++i)
      points.data()[i] = rng.normal();
    batches.push_back(std::move(points));
  }
  return batches;
}

bool same_bits(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// An in-process Server or Router running on its own thread; destruction
/// asks it to stop and joins the thread.
template <typename Daemon>
class Running {
 public:
  template <typename Options>
  explicit Running(Options options)
      : daemon_(std::move(options)), thread_([this] { loop(); }) {}
  ~Running() {
    daemon_.request_stop();
    thread_.join();
  }
  Running(const Running&) = delete;
  Running& operator=(const Running&) = delete;

  Daemon& operator*() { return daemon_; }
  Daemon* operator->() { return &daemon_; }

 private:
  void loop() {
    try {
      daemon_.run();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: daemon stopped: " << e.what() << "\n";
    }
  }

  Daemon daemon_;
  std::thread thread_;
};

/// Per-thread outcome counts, merged into the RunResult after the join.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void fail(std::string why) {
    ++failed;
    if (reasons.size() < 5) reasons.push_back(std::move(why));
  }
  void merge_into(RunResult& result) const {
    result.attempt(attempted);
    for (std::uint64_t i = 0; i < failed; ++i)
      result.fail(i < reasons.size() ? reasons[i] : "(further failure)");
  }
};

/// Stamps the start of the measured time when the last thread reaches the
/// start gate, after every connection has warmed up and before any thread
/// is released.
struct StampStart {
  std::atomic<std::int64_t>* start_ns;
  void operator()() noexcept { start_ns->store(now_ns()); }
};
using StartGate = std::barrier<StampStart>;

/// Runs `prepare` (connect, warm up), then waits at `gate` whether or not
/// it succeeded, so a failed connection cannot strand the other threads.
/// Returns false, with the failure recorded, if `prepare` threw.
bool prepare_then_wait(StartGate& gate, Tally& tally, const char* who,
                       const std::function<void()>& prepare) {
  bool ok = true;
  try {
    prepare();
  } catch (const std::exception& e) {
    ++tally.attempted;
    tally.fail(std::string(who) + ": connect or warm-up failed: " + e.what());
    ok = false;
  }
  gate.arrive_and_wait();
  return ok;
}

/// One reader connection's request latencies, split by tracing window.
struct Latencies {
  std::vector<double> untraced_us;
  std::vector<double> traced_us;
  std::vector<std::int64_t> done_ns;  // completion of each checked request
};

/// What a traced run does in each one-second window. Windows cycle
/// through `phases` kinds: 0 untraced, 1 traced, 2 traced with every other
/// request bypassing the router (serve_mixed only). An untraced run stays
/// in phase 0.
enum Phase { kUntraced = 0, kTraced = 1, kBypass = 2 };

Phase phase_at(const RunConfig& cfg, std::int64_t start_ns,
               std::int64_t phases, std::int64_t t_ns) {
  return cfg.trace ? static_cast<Phase>(((t_ns - start_ns) / kWindowNs) %
                                        phases)
                   : kUntraced;
}

/// Runs `op` kReplays times (`n` when given), one span each.
void replay(SpanLog& log, const char* name, const std::function<void()>& op,
            std::size_t n = kReplays) {
  for (std::size_t i = 0; i < n; ++i) {
    Scope s(log, name);
    op();
  }
}

double median_us(const std::map<std::string, LayerTimes>& layers,
                 const std::string& name) {
  const auto it = layers.find(name);
  return it == layers.end() ? 0.0 : median(it->second.durations_s) * 1e6;
}

/// Replays the evaluate path's stages on the bytes of one request against
/// `model` and sets their medians and the frame sizes. The residual
/// serve.transport_us is the CPU time per request (serve.request_cpu_us,
/// set by set_eval_metrics) minus the replayed stages: sockets, the event
/// loop, copies and thread switches.
void replay_evaluate(SpanLog& log, const serve::ModelRegistry& registry,
                     const std::string& name,
                     const basis::PerformanceModel& model,
                     const linalg::Matrix& points, RunResult& result,
                     double request_cpu_us) {
  const serve::BatchEvaluator evaluator(
      serve::ServerOptions{}.evaluator_block_rows);
  const std::vector<std::uint8_t> request =
      serve::encode_evaluate_request(name, 0, points);
  serve::EvaluateResponse response;
  evaluator.evaluate_into(model, points, response.values);
  const std::vector<std::uint8_t> reply =
      serve::encode_evaluate_response(response);

  std::vector<std::uint8_t> scratch;
  replay(log, "serve.protocol.encode_request", [&] {
    scratch =
        serve::encode_evaluate_request(name, 0, points, std::move(scratch));
  });
  replay(log, "serve.protocol.decode_request",
         [&] { (void)serve::decode_request(request); });
  replay(log, "serve.registry.resolve",
         [&] { (void)registry.latest(name); });
  linalg::Vector out;
  replay(log, "basis.design_matrix_times",
         [&] { evaluator.evaluate_into(model, points, out); });
  replay(log, "serve.protocol.encode_response",
         [&] { (void)serve::encode_evaluate_response(response); });
  replay(log, "serve.protocol.decode_response", [&] {
    const auto [body, size] = serve::expect_ok(reply);
    (void)serve::decode_evaluate_response(body, size);
  });

  const auto layers = summarize({&log});
  double stages_us = 0.0;
  for (const char* stage :
       {"serve.protocol.encode_request", "serve.protocol.decode_request",
        "serve.registry.resolve", "basis.design_matrix_times",
        "serve.protocol.encode_response", "serve.protocol.decode_response"}) {
    const double us = median_us(layers, stage);
    result.set(std::string(stage) + "_us", us);
    stages_us += us;
  }
  result.set("serve.transport_us", request_cpu_us - stages_us);
  result.set("serve.request_bytes", static_cast<double>(request.size()));
  result.set("serve.reply_bytes", static_cast<double>(reply.size()));
}

/// Latency metrics of the reader connections: the end-to-end median
/// latency and throughput, and the per-layer tail and CPU time per request.
/// A traced run takes them from its untraced windows only. Throughput is
/// the median over kRateWindowNs windows of the points evaluated and
/// checked in the window, so a stall of the shared machine moves it no
/// more than it moves the latency median. Returns the CPU time per request.
double set_eval_metrics(const RunConfig& cfg,
                        const std::vector<Latencies>& readers,
                        std::size_t rows, std::int64_t phases,
                        std::int64_t start_ns, std::int64_t end_ns,
                        RunResult& result) {
  std::vector<double> untraced, traced;
  std::vector<double> window_points(
      static_cast<std::size_t>((end_ns - start_ns) / kRateWindowNs), 0.0);
  for (const Latencies& l : readers) {
    untraced.insert(untraced.end(), l.untraced_us.begin(), l.untraced_us.end());
    traced.insert(traced.end(), l.traced_us.begin(), l.traced_us.end());
    for (const std::int64_t t : l.done_ns) {
      const auto w = static_cast<std::size_t>((t - start_ns) / kRateWindowNs);
      if (w < window_points.size())
        window_points[w] += static_cast<double>(rows);
    }
  }
  std::vector<double> rates;
  for (std::size_t w = 0; w < window_points.size(); ++w) {
    const std::int64_t w_start =
        start_ns + static_cast<std::int64_t>(w) * kRateWindowNs;
    if (phase_at(cfg, start_ns, phases, w_start) == kUntraced)
      rates.push_back(window_points[w] * 1e9 /
                      static_cast<double>(kRateWindowNs));
  }
  const double points_per_s = median(rates);
  std::sort(untraced.begin(), untraced.end());
  const double p50 = quantile(untraced, 0.5);
  result.set("op_p50_ms", p50 * 1e-3);
  result.set("points_per_s", points_per_s);
  result.set("eval.p50_us", p50);
  const Tail t = tail(untraced);
  result.set("eval.tail_us", t.value);
  result.set("eval.tail_q", t.q);
  result.set("eval.samples", static_cast<double>(untraced.size()));
  if (cfg.trace && p50 > 0.0)
    result.set("trace.overhead_pct", 100.0 * (median(traced) - p50) / p50);
  const double request_cpu_us =
      points_per_s > 0.0 ? static_cast<double>(rows) * 1e6 / points_per_s : 0.0;
  result.set("serve.request_cpu_us", request_cpu_us);
  return request_cpu_us;
}

/// Share of the reader spans named `read` that overlap in time a span named
/// `write` of `writer`, whose spans (one thread's) do not overlap each other.
double overlap_share(std::span<const SpanLog> readers, const SpanLog& writer,
                     const char* read, const char* write) {
  std::vector<std::pair<std::int64_t, std::int64_t>> writes;
  for (const Span& w : writer.spans())
    if (std::strcmp(w.name, write) == 0)
      writes.emplace_back(w.start_ns, w.end_ns);
  std::sort(writes.begin(), writes.end());
  std::size_t reads = 0, overlapping = 0;
  for (const SpanLog& log : readers)
    for (const Span& r : log.spans()) {
      if (std::strcmp(r.name, read) != 0) continue;
      ++reads;
      // The last write that starts before this read ends.
      const auto it = std::lower_bound(
          writes.begin(), writes.end(),
          std::make_pair(r.end_ns, std::int64_t{0}));
      if (it != writes.begin() && std::prev(it)->second > r.start_ns)
        ++overlapping;
    }
  return reads > 0 ? static_cast<double>(overlapping) /
                         static_cast<double>(reads)
                   : 0.0;
}

void set_retry_metrics(const std::vector<serve::RetryStats>& retry,
                       RunResult& result) {
  double retries = 0.0, reconnects = 0.0;
  for (const serve::RetryStats& r : retry) {
    retries += static_cast<double>(r.retries);
    reconnects += static_cast<double>(r.reconnects);
  }
  result.set("serve.client.retries", retries);
  result.set("serve.client.reconnects", reconnects);
}

}  // namespace

RunResult run_serve_eval(const RunConfig& cfg) {
  constexpr std::size_t kRows = 4096;
  const std::string name = "eval";
  RunResult result;

  serve::ServerOptions options;
  options.socket_path = "serve_eval.sock";
  options.request_timeout_ms = kTimeoutMs;
  options.worker_threads = cfg.threads.server_workers;
  options.max_connections = 16;

  const serve::FittedModel model = make_model(cfg.seed, 0, 1);
  const serve::BatchEvaluator evaluator(options.evaluator_block_rows);
  std::vector<std::vector<linalg::Matrix>> batches;
  std::vector<std::vector<linalg::Vector>> expected;
  for (std::size_t c = 0; c < kReaders; ++c) {
    batches.push_back(make_batches(cfg.seed, c, kRows));
    expected.emplace_back();
    for (const linalg::Matrix& b : batches.back())
      expected.back().push_back(evaluator.evaluate(model.model, b));
  }

  // Set-up: daemon start-up, first connection and the initial publish,
  // repeated; the last instance serves the measurement.
  std::vector<double> setup_s;
  std::unique_ptr<Running<serve::Server>> server;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    server.reset();
    const std::int64_t t0 = now_ns();
    server = std::make_unique<Running<serve::Server>>(options);
    serve::Client client(options.socket_path, kTimeoutMs);
    const std::uint64_t version = client.publish(name, model);
    setup_s.push_back(seconds_since(t0));
    result.attempt();
    if (version != 1)
      result.fail("serve_eval: initial publish got version " +
                  std::to_string(version));
  }
  result.set("setup_s", median(setup_s));

  std::vector<Latencies> latencies(kReaders);
  std::vector<Tally> tallies(kReaders);
  std::vector<SpanLog> logs(kReaders);
  std::vector<serve::RetryStats> retry(kReaders);
  std::atomic<std::int64_t> start_ns{0};
  StartGate gate(static_cast<std::ptrdiff_t>(kReaders) + 1,
                 StampStart{&start_ns});
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kReaders; ++c) {
    threads.emplace_back([&, c] {
      Latencies& lat = latencies[c];
      Tally& tally = tallies[c];
      SpanLog& log = logs[c];
      std::optional<serve::Client> client;
      if (!prepare_then_wait(gate, tally, "serve_eval", [&] {
            client.emplace(options.socket_path, kTimeoutMs);
            const std::int64_t warm_end = now_ns() + kWarmupNs;
            for (std::size_t i = 0; now_ns() < warm_end; ++i)
              (void)client->evaluate(name,
                                     batches[c][i % kBatchesPerConnection]);
          }))
        return;
      const std::int64_t start = start_ns.load();
      const std::int64_t deadline =
          start + static_cast<std::int64_t>(cfg.seconds * 1e9);
      for (std::uint64_t i = 0; now_ns() < deadline; ++i) {
        if (tally.failed >= kMaxFailures) break;
        const std::size_t b = i % kBatchesPerConnection;
        const bool traced =
            phase_at(cfg, start, kEvalPhases, now_ns()) != kUntraced;
        log.set_enabled(traced);
        ++tally.attempted;
        try {
          const std::int64_t t0 = now_ns();
          serve::Client::Evaluation ev;
          {
            Scope s(log, "serve.client.rtt", (c + 1) << 40 | i);
            ev = client->evaluate(name, batches[c][b]);
          }
          const double us = static_cast<double>(now_ns() - t0) * 1e-3;
          if (ev.version != 1 || !same_bits(ev.values, expected[c][b])) {
            tally.fail("serve_eval: reply differs from the in-process "
                       "evaluator (version " + std::to_string(ev.version) +
                       ")");
            continue;
          }
          (traced ? lat.traced_us : lat.untraced_us).push_back(us);
          lat.done_ns.push_back(now_ns());
        } catch (const std::exception& e) {
          tally.fail(std::string("serve_eval: evaluate failed: ") + e.what());
        }
      }
      log.set_enabled(cfg.trace);
      retry[c] = client->retry_stats();
    });
  }
  gate.arrive_and_wait();
  for (auto& t : threads) t.join();

  for (const Tally& t : tallies) t.merge_into(result);
  const double request_cpu_us = set_eval_metrics(
      cfg, latencies, kRows, kEvalPhases, start_ns.load(),
      start_ns.load() + static_cast<std::int64_t>(cfg.seconds * 1e9), result);
  result.set("peak_rss_mb", peak_rss_mib());

  result.set("serve.requests_served",
             static_cast<double>((*server)->requests_served()));
  result.set("serve.evals_served",
             static_cast<double>((*server)->evals_served()));
  result.set("serve.connections_shed",
             static_cast<double>((*server)->connections_shed()));
  set_retry_metrics(retry, result);

  if (cfg.trace) {
    std::vector<const SpanLog*> all;
    for (const SpanLog& l : logs) all.push_back(&l);
    result.set("serve.client.rtt_us",
               median_us(summarize(all), "serve.client.rtt"));
    SpanLog replay_log(true);
    replay_evaluate(replay_log, (*server)->registry(), name, model.model,
                    batches[0][0], result, request_cpu_us);
    all.push_back(&replay_log);
    finish_trace(cfg, all, result);
  }
  return result;
}

RunResult run_serve_mixed(const RunConfig& cfg) {
  constexpr std::size_t kRows = 256;
  constexpr std::size_t kShards = 2;
  constexpr std::size_t kNames = 4;
  const std::string router_path = "serve_mixed.sock";
  RunResult result;

  std::vector<std::string> names;
  for (std::size_t n = 0; n < kNames; ++n)
    names.push_back("m" + std::to_string(n));

  const auto shard_options = [&](std::size_t setup, std::size_t s) {
    serve::ServerOptions o;
    o.socket_path = "shard" + std::to_string(s) + ".sock";
    o.request_timeout_ms = kTimeoutMs;
    o.worker_threads = cfg.threads.server_workers;
    o.max_connections = 16;
    o.store_dir = "store_" + std::to_string(setup) + "_" + std::to_string(s);
    o.store_sync = store::SyncPolicy::kAlways;
    return o;
  };
  router::RouterOptions ropt;
  ropt.socket_path = router_path;
  ropt.replicas = 2;
  ropt.request_timeout_ms = kTimeoutMs;
  ropt.backend_timeout_ms = kTimeoutMs;
  for (std::size_t s = 0; s < kShards; ++s)
    ropt.backends.push_back("unix:shard" + std::to_string(s) + ".sock");

  // Set-up: shard start-up with store recovery, router start-up, and the
  // initial publish of every name through the router, repeated on fresh
  // store directories; the last instance serves the measurement.
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<Running<serve::Server>>> shards;
  std::unique_ptr<Running<router::Router>> router;
  std::vector<std::string> store_dirs;
  const auto teardown = [&] {
    // Each daemon notices a stop request on its next loop tick; ask them
    // all at once so their ticks overlap.
    if (router) (*router)->request_stop();
    for (auto& shard : shards) (*shard)->request_stop();
    router.reset();
    shards.clear();
    for (const std::string& d : store_dirs) std::filesystem::remove_all(d);
    store_dirs.clear();
  };
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    teardown();
    const std::int64_t t0 = now_ns();
    for (std::size_t s = 0; s < kShards; ++s) {
      serve::ServerOptions o = shard_options(i, s);
      store_dirs.push_back(o.store_dir);
      shards.push_back(std::make_unique<Running<serve::Server>>(std::move(o)));
    }
    router = std::make_unique<Running<router::Router>>(ropt);
    serve::Client client(router_path, kTimeoutMs);
    for (std::size_t n = 0; n < kNames; ++n) {
      const std::uint64_t version =
          client.publish(names[n], make_model(cfg.seed, n, 1));
      result.attempt();
      if (version != 1)
        result.fail("serve_mixed: initial publish of " + names[n] +
                    " got version " + std::to_string(version));
    }
    setup_s.push_back(seconds_since(t0));
  }
  result.set("setup_s", median(setup_s));

  std::vector<std::vector<linalg::Matrix>> batches;
  for (std::size_t c = 0; c < kReaders; ++c)
    batches.push_back(make_batches(cfg.seed, c, kRows));

  std::vector<Latencies> latencies(kReaders);
  std::vector<Tally> tallies(kReaders + 1);
  std::vector<SpanLog> logs(kReaders + 1);
  std::vector<serve::RetryStats> retry(kReaders + 1);
  std::vector<double> publish_us, late_ms;
  std::atomic<std::int64_t> start_ns{0};
  StartGate gate(static_cast<std::ptrdiff_t>(kReaders) + 2,
                 StampStart{&start_ns});
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kReaders; ++c) {
    threads.emplace_back([&, c] {
      Latencies& lat = latencies[c];
      Tally& tally = tallies[c];
      SpanLog& log = logs[c];
      std::optional<serve::Client> client;
      // Direct connections to the shards, for the router-hop comparison.
      std::vector<std::unique_ptr<serve::Client>> direct;
      if (!prepare_then_wait(gate, tally, "serve_mixed", [&] {
            client.emplace(router_path, kTimeoutMs);
            if (cfg.trace)
              for (std::size_t s = 0; s < kShards; ++s)
                direct.push_back(std::make_unique<serve::Client>(
                    ropt.backends[s], kTimeoutMs));
            const std::int64_t warm_end = now_ns() + kWarmupNs;
            for (std::size_t i = 0; now_ns() < warm_end; ++i)
              (void)client->evaluate(names[i % kNames], batches[c][0]);
          }))
        return;
      const serve::BatchEvaluator evaluator(
          serve::ServerOptions{}.evaluator_block_rows);
      std::vector<std::uint64_t> last_version(kNames, 0);
      std::vector<std::uint64_t> model_version(kNames, 0);
      std::vector<basis::PerformanceModel> models(kNames);
      linalg::Vector want;
      const std::int64_t start = start_ns.load();
      const std::int64_t deadline =
          start + static_cast<std::int64_t>(cfg.seconds * 1e9);
      for (std::uint64_t i = 0; now_ns() < deadline; ++i) {
        if (tally.failed >= kMaxFailures) break;
        const std::size_t n = (i + c) % kNames;
        const linalg::Matrix& points = batches[c][i % kBatchesPerConnection];
        const Phase phase = phase_at(cfg, start, kMixedPhases, now_ns());
        const bool traced = phase != kUntraced;
        const bool bypass = phase == kBypass && i % 2 == 1;
        log.set_enabled(traced);
        ++tally.attempted;
        try {
          const std::int64_t t0 = now_ns();
          serve::Client::Evaluation ev;
          if (bypass) {
            Scope s(log, "serve.client.rtt_direct", (c + 1) << 40 | i);
            ev = direct[(*router)->ring().primary(names[n])]->evaluate(
                names[n], points);
          } else {
            Scope s(log,
                    phase == kBypass ? "serve.client.rtt_routed"
                                     : "serve.client.rtt",
                    (c + 1) << 40 | i);
            ev = client->evaluate(names[n], points);
          }
          const double us = static_cast<double>(now_ns() - t0) * 1e-3;
          if (ev.version < last_version[n]) {
            tally.fail("serve_mixed: " + names[n] + " went from version " +
                       std::to_string(last_version[n]) + " back to " +
                       std::to_string(ev.version));
            continue;
          }
          last_version[n] = ev.version;
          if (model_version[n] != ev.version) {
            models[n] = make_model(cfg.seed, n, ev.version).model;
            model_version[n] = ev.version;
          }
          evaluator.evaluate_into(models[n], points, want);
          if (!same_bits(ev.values, want)) {
            tally.fail("serve_mixed: reply for " + names[n] + " v" +
                       std::to_string(ev.version) +
                       " differs from the in-process evaluator");
            continue;
          }
          if (phase == kUntraced)
            lat.untraced_us.push_back(us);
          else if (phase == kTraced)
            lat.traced_us.push_back(us);
          lat.done_ns.push_back(now_ns());
        } catch (const std::exception& e) {
          tally.fail(std::string("serve_mixed: evaluate failed: ") + e.what());
        }
      }
      log.set_enabled(cfg.trace);
      retry[c] = client->retry_stats();
    });
  }
  // The open-loop publisher: publish j is due at start + j / kPublishHz and
  // is timed from that instant to its quorum ack.
  threads.emplace_back([&] {
    Tally& tally = tallies[kReaders];
    SpanLog& log = logs[kReaders];
    std::optional<serve::Client> client;
    if (!prepare_then_wait(gate, tally, "serve_mixed publisher",
                           [&] { client.emplace(router_path, kTimeoutMs); }))
      return;
    const std::int64_t start = start_ns.load();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(cfg.seconds * 1e9);
    const auto period_ns = static_cast<std::int64_t>(1e9 / kPublishHz);
    for (std::uint64_t j = 0;; ++j) {
      if (tally.failed >= kMaxFailures) break;
      const std::int64_t due = start + static_cast<std::int64_t>(j) * period_ns;
      if (due >= deadline) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now_ns()));
      late_ms.push_back(static_cast<double>(now_ns() - due) * 1e-6);
      const std::size_t n = j % kNames;
      const std::uint64_t want = 2 + j / kNames;
      log.set_enabled(phase_at(cfg, start, kMixedPhases, now_ns()) !=
                      kUntraced);
      ++tally.attempted;
      try {
        std::uint64_t version = 0;
        {
          Scope s(log, "serve.client.publish", (kReaders + 1) << 40 | j);
          version = client->publish(names[n], make_model(cfg.seed, n, want));
        }
        publish_us.push_back(static_cast<double>(now_ns() - due) * 1e-3);
        if (version != want)
          tally.fail("serve_mixed: publish of " + names[n] + " got version " +
                     std::to_string(version) + ", expected " +
                     std::to_string(want));
      } catch (const std::exception& e) {
        tally.fail(std::string("serve_mixed: publish failed: ") + e.what());
      }
    }
    log.set_enabled(cfg.trace);
    retry[kReaders] = client->retry_stats();
  });
  gate.arrive_and_wait();
  for (auto& t : threads) t.join();

  for (const Tally& t : tallies) t.merge_into(result);
  const double request_cpu_us = set_eval_metrics(
      cfg, latencies, kRows, kMixedPhases, start_ns.load(),
      start_ns.load() + static_cast<std::int64_t>(cfg.seconds * 1e9), result);
  result.set("peak_rss_mb", peak_rss_mib());

  std::sort(publish_us.begin(), publish_us.end());
  result.set("publish.p50_us", quantile(publish_us, 0.5));
  const Tail pt = tail(publish_us);
  result.set("publish.tail_us", pt.value);
  result.set("publish.tail_q", pt.q);
  result.set("publish.samples", static_cast<double>(publish_us.size()));
  double evaluates = 0.0;
  for (const Latencies& l : latencies)
    evaluates += static_cast<double>(l.done_ns.size());
  const auto publishes = static_cast<double>(publish_us.size());
  if (publishes + evaluates > 0.0)
    result.set("publish.share", publishes / (publishes + evaluates));
  std::sort(late_ms.begin(), late_ms.end());
  result.set("publish.late_ms", tail(late_ms).value);

  double served = 0.0, evals = 0.0, shed = 0.0;
  for (auto& s : shards) {
    served += static_cast<double>((*s)->requests_served());
    evals += static_cast<double>((*s)->evals_served());
    shed += static_cast<double>((*s)->connections_shed());
  }
  result.set("serve.requests_served", served);
  result.set("serve.evals_served", evals);
  result.set("serve.connections_shed", shed);
  set_retry_metrics(retry, result);
  result.set("router.requests_routed",
             static_cast<double>((*router)->requests_routed()));
  result.set("router.failovers", static_cast<double>((*router)->failovers()));
  result.set("router.upstream_unavailable",
             static_cast<double>((*router)->upstream_unavailable()));
  result.set("router.connections_shed",
             static_cast<double>((*router)->connections_shed()));
  double appends = 0.0, syncs = 0.0, wal_bytes = 0.0, snapshots = 0.0;
  for (const std::string& backend : ropt.backends) {
    const serve::StoreInfoResponse info =
        serve::Client(backend, kTimeoutMs).store_info();
    appends += static_cast<double>(info.appends);
    syncs += static_cast<double>(info.syncs);
    wal_bytes += static_cast<double>(info.wal_bytes);
    snapshots += static_cast<double>(info.snapshots_written);
  }
  result.set("store.appends", appends);
  result.set("store.syncs", syncs);
  result.set("store.syncs_per_append", appends > 0.0 ? syncs / appends : 0.0);
  result.set("store.wal_bytes", wal_bytes);
  result.set("store.snapshots_written", snapshots);

  if (cfg.trace) {
    std::vector<const SpanLog*> all;
    for (const SpanLog& l : logs) all.push_back(&l);
    const auto layers = summarize(all);
    result.set("serve.client.rtt_us", median_us(layers, "serve.client.rtt"));
    result.set("publish.overlap_share",
               overlap_share(std::span(logs).first(kReaders),
                             logs[kReaders], "serve.client.rtt",
                             "serve.client.publish"));
    // The router hop: in the bypass windows, every other request goes
    // straight to the name's primary shard.
    result.set("router.hop_us",
               median_us(layers, "serve.client.rtt_routed") -
                   median_us(layers, "serve.client.rtt_direct"));

    // Replays: the evaluate path on a shard's registry, then the publish
    // path (codec, registry publish, one WAL append with fsync).
    SpanLog replay_log(true);
    const serve::FittedModel model = make_model(cfg.seed, 0, 1);
    const std::size_t primary = (*router)->ring().primary(names[0]);
    const serve::ModelRegistry& shard_registry =
        (**shards[primary]).registry();
    replay_evaluate(replay_log, shard_registry, names[0],
                    shard_registry.latest(names[0])->model.model,
                    batches[0][0], result, request_cpu_us);
    const std::vector<std::uint8_t> blob = serve::serialize_model(model);
    replay(replay_log, "serve.codec.serialize",
           [&] { (void)serve::serialize_model(model); });
    replay(replay_log, "serve.codec.deserialize",
           [&] { (void)serve::deserialize_model(blob); });
    serve::ModelRegistry registry;
    replay(replay_log, "serve.registry.publish",
           [&] { (void)registry.publish(names[0], model); });
    {
      const std::string dir = "store_replay";
      std::filesystem::remove_all(dir);
      store::ModelStore store(dir, store::StoreOptions{});
      (void)store.recover();
      std::uint64_t seq = 0;
      replay(
          replay_log, "store.append_publish",
          [&] {
            ++seq;
            store.append_publish(seq, names[0], seq, blob.data(), blob.size());
          },
          kStoreReplays);
      store_dirs.push_back(dir);
    }
    const auto replayed = summarize({&replay_log});
    for (const char* stage :
         {"serve.codec.serialize", "serve.codec.deserialize",
          "serve.registry.publish", "store.append_publish"})
      result.set(std::string(stage) + "_us", median_us(replayed, stage));
    all.push_back(&replay_log);
    finish_trace(cfg, all, result);
  }
  teardown();
  return result;
}

}  // namespace perfbench
