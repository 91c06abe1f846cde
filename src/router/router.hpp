// The bmf_router daemon core: a sharding proxy in front of a static set
// of bmf_served backends (DESIGN.md §12).
//
// Clients speak the ordinary serve protocol to the router — same framing,
// same verbs, same structured errors — and never learn the cluster
// topology. The router classifies each request frame with peek_route()
// (verb + model name; the body stays undecoded) and:
//
//   evaluate        -> proxied verbatim to the primary owner of the model
//                      name on a consistent-hash ring; on a backend
//                      transport failure the frame replays onto the next
//                      up replica (evaluate is idempotent), and only when
//                      every owner is down does the client see a
//                      structured kUpstreamUnavailable.
//   solve           -> not model-addressed: round-robin over up backends,
//                      with the same replay-on-failure semantics.
//   publish, evict  -> fanned out to all R owners of the name; the reply
//                      is success only when a majority quorum
//                      (floor(R/2)+1) acknowledged. A semantic error
//                      verdict from an owner is forwarded as-is.
//   list, stats     -> fanned to every up backend and merged (union /
//                      sums).
//   ping, shutdown  -> answered by the router itself; shutdown drains the
//                      router, never the backends.
//
// The client side — listeners, admission, pipelining, ordered replies,
// deadlines, drain — is the shared front end (serve/frontend.hpp, DESIGN.md
// §8), the same one bmf_served uses; this file adds the backend side.
// One thread owns everything — the router moves bytes, it never computes,
// so there is no worker pool and (per the src/sync discipline) no locks:
// the only cross-thread state is the stop flag and the observability
// counters, both atomics. Each backend has one pipelined connection with
// a FIFO pending queue (backends reply strictly in request order, so
// matching is positional), kStats probes as liveness checks, and
// decorrelated-jitter reconnects after a failure. A backend dying
// mid-flight fails over or answers its pending requests with
// kUpstreamUnavailable — it never tears unrelated client connections.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "router/hash_ring.hpp"
#include "serve/error.hpp"
#include "serve/frontend.hpp"
#include "serve/wire.hpp"

namespace bmf::router {

struct RouterOptions {
  /// Client-facing listeners, same semantics as ServerOptions: UNIX path
  /// and/or "host:port". At least one must be set.
  std::string socket_path;
  std::string tcp_address;
  /// Backend endpoint specs (parse_endpoint forms), one per shard, in
  /// --backend order. At least one required; duplicates rejected.
  std::vector<std::string> backends;
  /// Owners per model name for publish/evict fan-out and evaluate
  /// failover; clamped to the backend count. Quorum is floor(R/2)+1.
  std::size_t replicas = 2;
  /// Client-side idle deadline (mirrors ServerOptions::request_timeout_ms).
  int request_timeout_ms = 5000;
  /// Head-of-line reply deadline per backend: the oldest outstanding
  /// request unanswered this long declares the backend dead.
  int backend_timeout_ms = 5000;
  /// Liveness probe (kStats) period per up backend.
  int probe_interval_ms = 500;
  /// Decorrelated-jitter reconnect schedule for down backends: each delay
  /// draws uniformly from [base, 3 * previous], capped.
  int reconnect_base_ms = 50;
  int reconnect_cap_ms = 2000;
  /// Per-attempt connect budget. Connects run on the loop thread (a
  /// localhost connect to a listening daemon is immediate), so this also
  /// bounds the loop stall when a backend is down at attempt time.
  int connect_timeout_ms = 50;
  /// Seed for the reconnect jitter RNG (deterministic tests).
  std::uint64_t jitter_seed = 1;
  std::size_t max_frame_bytes = serve::kDefaultMaxFrameBytes;
  /// Client admission, mirroring ServerOptions: registered connections,
  /// parked overflow, and per-connection in-flight pipelining bound.
  std::size_t max_connections = 64;
  std::size_t max_pending = 8;
  std::size_t max_pipeline = 128;
};

class Router {
 public:
  /// Validates every backend spec, builds the hash ring, and binds the
  /// client listeners immediately. Throws ServeError / invalid_argument
  /// on bad configuration.
  explicit Router(RouterOptions options);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Event loop: serve until a client kShutdown or request_stop(), then
  /// drain (every request already received is answered). One thread only.
  void run();

  /// Async-signal-safe stop request (noticed within one ~100 ms tick).
  void request_stop() noexcept { stop_.store(true, std::memory_order_relaxed); }

  bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

  const RouterOptions& options() const { return options_; }
  const HashRing& ring() const { return ring_; }

  /// The TCP endpoint actually bound (port 0 resolved); .tcp is false
  /// when no TCP listener is configured.
  serve::Endpoint tcp_endpoint() const { return frontend_->tcp_endpoint(); }

  // Observability counters (any thread).
  std::uint64_t requests_routed() const { return requests_routed_.load(); }
  std::uint64_t failovers() const { return failovers_.load(); }
  std::uint64_t upstream_unavailable() const {
    return upstream_unavailable_.load();
  }
  std::uint64_t probes_sent() const { return probes_sent_.load(); }
  std::uint64_t connections_shed() const {
    return frontend_->connections_shed();
  }

 private:
  friend class RouterLoop;  // run()'s loop state, defined in router.cpp

  RouterOptions options_;
  HashRing ring_;
  std::vector<serve::Endpoint> backend_endpoints_;
  /// Client listeners and connections; unlinks the UNIX path when dropped.
  std::unique_ptr<serve::Frontend> frontend_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> requests_routed_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> upstream_unavailable_{0};
  std::atomic<std::uint64_t> probes_sent_{0};
  std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
};

}  // namespace bmf::router
