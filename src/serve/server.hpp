// The bmf_served daemon core: registry + evaluator behind the protocol,
// served through the shared client front end (serve/frontend.hpp, DESIGN.md
// §8), which owns the listeners, admission, pipelining, ordered replies,
// deadlines and the graceful drain.
//
// The worker pool is the compute stage behind the front end: a complete
// request frame is handed off (decode -> evaluate -> encode run on the
// worker), its completion returns through a wakeup eventfd, and the loop
// flushes the reply. Requests on one connection execute one at a time, in
// order — pipelining amortizes round-trips and syscalls, it never
// reorders a connection's semantics. When exactly one connection has work
// and no worker job is outstanding, the request runs inline on the loop
// thread instead, decoded straight out of the read buffer: the
// single-stream fast path, which keeps a lone ping-pong client free of
// handoff latency. A frame that cannot be decoded is a torn stream: its
// error reply is delivered in order, then the connection closes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/batch_evaluator.hpp"
#include "serve/error.hpp"
#include "serve/frontend.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/wire.hpp"
#include "store/store.hpp"

namespace bmf::serve {

struct ServerOptions {
  /// UNIX-domain socket path to listen on; empty = no UNIX listener.
  std::string socket_path;
  /// TCP listen spec "host:port" (e.g. "127.0.0.1:8191"); empty = no TCP
  /// listener. Port 0 binds an ephemeral port — tcp_endpoint() reports
  /// the kernel's choice. At least one of socket_path / tcp_address must
  /// be set.
  std::string tcp_address;
  /// Registry LRU bound (total retained model versions).
  std::size_t registry_capacity = 64;
  /// Per-connection deadline: idle time before a connection is timed out,
  /// and the bound on finishing a stalled read or write.
  int request_timeout_ms = 5000;
  /// Upper bound on a request/response frame payload.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Rows per design-matrix tile in the evaluator.
  std::size_t evaluator_block_rows = 2048;
  /// Compute-stage worker threads behind the event loop.
  std::size_t worker_threads = 4;
  /// Accepted connections allowed to wait (parked, unread) for an active
  /// slot before new ones are shed with kOverloaded. 0 = strict admission.
  std::size_t max_pending = 8;
  /// Connections registered with the event loop at once. 0 = use
  /// worker_threads, which reproduces the historical thread-per-connection
  /// admission bound; an event-loop deployment raises it well past the
  /// worker count.
  std::size_t max_connections = 0;
  /// Requests one connection may have queued or executing before the loop
  /// stops reading from it (pipelining backpressure; the client blocks in
  /// its own send once the kernel buffers fill).
  std::size_t max_pipeline = 128;
  /// Durable store directory (WAL + compacted snapshots, src/store).
  /// Empty = in-memory only: a restart forgets every published model.
  /// When set, the constructor hydrates the registry from the store and
  /// every publish/evict appends to the WAL before it is acked.
  std::string store_dir;
  /// WAL fsync policy when store_dir is set (--store-sync).
  store::SyncPolicy store_sync = store::SyncPolicy::kAlways;
  /// WAL size that triggers a compacted snapshot.
  std::size_t store_snapshot_bytes = std::size_t{4} << 20;
};

class Server {
 public:
  /// Binds and listens (on every configured transport) immediately, so a
  /// caller that sees the constructor return can connect. Throws
  /// ServeError if any listener cannot be set up.
  explicit Server(ServerOptions options);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Event loop; spawns the worker pool, returns after a graceful drain
  /// (kShutdown request or request_stop()). Call from one thread only.
  void run();

  /// Ask run() to drain and return (noticed within ~100 ms: the loop's
  /// epoll timeout is capped at that tick). Async-signal-safe: only
  /// performs a relaxed atomic store.
  void request_stop() noexcept { stop_.store(true, std::memory_order_relaxed); }

  bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

  const ModelRegistry& registry() const { return registry_; }
  ModelRegistry& registry() { return registry_; }
  const ServerOptions& options() const { return options_; }

  /// The TCP endpoint actually bound (port resolved when tcp_address
  /// asked for port 0). endpoint.tcp is false when TCP is not configured.
  Endpoint tcp_endpoint() const { return frontend_->tcp_endpoint(); }

  /// Requests served since construction (for logs/tests; any thread).
  std::uint64_t requests_served() const { return requests_served_.load(); }

  /// kEvaluate requests answered successfully since construction.
  std::uint64_t evals_served() const { return evals_served_.load(); }

  /// Connections rejected at admission (kOverloaded) or during the final
  /// drain (kShuttingDown) since construction.
  std::uint64_t connections_shed() const {
    return frontend_->connections_shed();
  }

  /// Durability health: the kStoreInfo reply body (all-zero, enabled = 0,
  /// without --store). Thread-safe.
  StoreInfoResponse store_info() const;

  /// Models hydrated from the store at construction (0 without --store).
  std::size_t models_recovered() const { return models_recovered_; }

 private:
  friend class WorkerPool;  // run()'s compute stage, defined in server.cpp

  /// Outcome of executing one decoded request frame (compute stage; runs
  /// on a worker thread or inline on the loop).
  struct ExecuteResult {
    std::vector<std::uint8_t> reply;
    bool close_after = false;  // torn stream or shutdown: reply, then close
    bool shutdown = false;     // kShutdown acknowledged: drain the server
  };

  /// Decode, dispatch, and encode the reply for one request frame. Takes
  /// a raw view so the loop's inline fast path executes straight out of
  /// the connection's read buffer without copying the frame. Thread-safe:
  /// registry and evaluator tolerate concurrent workers.
  ExecuteResult execute_request(const std::uint8_t* frame, std::size_t size);

  /// Compact the store once its WAL outgrows store_snapshot_bytes.
  /// Failure is logged, never propagated: the publish that tripped the
  /// threshold is already durable in the (still intact) WAL.
  void maybe_compact() noexcept;

  ServerOptions options_;
  ModelRegistry registry_;
  BatchEvaluator evaluator_;
  /// Durable WAL + snapshots; null without store_dir. The store's own
  /// mutex serializes appends from concurrent workers.
  std::unique_ptr<store::ModelStore> store_;
  std::size_t models_recovered_ = 0;
  /// Listeners and client connections; bound in the constructor once the
  /// store has been recovered (unlinks the UNIX path on destruction).
  std::unique_ptr<Frontend> frontend_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> evals_served_{0};
  /// Requests handed to the worker pool whose completions the loop has not
  /// yet applied (inline fast-path executions never touch it). Mirrors the
  /// pool's jobs_outstanding_ so kStats — which may run on a worker — can
  /// report queue depth without reaching into loop-thread state.
  std::atomic<std::uint64_t> queue_depth_{0};
  /// kStats uptime reference: when the listeners were bound.
  std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
};

}  // namespace bmf::serve
