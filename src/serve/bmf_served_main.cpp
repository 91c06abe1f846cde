// bmf_served — the model-serving daemon.
//
//   bmf_served [--socket /tmp/bmf.sock] [--tcp HOST:PORT]
//              [--capacity 64] [--timeout-ms 5000] [--block-rows 2048]
//              [--workers 4] [--max-pending 8] [--max-connections N]
//              [--max-pipeline 128] [--tcp-announce <file>] [--quiet]
//              [--store DIR] [--store-sync always|interval|never]
//              [--store-snapshot-bytes N]
//
// Serves the length-prefixed binary protocol (src/serve/protocol.hpp) —
// publish versioned models, evaluate batches, list the registry, solve
// MAP systems, shut down — on a UNIX-domain socket (--socket), a TCP
// listener (--tcp; port 0 binds an ephemeral port), or both at once. An
// epoll event loop owns every connection and hands decoded requests to
// --workers compute threads; clients may pipeline up to --max-pipeline
// requests per connection. Up to --max-connections are served at once
// (default: the worker count), --max-pending more wait parked, and past
// that new connections are shed with kOverloaded. --store DIR makes the
// registry crash-durable (src/store): publishes and evicts append to a
// WAL before they are acked (--store-sync picks the fsync policy), the
// WAL compacts into a snapshot past --store-snapshot-bytes, and a
// restarted daemon hydrates the registry from DIR — versions continue
// monotonically across the restart. SIGINT/SIGTERM drain
// gracefully, as does a client "shutdown" request. --tcp-announce writes
// the resolved "tcp:HOST:PORT" endpoint to a file once listening, so
// scripts that bound port 0 can find the daemon. Setting BMF_FAULT_PLAN
// arms the fault-injection layer (testing only). Exit status 0 on
// graceful shutdown, 1 on a startup or fatal runtime error.
#include <csignal>
#include <cstdio>
#include <exception>

#include "fault/fault.hpp"
#include "io/args.hpp"
#include "serve/server.hpp"

namespace {

bmf::serve::Server* g_server = nullptr;

extern "C" void handle_signal(int) {
  // request_stop only stores to an atomic<bool> — async-signal-safe.
  if (g_server != nullptr) g_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  const bmf::io::Args args(argc, argv);
  const std::string socket_path = args.get("socket");
  const std::string tcp_address = args.get("tcp");
  if (socket_path.empty() && tcp_address.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--socket <path>] [--tcp <host:port>]"
                 " [--capacity N] [--timeout-ms N] [--block-rows N]"
                 " [--workers N] [--max-pending N] [--max-connections N]"
                 " [--max-pipeline N] [--tcp-announce <file>] [--quiet]"
                 " [--store DIR] [--store-sync always|interval|never]"
                 " [--store-snapshot-bytes N]\n"
                 "at least one of --socket / --tcp is required\n",
                 args.program().c_str());
    return 1;
  }

  bmf::serve::ServerOptions options;
  options.socket_path = socket_path;
  options.tcp_address = tcp_address;
  options.registry_capacity =
      static_cast<std::size_t>(args.get_int("capacity", 64));
  options.request_timeout_ms =
      static_cast<int>(args.get_int("timeout-ms", 5000));
  options.evaluator_block_rows =
      static_cast<std::size_t>(args.get_int("block-rows", 2048));
  options.worker_threads =
      static_cast<std::size_t>(args.get_int("workers", 4));
  options.max_pending =
      static_cast<std::size_t>(args.get_int("max-pending", 8));
  options.max_connections =
      static_cast<std::size_t>(args.get_int("max-connections", 0));
  options.max_pipeline =
      static_cast<std::size_t>(args.get_int("max-pipeline", 128));
  options.store_dir = args.get("store");
  const std::string announce_path = args.get("tcp-announce");
  const bool quiet = args.flag("quiet");

  try {
    const std::string sync_policy = args.get("store-sync");
    if (!sync_policy.empty())
      options.store_sync = bmf::store::parse_sync_policy(sync_policy);
    const long long snapshot_bytes = args.get_int("store-snapshot-bytes", 0);
    if (snapshot_bytes > 0)
      options.store_snapshot_bytes =
          static_cast<std::size_t>(snapshot_bytes);
    if (bmf::fault::arm_from_env() && !quiet)
      std::fprintf(stderr, "bmf_served: fault injection armed from "
                           "BMF_FAULT_PLAN\n");
    bmf::serve::Server server(options);
    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    if (!options.store_dir.empty() && !quiet) {
      const bmf::serve::StoreInfoResponse info = server.store_info();
      std::fprintf(
          stderr,
          "bmf_served: store %s (sync=%s): %llu model(s) hydrated, "
          "%llu record(s) replayed, %llu truncation event(s)\n",
          options.store_dir.c_str(),
          bmf::store::to_string(options.store_sync),
          static_cast<unsigned long long>(server.models_recovered()),
          static_cast<unsigned long long>(info.records_replayed),
          static_cast<unsigned long long>(info.truncation_events));
    }
    bmf::serve::announce_listeners("bmf_served", socket_path, server.tcp_endpoint(),
                                   announce_path, quiet);
    server.run();
    g_server = nullptr;
    if (!quiet)
      std::fprintf(stderr, "bmf_served: shutdown after %llu request(s)\n",
                   static_cast<unsigned long long>(server.requests_served()));
  } catch (const std::exception& e) {
    g_server = nullptr;
    std::fprintf(stderr, "bmf_served: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
