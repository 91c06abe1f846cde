// The client-connection front end shared by bmf_served and bmf_router
// (DESIGN.md §8): listeners, admission, frame reassembly, ordered replies,
// pipelining backpressure, deadlines, torn streams and the graceful drain.
// The owner (Server: worker pool; Router: backends) plugs in through
// Handler: each loop round it takes frames from the connections ready()
// lists, one reply slot per frame, and answers the slots with complete()
// in any order, in this round or a later one.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "serve/connection.hpp"
#include "serve/error.hpp"
#include "serve/wire.hpp"

namespace bmf::serve {

/// Client-plane settings; each daemon resolves its own max_connections
/// default before handing it to frontend_options().
struct FrontendOptions {
  std::string socket_path;  // empty = no UNIX listener
  std::string tcp_address;  // "host:port"; empty = no TCP listener
  std::size_t max_connections = 1;
  std::size_t max_pending = 0;
  std::size_t max_pipeline = 1;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  int request_timeout_ms = 5000;
};

/// ServerOptions and RouterOptions name their client-plane fields alike.
template <typename DaemonOptions>
FrontendOptions frontend_options(const DaemonOptions& o,
                                 std::size_t max_connections) {
  return {o.socket_path,  o.tcp_address,  max_connections,
          o.max_pending,  o.max_pipeline, o.max_frame_bytes,
          o.request_timeout_ms};
}

/// Non-blocking socket I/O shared by client connections and the router's
/// backend links. read_available() reads until the socket would block,
/// straight into `frames` (no bounce copy), and throws ServeError(kTooLarge)
/// on an oversized length prefix; send_available() sends wire[off..] until
/// the socket would block, clears the buffer once all of it is sent, and
/// returns false when the peer is gone.
enum class ReadEnd { kWouldBlock, kEof, kFailed };
ReadEnd read_available(int fd, FrameBuffer& frames);
bool send_available(int fd, std::vector<std::uint8_t>& wire,
                    std::size_t& off);

/// Start-up log of a daemon's listeners ("<program>: listening on ...",
/// unless quiet). A non-empty announce_path receives the resolved TCP
/// endpoint, so scripts that bound port 0 can find the daemon; throws
/// std::runtime_error when that file cannot be written.
void announce_listeners(const char* program, const std::string& socket_path,
                        const Endpoint& tcp, const std::string& announce_path,
                        bool quiet);

class Frontend {
 public:
  /// epoll tags below this are the owner's (its fds registered through
  /// poller()); the listeners and connections use tags above.
  static constexpr std::uint64_t kOwnerTagLimit = std::uint64_t{1} << 20;

  /// One client connection. Owners take frames from `frames`, reserve a
  /// slot in `replies` per frame taken, and may set `executing`.
  struct Conn {
    Conn(UniqueFd f, std::size_t max_frame)
        : fd(std::move(f)), frames(max_frame) {}

    UniqueFd fd;
    FrameBuffer frames;
    OrderedReplies replies;
    /// A parse-level tear (oversized prefix, EOF mid-frame) holds its
    /// encoded error reply here until every frame received *before* the
    /// tear has been taken — the error then flushes in order and the
    /// connection closes.
    std::optional<std::vector<std::uint8_t>> tear_error;
    /// The owner holds one request and takes no other until it completes
    /// (the server's one-at-a-time rule): not ready(), tear error waits.
    bool executing = false;
    bool read_open = true;  // false after EOF or a torn stream
    bool close_after_flush = false;
    bool dirty = false;  // completed since its last settle
    std::uint32_t events = EPOLLIN;  // interest currently registered
    std::vector<std::uint8_t> wire;  // outgoing bytes (prefixed replies)
    std::size_t wire_off = 0;

    bool write_pending() const { return wire_off < wire.size(); }
    bool work_left() const {
      return replies.outstanding() > 0 || frames.complete_frames() > 0 ||
             tear_error.has_value();
    }
  };

  /// The owner's side of the loop; every call comes from the loop thread.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// Readiness on an fd the owner registered under `tag`.
    virtual void on_event(std::uint64_t tag, std::uint32_t events) = 0;
    /// Once per round, after its events and before the deadline scan.
    virtual void on_tick() = 0;
    /// While draining, asked each round (the owner may finish work here);
    /// the loop exits once it is idle and no connection is left.
    virtual bool idle() = 0;
  };

  /// Binds and listens on every configured transport, so a caller that
  /// sees the constructor return can connect. Throws ServeError if a
  /// listener cannot be set up. The destructor unlinks the UNIX path.
  explicit Frontend(FrontendOptions options);
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Serve until `stop` is set, then drain and return. One thread only.
  void run(Handler& handler, const std::atomic<bool>& stop);

  /// The TCP endpoint actually bound (port 0 resolved); .tcp is false
  /// when no TCP listener is configured.
  Endpoint tcp_endpoint() const { return tcp_endpoint_; }

  /// Connections shed at admission (kOverloaded) or on drain
  /// (kShuttingDown). Any thread.
  std::uint64_t connections_shed() const {
    return connections_shed_.load(std::memory_order_relaxed);
  }

  // ---- owner interface (loop thread) ----------------------------------

  Poller& poller() { return poller_; }

  /// The live connection under `tag`, or null once it closed.
  Conn* find(std::uint64_t tag);

  /// The connections holding a complete frame and not executing, in
  /// accept order (valid until the next call).
  const std::vector<std::uint64_t>& ready();

  /// Answer reply slot `seq`, pushing the deadline out. close_after drops
  /// everything sent after this request and closes once flushed. Flushed by
  /// the owner's next settle() or else at the end of the round, so an owner
  /// never closes a connection under a reference it holds. Returns false,
  /// dropping the reply, when the connection is gone.
  bool complete(std::uint64_t tag, std::uint64_t seq,
                std::vector<std::uint8_t> reply, bool close_after);

  /// Flush what is ready, then close or re-arm the connection.
  void settle(std::uint64_t tag);

  /// Re-register epoll interest after the owner set `executing`.
  void update_interest(std::uint64_t tag);

 private:
  using ConnMap = std::map<std::uint64_t, Conn>;

  void listen_on(UniqueFd fd, bool tcp);
  void accept_burst(int listen_fd, bool tcp);
  void admit(UniqueFd fd, bool tcp);
  void make_active(UniqueFd fd, bool tcp);
  void promote_parked();
  void shed(UniqueFd fd, Status status) noexcept;
  bool drain_reads(Conn& c);
  bool try_flush(Conn& c);
  void settle(ConnMap::iterator it);
  void update_interest(std::uint64_t tag, Conn& c);
  ConnMap::iterator close_conn(ConnMap::iterator it);
  void touch(std::uint64_t tag);
  void settle_dirty();
  void check_deadlines();
  void start_drain();

  FrontendOptions opt_;
  Poller poller_;
  DeadlineWheel wheel_;
  std::vector<std::pair<UniqueFd, bool>> listeners_;  // (fd, is_tcp)
  Endpoint tcp_endpoint_;
  // Ordered maps/deques throughout (repo lint: no unordered containers in
  // numeric sources); the table is small and iteration order is stable.
  ConnMap conns_;
  std::deque<std::pair<UniqueFd, bool>> parked_;  // (fd, is_tcp)
  std::vector<std::uint64_t> ready_;
  std::vector<std::uint64_t> dirty_;
  std::uint64_t next_tag_;
  bool draining_ = false;
  std::atomic<std::uint64_t> connections_shed_{0};
  std::vector<std::uint64_t> expired_scratch_;
};

}  // namespace bmf::serve
