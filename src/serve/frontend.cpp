#include "serve/frontend.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "fault/fault.hpp"
#include "serve/protocol.hpp"

namespace bmf::serve {

namespace {

/// Epoll timeout cap: the latency bound on noticing a stop request.
constexpr int kLoopTickMs = 100;

/// Deadline for the best-effort error reply on a shed or timed-out
/// connection. Short: the point of shedding is to stay responsive, not to
/// babysit the peer.
constexpr int kShedReplyTimeoutMs = 100;

/// Deadline wheel granularity and size (256 slots of 25 ms cover 6.4 s —
/// more than request_timeout_ms's default — before an entry wraps).
constexpr int kWheelTickMs = 25;
constexpr std::size_t kWheelSlots = 256;

/// Default read size when the frame parser has no better hint. Large
/// enough that a burst of small pipelined frames lands in one syscall.
constexpr std::size_t kReadChunkBytes = std::size_t{64} * 1024;

/// epoll tags: the listeners sit just above the owner's range (tag =
/// kOwnerTagLimit + index); connection tags count up from kConnTagBase and
/// are never reused.
constexpr std::uint64_t kConnTagBase = Frontend::kOwnerTagLimit + 2;

using Clock = std::chrono::steady_clock;

}  // namespace

ReadEnd read_available(int fd, FrameBuffer& frames) {
  for (;;) {
    // Size the window to finish the pending frame in one read when its
    // length is known; otherwise a chunk that covers a pipelined burst.
    const std::size_t want = std::max(frames.missing_bytes(), kReadChunkBytes);
    const ssize_t got = fault::sys_read(fd, frames.write_window(want), want);
    if (got > 0) {
      frames.commit(static_cast<std::size_t>(got));
      continue;
    }
    if (got == 0) return ReadEnd::kEof;
    if (errno == EINTR) continue;
    // EWOULDBLOCK is EAGAIN on Linux (the only platform: epoll/eventfd).
    if (errno == EAGAIN) return ReadEnd::kWouldBlock;
    return ReadEnd::kFailed;  // ECONNRESET and friends: transport is gone
  }
}

bool send_available(int fd, std::vector<std::uint8_t>& wire,
                    std::size_t& off) {
  while (off < wire.size()) {
    const ssize_t sent = fault::sys_send(fd, wire.data() + off,
                                         wire.size() - off, MSG_NOSIGNAL);
    if (sent >= 0) {
      off += static_cast<std::size_t>(sent);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN) return true;  // buffer full: EPOLLOUT re-arms
    return false;                      // EPIPE/ECONNRESET: peer gone
  }
  wire.clear();
  off = 0;
  return true;
}

void announce_listeners(const char* program, const std::string& socket_path,
                        const Endpoint& tcp, const std::string& announce_path,
                        bool quiet) {
  if (!socket_path.empty() && !quiet)
    std::fprintf(stderr, "%s: listening on unix:%s\n", program,
                 socket_path.c_str());
  if (!tcp.tcp) return;
  const std::string resolved = to_string(tcp);
  if (!quiet)
    std::fprintf(stderr, "%s: listening on %s\n", program, resolved.c_str());
  if (announce_path.empty()) return;
  std::ofstream announce(announce_path, std::ios::trunc);
  announce << resolved << "\n";
  if (!announce)
    throw std::runtime_error("cannot write --tcp-announce file " +
                             announce_path);
}

Frontend::Frontend(FrontendOptions options)
    : opt_(std::move(options)),
      wheel_(Clock::now(), kWheelTickMs, kWheelSlots),
      next_tag_(kConnTagBase) {
  if (!opt_.socket_path.empty())
    listen_on(listen_unix(opt_.socket_path), /*tcp=*/false);
  if (!opt_.tcp_address.empty()) {
    const Endpoint requested = parse_endpoint("tcp:" + opt_.tcp_address);
    TcpListener listener = listen_tcp(requested.host, requested.port);
    tcp_endpoint_.tcp = true;
    tcp_endpoint_.host = requested.host.empty() ? "127.0.0.1" : requested.host;
    tcp_endpoint_.port = listener.port;
    listen_on(std::move(listener.fd), /*tcp=*/true);
  }
}

Frontend::~Frontend() {
  if (!opt_.socket_path.empty()) ::unlink(opt_.socket_path.c_str());
}

void Frontend::run(Handler& handler, const std::atomic<bool>& stop) {
  std::array<struct epoll_event, 64> events{};
  for (;;) {
    if (stop.load(std::memory_order_relaxed) && !draining_) start_drain();
    if (draining_ && handler.idle() && conns_.empty()) break;

    const int timeout = wheel_.next_timeout_ms(kLoopTickMs);
    const int n =
        poller_.wait(events.data(), static_cast<int>(events.size()), timeout);
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[static_cast<std::size_t>(i)].data.u64;
      const std::uint32_t ev = events[static_cast<std::size_t>(i)].events;
      if (tag < kOwnerTagLimit) {
        handler.on_event(tag, ev);
        continue;
      }
      if (tag < kConnTagBase) {
        const auto& [fd, tcp] = listeners_[tag - kOwnerTagLimit];
        accept_burst(fd.get(), tcp);
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      Conn& c = it->second;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0 && (ev & EPOLLIN) == 0) {
        // Peer is gone and nothing is readable: nothing to salvage.
        close_conn(it);
        continue;
      }
      if ((ev & EPOLLOUT) != 0 && !try_flush(c)) {
        close_conn(it);
        continue;
      }
      if ((ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 && c.read_open) {
        if (!drain_reads(c)) {
          close_conn(it);
          continue;
        }
        touch(tag);
      }
      settle(it);
    }
    handler.on_tick();
    settle_dirty();
    check_deadlines();
  }
}

Frontend::Conn* Frontend::find(std::uint64_t tag) {
  auto it = conns_.find(tag);
  return it == conns_.end() ? nullptr : &it->second;
}

const std::vector<std::uint64_t>& Frontend::ready() {
  ready_.clear();
  for (const auto& [tag, c] : conns_)
    if (!c.executing && c.frames.complete_frames() > 0) ready_.push_back(tag);
  return ready_;
}

bool Frontend::complete(std::uint64_t tag, std::uint64_t seq,
                        std::vector<std::uint8_t> reply, bool close_after) {
  Conn* c = find(tag);
  if (c == nullptr) return false;
  c->replies.complete(seq, std::move(reply));
  if (close_after) {
    // Execute-level tear (undecodable frame) or shutdown ack: bytes after
    // this frame cannot be trusted / will never be served. Drop them.
    c->frames.discard();
    c->tear_error.reset();
    c->read_open = false;
    c->close_after_flush = true;
  }
  if (!std::exchange(c->dirty, true)) dirty_.push_back(tag);
  touch(tag);
  return true;
}

void Frontend::settle(std::uint64_t tag) {
  auto it = conns_.find(tag);
  if (it != conns_.end()) settle(it);
}

void Frontend::update_interest(std::uint64_t tag) {
  auto it = conns_.find(tag);
  if (it != conns_.end()) update_interest(tag, it->second);
}

/// Push the connection's deadline out one full timeout: called on accept,
/// on read progress, and on every reply.
void Frontend::touch(std::uint64_t tag) {
  wheel_.set(tag,
             Clock::now() + std::chrono::milliseconds(opt_.request_timeout_ms));
}

void Frontend::listen_on(UniqueFd fd, bool tcp) {
  set_nonblocking(fd.get());
  poller_.add(fd.get(), EPOLLIN, kOwnerTagLimit + listeners_.size());
  listeners_.emplace_back(std::move(fd), tcp);
}

void Frontend::accept_burst(int listen_fd, bool tcp) {
  for (;;) {
    std::optional<UniqueFd> conn = accept_pending(listen_fd);
    if (!conn) return;
    admit(std::move(*conn), tcp);
  }
}

void Frontend::admit(UniqueFd fd, bool tcp) {
  if (draining_) {
    shed(std::move(fd), Status::kShuttingDown);
    return;
  }
  if (conns_.size() < opt_.max_connections) {
    make_active(std::move(fd), tcp);
    return;
  }
  if (parked_.size() < opt_.max_pending) {
    // Accepted but unregistered: the peer sees an established connection
    // and its first frames sit in kernel buffers until a slot frees up.
    parked_.emplace_back(std::move(fd), tcp);
    return;
  }
  shed(std::move(fd), Status::kOverloaded);
}

void Frontend::make_active(UniqueFd fd, bool tcp) {
  set_nonblocking(fd.get());
  if (tcp) set_tcp_nodelay(fd.get());
  const std::uint64_t tag = next_tag_++;
  auto it = conns_
                .emplace(std::piecewise_construct, std::forward_as_tuple(tag),
                         std::forward_as_tuple(std::move(fd),
                                               opt_.max_frame_bytes))
                .first;
  poller_.add(it->second.fd.get(), EPOLLIN, tag);
  touch(tag);
}

void Frontend::promote_parked() {
  while (!draining_ && !parked_.empty() &&
         conns_.size() < opt_.max_connections) {
    auto [fd, tcp] = std::move(parked_.front());
    parked_.pop_front();
    make_active(std::move(fd), tcp);
  }
}

/// Reject a connection with a best-effort structured error reply
/// (kOverloaded / kShuttingDown) and close it.
void Frontend::shed(UniqueFd fd, Status status) noexcept {
  connections_shed_.fetch_add(1, std::memory_order_relaxed);
  try {
    const ServeError e(
        status, "admission",
        status == Status::kOverloaded
            ? "all " + std::to_string(opt_.max_connections) +
                  " connection slot(s) busy and " +
                  std::to_string(opt_.max_pending) +
                  " pending slot(s) full; retry with backoff"
            : "server is draining; connection rejected");
    write_frame(fd.get(), encode_error(e), kShedReplyTimeoutMs,
                opt_.max_frame_bytes);
  } catch (...) {
    // Best effort only: the peer may already be gone, and a shed path
    // that can throw would defeat its purpose.
  }
}

/// Returns false when the transport failed and the connection should
/// close silently.
bool Frontend::drain_reads(Conn& c) {
  ReadEnd end = ReadEnd::kWouldBlock;
  try {
    end = read_available(c.fd.get(), c.frames);
    if (end == ReadEnd::kEof && c.frames.mid_frame())
      // The same verdict the blocking read path gives a truncated frame.
      throw ServeError(Status::kBadRequest, "read_frame",
                       "connection closed mid-frame");
  } catch (const ServeError& e) {
    // Oversized length prefix or EOF mid-frame: the frame boundary is
    // lost. Frames already buffered are served; the error reply follows
    // them, then close.
    c.read_open = false;
    c.tear_error = encode_error(e);
    return true;
  }
  if (end == ReadEnd::kFailed) return false;
  if (end == ReadEnd::kEof) {
    // Clean half-close: serve everything received, then close.
    c.read_open = false;
    c.close_after_flush = true;
  }
  return true;
}

/// Flush as much of the ordered-reply wire buffer as the socket accepts.
/// Consecutive completed replies coalesce into one send. Returns false
/// when the peer is gone.
bool Frontend::try_flush(Conn& c) {
  try {
    c.replies.drain_ready(c.wire, opt_.max_frame_bytes);
  } catch (const ServeError&) {
    return false;  // reply exceeds the frame bound: unservable connection
  }
  return send_available(c.fd.get(), c.wire, c.wire_off);
}

/// Post-event bookkeeping for one connection: deliver a pending tear
/// error once prior work was taken, flush, close when nothing remains,
/// refresh epoll interest otherwise.
void Frontend::settle(ConnMap::iterator it) {
  Conn& c = it->second;
  c.dirty = false;
  if (c.tear_error && !c.executing && c.frames.complete_frames() == 0) {
    // OrderedReplies sequences the error behind every reply still owed.
    c.replies.complete(c.replies.reserve(), std::move(*c.tear_error));
    c.tear_error.reset();
    c.close_after_flush = true;
  }
  if (!try_flush(c)) {
    close_conn(it);
    return;
  }
  if (c.close_after_flush && !c.work_left() && !c.write_pending()) {
    close_conn(it);
    return;
  }
  update_interest(it->first, c);
}

void Frontend::update_interest(std::uint64_t tag, Conn& c) {
  std::uint32_t want = 0;
  // Pipelining backpressure: past max_pipeline requests buffered or owed
  // a reply the loop stops reading; the client blocks in its own send
  // once kernel buffers fill. Replies drain the count and re-arm EPOLLIN.
  if (c.read_open &&
      c.frames.complete_frames() + c.replies.outstanding() < opt_.max_pipeline)
    want |= EPOLLIN;
  if (c.write_pending()) want |= EPOLLOUT;
  if (want != c.events) {
    poller_.modify(c.fd.get(), want, tag);
    c.events = want;
  }
}

Frontend::ConnMap::iterator Frontend::close_conn(ConnMap::iterator it) {
  poller_.remove(it->second.fd.get());
  wheel_.cancel(it->first);
  auto next = conns_.erase(it);
  // Replies the owner still owes this connection are dropped by
  // complete(); the owner's own bookkeeping stays untouched.
  promote_parked();
  return next;
}

void Frontend::settle_dirty() {
  for (const std::uint64_t tag : dirty_) {
    auto it = conns_.find(tag);
    if (it != conns_.end() && it->second.dirty) settle(it);
  }
  dirty_.clear();
}

void Frontend::check_deadlines() {
  expired_scratch_.clear();
  wheel_.collect(Clock::now(), expired_scratch_);
  for (const std::uint64_t tag : expired_scratch_) {
    auto it = conns_.find(tag);
    if (it == conns_.end()) continue;
    Conn& c = it->second;
    if (c.work_left()) {
      // The owner still holds work (a long solve, a deep queue, a slow
      // backend): not stalled. Replies push the deadline out; this re-arm
      // covers the gap.
      touch(tag);
      continue;
    }
    if (c.write_pending()) {
      // The peer stopped reading its replies: nothing to say to it.
      close_conn(it);
      continue;
    }
    // Idle (no request arrived) or stalled mid-frame: a structured
    // kTimeout verdict, best effort, then close.
    const ServeError e(
        Status::kTimeout, "serve_connection",
        c.frames.mid_frame()
            ? "request frame stalled mid-transfer for " +
                  std::to_string(opt_.request_timeout_ms) + " ms"
            : "no request arrived within " +
                  std::to_string(opt_.request_timeout_ms) + " ms");
    try {
      write_frame(c.fd.get(), encode_error(e), kShedReplyTimeoutMs,
                  opt_.max_frame_bytes);
    } catch (const ServeError&) {
    }
    close_conn(it);
  }
}

void Frontend::start_drain() {
  draining_ = true;
  for (const auto& [fd, tcp] : listeners_) poller_.remove(fd.get());
  listeners_.clear();
  // Parked connections were never read from: a structured rejection, not
  // a silent close.
  for (auto& [fd, tcp] : parked_) shed(std::move(fd), Status::kShuttingDown);
  parked_.clear();
  // Active connections: everything already received runs to completion,
  // reply flushed — the in-flight half of the drain guarantee. Idle ones
  // close now.
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn& c = it->second;
    c.read_open = false;
    if (!c.work_left() && !c.write_pending()) {
      it = close_conn(it);
    } else {
      c.close_after_flush = true;
      update_interest(it->first, c);
      ++it;
    }
  }
}

}  // namespace bmf::serve
