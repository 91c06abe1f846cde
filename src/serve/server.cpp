#include "serve/server.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <thread>
#include <utility>

#include "bmf/map_solver.hpp"
#include "bmf/prior.hpp"
#include "serve/model_codec.hpp"
#include "serve/protocol.hpp"
#include "sync/mutex.hpp"

namespace bmf::serve {

namespace {

/// Worker wait tick: the latency bound on a worker noticing request_stop().
constexpr int kLoopTickMs = 100;

/// epoll tag of the wakeup eventfd (in the Frontend's owner range).
constexpr std::uint64_t kTagWakeup = 0;

using Clock = std::chrono::steady_clock;

}  // namespace

/// run()'s state: the worker pool behind the client front end, and its
/// hand-off queues. Lives on run()'s stack. Loop-thread only except
/// jobs_/done_ (mutex-protected) and the wakeup fd — the only points the
/// workers touch.
class WorkerPool final : public Frontend::Handler {
 public:
  explicit WorkerPool(Server& server)
      : server_(server), frontend_(*server.frontend_) {
    frontend_.poller().add(wakeup_.fd(), EPOLLIN, kTagWakeup);
  }

  void run();

  void on_event(std::uint64_t, std::uint32_t) override {
    wakeup_.drain();  // the only owner fd: completions are applied on tick
  }
  void on_tick() override {
    process_completions();
    dispatch_ready();
  }
  bool idle() override {
    steal_queued_jobs();
    return jobs_outstanding_ == 0;
  }

 private:
  struct Job {
    std::uint64_t tag = 0;
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> frame;
  };
  struct Completion {
    std::uint64_t tag = 0;
    std::uint64_t seq = 0;
    Server::ExecuteResult result;
  };

  void worker_body();
  void apply_completion(Completion done);
  void process_completions();
  void dispatch_ready();
  void run_inline(std::uint64_t tag);
  void steal_queued_jobs();

  Server& server_;
  Frontend& frontend_;
  WakeupFd wakeup_;

  /// The two hand-off points between the loop thread and the worker pool
  /// (DESIGN.md §11). Lock order: jobs_mu_ and done_mu_ are never held
  /// together — each critical section touches exactly one queue.
  sync::Mutex jobs_mu_;
  sync::CondVar jobs_cv_;
  std::deque<Job> jobs_ BMF_GUARDED_BY(jobs_mu_);
  sync::Mutex done_mu_;
  std::deque<Completion> done_ BMF_GUARDED_BY(done_mu_);
  /// Jobs handed to the pool whose completions the loop has not yet
  /// applied. Loop-thread only (incremented at enqueue, decremented when
  /// the completion — or a drain-time steal — is applied).
  std::size_t jobs_outstanding_ = 0;
  std::vector<std::thread> workers_;
};

void WorkerPool::run() {
  workers_.reserve(server_.options_.worker_threads);
  for (std::size_t i = 0; i < server_.options_.worker_threads; ++i)
    workers_.emplace_back([this] { worker_body(); });
  frontend_.run(*this, server_.stop_);
  jobs_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void WorkerPool::worker_body() {
  for (;;) {
    Job job;
    {
      sync::UniqueLock lk(jobs_mu_);
      // Timed wait: request_stop() deliberately does not notify (it must
      // stay async-signal-safe), so the flag is re-checked on this tick.
      // Written as an explicit loop, not a predicate lambda: jobs_ is
      // guarded by jobs_mu_, and the analysis checks the read against the
      // lock held in *this* function (see sync/mutex.hpp).
      const auto tick = Clock::now() + std::chrono::milliseconds(kLoopTickMs);
      while (!server_.stop_requested() && jobs_.empty()) {
        if (jobs_cv_.wait_until(lk, tick) == std::cv_status::timeout) break;
      }
      if (jobs_.empty()) {
        if (server_.stop_requested()) return;
        continue;
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    Completion done;
    done.tag = job.tag;
    done.seq = job.seq;
    done.result = server_.execute_request(job.frame.data(), job.frame.size());
    {
      sync::LockGuard lk(done_mu_);
      done_.push_back(std::move(done));
    }
    wakeup_.signal();
  }
}

void WorkerPool::apply_completion(Completion done) {
  --jobs_outstanding_;
  server_.queue_depth_.fetch_sub(1, std::memory_order_relaxed);
  Frontend::Conn* c = frontend_.find(done.tag);
  if (c == nullptr) return;  // connection died while computing
  c->executing = false;
  if (done.result.shutdown) server_.request_stop();
  frontend_.complete(done.tag, done.seq, std::move(done.result.reply),
                     done.result.close_after);
  frontend_.settle(done.tag);
}

void WorkerPool::process_completions() {
  std::deque<Completion> batch;
  {
    sync::LockGuard lk(done_mu_);
    batch.swap(done_);
  }
  for (Completion& done : batch) apply_completion(std::move(done));
}

/// Hand every dispatchable request to the compute stage. One request per
/// connection at a time: pipelining amortizes round-trips, it never
/// reorders a connection's semantics.
void WorkerPool::dispatch_ready() {
  const std::vector<std::uint64_t>& ready = frontend_.ready();
  if (ready.empty()) return;

  // Inline paths: with a single busy connection and an idle pool, worker
  // handoff is pure latency — the single-stream fast path runs the whole
  // pipelined burst on the loop thread and flushes one coalesced reply
  // batch. During a drain the pool may already have exited, so the loop
  // executes everything itself.
  if (server_.stop_requested() ||
      (ready.size() == 1 && jobs_outstanding_ == 0)) {
    for (const std::uint64_t tag : ready) run_inline(tag);
    return;
  }

  {
    sync::LockGuard lk(jobs_mu_);
    for (const std::uint64_t tag : ready) {
      Frontend::Conn& c = *frontend_.find(tag);
      Job job;
      job.tag = tag;
      job.seq = c.replies.reserve();
      c.frames.next_frame(job.frame);  // copies: the worker needs ownership
      c.executing = true;
      jobs_.push_back(std::move(job));
      ++jobs_outstanding_;
      server_.queue_depth_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  jobs_cv_.notify_all();
  for (const std::uint64_t tag : ready) frontend_.update_interest(tag);
}

void WorkerPool::run_inline(std::uint64_t tag) {
  Frontend::Conn* c = frontend_.find(tag);
  if (c == nullptr) return;
  while (!c->executing && c->frames.complete_frames() > 0) {
    const std::uint64_t seq = c->replies.reserve();
    // Zero-copy: decode straight out of the read buffer.
    Server::ExecuteResult result = server_.execute_request(
        c->frames.front_data(), c->frames.front_size());
    c->frames.pop_front();
    if (result.shutdown) server_.request_stop();
    frontend_.complete(tag, seq, std::move(result.reply), result.close_after);
  }
  frontend_.settle(tag);
}

/// Drain backstop: dispatched jobs the pool never picked up (every worker
/// can observe the stop flag and exit before a just-enqueued job) are
/// executed by the loop so the drain guarantee holds with no pool.
void WorkerPool::steal_queued_jobs() {
  for (;;) {
    Job job;
    {
      sync::LockGuard lk(jobs_mu_);
      if (jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    apply_completion({job.tag, job.seq,
                      server_.execute_request(job.frame.data(),
                                              job.frame.size())});
  }
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      registry_(options_.registry_capacity),
      evaluator_(options_.evaluator_block_rows) {
  if (options_.worker_threads == 0) options_.worker_threads = 1;
  if (options_.max_pipeline == 0) options_.max_pipeline = 1;
  if (options_.socket_path.empty() && options_.tcp_address.empty())
    throw ServeError(Status::kInternal, "server",
                     "no transport configured: set socket_path and/or "
                     "tcp_address");
  if (!options_.store_dir.empty()) {
    // Hydrate before binding any listener: a daemon that cannot recover
    // its durable state must not start answering as if it were empty.
    store::StoreOptions store_options;
    store_options.sync = options_.store_sync;
    store_options.snapshot_wal_bytes = options_.store_snapshot_bytes;
    store_ = std::make_unique<store::ModelStore>(options_.store_dir,
                                                 store_options);
    store::ModelStore::Recovery recovery = store_->recover();
    // Floors first: they cover names whose versions were all evicted, so
    // the never-reuse invariant survives even with zero live models.
    for (const auto& [name, floor] : recovery.next_versions)
      registry_.set_version_floor(name, floor);
    for (store::ModelStore::RecoveredModel& m : recovery.models)
      if (registry_.restore(m.name, m.version, deserialize_model(m.blob)))
        ++models_recovered_;
    registry_.seed_mutation_seq(recovery.max_seq);
  }
  frontend_ = std::make_unique<Frontend>(frontend_options(
      options_, options_.max_connections != 0 ? options_.max_connections
                                              : options_.worker_threads));
}

void Server::run() {
  WorkerPool pool(*this);
  pool.run();
  if (store_) {
    try {
      store_->flush();  // interval/never: push acked tail to disk on drain
    } catch (const store::StoreError&) {
      // Shutdown path: the WAL is still scannable; recovery re-derives
      // whatever the kernel managed to persist.
    }
  }
}

StoreInfoResponse Server::store_info() const {
  StoreInfoResponse info;
  if (!store_) return info;
  const store::StoreStats s = store_->stats();
  info.enabled = 1;
  info.wal_bytes = s.wal_bytes;
  info.wal_records = s.wal_records;
  info.appends = s.appends;
  info.syncs = s.syncs;
  info.snapshots_written = s.snapshots_written;
  info.last_snapshot_seq = s.last_snapshot_seq;
  info.records_replayed = s.records_replayed;
  info.truncation_events = s.truncation_events;
  return info;
}

void Server::maybe_compact() noexcept {
  if (!store_ || !store_->wants_compaction()) return;
  try {
    // The state callback runs under the store lock with appends blocked,
    // which makes the snapshot a superset of the WAL it replaces: every
    // record in the WAL belongs to a registry mutation that completed
    // (install happens before append), so snapshot_state() sees it.
    store_->compact([this] {
      store::Snapshot snap;
      RegistrySnapshot reg = registry_.snapshot_state();
      snap.last_seq = reg.last_seq;
      snap.next_versions = std::move(reg.next_versions);
      snap.models.reserve(reg.entries.size());
      for (const std::shared_ptr<const ModelEntry>& entry : reg.entries)
        snap.models.push_back(
            {entry->name, entry->version, serialize_model(entry->model)});
      return snap;
    });
  } catch (const std::exception& e) {
    // Never fail the request that tripped the threshold: its record is
    // durable in the intact WAL, and the next append retries compaction.
    std::fprintf(stderr, "bmf_served: store compaction failed: %s\n",
                 e.what());
  }
}

Server::ExecuteResult Server::execute_request(const std::uint8_t* frame,
                                              std::size_t size) {
  ExecuteResult out;
  try {
    const Request request = decode_request(frame, size);
    if (std::holds_alternative<PingRequest>(request)) {
      out.reply = encode_ok();
    } else if (const auto* pub = std::get_if<PublishRequest>(&request)) {
      FittedModel model = deserialize_model(pub->blob);
      std::uint64_t version = 0;
      if (store_) {
        // Install, then append the original wire bytes to the WAL, then
        // ack — so an acked publish always survives a crash, and a crash
        // before the append leaves nothing a client was told about.
        const PublishTicket ticket =
            registry_.publish_ticketed(pub->name, std::move(model));
        try {
          store_->append_publish(ticket.seq, pub->name, ticket.version,
                                 pub->blob.data(), pub->blob.size());
        } catch (const store::StoreError& e) {
          // Not durable => not acked => must not be served: roll the
          // registry back so memory never outlives the log.
          registry_.evict(pub->name, ticket.version);
          throw ServeError(Status::kInternal, "store", e.what());
        }
        maybe_compact();
        version = ticket.version;
      } else {
        version = registry_.publish(pub->name, std::move(model));
      }
      out.reply = encode_publish_response(version);
    } else if (const auto* ev = std::get_if<EvaluateRequest>(&request)) {
      std::shared_ptr<const ModelEntry> entry =
          ev->version == 0 ? registry_.latest(ev->name)
                           : registry_.at(ev->name, ev->version);
      if (!entry)
        throw ServeError(Status::kNotFound, "evaluate",
                         ev->version == 0
                             ? "no model named '" + ev->name + "'"
                             : "no version " + std::to_string(ev->version) +
                                   " of model '" + ev->name +
                                   "' (never published, or evicted)");
      if (ev->points.cols() != entry->model.model.basis().dimension())
        throw ServeError(
            Status::kBadRequest, "evaluate",
            "batch has " + std::to_string(ev->points.cols()) +
                " column(s), model '" + ev->name + "' v" +
                std::to_string(entry->version) + " expects " +
                std::to_string(entry->model.model.basis().dimension()));
      EvaluateResponse response;
      response.version = entry->version;
      evaluator_.evaluate_into(entry->model.model, ev->points,
                               response.values);
      out.reply = encode_evaluate_response(response);
      evals_served_.fetch_add(1, std::memory_order_relaxed);
    } else if (std::holds_alternative<ListRequest>(request)) {
      out.reply = encode_list_response(registry_.list());
    } else if (std::holds_alternative<StatsRequest>(request)) {
      StatsResponse stats;
      stats.uptime_ms = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start_time_)
              .count());
      stats.models_resident = registry_.size();
      stats.evals_served = evals_served_.load(std::memory_order_relaxed);
      stats.requests_served = requests_served_.load(std::memory_order_relaxed);
      stats.queue_depth = queue_depth_.load(std::memory_order_relaxed);
      out.reply = encode_stats_response(stats);
    } else if (const auto* evt = std::get_if<EvictRequest>(&request)) {
      if (store_) {
        const EvictTicket ticket =
            registry_.evict_ticketed(evt->name, evt->version);
        if (ticket.removed > 0) {
          try {
            store_->append_evict(ticket.seq, evt->name, evt->version);
          } catch (const store::StoreError& e) {
            // The registry already dropped the entries; disk disagrees
            // until the next successful append or restart. The error
            // reply tells the caller the evict may not be durable.
            throw ServeError(Status::kInternal, "store", e.what());
          }
          maybe_compact();
        }
        out.reply = encode_evict_response(ticket.removed);
      } else {
        out.reply = encode_evict_response(
            registry_.evict(evt->name, evt->version));
      }
    } else if (std::holds_alternative<StoreInfoRequest>(request)) {
      out.reply = encode_store_info_response(store_info());
    } else if (const auto* sv = std::get_if<SolveRequest>(&request)) {
      // Explicit validation: the numeric layer's contract checks compile
      // out of Release builds, and a daemon must answer garbage input with
      // kBadRequest, not undefined behaviour or a kInternal surprise.
      if (!(sv->tau > 0.0) || !std::isfinite(sv->tau))
        throw ServeError(Status::kBadRequest, "solve",
                         "tau must be positive and finite");
      for (std::size_t i = 0; i < sv->g.size(); ++i)
        if (!std::isfinite(sv->g.data()[i]))
          throw ServeError(Status::kBadRequest, "solve",
                           "design matrix must be finite");
      for (double v : sv->f)
        if (!std::isfinite(v))
          throw ServeError(Status::kBadRequest, "solve",
                           "responses must be finite");
      core::CoefficientPrior prior = [&] {
        try {
          return core::CoefficientPrior::from_moments(sv->mu, sv->q);
        } catch (const std::invalid_argument& e) {
          throw ServeError(Status::kBadRequest, "solve", e.what());
        }
      }();
      const core::RobustMapResult result =
          core::map_solve_robust(sv->g, sv->f, prior, sv->tau);
      SolveResponse response;
      response.coefficients = result.coefficients;
      response.report = result.report;
      out.reply = encode_solve_response(response);
    } else {  // ShutdownRequest
      out.reply = encode_ok();
      out.shutdown = true;
      out.close_after = true;
    }
  } catch (const ServeError& e) {
    out.reply = encode_error(e);
    // A frame that failed to decode may be the product of a torn or
    // corrupted stream (e.g. a damaged length prefix slicing the frame
    // short), so the bytes after it cannot be trusted as a frame
    // boundary: reply, then drop the connection. Semantic failures on a
    // well-decoded request (kNotFound, kCorruptModel, ...) keep it open.
    if (e.context() == "decode_request") out.close_after = true;
  } catch (const std::exception& e) {
    // Anything else (contract violation, bad_alloc, ...) is a server-side
    // bug surface: report it structurally rather than dying silently.
    out.reply =
        encode_error(ServeError(Status::kInternal, "handle_request", e.what()));
  }
  // Count before the reply flushes so a client that has seen its reply is
  // always included in the total, even reading the counter immediately.
  requests_served_.fetch_add(1);
  return out;
}

}  // namespace bmf::serve
