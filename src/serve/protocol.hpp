// Request/response message bodies and their binary codecs.
//
// Transport framing (see wire.hpp) is a u32 little-endian length prefix
// followed by that many payload bytes. This header defines what goes
// *inside* a frame:
//
//   request  = u8 message type, then the type-specific body
//   response = u8 status (serve::Status), then
//                kOk:   the request-specific result body
//                else:  str16 context, str16 message   (a ServeError on
//                       the wire — same structure it has in C++)
//
// Bodies (all integers little-endian, strings u16-length-prefixed):
//
//   kPing      ->  (empty)                      <-  (empty)
//   kPublish   ->  str16 name, u32 blob size,   <-  u64 assigned version
//                  blob (BMFB, model_codec.hpp)
//   kEvaluate  ->  str16 name, u64 version       <-  u64 version evaluated,
//                  (0 = latest), u64 B, u64 R,       u64 B, B x f64
//                  B x R x f64 row-major              predictions
//   kList      ->  (empty)                      <-  u32 count, then per
//                                                   model: str16 name,
//                                                   u64 latest version,
//                                                   u64 retained, u64 R,
//                                                   u64 M
//   kShutdown  ->  (empty)                      <-  (empty; the server
//                                                   drains and exits)
//   kSolve     ->  u64 K, u64 M,                <-  u8 degradation path,
//                  K x M x f64 design matrix,       u32 attempts,
//                  K x f64 responses,               f64 jitter,
//                  M x f64 precision scale q,       u64 discarded
//                  M x f64 prior mean mu,           eigenvalues, u64 M,
//                  f64 tau                          M x f64 coefficients
//   kStats     ->  (empty)                      <-  u64 uptime_ms,
//                                                   u64 models resident,
//                                                   u64 evals served,
//                                                   u64 requests served,
//                                                   u64 queue depth
//   kEvict     ->  str16 name, u64 version      <-  u64 entries removed
//                  (0 = every version)
//   kStoreInfo ->  (empty)                      <-  u64 enabled (stores
//                                                   attached; 0 or 1 per
//                                                   daemon, summed by the
//                                                   router), u64 WAL bytes,
//                                                   u64 WAL records,
//                                                   u64 appends, u64 syncs,
//                                                   u64 snapshots written,
//                                                   u64 last snapshot seq,
//                                                   u64 records replayed
//                                                   at boot, u64 recovery
//                                                   truncation events
//
// kStats doubles as the liveness/health probe of the shard router
// (src/router): a daemon that answers it within the deadline is up, and
// the counters are the first observability hook on the serve path.
//
// kSolve is the degradation-aware MAP solve: the reply is kOk even when
// the kernel was numerically indefinite — the RobustSpdReport fields say
// how the answer was obtained (see linalg/cholesky.hpp), so clients get a
// structured "Degraded" diagnostic instead of a dead request.
//
// Decoders throw ServeError(kBadRequest) on malformed bytes and never
// return partially-populated messages. Encode/decode are exact inverses —
// tested round-trip in tests/serve_protocol_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "serve/error.hpp"
#include "serve/registry.hpp"

namespace bmf::serve {

enum class MessageType : std::uint8_t {
  kPing = 0,
  kPublish = 1,
  kEvaluate = 2,
  kList = 3,
  kShutdown = 4,
  kSolve = 5,
  kStats = 6,
  kEvict = 7,
  kStoreInfo = 8,
};

struct PingRequest {};
struct PublishRequest {
  std::string name;
  std::vector<std::uint8_t> blob;  // BMFB bytes, decoded by the server
};
struct EvaluateRequest {
  std::string name;
  std::uint64_t version = 0;  // 0 = latest
  linalg::Matrix points;      // B x R
};
struct ListRequest {};
struct ShutdownRequest {};
struct StatsRequest {};
struct StoreInfoRequest {};
struct EvictRequest {
  std::string name;
  std::uint64_t version = 0;  // 0 = every retained version of `name`
};
struct SolveRequest {
  linalg::Matrix g;   // K x M design matrix
  linalg::Vector f;   // K responses
  linalg::Vector q;   // M per-coefficient precision scales (> 0)
  linalg::Vector mu;  // M prior means (all zero = zero-mean prior)
  double tau = 0.0;   // likelihood-vs-prior weight (> 0)
};

using Request = std::variant<PingRequest, PublishRequest, EvaluateRequest,
                             ListRequest, ShutdownRequest, SolveRequest,
                             StatsRequest, EvictRequest, StoreInfoRequest>;

struct EvaluateResponse {
  std::uint64_t version = 0;  // the version actually evaluated
  linalg::Vector values;      // B predictions, row order
};

struct SolveResponse {
  linalg::Vector coefficients;     // M MAP coefficients
  linalg::RobustSpdReport report;  // how they were obtained
};

struct StatsResponse {
  std::uint64_t uptime_ms = 0;         // since the daemon bound its listeners
  std::uint64_t models_resident = 0;   // registry entries currently retained
  std::uint64_t evals_served = 0;      // kEvaluate requests answered
  std::uint64_t requests_served = 0;   // every request answered, all verbs
  std::uint64_t queue_depth = 0;       // requests handed off, not yet done
};

/// Durability health (src/store counters). All-zero with enabled == 0
/// when the daemon runs without --store. Through the router the reply is
/// a fan-out merge: counters sum across shards (enabled becomes "number
/// of durable shards"), last_snapshot_seq takes the max.
struct StoreInfoResponse {
  std::uint64_t enabled = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t appends = 0;
  std::uint64_t syncs = 0;
  std::uint64_t snapshots_written = 0;
  std::uint64_t last_snapshot_seq = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t truncation_events = 0;
};

// ---- Request codecs --------------------------------------------------------

std::vector<std::uint8_t> encode_request(const Request& request);

/// Encode a kEvaluate request straight from the caller's matrix — the
/// bytes are identical to encode_request(EvaluateRequest{...}) but the
/// batch is never copied into a Request, and `recycle`'s capacity is
/// reused for the returned frame. This is the client's hot path: an
/// evaluate batch is typically hundreds of kilobytes, and copy + fresh
/// allocation otherwise rival the server's own evaluation cost.
std::vector<std::uint8_t> encode_evaluate_request(
    const std::string& name, std::uint64_t version,
    const linalg::Matrix& points, std::vector<std::uint8_t> recycle = {});

Request decode_request(const std::uint8_t* data, std::size_t size);
Request decode_request(const std::vector<std::uint8_t>& frame);

/// As decode_request, into `out`. An evaluate decoded into an `out` that
/// already holds one reuses its batch matrix, so a server decoding a
/// steady stream of evaluates into one Request allocates no batch-sized
/// buffer per request: freeing and refaulting ~1 MB per request otherwise
/// costs more kernel time than the evaluation itself. On a throw `out`
/// holds an unspecified request.
void decode_request_into(const std::uint8_t* data, std::size_t size,
                         Request& out);

/// What the shard router needs to route a request frame: the verb, and for
/// the model-addressed verbs (kPublish / kEvaluate / kEvict) the model
/// name. Everything after the name is left undecoded — the router proxies
/// frames verbatim and must not pay for (or depend on) full body decode.
struct RouteInfo {
  MessageType type = MessageType::kPing;
  std::string name;  // empty for verbs that are not model-addressed
};

/// Decode just enough of a request frame to route it. Throws
/// ServeError(kBadRequest) if the frame is too short to classify or a
/// model-addressed verb's name field is truncated.
RouteInfo peek_route(const std::uint8_t* data, std::size_t size);

// ---- Response codecs -------------------------------------------------------

/// Success frames: status byte kOk + the result body.
std::vector<std::uint8_t> encode_ok();
std::vector<std::uint8_t> encode_publish_response(std::uint64_t version);
std::vector<std::uint8_t> encode_evaluate_response(
    const EvaluateResponse& response);
std::vector<std::uint8_t> encode_list_response(
    const std::vector<ModelInfo>& models);
std::vector<std::uint8_t> encode_solve_response(const SolveResponse& response);
std::vector<std::uint8_t> encode_stats_response(const StatsResponse& response);
std::vector<std::uint8_t> encode_evict_response(std::uint64_t removed);
std::vector<std::uint8_t> encode_store_info_response(
    const StoreInfoResponse& response);

/// Error frame: non-kOk status + context + message.
std::vector<std::uint8_t> encode_error(const ServeError& error);

/// Client-side gate: if `frame` carries kOk, returns a reader positioned at
/// the result body; otherwise rethrows the wire error as a ServeError.
/// The returned pair is (body pointer, body size) into `frame`'s storage.
std::pair<const std::uint8_t*, std::size_t> expect_ok(
    const std::vector<std::uint8_t>& frame);

/// Decoders for the kOk result bodies (inverses of the encoders above).
std::uint64_t decode_publish_response(const std::uint8_t* body,
                                      std::size_t size);
EvaluateResponse decode_evaluate_response(const std::uint8_t* body,
                                          std::size_t size);
std::vector<ModelInfo> decode_list_response(const std::uint8_t* body,
                                            std::size_t size);
SolveResponse decode_solve_response(const std::uint8_t* body,
                                    std::size_t size);
StatsResponse decode_stats_response(const std::uint8_t* body,
                                    std::size_t size);
std::uint64_t decode_evict_response(const std::uint8_t* body,
                                    std::size_t size);
StoreInfoResponse decode_store_info_response(const std::uint8_t* body,
                                             std::size_t size);

}  // namespace bmf::serve
