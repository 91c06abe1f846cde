#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

namespace bmf::serve {
namespace {

TEST(Protocol, PingRoundTrip) {
  const auto frame = encode_request(PingRequest{});
  EXPECT_TRUE(std::holds_alternative<PingRequest>(decode_request(frame)));
}

TEST(Protocol, PublishRoundTrip) {
  PublishRequest request;
  request.name = "ro_power";
  request.blob = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01};
  const auto frame = encode_request(request);
  const Request decoded = decode_request(frame);
  const auto* pub = std::get_if<PublishRequest>(&decoded);
  ASSERT_NE(pub, nullptr);
  EXPECT_EQ(pub->name, request.name);
  EXPECT_EQ(pub->blob, request.blob);
}

TEST(Protocol, EvaluateRoundTrip) {
  EvaluateRequest request;
  request.name = "sram_delay";
  request.version = 17;
  request.points = linalg::Matrix{{1.0, -2.0, 0.5}, {0.0, 3.25, -0.0}};
  const auto frame = encode_request(request);
  const Request decoded = decode_request(frame);
  const auto* ev = std::get_if<EvaluateRequest>(&decoded);
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->name, request.name);
  EXPECT_EQ(ev->version, 17u);
  ASSERT_EQ(ev->points.rows(), 2u);
  ASSERT_EQ(ev->points.cols(), 3u);
  for (std::size_t i = 0; i < request.points.size(); ++i)
    EXPECT_EQ(ev->points.data()[i], request.points.data()[i]);
}

TEST(Protocol, DecodeIntoReusesTheEvaluateBatchStorage) {
  EvaluateRequest big;
  big.name = "a";
  big.points = linalg::Matrix(4, 3, 1.5);
  EvaluateRequest small;
  small.name = "sram_delay";
  small.version = 9;
  small.points = linalg::Matrix{{1.0, -2.0}, {0.25, 3.0}};

  Request out;
  const auto big_frame = encode_request(big);
  decode_request_into(big_frame.data(), big_frame.size(), out);
  const double* storage = std::get<EvaluateRequest>(out).points.data();

  const auto small_frame = encode_request(small);
  decode_request_into(small_frame.data(), small_frame.size(), out);
  const auto& ev = std::get<EvaluateRequest>(out);
  EXPECT_EQ(ev.points.data(), storage);
  EXPECT_EQ(ev.name, small.name);
  EXPECT_EQ(ev.version, 9u);
  ASSERT_EQ(ev.points.rows(), 2u);
  ASSERT_EQ(ev.points.cols(), 2u);
  for (std::size_t i = 0; i < small.points.size(); ++i)
    EXPECT_EQ(ev.points.data()[i], small.points.data()[i]);

  // Any other verb replaces the evaluate; a bad frame still throws.
  const auto list_frame = encode_request(ListRequest{});
  decode_request_into(list_frame.data(), list_frame.size(), out);
  EXPECT_TRUE(std::holds_alternative<ListRequest>(out));
  auto truncated = small_frame;
  truncated.pop_back();
  EXPECT_THROW(decode_request_into(truncated.data(), truncated.size(), out),
               ServeError);
}

TEST(Protocol, ListAndShutdownRoundTrip) {
  EXPECT_TRUE(std::holds_alternative<ListRequest>(
      decode_request(encode_request(ListRequest{}))));
  EXPECT_TRUE(std::holds_alternative<ShutdownRequest>(
      decode_request(encode_request(ShutdownRequest{}))));
}

TEST(Protocol, StoreInfoRoundTrip) {
  EXPECT_TRUE(std::holds_alternative<StoreInfoRequest>(
      decode_request(encode_request(StoreInfoRequest{}))));

  StoreInfoResponse response;
  response.enabled = 1;
  response.wal_bytes = 4096;
  response.wal_records = 12;
  response.appends = 40;
  response.syncs = 41;
  response.snapshots_written = 3;
  response.last_snapshot_seq = 37;
  response.records_replayed = 9;
  response.truncation_events = 2;
  const auto frame = encode_store_info_response(response);
  auto [body, size] = expect_ok(frame);
  const StoreInfoResponse r = decode_store_info_response(body, size);
  EXPECT_EQ(r.enabled, 1u);
  EXPECT_EQ(r.wal_bytes, 4096u);
  EXPECT_EQ(r.wal_records, 12u);
  EXPECT_EQ(r.appends, 40u);
  EXPECT_EQ(r.syncs, 41u);
  EXPECT_EQ(r.snapshots_written, 3u);
  EXPECT_EQ(r.last_snapshot_seq, 37u);
  EXPECT_EQ(r.records_replayed, 9u);
  EXPECT_EQ(r.truncation_events, 2u);

  // A truncated store-info body must be rejected, not zero-filled.
  EXPECT_THROW(decode_store_info_response(body, size - 1), ServeError);
}

TEST(Protocol, RejectsMalformedRequests) {
  // Empty frame.
  EXPECT_THROW(decode_request(nullptr, 0), ServeError);
  // Unknown type byte.
  const std::uint8_t unknown[] = {0x77};
  EXPECT_THROW(decode_request(unknown, 1), ServeError);
  // Ping with trailing bytes.
  const std::uint8_t trailing[] = {0x00, 0x01};
  EXPECT_THROW(decode_request(trailing, 2), ServeError);
  // Truncated publish (name length says 5, no bytes follow).
  const std::uint8_t truncated[] = {0x01, 0x05, 0x00};
  try {
    decode_request(truncated, sizeof(truncated));
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
  }
  // Evaluate whose row/col counts disagree with the payload size.
  EvaluateRequest ev;
  ev.name = "m";
  ev.points = linalg::Matrix(2, 2, 1.0);
  auto frame = encode_request(ev);
  frame.pop_back();
  EXPECT_THROW(decode_request(frame), ServeError);
  // Empty model name.
  EvaluateRequest unnamed;
  unnamed.name = "";
  unnamed.points = linalg::Matrix(1, 1, 0.0);
  EXPECT_THROW(decode_request(encode_request(unnamed)), ServeError);
}

TEST(Protocol, OkResponses) {
  {
    const auto frame = encode_ok();
    auto [body, size] = expect_ok(frame);
    EXPECT_EQ(size, 0u);
    (void)body;
  }
  {
    const auto frame = encode_publish_response(42);
    auto [body, size] = expect_ok(frame);
    EXPECT_EQ(decode_publish_response(body, size), 42u);
  }
  {
    EvaluateResponse response;
    response.version = 3;
    response.values = {1.5, -2.5, 0.0};
    const auto frame = encode_evaluate_response(response);
    auto [body, size] = expect_ok(frame);
    const EvaluateResponse r = decode_evaluate_response(body, size);
    EXPECT_EQ(r.version, 3u);
    EXPECT_EQ(r.values, response.values);
  }
  {
    std::vector<ModelInfo> models(2);
    models[0] = {"a", 4, 2, 100, 101};
    models[1] = {"b", 1, 1, 7, 8};
    const auto frame = encode_list_response(models);
    auto [body, size] = expect_ok(frame);
    const auto r = decode_list_response(body, size);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].name, "a");
    EXPECT_EQ(r[0].latest_version, 4u);
    EXPECT_EQ(r[0].retained, 2u);
    EXPECT_EQ(r[0].dimension, 100u);
    EXPECT_EQ(r[0].num_terms, 101u);
    EXPECT_EQ(r[1].name, "b");
  }
}

TEST(Protocol, ErrorRepliesCrossTheWireIntact) {
  const ServeError original(Status::kNotFound, "evaluate",
                            "no model named 'x'");
  const auto frame = encode_error(original);
  try {
    expect_ok(frame);
    FAIL() << "expected ServeError";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.status(), Status::kNotFound);
    EXPECT_EQ(e.context(), "evaluate");
    EXPECT_EQ(e.message(), "no model named 'x'");
  }
}

TEST(Protocol, RejectsMalformedResponses) {
  EXPECT_THROW(expect_ok({}), ServeError);
  // kOk with a publish body that is too short.
  const std::uint8_t short_ok[] = {0x00, 0x01, 0x02};
  EXPECT_THROW(decode_publish_response(short_ok + 1, 2), ServeError);
  // Evaluate body whose count disagrees with its size.
  EvaluateResponse response;
  response.values = {1.0};
  auto frame = encode_evaluate_response(response);
  frame.pop_back();
  auto [body, size] = expect_ok(frame);
  EXPECT_THROW(decode_evaluate_response(body, size), ServeError);
}

TEST(Protocol, StatusTokens) {
  EXPECT_STREQ(to_string(Status::kOk), "ok");
  EXPECT_STREQ(to_string(Status::kNotFound), "not-found");
  EXPECT_STREQ(to_string(Status::kTimeout), "timeout");
  EXPECT_EQ(status_from_byte(2), Status::kNotFound);
  EXPECT_THROW(status_from_byte(200), std::invalid_argument);
}

}  // namespace
}  // namespace bmf::serve
