/**
 * @file
 * @brief Tests of the network serving plane (gtest prefix `Net`, ctest
 *        label `net`): incremental framing (torn frames, oversized
 *        rejection, mode detection), binary/JSON protocol codecs, and
 *        loopback integration against a real epoll server — cross-connection
 *        batching, malformed input, connection churn mid-batch, shed →
 *        RETRY_AFTER round-trips, and fault-driven readiness flips.
 */

#include "plssvm/serve/net/framing.hpp"
#include "plssvm/serve/net/protocol.hpp"
#include "plssvm/serve/net/server.hpp"

#include "plssvm/core/matrix.hpp"
#include "plssvm/core/parameter.hpp"
#include "plssvm/serve/fault.hpp"
#include "plssvm/serve/model_registry.hpp"
#include "plssvm/serve/qos.hpp"
#include "serve/serve_test_utils.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace {

using plssvm::aos_matrix;
using plssvm::kernel_type;
using plssvm::serve::engine_config;
using plssvm::serve::health_state;
using plssvm::serve::model_registry;
using plssvm::serve::request_class;
namespace fault = plssvm::serve::fault;
namespace net = plssvm::serve::net;
namespace test = plssvm::test;
using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// loopback client helpers (plain blocking sockets; the server under test is
// the only nonblocking side)
// ---------------------------------------------------------------------------

class client {
  public:
    explicit client(const std::uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        const timeval timeout{ 10, 0 };  // generous: CI boxes stall
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
        const int nodelay = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr *>(&addr), sizeof(addr)), 0);
    }

    client(const client &) = delete;
    client &operator=(const client &) = delete;

    ~client() { close(); }

    void close() {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    void send(const std::string &bytes) const {
        std::size_t sent = 0;
        while (sent < bytes.size()) {
            const ssize_t n = ::write(fd_, bytes.data() + sent, bytes.size() - sent);
            ASSERT_GT(n, 0) << "client write failed";
            sent += static_cast<std::size_t>(n);
        }
    }

    /// Read complete messages until @p want have been collected (frames in
    /// binary mode, lines in JSON mode). Returns false on EOF/timeout.
    [[nodiscard]] bool read_messages(std::vector<std::string> &out, const std::size_t want) {
        std::string msg;
        while (out.size() < want) {
            const net::frame_decoder::status st = decoder_.next(msg);
            if (st == net::frame_decoder::status::frame || st == net::frame_decoder::status::line) {
                out.push_back(msg);
                continue;
            }
            if (st != net::frame_decoder::status::need_more) {
                return false;  // protocol error on the client decoder
            }
            char buf[4096];
            const ssize_t n = ::read(fd_, buf, sizeof(buf));
            if (n <= 0) {
                return false;  // EOF or timeout
            }
            decoder_.append(buf, static_cast<std::size_t>(n));
        }
        return true;
    }

    /// True once the server closed the connection (blocking read hits EOF).
    [[nodiscard]] bool at_eof() const {
        char buf[256];
        while (true) {
            const ssize_t n = ::read(fd_, buf, sizeof(buf));
            if (n == 0) {
                return true;
            }
            if (n < 0) {
                return false;  // timeout: still open
            }
        }
    }

  private:
    int fd_{ -1 };
    net::frame_decoder decoder_;  // client-side response reassembly
};

/// Engine config for fast, deterministic loopback tests.
[[nodiscard]] engine_config net_test_config() {
    engine_config config;
    config.num_threads = 2;
    config.max_batch_size = 16;
    return config;
}

/// @p config with an injector whose first batch sleeps @p stall inside the
/// kernel hook: an engine held busy while its requests stay in flight.
[[nodiscard]] engine_config held_engine_config(engine_config config, const std::chrono::microseconds stall) {
    config.fault.inject = std::make_shared<fault::injector>();
    config.fault.inject->add_rule({ .site = fault::fault_site::batch_kernel, .kind = fault::fault_kind::slow_batch, .limit = 1, .stall = stall });
    return config;
}

/// One ready-to-use loopback server over a fresh registry serving a binary
/// model ("demo") and a one-vs-all ensemble ("ensemble").
struct server_fixture {
    explicit server_fixture(const engine_config &config = net_test_config(), const std::size_t event_threads = 1) :
        registry{ 4, config } {
        engine = registry.load("demo", test::random_model(kernel_type::linear));
        ensemble = registry.load("ensemble", test::random_ensemble(kernel_type::linear));
        net::net_server_config server_config;
        server_config.event_threads = event_threads;
        server = std::make_unique<net::net_server>(server_config, std::make_shared<net::registry_dispatcher<double>>(registry));
    }

    model_registry<double> registry;
    std::shared_ptr<plssvm::serve::inference_engine<double>> engine;
    std::shared_ptr<plssvm::serve::inference_engine<double>> ensemble;
    std::unique_ptr<net::net_server> server;
};

[[nodiscard]] std::string binary_predict(const std::uint64_t id, const std::vector<double> &features,
                                         const std::string &model = "demo") {
    net::net_request req;
    req.id = id;
    req.model = model;
    req.dense = features;
    return net::encode_frame(net::frame_type::request, net::encode_request_binary(req));
}

// ---------------------------------------------------------------------------
// framing: torn frames, mode detection, bounds
// ---------------------------------------------------------------------------

TEST(NetFraming, TornFrameReassemblesByteByByte) {
    const std::string payload = "hello frame";
    const std::string wire = net::encode_frame(net::frame_type::request, payload);
    net::frame_decoder decoder;
    std::string out;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        decoder.append(wire.data() + i, 1);
        EXPECT_EQ(decoder.next(out), net::frame_decoder::status::need_more) << "byte " << i;
    }
    decoder.append(wire.data() + wire.size() - 1, 1);
    ASSERT_EQ(decoder.next(out), net::frame_decoder::status::frame);
    EXPECT_EQ(out, payload);
    EXPECT_EQ(decoder.next(out), net::frame_decoder::status::need_more);
    EXPECT_EQ(decoder.mode(), net::frame_decoder::wire_mode::binary);
}

TEST(NetFraming, MultipleFramesInOneAppend) {
    const std::string wire = net::encode_frame(net::frame_type::request, "first")
                             + net::encode_frame(net::frame_type::request, "second")
                             + net::encode_frame(net::frame_type::request, "third").substr(0, 4);  // torn tail
    net::frame_decoder decoder;
    decoder.append(wire.data(), wire.size());
    std::string out;
    ASSERT_EQ(decoder.next(out), net::frame_decoder::status::frame);
    EXPECT_EQ(out, "first");
    ASSERT_EQ(decoder.next(out), net::frame_decoder::status::frame);
    EXPECT_EQ(out, "second");
    EXPECT_EQ(decoder.next(out), net::frame_decoder::status::need_more);
    const std::string rest = net::encode_frame(net::frame_type::request, "third").substr(4);
    decoder.append(rest.data(), rest.size());
    ASSERT_EQ(decoder.next(out), net::frame_decoder::status::frame);
    EXPECT_EQ(out, "third");
}

TEST(NetFraming, OversizedFrameIsRejectedBeforeBuffering) {
    net::frame_decoder decoder{ 64 };
    // header announcing a 1 MiB payload — only the header arrives
    net::wire_writer header;
    header.u8(net::frame_magic);
    header.u8(1);
    header.u32(1u << 20);
    decoder.append(header.data().data(), header.data().size());
    std::string out;
    EXPECT_EQ(decoder.next(out), net::frame_decoder::status::oversized);
    EXPECT_EQ(decoder.next(out), net::frame_decoder::status::bad_magic) << "protocol errors are sticky";
}

TEST(NetFraming, BadMagicIsRejected) {
    net::frame_decoder decoder;
    const char junk[] = "GET / HTTP/1.1\r\n";
    decoder.append(junk, sizeof(junk) - 1);
    std::string out;
    EXPECT_EQ(decoder.next(out), net::frame_decoder::status::bad_magic);
}

TEST(NetFraming, JsonLinesSplitAcrossReadsWithCrLf) {
    net::frame_decoder decoder;
    const std::string part1 = "{\"op\": \"liv";
    const std::string part2 = "e\"}\r\n{\"op\": \"ready\"}\n";
    decoder.append(part1.data(), part1.size());
    std::string out;
    EXPECT_EQ(decoder.next(out), net::frame_decoder::status::need_more);
    decoder.append(part2.data(), part2.size());
    ASSERT_EQ(decoder.next(out), net::frame_decoder::status::line);
    EXPECT_EQ(out, "{\"op\": \"live\"}") << "CR must be stripped";
    ASSERT_EQ(decoder.next(out), net::frame_decoder::status::line);
    EXPECT_EQ(out, "{\"op\": \"ready\"}");
    EXPECT_EQ(decoder.mode(), net::frame_decoder::wire_mode::json_lines);
}

TEST(NetFraming, UnterminatedJsonLineBeyondLimitIsOversized) {
    net::frame_decoder decoder{ 32 };
    const std::string long_line = "{\"model\": \"" + std::string(64, 'x');
    decoder.append(long_line.data(), long_line.size());
    std::string out;
    EXPECT_EQ(decoder.next(out), net::frame_decoder::status::oversized);
}

// ---------------------------------------------------------------------------
// protocol codecs
// ---------------------------------------------------------------------------

TEST(NetProtocol, BinaryRequestRoundTripDense) {
    net::net_request req;
    req.id = 42;
    req.model = "churn-v3";
    req.cls = request_class::batch;
    req.deadline = 1500us;
    req.dense = { 0.25, -1.5, 3.75 };
    net::net_request decoded;
    const auto error = net::decode_request_binary(net::encode_request_binary(req), decoded);
    ASSERT_FALSE(error.has_value()) << *error;
    EXPECT_EQ(decoded.id, 42u);
    EXPECT_EQ(decoded.model, "churn-v3");
    EXPECT_EQ(decoded.cls, request_class::batch);
    EXPECT_EQ(decoded.deadline, 1500us);
    EXPECT_FALSE(decoded.sparse);
    EXPECT_EQ(decoded.dense, req.dense);
}

TEST(NetProtocol, BinaryRequestRoundTripSparse) {
    net::net_request req;
    req.id = 7;
    req.model = "m";
    req.sparse = true;
    req.sparse_entries = { { 3, 1.5 }, { 17, -0.25 } };
    net::net_request decoded;
    const auto error = net::decode_request_binary(net::encode_request_binary(req), decoded);
    ASSERT_FALSE(error.has_value()) << *error;
    EXPECT_TRUE(decoded.sparse);
    EXPECT_EQ(decoded.sparse_entries, req.sparse_entries);
    EXPECT_EQ(decoded.deadline, 0us) << "no deadline flag, class default applies";
}

TEST(NetProtocol, BinaryRequestRejectsTruncationAndTrailingBytes) {
    net::net_request req;
    req.id = 1;
    req.model = "m";
    req.dense = { 1.0, 2.0 };
    const std::string payload = net::encode_request_binary(req);
    net::net_request decoded;
    EXPECT_TRUE(net::decode_request_binary(payload.substr(0, payload.size() - 3), decoded).has_value());
    EXPECT_TRUE(net::decode_request_binary(payload + "x", decoded).has_value());
    EXPECT_TRUE(net::decode_request_binary("", decoded).has_value());
    // a claimed element count far beyond the payload must be rejected
    // without attempting the allocation
    net::wire_writer hostile;
    hostile.u64(1);
    hostile.u8(0);
    hostile.u8(0);
    hostile.str16("m");
    hostile.u32(0xFFFFFFFFu);
    EXPECT_TRUE(net::decode_request_binary(hostile.take(), decoded).has_value());
}

// Asserts: a binary request whose entry count exceeds what its remaining
// payload bytes can carry (8 bytes per dense entry, 12 per sparse one) is
// rejected before the decoder reserves anything. Strategy: hand-build a
// dense and a sparse frame that claim the largest accepted count (2^22) but
// carry one entry; each decode must return an error and leave the decoded
// entry vectors at capacity 0.
TEST(NetProtocol, EntryCountBeyondThePayloadIsRejectedBeforeAllocating) {
    for (const bool sparse : { false, true }) {
        net::wire_writer frame;
        frame.u64(1);
        frame.u8(sparse ? 0x01 : 0x00);
        frame.u8(0);
        frame.str16("m");
        frame.u32(1u << 22);
        if (sparse) {
            frame.u32(3);
        }
        frame.f64(0.5);
        net::net_request decoded;
        EXPECT_TRUE(net::decode_request_binary(frame.take(), decoded).has_value()) << (sparse ? "sparse" : "dense");
        EXPECT_EQ(decoded.dense.capacity(), 0u) << (sparse ? "sparse" : "dense");
        EXPECT_EQ(decoded.sparse_entries.capacity(), 0u) << (sparse ? "sparse" : "dense");
    }
}

TEST(NetProtocol, BinaryResponseRoundTrip) {
    for (const net::response_status status : { net::response_status::ok, net::response_status::retry_after,
                                               net::response_status::failed, net::response_status::not_found }) {
        net::net_response resp;
        resp.id = 99;
        resp.status = status;
        resp.value = 0.625;
        resp.retry_after_us = 1250;
        resp.error = "boom";
        net::net_response decoded;
        const auto error = net::decode_response_binary(net::encode_response_binary(resp), decoded);
        ASSERT_FALSE(error.has_value()) << *error;
        EXPECT_EQ(decoded.id, 99u);
        EXPECT_EQ(decoded.status, status);
        if (status == net::response_status::ok) {
            EXPECT_DOUBLE_EQ(decoded.value, 0.625);
        } else if (status == net::response_status::retry_after) {
            EXPECT_EQ(decoded.retry_after_us, 1250u);
        } else {
            EXPECT_EQ(decoded.error, "boom");
        }
    }
}

// Asserts: the binary encoders allocate a 256-feature request's exact size:
// its payload and its frame carry at most a few bytes of spare capacity (a
// byte-by-byte append grew a 2,069-byte payload to 3,840 bytes of
// capacity, and every query a client keeps encoded kept that slack), and
// the bytes still decode to the request. Strategy: encode a dense request
// with every optional field and a sparse one, compare capacity() with
// size(), and round-trip both frames through the decoders.
TEST(NetProtocol, RequestEncodersAllocateTheirExactSize) {
    constexpr std::size_t slack = 8;
    net::net_request dense;
    dense.id = 41;
    dense.model = "ovr";
    dense.deadline = std::chrono::microseconds{ 2500 };
    dense.trace_id = 77;
    for (std::size_t f = 0; f < 256; ++f) {
        dense.dense.push_back(0.25 * static_cast<double>(f) - 3.0);
    }
    net::net_request sparse;
    sparse.id = 42;
    sparse.model = "ovr";
    sparse.sparse = true;
    for (std::uint32_t f = 0; f < 256; f += 3) {
        sparse.sparse_entries.emplace_back(f, 1.0 + static_cast<double>(f));
    }
    for (const net::net_request &req : { dense, sparse }) {
        const std::string payload = net::encode_request_binary(req);
        EXPECT_LE(payload.capacity() - payload.size(), slack) << "payload of " << payload.size() << " bytes";
        const std::string frame = net::encode_frame(net::frame_type::request, payload);
        EXPECT_EQ(frame.size(), net::frame_header_bytes + payload.size());
        EXPECT_LE(frame.capacity() - frame.size(), slack) << "frame of " << frame.size() << " bytes";

        net::frame_decoder decoder;
        decoder.append(frame.data(), frame.size());
        std::string received;
        ASSERT_EQ(decoder.next(received), net::frame_decoder::status::frame);
        net::net_request decoded;
        const auto error = net::decode_request_binary(received, decoded);
        ASSERT_FALSE(error.has_value()) << *error;
        EXPECT_EQ(decoded.id, req.id);
        EXPECT_EQ(decoded.model, req.model);
        EXPECT_EQ(decoded.deadline, req.deadline);
        EXPECT_EQ(decoded.trace_id, req.trace_id);
        EXPECT_EQ(decoded.dense, req.dense);
        EXPECT_EQ(decoded.sparse_entries, req.sparse_entries);
    }
}

TEST(NetProtocol, JsonRequestParsesAllFields) {
    net::net_request req;
    const auto error = net::parse_request_json(
        R"({"model": "demo", "id": 12, "class": "background", "deadline_us": 2500, "features": [1.5, -2.0, 0.0]})", req);
    ASSERT_FALSE(error.has_value()) << *error;
    EXPECT_EQ(req.op, net::request_op::predict);
    EXPECT_EQ(req.model, "demo");
    EXPECT_EQ(req.id, 12u);
    EXPECT_EQ(req.cls, request_class::background);
    EXPECT_EQ(req.deadline, 2500us);
    EXPECT_EQ(req.dense, (std::vector<double>{ 1.5, -2.0, 0.0 }));

    // numeric class + sparse payload
    const auto error2 = net::parse_request_json(R"({"model": "m", "class": 1, "sparse": [[4, 0.5], [9, -1.0]]})", req);
    ASSERT_FALSE(error2.has_value()) << *error2;
    EXPECT_EQ(req.cls, request_class::batch);
    ASSERT_TRUE(req.sparse);
    EXPECT_EQ(req.sparse_entries, (std::vector<std::pair<std::uint32_t, double>>{ { 4, 0.5 }, { 9, -1.0 } }));

    // ops don't need a model
    for (const auto &[op_name, op] : std::map<std::string, net::request_op>{
             { "ready", net::request_op::ready }, { "live", net::request_op::live },
             { "stats", net::request_op::stats }, { "metrics", net::request_op::metrics } }) {
        const auto op_error = net::parse_request_json("{\"op\": \"" + op_name + "\"}", req);
        ASSERT_FALSE(op_error.has_value()) << op_name;
        EXPECT_EQ(req.op, op);
    }
}

TEST(NetProtocol, JsonRequestRejectsMalformedInput) {
    net::net_request req;
    EXPECT_TRUE(net::parse_request_json("{\"model\": \"m\", \"features\": [1,", req).has_value()) << "truncated JSON";
    EXPECT_TRUE(net::parse_request_json("{\"features\": [1.0]}", req).has_value()) << "missing model";
    EXPECT_TRUE(net::parse_request_json("{\"model\": \"m\"}", req).has_value()) << "missing payload";
    EXPECT_TRUE(net::parse_request_json(R"({"model": "m", "features": [1], "sparse": [[0, 1]]})", req).has_value())
        << "both payload kinds";
    EXPECT_TRUE(net::parse_request_json(R"({"model": "m", "class": "warp", "features": [1]})", req).has_value())
        << "unknown class";
    EXPECT_TRUE(net::parse_request_json(R"({"model": "m", "class": 7, "features": [1]})", req).has_value())
        << "class out of range";
    EXPECT_TRUE(net::parse_request_json(R"({"model": "m", "features": ["a"]})", req).has_value()) << "non-numeric feature";
    EXPECT_TRUE(net::parse_request_json(R"({"op": "reboot"})", req).has_value()) << "unknown op";
    EXPECT_TRUE(net::parse_request_json("{\"model\": \"m\", \"features\": [1]} trailing", req).has_value())
        << "trailing garbage";
}

// ---------------------------------------------------------------------------
// loopback integration
// ---------------------------------------------------------------------------

TEST(NetServer, BinaryLoopbackPredictionsMatchSyncAcrossConnections) {
    server_fixture fx;
    const aos_matrix<double> points = test::random_matrix(32, 11, 77);
    const std::vector<double> expected = fx.engine->predict(points);

    // two concurrent connections interleave into the same micro-batcher
    client a{ fx.server->port() };
    client b{ fx.server->port() };
    for (std::size_t i = 0; i < points.num_rows(); ++i) {
        const std::vector<double> features(points.row_data(i), points.row_data(i) + points.num_cols());
        (i % 2 == 0 ? a : b).send(binary_predict(i, features));
    }
    std::vector<std::string> frames_a;
    std::vector<std::string> frames_b;
    ASSERT_TRUE(a.read_messages(frames_a, 16));
    ASSERT_TRUE(b.read_messages(frames_b, 16));

    std::map<std::uint64_t, double> results;
    for (const std::vector<std::string> *frames : { &frames_a, &frames_b }) {
        for (const std::string &payload : *frames) {
            net::net_response resp;
            const auto error = net::decode_response_binary(payload, resp);
            ASSERT_FALSE(error.has_value()) << *error;
            ASSERT_EQ(resp.status, net::response_status::ok) << resp.error;
            results[resp.id] = resp.value;
        }
    }
    ASSERT_EQ(results.size(), points.num_rows());
    for (std::size_t i = 0; i < points.num_rows(); ++i) {
        EXPECT_NEAR(results[i], expected[i], 1e-9 * (1.0 + std::abs(expected[i]))) << "request " << i;
    }
    const net::net_counters counters = fx.server->counters();
    EXPECT_EQ(counters.requests_total, points.num_rows());
    EXPECT_EQ(counters.responses_ok, points.num_rows());
    EXPECT_EQ(counters.connections_accepted, 2u);
}

TEST(NetServer, SparseBinaryRequestMatchesDense) {
    server_fixture fx;
    std::vector<double> dense(11, 0.0);
    dense[2] = 1.25;
    dense[7] = -0.5;
    // binary models and one-vs-all ensembles accept sparse requests alike
    for (const std::string model : { "demo", "ensemble" }) {
        SCOPED_TRACE(model);
        client c{ fx.server->port() };
        c.send(binary_predict(0, dense, model));
        net::net_request sparse_req;
        sparse_req.id = 1;
        sparse_req.model = model;
        sparse_req.sparse = true;
        sparse_req.sparse_entries = { { 2, 1.25 }, { 7, -0.5 } };
        c.send(net::encode_frame(net::frame_type::request, net::encode_request_binary(sparse_req)));

        std::vector<std::string> frames;
        ASSERT_TRUE(c.read_messages(frames, 2));
        std::map<std::uint64_t, double> results;
        for (const std::string &payload : frames) {
            net::net_response resp;
            ASSERT_FALSE(net::decode_response_binary(payload, resp).has_value());
            ASSERT_EQ(resp.status, net::response_status::ok) << resp.error;
            results[resp.id] = resp.value;
        }
        ASSERT_EQ(results.size(), 2u);
        EXPECT_NEAR(results[0], results[1], 1e-12);
    }
}

TEST(NetServer, JsonLoopbackPredictAndProbes) {
    server_fixture fx;
    client c{ fx.server->port() };
    c.send("{\"op\": \"live\"}\n{\"op\": \"ready\"}\n");
    std::vector<std::string> lines;
    ASSERT_TRUE(c.read_messages(lines, 2));
    EXPECT_NE(lines[0].find("\"live\": true"), std::string::npos) << lines[0];
    EXPECT_NE(lines[1].find("\"ready\": true"), std::string::npos) << lines[1];
    EXPECT_NE(lines[1].find("\"health\": \"healthy\""), std::string::npos) << lines[1];

    c.send("{\"model\": \"demo\", \"id\": 5, \"features\": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1]}\n");
    lines.clear();
    ASSERT_TRUE(c.read_messages(lines, 1));
    EXPECT_NE(lines[0].find("\"id\": 5"), std::string::npos) << lines[0];
    EXPECT_NE(lines[0].find("\"status\": \"ok\""), std::string::npos) << lines[0];
    EXPECT_NE(lines[0].find("\"value\": "), std::string::npos) << lines[0];

    c.send("{\"op\": \"stats\"}\n{\"op\": \"metrics\"}\n");
    lines.clear();
    ASSERT_TRUE(c.read_messages(lines, 2));
    EXPECT_NE(lines[0].find("\"net\": {\"listen_port\": "), std::string::npos) << lines[0];
    EXPECT_NE(lines[0].find("\"registry\": {\"health\": "), std::string::npos) << lines[0];
    EXPECT_NE(lines[0].find("\"per_connection\": ["), std::string::npos) << lines[0];
    EXPECT_NE(lines[1].find("plssvm_serve_net_requests_total"), std::string::npos) << lines[1];
}

TEST(NetServer, MalformedJsonGetsBadRequestAndConnectionSurvives) {
    server_fixture fx;
    client c{ fx.server->port() };
    c.send("{\"model\": \"demo\", \"features\": [1, oops]}\n");
    std::vector<std::string> lines;
    ASSERT_TRUE(c.read_messages(lines, 1));
    EXPECT_NE(lines[0].find("\"status\": \"bad_request\""), std::string::npos) << lines[0];
    // the connection is still usable afterwards
    c.send("{\"op\": \"live\"}\n");
    lines.clear();
    ASSERT_TRUE(c.read_messages(lines, 1));
    EXPECT_NE(lines[0].find("\"live\": true"), std::string::npos) << lines[0];
    EXPECT_GE(fx.server->counters().malformed_total, 1u);
}

TEST(NetServer, UnknownModelAndFeatureMismatchAreTypedErrors) {
    server_fixture fx;
    client c{ fx.server->port() };
    c.send(binary_predict(1, std::vector<double>(11, 0.5), "no-such-model"));
    c.send(binary_predict(2, std::vector<double>(3, 0.5)));  // model has 11 features
    std::vector<std::string> frames;
    ASSERT_TRUE(c.read_messages(frames, 2));
    std::map<std::uint64_t, net::net_response> responses;
    for (const std::string &payload : frames) {
        net::net_response resp;
        ASSERT_FALSE(net::decode_response_binary(payload, resp).has_value());
        responses[resp.id] = resp;
    }
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[1].status, net::response_status::not_found);
    EXPECT_NE(responses[1].error.find("no-such-model"), std::string::npos);
    EXPECT_EQ(responses[2].status, net::response_status::bad_request);
    const net::net_counters counters = fx.server->counters();
    EXPECT_EQ(counters.responses_not_found, 1u);
    EXPECT_EQ(counters.responses_bad_request, 1u);
}

TEST(NetServer, OversizedFrameGetsErrorThenClose) {
    server_fixture fx;
    client c{ fx.server->port() };
    net::wire_writer header;
    header.u8(net::frame_magic);
    header.u8(1);
    header.u32(64u << 20);  // 64 MiB claim > 1 MiB default limit
    c.send(header.take());
    std::vector<std::string> frames;
    ASSERT_TRUE(c.read_messages(frames, 1));
    net::net_response resp;
    ASSERT_FALSE(net::decode_response_binary(frames[0], resp).has_value());
    EXPECT_EQ(resp.status, net::response_status::bad_request);
    EXPECT_NE(resp.error.find("frame limit"), std::string::npos);
    EXPECT_TRUE(c.at_eof()) << "server must close after an oversized frame";
    EXPECT_TRUE(test::wait_until([&] { return fx.server->counters().oversized_total == 1; }));
}

TEST(NetServer, NonProtocolBytesCloseTheConnection) {
    server_fixture fx;
    client c{ fx.server->port() };
    c.send("GET / HTTP/1.1\r\n\r\n");
    EXPECT_TRUE(c.at_eof());
    EXPECT_TRUE(test::wait_until([&] { return fx.server->counters().bad_magic_total == 1; }));
}

TEST(NetServer, ConnectionChurnMidBatchLeavesSurvivorsIntact) {
    // held drain thread: requests from both connections are still queued in
    // the micro-batcher when one connection dies
    engine_config config = net_test_config();
    config.max_batch_size = 64;
    server_fixture fx{ config };
    auto gate = std::make_unique<test::drain_gate>(*fx.engine);
    ASSERT_TRUE(gate->held());

    auto victim = std::make_unique<client>(fx.server->port());
    client survivor{ fx.server->port() };
    for (std::uint64_t i = 0; i < 4; ++i) {
        victim->send(binary_predict(100 + i, std::vector<double>(11, 0.25)));
        survivor.send(binary_predict(200 + i, std::vector<double>(11, 0.5)));
    }
    ASSERT_TRUE(test::wait_until([&] { return fx.engine->pending_requests() == 8; }));
    victim.reset();  // close mid-batch: its responses have nowhere to go
    ASSERT_TRUE(test::wait_until([&] { return fx.server->counters().connections_closed == 1; }));
    gate.reset();

    std::vector<std::string> frames;
    ASSERT_TRUE(survivor.read_messages(frames, 4)) << "survivor must still get all responses";
    for (const std::string &payload : frames) {
        net::net_response resp;
        ASSERT_FALSE(net::decode_response_binary(payload, resp).has_value());
        EXPECT_EQ(resp.status, net::response_status::ok) << resp.error;
        EXPECT_GE(resp.id, 200u);
    }
    // a second round proves the event loop survived the churn
    survivor.send(binary_predict(300, std::vector<double>(11, 0.75)));
    frames.clear();
    ASSERT_TRUE(survivor.read_messages(frames, 1));
    // all 8 submitted requests were accepted; the victim's 4 settled into
    // dropped responses, not crashes
    EXPECT_EQ(fx.server->counters().requests_total, 9u);
}

TEST(NetServer, ShedMapsToRetryAfterWithNonzeroHint) {
    engine_config config = net_test_config();
    // 10 tokens/s, burst 1: the second immediate request must shed with a
    // ~100 ms retry-after hint
    config.qos.classes[plssvm::serve::class_index(request_class::interactive)].rate_limit = 10.0;
    config.qos.classes[plssvm::serve::class_index(request_class::interactive)].burst = 1.0;
    server_fixture fx{ config };

    client c{ fx.server->port() };
    c.send(binary_predict(1, std::vector<double>(11, 0.1)));
    c.send(binary_predict(2, std::vector<double>(11, 0.2)));
    std::vector<std::string> frames;
    ASSERT_TRUE(c.read_messages(frames, 2));
    std::map<std::uint64_t, net::net_response> responses;
    for (const std::string &payload : frames) {
        net::net_response resp;
        ASSERT_FALSE(net::decode_response_binary(payload, resp).has_value());
        responses[resp.id] = resp;
    }
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[1].status, net::response_status::ok) << responses[1].error;
    ASSERT_EQ(responses[2].status, net::response_status::retry_after);
    EXPECT_GT(responses[2].retry_after_us, 0u) << "rate-limited sheds must carry the token-bucket hint";
    EXPECT_LE(responses[2].retry_after_us, 150000u);
    EXPECT_EQ(fx.server->counters().responses_retry_after, 1u);
}

TEST(NetServer, ReadinessFlipsWhenInjectedFaultsTurnCritical) {
    // the blocked host path persistently fails while reference stays
    // healthy: a 64-point batch (deterministically routed to host_blocked by
    // `choose_path`) trips its breaker, the open breaker drives the engine
    // critical, and the JSON-mode readiness probe must flip — while every
    // request still completes via the fallback ladder
    auto inject = std::make_shared<fault::injector>();
    inject->add_rule({ .site = fault::fault_site::batch_kernel,
                       .kind = fault::fault_kind::kernel_throw,
                       .path = plssvm::serve::predict_path::host_blocked });
    engine_config config = net_test_config();
    config.max_batch_size = 64;
    config.fault.inject = inject;
    config.fault.breaker.min_samples = 2;
    config.fault.breaker.window = 8;
    config.fault.breaker.open_duration = std::chrono::microseconds{ 10s };
    server_fixture fx{ config };

    client c{ fx.server->port() };
    c.send("{\"op\": \"ready\"}\n");
    std::vector<std::string> lines;
    ASSERT_TRUE(c.read_messages(lines, 1));
    EXPECT_NE(lines[0].find("\"ready\": true"), std::string::npos) << lines[0];
    EXPECT_TRUE(fx.server->ready());

    const std::string features = "[0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]";
    std::string burst;
    for (int i = 0; i < 64; ++i) {
        burst += "{\"model\": \"demo\", \"id\": " + std::to_string(i) + ", \"features\": " + features + "}\n";
    }
    {
        // coalesce all 64 wire requests into one batch behind a held drain
        // thread (the gate's own 1-point batch takes the reference path)
        test::drain_gate gate{ *fx.engine };
        ASSERT_TRUE(gate.held());
        c.send(burst);
        ASSERT_TRUE(test::wait_until([&] { return fx.engine->pending_requests() == 64; }));
    }
    lines.clear();
    ASSERT_TRUE(c.read_messages(lines, 64));
    for (const std::string &line : lines) {
        EXPECT_NE(line.find("\"status\": \"ok\""), std::string::npos) << "fallback ladder must complete the request: " << line;
    }
    // post-batch health bookkeeping runs after the futures settle
    EXPECT_TRUE(test::wait_until([&] { return fx.registry.health() == health_state::critical; }));
    EXPECT_FALSE(fx.server->ready());
    c.send("{\"op\": \"ready\"}\n");
    lines.clear();
    ASSERT_TRUE(c.read_messages(lines, 1));
    EXPECT_NE(lines[0].find("\"ready\": false"), std::string::npos) << lines[0];
    EXPECT_NE(lines[0].find("\"health\": \"critical\""), std::string::npos) << lines[0];
}

TEST(NetServer, StopWithInflightRequestsDrainsCleanly) {
    engine_config config = held_engine_config(net_test_config(), 50ms);
    config.max_batch_size = 64;
    server_fixture fx{ config };
    client c{ fx.server->port() };
    for (std::uint64_t i = 0; i < 8; ++i) {
        c.send(binary_predict(i, std::vector<double>(11, 0.3)));
    }
    // stop mid-batch once every request is decoded and submitted (the held
    // engine keeps them inflight): a sleep could instead close the socket on
    // unread requests, which resets the connection
    ASSERT_TRUE(test::wait_until([&] { return fx.server->counters().requests_total == 8; }));
    fx.server->stop();  // must wait for the inflight callbacks without hanging
    EXPECT_EQ(fx.server->inflight(), 0u);
    EXPECT_TRUE(c.at_eof());
}

// Asserts: a response that is ready is written at once, not queued behind
// an earlier response that is not ready. Strategy: model "slow" is held by a
// 500 ms slow_batch rule; two requests to it are in flight when a request
// to "demo" arrives on another connection. Its answer must arrive while
// both "slow" requests are still in flight and unanswered. A response
// path that waits for responses in arrival order fails this.
TEST(NetServer, ReadyResponseIsNotQueuedBehindAnUnreadyOne) {
    server_fixture fx;
    (void) fx.registry.load("slow", test::random_model(kernel_type::linear), held_engine_config(net_test_config(), 500ms));
    client a{ fx.server->port() };
    client b{ fx.server->port() };
    a.send(binary_predict(1, std::vector<double>(11, 0.1), "slow"));
    a.send(binary_predict(2, std::vector<double>(11, 0.2), "slow"));
    ASSERT_TRUE(test::wait_until([&] { return fx.server->counters().requests_total == 2; }));
    b.send(binary_predict(3, std::vector<double>(11, 0.3)));
    std::vector<std::string> frames;
    ASSERT_TRUE(b.read_messages(frames, 1));
    EXPECT_GE(fx.server->inflight(), 2u) << "both held requests must still be in flight";
    EXPECT_EQ(fx.server->counters().responses_ok, 1u) << "the ready response must not wait for the held ones";
    net::net_response resp;
    ASSERT_FALSE(net::decode_response_binary(frames[0], resp).has_value());
    EXPECT_EQ(resp.id, 3u);
    EXPECT_EQ(resp.status, net::response_status::ok) << resp.error;
    // the held requests complete once their batch is done
    frames.clear();
    ASSERT_TRUE(a.read_messages(frames, 2));
    for (const std::string &payload : frames) {
        ASSERT_FALSE(net::decode_response_binary(payload, resp).has_value());
        EXPECT_EQ(resp.status, net::response_status::ok) << resp.error;
    }
}

// Asserts: the wire counters account for every decoded predict request:
// at quiescence `requests_total` equals the predict responses plus
// `inflight()`, after ok, shed, not-found, bad-request and malformed
// traffic. Strategy: send each kind, wait until nothing is in flight and
// every answer arrived, then check the identity; malformed and oversized
// input never decodes into a request, so it is answered but not counted.
TEST(NetServer, WireAccountingBalancesRequestsAgainstResponses) {
    engine_config config = net_test_config();
    // the batch class sheds after one request (10 tokens/s, burst 1)
    config.qos.classes[plssvm::serve::class_index(request_class::batch)].rate_limit = 10.0;
    config.qos.classes[plssvm::serve::class_index(request_class::batch)].burst = 1.0;
    server_fixture fx{ config };
    client c{ fx.server->port() };
    const std::string features = "[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1]";
    std::string traffic;
    for (int i = 0; i < 4; ++i) {
        traffic += "{\"model\": \"demo\", \"id\": " + std::to_string(i) + ", \"features\": " + features + "}\n";
        traffic += "{\"model\": \"ensemble\", \"class\": \"batch\", \"features\": " + features + "}\n";
    }
    traffic += "{\"model\": \"no-such-model\", \"features\": " + features + "}\n";  // not found
    traffic += "{\"model\": \"demo\", \"features\": [1.0, 2.0]}\n";                  // feature mismatch
    traffic += "{\"model\": \"demo\", \"features\": [1, oops]}\n";                   // malformed
    c.send(traffic);
    std::vector<std::string> lines;
    ASSERT_TRUE(c.read_messages(lines, 11));
    ASSERT_TRUE(test::wait_until([&] { return fx.server->inflight() == 0; }));

    const net::net_counters counters = fx.server->counters();
    EXPECT_EQ(counters.requests_total, 10u);
    EXPECT_EQ(counters.malformed_total, 1u);
    EXPECT_GE(counters.responses_ok, 5u);
    EXPECT_GE(counters.responses_retry_after, 1u) << "the batch class must shed";
    EXPECT_EQ(counters.responses_not_found, 1u);
    const std::uint64_t predict_responses = counters.responses_ok + counters.responses_retry_after + counters.responses_failed
                                            + counters.responses_not_found
                                            + (counters.responses_bad_request - counters.malformed_total - counters.oversized_total);
    EXPECT_EQ(counters.requests_total, predict_responses + fx.server->inflight());
}

// Asserts: destroying the server right after stop(), while requests were in
// flight on a held engine, is clean: stop() returns only after every
// completion callback ran, so no callback touches the destroyed server (run
// under ASan to see a use-after-free). Strategy: hold the engine with a
// 50 ms slow_batch rule, submit 8 requests, then stop and destroy the
// server at once; the registry's engine must still serve afterwards.
TEST(NetServer, DestroyingTheServerRightAfterStopWithInflightRequestsIsClean) {
    engine_config config = held_engine_config(net_test_config(), 50ms);
    server_fixture fx{ config };
    client c{ fx.server->port() };
    for (std::uint64_t i = 0; i < 8; ++i) {
        c.send(binary_predict(i, std::vector<double>(11, 0.3)));
    }
    ASSERT_TRUE(test::wait_until([&] { return fx.server->counters().requests_total == 8; }));
    EXPECT_GE(fx.server->inflight(), 1u) << "the held engine keeps requests in flight";
    fx.server->stop();
    EXPECT_EQ(fx.server->inflight(), 0u) << "stop() must wait for every callback";
    fx.server.reset();
    EXPECT_NO_THROW((void) fx.engine->submit(std::vector<double>(11, 0.3)).get());
}

TEST(NetServer, MetricsExpositionIncludesNetSamples) {
    server_fixture fx;
    client c{ fx.server->port() };
    c.send(binary_predict(1, std::vector<double>(11, 0.4)));
    std::vector<std::string> frames;
    ASSERT_TRUE(c.read_messages(frames, 1));
    const std::string text = fx.server->metrics_text();
    EXPECT_NE(text.find("plssvm_serve_net_connections_open 1"), std::string::npos) << text;
    EXPECT_NE(text.find("plssvm_serve_net_responses_total{status=\"ok\"} 1"), std::string::npos) << text;
    EXPECT_NE(text.find("plssvm_serve_net_request_seconds_count"), std::string::npos) << text;
    EXPECT_NE(text.find("plssvm_serve_net_ready 1"), std::string::npos) << text;
    EXPECT_NE(text.find("plssvm_serve_requests_total"), std::string::npos) << "registry exposition must be included";
}

}  // namespace
