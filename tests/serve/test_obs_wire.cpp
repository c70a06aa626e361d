/**
 * @file
 * @brief Tests of the wire-to-wire observability plane (gtest prefix `Obs`,
 *        ctest label `obs`): rolling time-series store semantics under a
 *        fake clock (rollover, ring wraparound, idle gaps), multi-window
 *        SLO burn-rate determinism, SLO alerts feeding the health monitor
 *        and flight recorder, wire trace propagation parity (binary + JSON,
 *        sampled vs client-forced), net exposition validity, and drain
 *        readiness semantics.
 */

#include "plssvm/serve/net/framing.hpp"
#include "plssvm/serve/net/protocol.hpp"
#include "plssvm/serve/net/server.hpp"

#include "plssvm/core/parameter.hpp"
#include "plssvm/serve/fault.hpp"
#include "plssvm/serve/inference_engine.hpp"
#include "plssvm/serve/model_registry.hpp"
#include "plssvm/serve/obs.hpp"
#include "plssvm/serve/qos.hpp"
#include "plssvm/serve/slo.hpp"
#include "serve/serve_test_utils.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace {

using plssvm::kernel_type;
using plssvm::serve::engine_config;
using plssvm::serve::health_state;
using plssvm::serve::inference_engine;
using plssvm::serve::model_registry;
using plssvm::serve::request_class;
using plssvm::serve::request_options;
using plssvm::serve::slo_alert_state;
using plssvm::serve::slo_config;
using plssvm::serve::slo_engine;
using plssvm::serve::slo_report;
using plssvm::serve::class_index;
namespace fault = plssvm::serve::fault;
namespace obs = plssvm::serve::obs;
namespace net = plssvm::serve::net;
namespace test = plssvm::test;
using namespace std::chrono_literals;

/// A fully deterministic fake steady-clock instant: @p seconds past an
/// arbitrary epoch offset (non-zero so bucket index arithmetic is exercised
/// away from zero).
[[nodiscard]] std::chrono::steady_clock::time_point fake_time(const std::int64_t seconds) {
    return std::chrono::steady_clock::time_point{} + std::chrono::seconds{ 10'000 + seconds };
}

// ---------------------------------------------------------------------------
// rolling time-series store (fake clock: fully deterministic)
// ---------------------------------------------------------------------------

TEST(ObsTimeSeries, FakeClockWindowAggregation) {
    obs::time_series_store store;
    // one completion per second for 10 s, plus one shed and one failure in
    // the last second
    for (std::int64_t s = 0; s < 10; ++s) {
        store.record_complete(request_class::interactive, fake_time(s), 0.002, false);
    }
    store.record_shed(request_class::interactive, fake_time(9));
    store.record_failure(request_class::batch, fake_time(9));

    const auto views = store.windows(fake_time(9), { 10s, 60s });
    ASSERT_EQ(views.size(), 2U);
    const std::size_t i = class_index(request_class::interactive);
    // the 10 s window ends at the query instant and covers all 10 buckets
    EXPECT_EQ(views[0].completed[i], 10U);
    EXPECT_EQ(views[0].shed[i], 1U);
    EXPECT_EQ(views[0].failed[class_index(request_class::batch)], 1U);
    EXPECT_DOUBLE_EQ(views[0].rate(request_class::interactive), 1.0);
    EXPECT_DOUBLE_EQ(views[0].availability(request_class::interactive), 10.0 / 11.0);
    // the latency histogram rides along per bucket and merges across them
    EXPECT_EQ(views[0].latency[i].count(), 10U);
    EXPECT_EQ(views[0].latency[i].count_le(0.005), 10U);
    // the wider window sees the same traffic (nothing older exists)
    EXPECT_EQ(views[1].completed[i], 10U);
    EXPECT_EQ(views[1].total_completed(), 10U);
}

TEST(ObsTimeSeries, WindowExcludesBucketsOlderThanItsSpan) {
    obs::time_series_store store;
    for (std::int64_t s = 0; s < 30; ++s) {
        store.record_complete(request_class::interactive, fake_time(s), 0.001, false);
    }
    const auto views = store.windows(fake_time(29), { 10s, 60s });
    const std::size_t i = class_index(request_class::interactive);
    EXPECT_EQ(views[0].completed[i], 10U) << "10 s window must only count seconds 20..29";
    EXPECT_EQ(views[1].completed[i], 30U);
}

TEST(ObsTimeSeries, RingWraparoundLapsOldBuckets) {
    obs::time_series_store store{ 8 };  // tiny ring: every 8 s the bucket recycles
    ASSERT_EQ(store.capacity_seconds(), 8U);
    for (std::int64_t s = 0; s <= 20; ++s) {
        store.record_complete(request_class::interactive, fake_time(s), 0.001, false);
    }
    // a 10 s window wants seconds 11..20, but the 8-slot ring only still
    // holds seconds 13..20 — the lapped buckets must be gone, not double
    // counted
    const auto views = store.windows(fake_time(20), { 10s });
    EXPECT_EQ(views[0].completed[class_index(request_class::interactive)], 8U);
}

TEST(ObsTimeSeries, LappedObservationIsDropped) {
    obs::time_series_store store{ 8 };
    store.record_complete(request_class::interactive, fake_time(0), 0.001, false);
    // rotate the same physical bucket to a newer second...
    store.record_complete(request_class::interactive, fake_time(8), 0.001, false);
    // ...then deliver a straggler stamped with the lapped second: dropped
    store.record_complete(request_class::interactive, fake_time(0), 0.001, false);
    const auto views = store.windows(fake_time(8), { 60s });
    EXPECT_EQ(views[0].completed[class_index(request_class::interactive)], 1U);
}

// Asserts: a window's latency histogram is exactly the histogram of the
// values recorded in it, whatever order they arrived in. Strategy: record
// 600 latencies spread log-uniformly over the histogram's range (1 ns to
// 2^40 ns, hundreds of distinct buckets) into one second in shuffled order,
// then a straggler into the previous, not yet lapped second; compare
// count() and count_le at every bucket's upper bound with a
// latency_histogram fed the same values.
TEST(ObsTimeSeries, WindowLatencyMatchesAHistogramOfTheSameValues) {
    std::vector<double> latencies;
    for (int k = 0; k < 600; ++k) {
        latencies.push_back(1e-9 * std::pow(2.0, 40.0 * k / 600.0));
    }
    std::shuffle(latencies.begin(), latencies.end(), std::mt19937{ 42 });
    obs::time_series_store store;
    obs::latency_histogram expected;
    for (const double seconds : latencies) {
        store.record_complete(request_class::batch, fake_time(5), seconds, false);
        expected.record(seconds);
    }
    store.record_complete(request_class::batch, fake_time(4), 0.003, false);
    expected.record(0.003);

    const auto views = store.windows(fake_time(5), { 10s });
    const obs::latency_histogram &window = views[0].latency[class_index(request_class::batch)];
    ASSERT_EQ(window.count(), 601U);
    ASSERT_EQ(window.count(), expected.count());
    for (std::size_t i = 0; i < obs::latency_histogram::num_buckets; ++i) {
        const double upper = static_cast<double>(obs::latency_histogram::bucket_upper_ns(i)) * 1e-9;
        ASSERT_EQ(window.count_le(upper), expected.count_le(upper)) << "bucket " << i;
    }
}

TEST(ObsTimeSeries, IdleGapYieldsZeroRatesAndFullAvailability) {
    obs::time_series_store store;
    store.record_complete(request_class::interactive, fake_time(0), 0.001, false);
    store.record_failure(request_class::interactive, fake_time(0));
    // query far past the recorded traffic: every window is empty
    const auto views = store.windows(fake_time(1'000), { 10s, 60s, 300s });
    for (const auto &view : views) {
        EXPECT_EQ(view.total_completed(), 0U);
        EXPECT_DOUBLE_EQ(view.rate(request_class::interactive), 0.0);
        EXPECT_DOUBLE_EQ(view.availability(request_class::interactive), 1.0) << "idle must read as available";
    }
}

// ---------------------------------------------------------------------------
// SLO burn-rate engine (pure function of (store, now): deterministic)
// ---------------------------------------------------------------------------

/// SLO config with an enabled interactive objective used by the burn tests.
[[nodiscard]] slo_config burn_test_config() {
    slo_config config;
    auto &objective = config.objectives[class_index(request_class::interactive)];
    objective.enabled = true;
    objective.latency_threshold_s = 0.010;
    objective.latency_target = 0.99;       // 1% latency error budget
    objective.availability_target = 0.999;  // 0.1% availability error budget
    return config;
}

TEST(ObsSloBurn, BurnRateArithmetic) {
    // 2% errors against a 1% budget burn at rate 2
    EXPECT_NEAR(slo_engine::burn_rate(0.02, 0.99), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(slo_engine::burn_rate(0.0, 0.99), 0.0);
    EXPECT_DOUBLE_EQ(slo_engine::burn_rate(-0.5, 0.99), 0.0) << "negative error fractions clamp to zero";
    // zero budget (target 1.0): any error burns infinitely fast, none burns at all
    EXPECT_TRUE(std::isinf(slo_engine::burn_rate(0.25, 1.0)));
    EXPECT_DOUBLE_EQ(slo_engine::burn_rate(0.0, 1.0), 0.0);
}

TEST(ObsSloBurn, SustainedLatencyBurnGoesCritical) {
    obs::time_series_store store;
    // every request blows the 10 ms threshold, sustained across the full
    // slow window: error fraction 1.0 against a 1% budget = burn rate 100
    for (std::int64_t s = 0; s <= 300; ++s) {
        store.record_complete(request_class::interactive, fake_time(s), 0.050, false);
    }
    const slo_engine engine{ burn_test_config() };
    const slo_report report = engine.evaluate(store, fake_time(300));
    const auto &cls = report.classes[class_index(request_class::interactive)];
    EXPECT_GE(cls.latency_fast_burn, 14.4);
    EXPECT_GE(cls.latency_slow_burn, 14.4);
    EXPECT_EQ(cls.state, slo_alert_state::critical);
    EXPECT_EQ(report.worst, slo_alert_state::critical);
}

TEST(ObsSloBurn, SustainedAvailabilityBurnGoesCritical) {
    obs::time_series_store store;
    // half the offered traffic fails for the full slow window: 50% errors
    // against a 0.1% budget = burn rate 500
    for (std::int64_t s = 0; s <= 300; ++s) {
        store.record_complete(request_class::interactive, fake_time(s), 0.001, false);
        store.record_failure(request_class::interactive, fake_time(s));
    }
    const slo_engine engine{ burn_test_config() };
    const slo_report report = engine.evaluate(store, fake_time(300));
    const auto &cls = report.classes[class_index(request_class::interactive)];
    EXPECT_GE(cls.availability_fast_burn, 14.4);
    EXPECT_GE(cls.availability_slow_burn, 14.4);
    EXPECT_EQ(report.worst, slo_alert_state::critical);
}

TEST(ObsSloBurn, FastWindowSpikeAloneDoesNotAlert) {
    obs::time_series_store store;
    // long healthy history...
    for (std::int64_t s = 0; s <= 290; ++s) {
        store.record_complete(request_class::interactive, fake_time(s), 0.001, false);
    }
    // ...then a short burst of slow requests in the last seconds: the fast
    // window burns hot, but the slow window proves it is not yet sustained
    for (std::int64_t s = 296; s <= 300; ++s) {
        for (int k = 0; k < 3; ++k) {
            store.record_complete(request_class::interactive, fake_time(s), 0.050, false);
        }
    }
    const slo_engine engine{ burn_test_config() };
    const slo_report report = engine.evaluate(store, fake_time(300));
    const auto &cls = report.classes[class_index(request_class::interactive)];
    EXPECT_GE(cls.latency_fast_burn, 14.4) << "the spike must register in the fast window";
    EXPECT_LT(cls.latency_slow_burn, 6.0) << "diluted over the slow window";
    EXPECT_EQ(cls.state, slo_alert_state::ok) << "multi-window gate: no alert on a blip";
}

TEST(ObsSloBurn, MinRequestsGateSuppressesNoise) {
    obs::time_series_store store;
    // 5 catastrophic requests — burn rate 100, but far below min_requests
    for (int k = 0; k < 5; ++k) {
        store.record_complete(request_class::interactive, fake_time(300), 0.050, false);
    }
    slo_config config = burn_test_config();
    config.min_requests = 10;
    const slo_report report = slo_engine{ config }.evaluate(store, fake_time(300));
    const auto &cls = report.classes[class_index(request_class::interactive)];
    EXPECT_EQ(cls.fast_offered, 5U);
    EXPECT_GE(cls.latency_fast_burn, 14.4) << "burn rates are still reported";
    EXPECT_EQ(cls.state, slo_alert_state::ok) << "too little traffic to page on";
}

TEST(ObsSloBurn, DisabledObjectivesNeverAlert) {
    obs::time_series_store store;
    for (std::int64_t s = 0; s <= 300; ++s) {
        store.record_failure(request_class::interactive, fake_time(s));
    }
    const slo_engine engine{};  // all objectives disabled by default
    EXPECT_FALSE(engine.any_enabled());
    const slo_report report = engine.evaluate(store, fake_time(300));
    EXPECT_EQ(report.worst, slo_alert_state::ok);
}

TEST(ObsSloBurn, ReportRendersAsJson) {
    obs::time_series_store store;
    for (std::int64_t s = 0; s <= 300; ++s) {
        store.record_complete(request_class::interactive, fake_time(s), 0.050, false);
    }
    const slo_engine engine{ burn_test_config() };
    const std::string json = plssvm::serve::to_json(engine.evaluate(store, fake_time(300)));
    EXPECT_NE(json.find("\"worst\": \"critical\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"latency_fast_burn\""), std::string::npos);
    EXPECT_NE(json.find("\"availability_slow_burn\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// SLO alerts -> health monitor -> flight recorder
// ---------------------------------------------------------------------------

TEST(ObsSloHealth, SloFlagsDriveHealthMonitor) {
    fault::health_monitor monitor;
    fault::health_inputs in{};
    EXPECT_EQ(monitor.observe(in).to, health_state::healthy);

    in.slo_degraded = true;
    const auto degraded = monitor.observe(in);
    EXPECT_TRUE(degraded.changed);
    EXPECT_EQ(degraded.to, health_state::degraded);

    in.slo_critical = true;
    const auto critical = monitor.observe(in);
    EXPECT_TRUE(critical.changed);
    EXPECT_EQ(critical.to, health_state::critical);

    in.slo_degraded = false;
    in.slo_critical = false;
    const auto recovered = monitor.observe(in);
    EXPECT_TRUE(recovered.changed);
    EXPECT_EQ(recovered.to, health_state::healthy);
    EXPECT_EQ(monitor.transitions(), 3U);
}

TEST(ObsSloHealth, HealthTransitionForcesRecorderDump) {
    obs::flight_recorder recorder;
    EXPECT_EQ(recorder.health_dumps(), 0U);
    recorder.record_health_transition("healthy", "critical");
    EXPECT_EQ(recorder.health_dumps(), 1U);
    const std::string dump = recorder.last_health_dump();
    EXPECT_NE(dump.find("health:healthy->critical"), std::string::npos) << dump;
}

TEST(ObsSloHealth, InjectedSloBurnEscalatesEngineHealthAndDumps) {
    // fault-injector-driven SLO burn: every batch is stalled past the
    // latency threshold, so the latency error fraction is 1.0 and both burn
    // windows (which cover the whole test run) read burn rate 100 >= 14.4
    engine_config config;
    config.num_threads = 2;
    config.max_batch_size = 8;
    config.fault.inject = std::make_shared<fault::injector>();
    config.fault.inject->add_rule({ .site = fault::fault_site::batch_kernel,
                                    .kind = fault::fault_kind::slow_batch,
                                    .stall = 2ms });
    auto &objective = config.slo.objectives[class_index(request_class::interactive)];
    objective.enabled = true;
    objective.latency_threshold_s = 0.0001;  // the 2 ms stall guarantees a miss
    objective.latency_target = 0.99;
    config.slo.min_requests = 4;

    // a binary model and a one-vs-all ensemble honour the objective alike
    inference_engine<double> binary{ test::random_model(kernel_type::linear), config };
    inference_engine<double> ensemble{ test::random_ensemble(kernel_type::linear), config };
    const std::vector<double> point(11, 0.5);
    for (inference_engine<double> *engine : { &binary, &ensemble }) {
        SCOPED_TRACE(engine->ensemble() ? "ensemble" : "binary");
        // keep offering bursts until the burn escalates the engine (bounded
        // by wall clock, not rounds: a loaded CI host may drain slowly, but
        // every drained batch renews the burn, so escalation is only a
        // matter of time)
        bool escalated = false;
        const auto deadline = std::chrono::steady_clock::now() + 4s;
        while (!escalated && std::chrono::steady_clock::now() < deadline) {
            std::vector<std::future<double>> futures;
            futures.reserve(8);
            for (int i = 0; i < 8; ++i) {
                futures.push_back(engine->submit(point, request_options{}));
            }
            for (auto &future : futures) {
                (void) future.get();
            }
            escalated = engine->health() == health_state::critical;
        }
        EXPECT_TRUE(escalated) << "sustained SLO burn must drive the engine critical";
        const slo_report report = engine->slo();
        EXPECT_EQ(report.worst, slo_alert_state::critical);
        EXPECT_GT(engine->recorder().health_dumps(), 0U) << "the escalation must force a flight-recorder dump";
        const std::string json = engine->stats_json();
        EXPECT_NE(json.find("\"windows\""), std::string::npos) << json;
        EXPECT_NE(json.find("\"slo\""), std::string::npos) << json;
        obs::prometheus_builder builder;
        engine->collect_metrics(builder);
        EXPECT_NE(builder.text().find("plssvm_serve_slo_state"), std::string::npos);
    }
}

// Asserts: with an SLO objective enabled, the engine evaluates the SLO
// windows at most once per steady-clock second (the windows roll no more
// often), however many batches drain in it; without objectives it never
// evaluates them. Strategy: drain 40 one-request batches one after another
// (each submit waits for its answer) on an engine with an objective and on
// one without, then read the engines' evaluation counts; the steady-clock
// seconds between the first submit and the read bound the first count.
TEST(ObsSloCadence, EvaluatesTheSloAtMostOncePerSecond) {
    engine_config config;
    config.num_threads = 2;
    inference_engine<double> plain{ test::random_model(kernel_type::linear), config };
    config.slo.objectives[class_index(request_class::interactive)].enabled = true;
    inference_engine<double> engine{ test::random_model(kernel_type::linear), config };

    const auto steady_second = [] { return std::chrono::duration_cast<std::chrono::seconds>(std::chrono::steady_clock::now().time_since_epoch()).count(); };
    const std::vector<double> point(11, 0.5);
    constexpr std::size_t batches = 40;
    const std::int64_t first = steady_second();
    for (std::size_t i = 0; i < batches; ++i) {
        (void) engine.submit(point, request_options{}).get();
        (void) plain.submit(point, request_options{}).get();
    }
    const std::size_t evaluations = engine.slo_evaluations();
    const std::int64_t last = steady_second();

    EXPECT_GE(evaluations, 1U) << "a drained batch must evaluate the SLO once";
    EXPECT_LE(evaluations, static_cast<std::size_t>(last - first + 1)) << "one evaluation per second at most";
    EXPECT_EQ(plain.slo_evaluations(), 0U);
}

// ---------------------------------------------------------------------------
// wire-to-wire trace propagation over real TCP
// ---------------------------------------------------------------------------

/// Blocking loopback client (same shape as the `Net` suite's helper).
class client {
  public:
    explicit client(const std::uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        const timeval timeout{ 10, 0 };
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

    ~client() {
        if (fd_ >= 0) {
            ::close(fd_);
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

    [[nodiscard]] bool read_messages(std::vector<std::string> &out, const std::size_t want) {
        std::string msg;
        while (out.size() < want) {
            const net::frame_decoder::status st = decoder_.next(msg);
            if (st == net::frame_decoder::status::frame || st == net::frame_decoder::status::line) {
                out.push_back(msg);
                continue;
            }
            if (st != net::frame_decoder::status::need_more) {
                return false;
            }
            char buf[4096];
            const ssize_t n = ::read(fd_, buf, sizeof(buf));
            if (n <= 0) {
                return false;
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
                return false;
            }
        }
    }

  private:
    int fd_{ -1 };
    net::frame_decoder decoder_;
};

/// Engine config for fast, deterministic loopback tests.
[[nodiscard]] engine_config obs_net_config() {
    engine_config config;
    config.num_threads = 2;
    config.max_batch_size = 16;
    return config;
}

/// Loopback server over a fresh registry serving a binary model ("demo")
/// and a one-vs-all ensemble ("ensemble"), with a configurable net plane.
struct obs_server_fixture {
    explicit obs_server_fixture(const engine_config &config = obs_net_config(),
                                net::net_server_config server_config = {}) :
        registry{ 4, config } {
        engine = registry.load("demo", test::random_model(kernel_type::linear));
        ensemble = registry.load("ensemble", test::random_ensemble(kernel_type::linear));
        server_config.event_threads = 1;
        server = std::make_unique<net::net_server>(server_config, std::make_shared<net::registry_dispatcher<double>>(registry));
    }

    model_registry<double> registry;
    std::shared_ptr<inference_engine<double>> engine;
    std::shared_ptr<inference_engine<double>> ensemble;
    std::unique_ptr<net::net_server> server;
};

/// Whether @p engine's flight recorder retains a wire-complete trace (5
/// engine lifecycle stamps + 6 net stamps) under the client trace id @p id.
[[nodiscard]] bool retains_wire_trace(const inference_engine<double> &engine, const std::uint64_t id) {
    for (const obs::request_trace &trace : engine.recorder().traces(request_class::interactive)) {
        if (trace.id == id && trace.wire_complete()) {
            return true;
        }
    }
    return false;
}

[[nodiscard]] std::string binary_predict_traced(const std::uint64_t id, const std::uint64_t trace_id,
                                                const std::vector<double> &features,
                                                const std::string &model = "demo") {
    net::net_request req;
    req.id = id;
    req.model = model;
    req.dense = features;
    req.trace_id = trace_id;
    return net::encode_frame(net::frame_type::request, net::encode_request_binary(req));
}

/// Fetch the server's trace dump over a JSON client and test for @p needle.
[[nodiscard]] bool trace_dump_contains(client &tracer, const std::string &needle, std::string *last = nullptr) {
    tracer.send("{\"op\": \"trace\"}\n");
    std::vector<std::string> out;
    if (!tracer.read_messages(out, 1)) {
        return false;
    }
    if (last != nullptr) {
        *last = out.back();
    }
    return out.back().find(needle) != std::string::npos;
}

TEST(ObsWireTrace, BinaryTraceIdRoundTripsWithNineStamps) {
    obs_server_fixture fx;
    client predictor{ fx.server->port() };
    predictor.send(binary_predict_traced(7, 424'242, std::vector<double>(11, 0.25)));
    std::vector<std::string> responses;
    ASSERT_TRUE(predictor.read_messages(responses, 1));

    client tracer{ fx.server->port() };
    std::string dump;
    ASSERT_TRUE(test::wait_until([&] { return trace_dump_contains(tracer, "\"id\": 424242", &dump); })) << dump;
    // the client-supplied id owns a full wire-to-wire record: 5 engine
    // lifecycle stamps + 6 net stamps, all in the engine's recorder epoch
    EXPECT_NE(dump.find("\"t_admit_ns\""), std::string::npos);
    EXPECT_NE(dump.find("\"t_complete_ns\""), std::string::npos);
    EXPECT_NE(dump.find("\"net\": {\"t_accepted_ns\""), std::string::npos) << dump;
    EXPECT_NE(dump.find("\"t_flushed_ns\""), std::string::npos);
    EXPECT_NE(dump.find("\"wire_complete\": true"), std::string::npos) << dump;
    EXPECT_NE(dump.find("\"demo\""), std::string::npos) << "trace dump is grouped per model";

    // a one-vs-all ensemble request owns the same full wire-to-wire record
    predictor.send(binary_predict_traced(8, 434'343, std::vector<double>(11, 0.25), "ensemble"));
    ASSERT_TRUE(predictor.read_messages(responses, 2));
    EXPECT_TRUE(test::wait_until([&] { return retains_wire_trace(*fx.ensemble, 434'343); }))
        << fx.ensemble->dump_traces();
}

TEST(ObsWireTrace, JsonTraceIdParity) {
    obs_server_fixture fx;
    client c{ fx.server->port() };
    c.send(R"({"model": "demo", "id": 9, "trace_id": 777421, "features": [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]})"
           "\n");
    std::vector<std::string> responses;
    ASSERT_TRUE(c.read_messages(responses, 1));
    EXPECT_NE(responses.front().find("\"status\": \"ok\""), std::string::npos) << responses.front();

    // the same (JSON) connection can pull the trace dump
    std::string dump;
    ASSERT_TRUE(test::wait_until([&] { return trace_dump_contains(c, "\"id\": 777421", &dump); })) << dump;
    EXPECT_NE(dump.find("\"wire_complete\": true"), std::string::npos) << dump;

    // JSON requests to a one-vs-all ensemble are wire-traced the same way
    c.send(R"({"model": "ensemble", "id": 10, "trace_id": 787878, "features": [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]})"
           "\n");
    ASSERT_TRUE(c.read_messages(responses, 2));
    EXPECT_NE(responses.back().find("\"status\": \"ok\""), std::string::npos) << responses.back();
    EXPECT_TRUE(test::wait_until([&] { return retains_wire_trace(*fx.ensemble, 787'878); }))
        << fx.ensemble->dump_traces();
}

TEST(ObsWireTrace, ClientTraceIdForcesTracingWhenSamplingIsOff) {
    engine_config config = obs_net_config();
    config.obs.sampling = { 0.0, 0.0, 0.0 };  // nothing sampled by the engine itself
    obs_server_fixture fx{ config };
    client predictor{ fx.server->port() };
    predictor.send(binary_predict_traced(1, 515'151, std::vector<double>(11, 0.5)));
    std::vector<std::string> responses;
    ASSERT_TRUE(predictor.read_messages(responses, 1));

    client tracer{ fx.server->port() };
    std::string dump;
    ASSERT_TRUE(test::wait_until([&] { return trace_dump_contains(tracer, "\"id\": 515151", &dump); }))
        << "a client-supplied trace id must override sampling: " << dump;
}

TEST(ObsWireTrace, DisabledWireTracingLeavesNoNetStamps) {
    net::net_server_config server_config;
    server_config.wire_tracing = false;
    obs_server_fixture fx{ obs_net_config(), server_config };
    client predictor{ fx.server->port() };
    predictor.send(binary_predict_traced(2, 616'161, std::vector<double>(11, 0.75)));
    std::vector<std::string> responses;
    ASSERT_TRUE(predictor.read_messages(responses, 1));

    // the engine still samples its own (in-process) traces, but no net
    // stamps and no client-correlated id can exist
    ASSERT_TRUE(test::wait_until([&] { return fx.engine->recorder().traces(request_class::interactive).size() > 0; }));
    client tracer{ fx.server->port() };
    std::string dump;
    (void) trace_dump_contains(tracer, "unmatchable", &dump);
    ASSERT_FALSE(dump.empty());
    EXPECT_EQ(dump.find("\"net\": {"), std::string::npos) << dump;
    EXPECT_EQ(dump.find("616161"), std::string::npos) << dump;
}

// ---------------------------------------------------------------------------
// net exposition, windowed families, per-peer accounting, drain readiness
// ---------------------------------------------------------------------------

TEST(ObsExposition, MergedNetExpositionIsValidAndCarriesNewFamilies) {
    obs_server_fixture fx;
    client predictor{ fx.server->port() };
    predictor.send(binary_predict_traced(1, 0, std::vector<double>(11, 0.5)));
    std::vector<std::string> responses;
    ASSERT_TRUE(predictor.read_messages(responses, 1));

    const std::string text = fx.server->metrics_text();
    EXPECT_TRUE(obs::exposition_valid(text)) << text;
    for (const std::string_view family : { "plssvm_serve_build_info", "plssvm_serve_uptime_seconds",
                                           "plssvm_serve_window_rps", "plssvm_serve_window_p99_latency_seconds",
                                           "plssvm_serve_net_peer_requests_total", "plssvm_serve_net_inflight_requests" }) {
        EXPECT_NE(text.find(family), std::string::npos) << "missing family " << family;
    }
    // one builder holds every family, so no HELP/TYPE header repeats
    const std::string header = "# HELP plssvm_serve_build_info";
    const std::size_t first = text.find(header);
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(text.find(header, first + header.size()), std::string::npos) << "duplicated HELP header";
}

TEST(ObsExposition, StatsJsonCarriesWindowsSloPeersAndDrainState) {
    obs_server_fixture fx;
    client predictor{ fx.server->port() };
    predictor.send(binary_predict_traced(1, 0, std::vector<double>(11, 0.5)));
    std::vector<std::string> responses;
    ASSERT_TRUE(predictor.read_messages(responses, 1));

    const std::string net_stats = fx.server->stats_json();
    EXPECT_NE(net_stats.find("\"draining\": false"), std::string::npos) << net_stats;
    EXPECT_NE(net_stats.find("\"inflight\""), std::string::npos);
    EXPECT_NE(net_stats.find("\"per_peer\""), std::string::npos);
    EXPECT_NE(net_stats.find("\"127.0.0.1\""), std::string::npos) << "loopback peer must be accounted";

    for (const auto &engine : { fx.engine, fx.ensemble }) {
        const std::string engine_stats = engine->stats_json();
        EXPECT_NE(engine_stats.find("\"windows\""), std::string::npos) << engine_stats;
        EXPECT_NE(engine_stats.find("\"slo\""), std::string::npos);
    }
}

TEST(ObsDrain, BeginDrainFlipsReadinessAndRejectsNewConnections) {
    obs_server_fixture fx;
    client c{ fx.server->port() };
    c.send("{\"op\": \"ready\"}\n");
    std::vector<std::string> responses;
    ASSERT_TRUE(c.read_messages(responses, 1));
    EXPECT_NE(responses.front().find("\"ready\": true"), std::string::npos) << responses.front();

    fx.server->begin_drain();
    EXPECT_TRUE(fx.server->draining());
    EXPECT_FALSE(fx.server->ready());
    // established connections keep answering, but readiness flips...
    c.send("{\"op\": \"ready\"}\n");
    ASSERT_TRUE(c.read_messages(responses, 2));
    EXPECT_NE(responses.back().find("\"ready\": false"), std::string::npos) << responses.back();
    // ...and new connections are turned away at accept
    client late{ fx.server->port() };
    EXPECT_TRUE(test::wait_until([&] { return late.at_eof(); }));
    EXPECT_EQ(fx.server->inflight(), 0U);
}

}  // namespace
