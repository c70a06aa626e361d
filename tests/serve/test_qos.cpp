/**
 * @file
 * @brief QoS subsystem tests (all suites prefixed `Qos`): token-bucket
 *        accuracy with a fake clock, queue-depth load shedding, per-class
 *        priority ordering in the micro-batcher, the deadline batch cap,
 *        stats-JSON snapshot format, idle-wakeup regression, and
 *        reload-under-QoS consistency.
 */

#include "serve/serve_test_utils.hpp"

#include "plssvm/core/predict.hpp"
#include "plssvm/exceptions.hpp"
#include "plssvm/serve/admission.hpp"
#include "plssvm/serve/inference_engine.hpp"
#include "plssvm/serve/micro_batcher.hpp"
#include "plssvm/serve/model_registry.hpp"
#include "plssvm/serve/qos.hpp"
#include "plssvm/serve/serve_stats.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace {

using plssvm::aos_matrix;
using plssvm::kernel_type;
using plssvm::model;
using plssvm::serve::admission_controller;
using plssvm::serve::admission_decision;
using plssvm::serve::all_request_classes;
using plssvm::serve::class_index;
using plssvm::serve::engine_config;
using plssvm::serve::inference_engine;
using plssvm::serve::micro_batcher;
using plssvm::serve::per_class;
using plssvm::serve::predict_path;
using plssvm::serve::qos_config;
using plssvm::serve::request_class;
using plssvm::serve::request_class_to_string;
using plssvm::serve::request_options;
using plssvm::serve::request_shed_exception;
using plssvm::serve::token_bucket;
namespace test = plssvm::test;
using namespace std::chrono_literals;

using time_point = std::chrono::steady_clock::time_point;

/// A callback for requests whose outcome the test does not read.
void ignore(double, std::exception_ptr) {}

/// Fake-clock origin: the bucket only ever sees the time points we hand it.
[[nodiscard]] time_point fake_now(const std::chrono::microseconds offset = 0us) {
    return time_point{} + 1h + offset;
}

// ---------------------------------------------------------------------------
// token bucket (fake clock, deterministic)
// ---------------------------------------------------------------------------

TEST(QosTokenBucket, BurstThenRefillAtConfiguredRate) {
    token_bucket bucket{ /*rate=*/100.0, /*burst=*/10.0 };
    // a fresh bucket holds one full burst
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(bucket.try_acquire(fake_now())) << "burst token " << i;
    }
    EXPECT_FALSE(bucket.try_acquire(fake_now())) << "burst exhausted at the same instant";
    // 50 ms at 100 tokens/s accrues exactly 5 tokens
    const time_point later = fake_now(50ms);
    for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(bucket.try_acquire(later)) << "refilled token " << i;
    }
    EXPECT_FALSE(bucket.try_acquire(later));
}

TEST(QosTokenBucket, RefillIsCappedAtBurst) {
    token_bucket bucket{ /*rate=*/1000.0, /*burst=*/4.0 };
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(bucket.try_acquire(fake_now()));
    }
    // an hour of refill must still cap at the burst size
    const time_point much_later = fake_now(std::chrono::microseconds{ 3'600'000'000LL });
    EXPECT_DOUBLE_EQ(bucket.available(much_later), 4.0);
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(bucket.try_acquire(much_later));
    }
    EXPECT_FALSE(bucket.try_acquire(much_later));
}

TEST(QosTokenBucket, SubUnitRateStillAdmitsEventually) {
    // regression: rate < 1 with the default burst ("one second of rate")
    // must not produce a bucket whose cap can never hold a whole token
    token_bucket bucket{ /*rate=*/0.5, /*burst=*/0.0 };
    EXPECT_TRUE(bucket.try_acquire(fake_now())) << "a fresh bucket holds at least one token";
    EXPECT_FALSE(bucket.try_acquire(fake_now(1s)));  // only 0.5 accrued
    EXPECT_TRUE(bucket.try_acquire(fake_now(2100ms))) << "one request per 2 s must keep flowing";
}

TEST(QosTokenBucket, ZeroRateMeansUnlimited) {
    token_bucket bucket;  // default: unlimited
    EXPECT_TRUE(bucket.unlimited());
    for (int i = 0; i < 10'000; ++i) {
        ASSERT_TRUE(bucket.try_acquire(fake_now()));
    }
}

TEST(QosTokenBucket, NonMonotonicTimeDoesNotAccrueTokens) {
    token_bucket bucket{ /*rate=*/10.0, /*burst=*/1.0 };
    EXPECT_TRUE(bucket.try_acquire(fake_now(100ms)));
    // going backwards in time must not mint tokens
    EXPECT_FALSE(bucket.try_acquire(fake_now(0ms)));
}

// ---------------------------------------------------------------------------
// admission controller
// ---------------------------------------------------------------------------

TEST(QosAdmission, ShedsOnClassQueueDepth) {
    qos_config config;
    config.classes[class_index(request_class::interactive)].max_pending = 4;
    admission_controller admission{ config };
    EXPECT_EQ(admission.try_admit(request_class::interactive, 3, fake_now()), admission_decision::admitted);
    EXPECT_EQ(admission.try_admit(request_class::interactive, 4, fake_now()), admission_decision::shed_queue_full);
    // the threshold is per class: background is not limited here
    EXPECT_EQ(admission.try_admit(request_class::background, 4, fake_now()), admission_decision::admitted);
}

TEST(QosAdmission, RateLimitIsPerClassAndQueueCheckBurnsNoToken) {
    qos_config config;
    config.classes[class_index(request_class::batch)].rate_limit = 100.0;
    config.classes[class_index(request_class::batch)].burst = 1.0;
    config.classes[class_index(request_class::batch)].max_pending = 8;
    admission_controller admission{ config };
    // queue-full requests must not consume the single token ...
    EXPECT_EQ(admission.try_admit(request_class::batch, 8, fake_now()), admission_decision::shed_queue_full);
    // ... so it is still available here
    EXPECT_EQ(admission.try_admit(request_class::batch, 0, fake_now()), admission_decision::admitted);
    EXPECT_EQ(admission.try_admit(request_class::batch, 0, fake_now()), admission_decision::shed_rate_limited);
    // other classes are unlimited
    EXPECT_EQ(admission.try_admit(request_class::interactive, 0, fake_now()), admission_decision::admitted);
}

// ---------------------------------------------------------------------------
// per-class priority ordering in the micro-batcher
// ---------------------------------------------------------------------------

TEST(QosBatcher, HighestPriorityReadyClassIsReleasedFirst) {
    micro_batcher<double> batcher{ 64 };
    batcher.enqueue({ 3.0 }, ignore, request_class::background);
    batcher.enqueue({ 2.0 }, ignore, request_class::batch);
    batcher.enqueue({ 1.0 }, ignore, request_class::interactive);
    batcher.enqueue({ 1.5 }, ignore, request_class::interactive);
    batcher.shutdown();  // drain order = priority order
    auto first = batcher.next_batch();
    EXPECT_EQ(first.cls, request_class::interactive);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first.requests[0].point[0], 1.0);
    EXPECT_EQ(first.requests[1].point[0], 1.5);
    EXPECT_EQ(batcher.next_batch().cls, request_class::batch);
    EXPECT_EQ(batcher.next_batch().cls, request_class::background);
    EXPECT_TRUE(batcher.next_batch().empty());
}

TEST(QosBatcher, PerClassPendingCounters) {
    micro_batcher<double> batcher;
    batcher.enqueue({ 1.0 }, ignore, request_class::interactive);
    batcher.enqueue({ 2.0 }, ignore, request_class::background);
    batcher.enqueue({ 3.0 }, ignore, request_class::background);
    EXPECT_EQ(batcher.pending(), 3u);
    EXPECT_EQ(batcher.pending(request_class::interactive), 1u);
    EXPECT_EQ(batcher.pending(request_class::batch), 0u);
    EXPECT_EQ(batcher.pending(request_class::background), 2u);
    batcher.shutdown();
    while (!batcher.next_batch().empty()) {
    }
}

// ---------------------------------------------------------------------------
// deadline batch cap (deterministic: a pure function of config and estimate)
// ---------------------------------------------------------------------------

// Asserts: a class with a deadline budget caps its batches where the
// estimate says one batch would eat its execution share of the budget, while
// classes without a deadline keep the engine's max_batch_size. Strategy: a
// fake estimator of 1 ms per point against a 4 ms budget at the default
// execution fraction 0.5 affords 2 points.
TEST(QosAdaptive, DeadlineBudgetCapsTargetThroughCostModel) {
    qos_config config;
    config.classes[class_index(request_class::interactive)].deadline_budget = 4ms;
    const per_class<std::size_t> caps = plssvm::serve::class_batch_caps(
        config, 64, [](const std::size_t batch) { return 1e-3 * static_cast<double>(batch); });
    EXPECT_EQ(caps[class_index(request_class::batch)], 64u) << "no deadline: the full cap";
    EXPECT_EQ(caps[class_index(request_class::background)], 64u);
    EXPECT_EQ(caps[class_index(request_class::interactive)], 2u)
        << "the deadline budget must cap the batch through the estimate";
    // a budget no batch fits still leaves a cap of one request
    config.classes[class_index(request_class::interactive)].deadline_budget = 1us;
    EXPECT_EQ(plssvm::serve::class_batch_caps(config, 64, [](const std::size_t) { return 1.0; })[class_index(request_class::interactive)], 1u);
    // without an estimator nothing is capped
    EXPECT_EQ(plssvm::serve::class_batch_caps(config, 64, nullptr)[class_index(request_class::interactive)], 64u);
}

// ---------------------------------------------------------------------------
// the engine's measured estimate: caps, reload reset, retried batches
// ---------------------------------------------------------------------------

/// Engine config whose interactive class carries @p budget and whose batches
/// stay below `min_blocked_batch`, so every batch and every capped batch
/// runs the reference path: the one path the tests measure.
[[nodiscard]] engine_config measured_estimate_config(const std::chrono::microseconds budget, std::shared_ptr<plssvm::serve::fault::injector> inject = nullptr) {
    engine_config config;
    config.max_batch_size = 4;
    config.qos.classes[class_index(request_class::interactive)].deadline_budget = budget;
    config.fault.inject = std::move(inject);
    return config;
}

/// One slow_batch rule: the first batch kernel call sleeps @p stall.
[[nodiscard]] std::shared_ptr<plssvm::serve::fault::injector> slow_first_batch(const std::chrono::microseconds stall) {
    namespace fault = plssvm::serve::fault;
    auto inject = std::make_shared<fault::injector>();
    inject->add_rule({ .site = fault::fault_site::batch_kernel, .kind = fault::fault_kind::slow_batch, .limit = 1, .stall = stall });
    return inject;
}

// Asserts: a fresh engine has measured nothing, so it caps every class at
// max_batch_size, the deadline class included, and its first batch records
// no estimate. Strategy: start an engine whose interactive class has a
// 1 ms budget, read the caps and rates, serve one request, then read the
// estimate counter, the request's trace and the rate of the path it ran.
TEST(QosMeasuredEstimate, FreshEngineCapsAtMaxBatchSizeAndRecordsNoEstimate) {
    const engine_config config = measured_estimate_config(1ms);
    inference_engine<double> engine{ test::random_model(kernel_type::linear), config };
    for (const request_class cls : all_request_classes) {
        EXPECT_EQ(engine.stats().classes[class_index(cls)].target_batch_size, config.max_batch_size) << request_class_to_string(cls);
    }
    for (const predict_path path : { predict_path::reference, predict_path::host_blocked, predict_path::host_sparse }) {
        EXPECT_EQ(engine.measured_seconds_per_request(path), 0.0) << plssvm::serve::predict_path_to_string(path);
    }

    (void) engine.submit(std::vector<double>(engine.num_features(), 0.5)).get();
    EXPECT_EQ(engine.stats().estimate_batches, 0u) << "the first batch has nothing measured to estimate from";
    const std::vector<plssvm::serve::obs::request_trace> traces = engine.recorder().traces(request_class::interactive);
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_EQ(traces.front().estimated_batch_seconds, 0.0);
    EXPECT_GT(engine.measured_seconds_per_request(predict_path::reference), 0.0) << "the clean batch is measured";
}

// Asserts: after one measured slow batch, the interactive class with a
// deadline budget caps its batches below max_batch_size, while the classes
// without a budget keep it. Strategy: a slow_batch rule holds the first
// batch (one request) 20 ms, so the reference path reads >= 20 ms per
// request; against a 10 ms budget (5 ms to execute at the default
// fraction) the cap halves from 4 to 1.
TEST(QosMeasuredEstimate, SlowBatchCapsOnlyTheClassWithADeadlineBudget) {
    const engine_config config = measured_estimate_config(10ms, slow_first_batch(20ms));
    inference_engine<double> engine{ test::random_model(kernel_type::linear), config };
    (void) engine.submit(std::vector<double>(engine.num_features(), 0.5)).get();
    EXPECT_GE(engine.measured_seconds_per_request(predict_path::reference), 0.02);

    const plssvm::serve::serve_stats stats = engine.stats();
    EXPECT_EQ(stats.classes[class_index(request_class::interactive)].target_batch_size, 1u);
    EXPECT_EQ(stats.classes[class_index(request_class::batch)].target_batch_size, config.max_batch_size);
    EXPECT_EQ(stats.classes[class_index(request_class::background)].target_batch_size, config.max_batch_size);
}

// Asserts: a reload resets the measured estimate: every path reads 0 again,
// the deadline class's cap returns to max_batch_size, and the first batch
// after the reload records no estimate. Strategy: measure one slow batch as
// above, check the cap fell, reload the same model, check, serve one more
// request.
TEST(QosMeasuredEstimate, ReloadResetsTheEstimate) {
    const engine_config config = measured_estimate_config(10ms, slow_first_batch(20ms));
    const model<double> trained = test::random_model(kernel_type::linear);
    inference_engine<double> engine{ trained, config };
    (void) engine.submit(std::vector<double>(engine.num_features(), 0.5)).get();
    ASSERT_EQ(engine.stats().classes[class_index(request_class::interactive)].target_batch_size, 1u);

    engine.reload(trained);
    EXPECT_EQ(engine.measured_seconds_per_request(predict_path::reference), 0.0);
    EXPECT_EQ(engine.stats().classes[class_index(request_class::interactive)].target_batch_size, config.max_batch_size);
    const std::size_t estimated_before = engine.stats().estimate_batches;
    (void) engine.submit(std::vector<double>(engine.num_features(), 0.5)).get();
    EXPECT_EQ(engine.stats().estimate_batches, estimated_before) << "the new snapshot has nothing measured yet";
    EXPECT_GT(engine.measured_seconds_per_request(predict_path::reference), 0.0);
}

// Asserts: a batch that retried does not move the estimate. Strategy: a
// kernel_throw rule skips the first batch kernel call and fails the second,
// so the first batch is measured cleanly and the second succeeds only on
// its retry (after a backoff sleep that would inflate its rate); the
// reference rate must read exactly what the first batch left.
TEST(QosMeasuredEstimate, RetriedBatchDoesNotMoveTheEstimate) {
    namespace fault = plssvm::serve::fault;
    auto inject = std::make_shared<fault::injector>();
    inject->add_rule({ .site = fault::fault_site::batch_kernel, .kind = fault::fault_kind::kernel_throw, .after = 1, .limit = 1 });
    inference_engine<double> engine{ test::random_model(kernel_type::linear), measured_estimate_config(0us, inject) };
    (void) engine.submit(std::vector<double>(engine.num_features(), 0.5)).get();
    const double measured = engine.measured_seconds_per_request(predict_path::reference);
    ASSERT_GT(measured, 0.0);

    (void) engine.submit(std::vector<double>(engine.num_features(), 0.5)).get();
    EXPECT_EQ(engine.stats().fault.batch_retries, 1u);
    EXPECT_EQ(engine.measured_seconds_per_request(predict_path::reference), measured);
}

// ---------------------------------------------------------------------------
// engine integration: shedding, per-class accounting, idle wakeups, JSON
// ---------------------------------------------------------------------------

TEST(QosEngine, ShedExceptionCarriesClassAndReason) {
    engine_config config;
    config.num_threads = 2;
    config.qos.classes[class_index(request_class::background)].rate_limit = 0.001;
    config.qos.classes[class_index(request_class::background)].burst = 1.0;
    inference_engine<double> engine{ test::random_model(kernel_type::linear), config };
    const std::vector<double> point(11, 0.5);

    // the single burst token admits one background request ...
    auto admitted = engine.submit(point, request_options{ .cls = request_class::background });
    // ... the next is rate-shed with the typed error
    try {
        (void) engine.submit(point, request_options{ .cls = request_class::background });
        FAIL() << "expected request_shed_exception";
    } catch (const request_shed_exception &e) {
        EXPECT_EQ(e.shed_class(), request_class::background);
        EXPECT_EQ(e.reason(), admission_decision::shed_rate_limited);
    }
    // other classes are unaffected
    auto interactive = engine.submit(point, request_options{ .cls = request_class::interactive });
    (void) admitted.get();
    (void) interactive.get();

    const plssvm::serve::serve_stats stats = engine.stats();
    EXPECT_EQ(stats.classes[class_index(request_class::background)].admitted, 1u);
    EXPECT_EQ(stats.classes[class_index(request_class::background)].shed_rate_limited, 1u);
    EXPECT_EQ(stats.classes[class_index(request_class::interactive)].admitted, 1u);
    EXPECT_EQ(stats.classes[class_index(request_class::interactive)].shed_rate_limited, 0u);
}

TEST(QosEngine, OverloadShedsOnQueueDepthButServesEveryAdmittedRequest) {
    engine_config config;
    config.num_threads = 2;
    config.max_batch_size = 16;
    config.qos.classes[class_index(request_class::interactive)].max_pending = 8;
    inference_engine<double> engine{ test::random_model(kernel_type::rbf), config };
    const aos_matrix<double> points = test::random_matrix(64, 11, 21);

    constexpr std::size_t num_producers = 4;
    constexpr std::size_t per_producer = 200;
    std::atomic<std::size_t> shed{ 0 };
    std::atomic<std::size_t> answered{ 0 };
    std::vector<std::thread> producers;
    for (std::size_t t = 0; t < num_producers; ++t) {
        producers.emplace_back([&, t]() {
            // open loop: fire everything without waiting, so the class
            // backlog genuinely overruns its shed threshold
            std::vector<std::future<double>> futures;
            for (std::size_t i = 0; i < per_producer; ++i) {
                const std::size_t row = (t * per_producer + i) % points.num_rows();
                std::vector<double> point(points.row_data(row), points.row_data(row) + points.num_cols());
                try {
                    futures.push_back(engine.submit(std::move(point), request_options{ .cls = request_class::interactive }));
                } catch (const request_shed_exception &) {
                    ++shed;
                }
            }
            for (std::future<double> &f : futures) {
                (void) f.get();  // every admitted request must be answered
                ++answered;
            }
        });
    }
    for (std::thread &producer : producers) {
        producer.join();
    }
    EXPECT_EQ(answered.load() + shed.load(), num_producers * per_producer) << "every request is answered or shed, never lost";
    EXPECT_GT(shed.load(), 0u) << "an 800-request burst against an 8-deep class queue must shed";
    EXPECT_GT(answered.load(), 0u);
    const plssvm::serve::serve_stats stats = engine.stats();
    EXPECT_EQ(stats.classes[class_index(request_class::interactive)].completed, answered.load());
    EXPECT_EQ(stats.classes[class_index(request_class::interactive)].shed_queue_full, shed.load());
    // the engine stays healthy after the overload burst
    auto after = engine.submit(std::vector<double>(points.row_data(0), points.row_data(0) + points.num_cols()));
    EXPECT_NO_THROW((void) after.get());
}

TEST(QosEngine, DeadlineMissesAreCountedPerClass) {
    engine_config config;
    config.num_threads = 2;
    inference_engine<double> engine{ test::random_model(kernel_type::rbf), config };
    const std::vector<double> point(11, 0.25);
    // a 1 us budget is over before the drain thread can possibly fulfil it:
    // the request is still served, and the miss is counted
    auto future = engine.submit(point, request_options{ .cls = request_class::interactive, .deadline = 1us });
    EXPECT_NO_THROW((void) future.get());
    const plssvm::serve::serve_stats stats = engine.stats();
    EXPECT_EQ(stats.classes[class_index(request_class::interactive)].deadline_misses, 1u);
    EXPECT_EQ(stats.classes[class_index(request_class::interactive)].completed, 1u);
}

// Asserts: an engine with NO traffic does not wake its threads: the drain
// thread waits untimed in the batcher and the executor's workers wait
// untimed for tasks. Strategy: sum the voluntary context switches of every
// thread but this one over a 100 ms window by design; a drain thread that
// polled even every 1 ms would add about 100.
TEST(QosEngine, IdleEngineNoSpuriousWakeups) {
    engine_config config;
    config.num_threads = 2;
    inference_engine<double> engine{ test::random_model(kernel_type::linear), config };
    // one served request: the drain thread and the workers have run and
    // are back to waiting
    (void) engine.submit(std::vector<double>(engine.num_features(), 0.5)).get();
    ASSERT_TRUE(test::wait_until([&] { return engine.pending_requests() == 0; }));
    const std::size_t before = test::voluntary_switches_of_other_threads();
    std::this_thread::sleep_for(100ms);
    const std::size_t after = test::voluntary_switches_of_other_threads();
    EXPECT_LE(after - before, 4u) << "an idle engine must not poll";
}

TEST(QosEngine, ClassTaggedSubmitsMatchSyncPredictions) {
    const model<double> m = test::random_model(kernel_type::polynomial);
    inference_engine<double> engine{ m, engine_config{ .num_threads = 2, .max_batch_size = 8 } };
    const aos_matrix<double> points = test::random_matrix(24, 11, 33);
    const std::vector<double> expected = engine.predict(points);
    std::vector<std::future<double>> futures;
    for (std::size_t p = 0; p < points.num_rows(); ++p) {
        const request_class cls = all_request_classes[p % all_request_classes.size()];
        futures.push_back(engine.submit(std::vector<double>(points.row_data(p), points.row_data(p) + points.num_cols()),
                                        request_options{ .cls = cls }));
    }
    for (std::size_t p = 0; p < futures.size(); ++p) {
        EXPECT_EQ(futures[p].get(), expected[p]) << "point=" << p;
    }
    const plssvm::serve::serve_stats stats = engine.stats();
    std::size_t completed = 0;
    for (const request_class cls : all_request_classes) {
        EXPECT_EQ(stats.classes[class_index(cls)].admitted, 8u);
        completed += stats.classes[class_index(cls)].completed;
    }
    EXPECT_EQ(completed, points.num_rows());
}

// ---------------------------------------------------------------------------
// stats JSON snapshot (satellite: scrape format)
// ---------------------------------------------------------------------------

TEST(QosStats, JsonRendersAllSectionsWithExactCounters) {
    plssvm::serve::serve_stats stats;
    stats.total_requests = 128;
    stats.total_batches = 4;
    stats.snapshot_version = 7;
    stats.classes[class_index(request_class::interactive)].admitted = 100;
    stats.classes[class_index(request_class::interactive)].shed_queue_full = 2;
    stats.classes[class_index(request_class::background)].deadline_misses = 3;
    stats.classes[class_index(request_class::batch)].target_batch_size = 42;
    const std::string json = plssvm::serve::to_json(stats);

    EXPECT_NE(json.find("\"total_requests\": 128"), std::string::npos) << json;
    EXPECT_NE(json.find("\"snapshot_version\": 7"), std::string::npos) << json;
    EXPECT_NE(json.find("\"paths\": {"), std::string::npos) << json;
    EXPECT_NE(json.find("\"classes\": {"), std::string::npos) << json;
    EXPECT_NE(json.find("\"interactive\": {"), std::string::npos) << json;
    EXPECT_NE(json.find("\"batch\": {"), std::string::npos) << json;
    EXPECT_NE(json.find("\"background\": {"), std::string::npos) << json;
    EXPECT_NE(json.find("\"admitted\": 100"), std::string::npos) << json;
    EXPECT_NE(json.find("\"shed_queue_full\": 2"), std::string::npos) << json;
    EXPECT_NE(json.find("\"deadline_misses\": 3"), std::string::npos) << json;
    EXPECT_NE(json.find("\"target_batch_size\": 42"), std::string::npos) << json;
    // structurally sound: balanced braces, no trailing comma before a closer
    std::ptrdiff_t depth = 0;
    for (const char c : json) {
        depth += c == '{' ? 1 : c == '}' ? -1 : 0;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0) << json;
    EXPECT_EQ(json.find(", }"), std::string::npos) << json;
    EXPECT_EQ(json.find(",}"), std::string::npos) << json;
}

TEST(QosStats, EngineStatsJsonReflectsLiveTraffic) {
    inference_engine<double> engine{ test::random_model(kernel_type::linear), engine_config{ .num_threads = 2 } };
    const aos_matrix<double> points = test::random_matrix(32, 11, 5);
    (void) engine.predict(points);
    const std::string json = engine.stats_json();
    EXPECT_NE(json.find("\"total_requests\": 32"), std::string::npos) << json;
    EXPECT_NE(json.find("\"snapshot_version\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"target_batch_size\": "), std::string::npos) << json;
}

TEST(QosStats, RegistryStatsJsonAggregatesAllResidentModels) {
    plssvm::serve::model_registry<double> registry{ 4, engine_config{ .num_threads = 2 } };
    (void) registry.load("alpha", test::random_model(kernel_type::linear));
    (void) registry.load("beta", test::random_model(kernel_type::rbf));
    const std::string json = registry.stats_json();
    EXPECT_EQ(json.rfind("{\"health\": \"", 0), 0u) << json;
    EXPECT_NE(json.find("\"models\": {"), std::string::npos) << json;
    EXPECT_NE(json.find("\"alpha\": {"), std::string::npos) << json;
    EXPECT_NE(json.find("\"beta\": {"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// reload under QoS: admitted requests stay consistent across snapshot swaps
// ---------------------------------------------------------------------------

TEST(QosEngine, ReloadUnderQosServesEveryAdmittedRequestConsistently) {
    constexpr std::size_t dim = 11;
    constexpr std::size_t num_versions = 3;
    std::vector<model<double>> versions;
    for (std::size_t v = 0; v < num_versions; ++v) {
        versions.push_back(test::random_model(kernel_type::rbf, /*num_sv=*/24, dim, /*seed=*/100 + v));
    }
    const aos_matrix<double> queries = test::random_matrix(32, dim, 77);
    // every label any version could produce, for the consistency check
    std::vector<std::vector<double>> valid_labels(queries.num_rows());
    for (const model<double> &m : versions) {
        const plssvm::serve::compiled_model<double> compiled{ m };
        for (std::size_t p = 0; p < queries.num_rows(); ++p) {
            valid_labels[p].push_back(compiled.label_from_decision(compiled.decision_value(queries.row_data(p))));
        }
    }

    engine_config config;
    config.num_threads = 2;
    config.max_batch_size = 16;
    config.qos.classes[class_index(request_class::interactive)].max_pending = 64;
    config.qos.classes[class_index(request_class::interactive)].deadline_budget = 50ms;
    inference_engine<double> engine{ versions[0], config };

    std::atomic<bool> stop{ false };
    std::atomic<std::size_t> answered{ 0 };
    std::atomic<std::size_t> shed{ 0 };
    std::atomic<std::size_t> inconsistent{ 0 };
    std::vector<std::thread> producers;
    for (std::size_t t = 0; t < 3; ++t) {
        producers.emplace_back([&, t]() {
            std::size_t row = 17 * t;
            while (!stop.load(std::memory_order_relaxed)) {
                const std::size_t p = row++ % queries.num_rows();
                const request_class cls = all_request_classes[row % all_request_classes.size()];
                try {
                    const double label = engine.submit(std::vector<double>(queries.row_data(p), queries.row_data(p) + dim),
                                                       request_options{ .cls = cls })
                                             .get();
                    ++answered;
                    bool valid = false;
                    for (const double candidate : valid_labels[p]) {
                        valid = valid || candidate == label;
                    }
                    if (!valid) {
                        ++inconsistent;
                    }
                } catch (const request_shed_exception &) {
                    ++shed;
                }
            }
        });
    }
    // reload storm while the producers hammer the class-tagged submit path
    for (std::size_t round = 0; round < 12; ++round) {
        engine.reload(versions[round % num_versions]);
        std::this_thread::sleep_for(5ms);
    }
    stop.store(true);
    for (std::thread &producer : producers) {
        producer.join();
    }

    EXPECT_GT(answered.load(), 0u);
    EXPECT_EQ(inconsistent.load(), 0u) << "every answer must come from exactly one snapshot";
    const plssvm::serve::serve_stats stats = engine.stats();
    EXPECT_EQ(stats.reloads, 12u);
    EXPECT_EQ(stats.snapshot_version, 13u);
    std::size_t completed = 0;
    for (const request_class cls : all_request_classes) {
        completed += stats.classes[class_index(cls)].completed;
    }
    EXPECT_EQ(completed, answered.load());
}

}  // namespace
