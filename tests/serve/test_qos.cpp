/**
 * @file
 * @brief QoS subsystem tests (ctest label `qos`, all suites prefixed `Qos`):
 *        token-bucket accuracy with a fake clock, queue-depth load shedding,
 *        per-class priority ordering and deadline clamping in the
 *        micro-batcher, deterministic adaptive batch growth/shrink,
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
#include <future>
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
using plssvm::serve::batch_policy;
using plssvm::serve::batch_tuner;
using plssvm::serve::class_batch_policy;
using plssvm::serve::class_index;
using plssvm::serve::engine_config;
using plssvm::serve::inference_engine;
using plssvm::serve::micro_batcher;
using plssvm::serve::per_class;
using plssvm::serve::qos_config;
using plssvm::serve::request_class;
using plssvm::serve::request_options;
using plssvm::serve::request_shed_exception;
using plssvm::serve::token_bucket;
namespace test = plssvm::test;
using namespace std::chrono_literals;

using time_point = std::chrono::steady_clock::time_point;

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
// per-class priority ordering + deadline clamping in the micro-batcher
// ---------------------------------------------------------------------------

TEST(QosBatcher, HighestPriorityReadyClassIsReleasedFirst) {
    micro_batcher<double> batcher{ batch_policy{ 64, std::chrono::microseconds{ 10'000'000 } } };
    (void) batcher.enqueue({ 3.0 }, request_class::background);
    (void) batcher.enqueue({ 2.0 }, request_class::batch);
    (void) batcher.enqueue({ 1.0 }, request_class::interactive);
    (void) batcher.enqueue({ 1.5 }, request_class::interactive);
    batcher.shutdown();  // everything ready: drain order = priority order
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
    (void) batcher.enqueue({ 1.0 }, request_class::interactive);
    (void) batcher.enqueue({ 2.0 }, request_class::background);
    (void) batcher.enqueue({ 3.0 }, request_class::background);
    EXPECT_EQ(batcher.pending(), 3u);
    EXPECT_EQ(batcher.pending(request_class::interactive), 1u);
    EXPECT_EQ(batcher.pending(request_class::batch), 0u);
    EXPECT_EQ(batcher.pending(request_class::background), 2u);
    batcher.shutdown();
    while (!batcher.next_batch().empty()) {
    }
}

TEST(QosBatcher, DeadlineBudgetOverridesFlushDelay) {
    // flush delay is 10 s, but the request's 20 ms deadline (minus the
    // estimated batch latency) must flush it long before that
    micro_batcher<double> batcher{ batch_policy{ 64, std::chrono::microseconds{ 10'000'000 } } };
    per_class<class_batch_policy> policies{};
    for (class_batch_policy &p : policies) {
        p = class_batch_policy{ 64, std::chrono::microseconds{ 10'000'000 }, 5ms };
    }
    batcher.set_class_policies(policies);
    auto future = batcher.enqueue({ 1.0 }, request_class::interactive, 20ms);
    const auto start = std::chrono::steady_clock::now();
    auto batch = batcher.next_batch();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_LT(elapsed, 1s) << "a deadline-carrying request must not wait out the full flush delay";
    EXPECT_NE(batch.requests[0].deadline, plssvm::serve::no_deadline);
    batch.requests[0].result.set_value(0.0);
    (void) future.get();
    batcher.shutdown();
}

TEST(QosBatcher, TighterDeadlineOfNewerRequestOverridesOldestFlush) {
    // regression: the flush deadline must honor the TIGHTEST queued
    // deadline of the class, not just the oldest request's — a
    // deadline-free request at the queue head must not hold a later
    // deadline-carrying request for the full flush delay
    micro_batcher<double> batcher{ batch_policy{ 64, std::chrono::microseconds{ 10'000'000 } } };
    (void) batcher.enqueue({ 1.0 }, request_class::interactive);         // no deadline
    auto urgent = batcher.enqueue({ 2.0 }, request_class::interactive, 20ms);
    const auto start = std::chrono::steady_clock::now();
    auto batch = batcher.next_batch();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_EQ(batch.size(), 2u) << "both requests flush together";
    EXPECT_LT(elapsed, 1s) << "the newer request's deadline must trigger the flush";
    batch.requests[0].result.set_value(0.0);
    batch.requests[1].result.set_value(0.0);
    (void) urgent.get();
    batcher.shutdown();
}

TEST(QosBatcher, ShrinkingTargetViaPolicySwapReleasesWaitingBatch) {
    micro_batcher<double> batcher{ batch_policy{ 64, std::chrono::microseconds{ 10'000'000 } } };
    (void) batcher.enqueue({ 1.0 });
    (void) batcher.enqueue({ 2.0 });
    std::thread consumer{ [&batcher]() {
        const auto batch = batcher.next_batch();
        EXPECT_EQ(batch.size(), 2u);
    } };
    std::this_thread::sleep_for(20ms);  // consumer waits: 2 < target 64
    per_class<class_batch_policy> policies{};
    for (class_batch_policy &p : policies) {
        p = class_batch_policy{ 2, std::chrono::microseconds{ 10'000'000 }, 0us };
    }
    batcher.set_class_policies(policies);  // 2 >= new target: ready now
    consumer.join();
    batcher.shutdown();
}

// ---------------------------------------------------------------------------
// adaptive tuner (deterministic: pure function of the observed counters)
// ---------------------------------------------------------------------------

TEST(QosAdaptive, ResolvesAutoKnobsAgainstBasePolicy) {
    const batch_tuner tuner{ qos_config{}, batch_policy{ 64, 250us }, nullptr };
    const qos_config &resolved = tuner.config();
    EXPECT_EQ(resolved.adaptive.min_batch_size, 8u);    // 64 / 8
    EXPECT_EQ(resolved.adaptive.max_batch_size, 256u);  // 64 * 4
    EXPECT_DOUBLE_EQ(resolved.adaptive.backlog_at_max, 512.0);
    EXPECT_EQ(resolved.classes[class_index(request_class::interactive)].base_flush_delay, 250us);
    EXPECT_EQ(resolved.classes[class_index(request_class::batch)].base_flush_delay, 1000us);
    EXPECT_EQ(resolved.classes[class_index(request_class::background)].base_flush_delay, 4000us);
    EXPECT_EQ(resolved.classes[class_index(request_class::interactive)].max_flush_delay, 2000us);
}

TEST(QosAdaptive, TargetsGrowUnderLoadAndShrinkWhenIdle) {
    batch_tuner tuner{ qos_config{}, batch_policy{ 64, 250us }, nullptr };
    const std::size_t idle_target = tuner.policies()[class_index(request_class::interactive)].target_batch_size;
    EXPECT_EQ(idle_target, 8u) << "no observations yet: the idle minimum";

    // sustained overload: backlog beyond the saturation point (512) drives
    // the target to the maximum, monotonically
    std::size_t previous = idle_target;
    for (int i = 0; i < 64; ++i) {
        tuner.observe(/*backlog=*/1024, /*lane_queue_depth=*/0, /*cross_lane_queued=*/0);
        const std::size_t target = tuner.policies()[class_index(request_class::interactive)].target_batch_size;
        EXPECT_GE(target, previous) << "growth must be monotone under constant overload";
        previous = target;
    }
    EXPECT_EQ(previous, 256u) << "fully saturated: the adaptive maximum";
    EXPECT_GE(previous, 2 * idle_target);
    EXPECT_DOUBLE_EQ(tuner.saturation(), 1.0);
    // flush deadlines stretch with the load
    EXPECT_EQ(tuner.policies()[class_index(request_class::interactive)].flush_delay, 2000us);

    // back to idle: the EWMA decays the target to the minimum again
    for (int i = 0; i < 512; ++i) {
        tuner.observe(0, 0, 0);
    }
    EXPECT_EQ(tuner.policies()[class_index(request_class::interactive)].target_batch_size, idle_target);
    EXPECT_LT(tuner.saturation(), 0.01);
}

TEST(QosAdaptive, DeadlineBudgetCapsTargetThroughCostModel) {
    qos_config config;
    config.classes[class_index(request_class::interactive)].deadline_budget = 4ms;
    // fake cost model: 1 ms per point — a 4 ms budget at exec fraction 0.5
    // affords a 2-point batch
    batch_tuner tuner{ config, batch_policy{ 64, 250us },
                       [](const std::size_t batch) { return 1e-3 * static_cast<double>(batch); } };
    for (int i = 0; i < 64; ++i) {
        tuner.observe(4096, 0, 0);  // overload: unconstrained classes max out
    }
    const auto policies = tuner.policies();
    EXPECT_EQ(policies[class_index(request_class::batch)].target_batch_size, 256u)
        << "no deadline: full adaptive growth";
    EXPECT_LE(policies[class_index(request_class::interactive)].target_batch_size, 8u)
        << "the deadline budget must cap growth through the cost model";
    EXPECT_LE(policies[class_index(request_class::interactive)].estimated_batch_latency, 8ms);
}

TEST(QosAdaptive, StaticModeIgnoresLoad) {
    qos_config config;
    config.adaptive_batching = false;
    batch_tuner tuner{ config, batch_policy{ 32, 150us }, nullptr };
    for (int i = 0; i < 32; ++i) {
        tuner.observe(100'000, 100, 100);
    }
    for (const request_class cls : all_request_classes) {
        EXPECT_EQ(tuner.policies()[class_index(cls)].target_batch_size, 32u);
        EXPECT_EQ(tuner.policies()[class_index(cls)].flush_delay, 150us);
    }
    EXPECT_DOUBLE_EQ(tuner.saturation(), 0.0);
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
    config.batch_delay = 100us;
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

// Satellite regression: an engine with NO traffic must not wake its drain
// thread periodically (the flush wait is deadline-driven, not polled).
TEST(QosEngine, IdleEngineNoSpuriousWakeups) {
    engine_config config;
    config.num_threads = 2;
    config.batch_delay = 50us;  // a poller would wake ~2000 times in 100 ms
    inference_engine<double> engine{ test::random_model(kernel_type::linear), config };
    std::this_thread::sleep_for(100ms);
    EXPECT_EQ(engine.stats().flush_timer_wakeups, 0u);
}

// Regression: a lone request waits out the flush delay before it is
// served. That wait is not load, so an engine that only ever sees lone
// requests must stay idle: saturation 0, the idle flush delay and the
// minimum target — not stretch its flush delay toward the ceiling.
TEST(QosEngine, LoneRequestsLeaveTheTunerIdle) {
    plssvm::serve::executor exec{ 2 };  // private: no other tenant's queue
    engine_config config;
    config.exec = &exec;
    config.max_batch_size = 64;
    config.batch_delay = 250us;
    config.qos.adaptive.min_batch_size = 4;
    inference_engine<double> engine{ test::random_model(kernel_type::linear), config };
    const aos_matrix<double> points = test::random_matrix(32, 11, 29);
    for (std::size_t p = 0; p < points.num_rows(); ++p) {
        (void) engine.submit(std::vector<double>(points.row_data(p), points.row_data(p) + points.num_cols())).get();
    }
    // the drain thread retunes before it settles a batch, so every one of
    // the 32 observations is in by the time the last get() returned
    const plssvm::serve::serve_stats stats = engine.stats();
    EXPECT_EQ(stats.total_batches, points.num_rows()) << "every request must have been served alone";
    EXPECT_DOUBLE_EQ(stats.batch_saturation, 0.0);
    const auto &interactive = stats.classes[class_index(request_class::interactive)];
    EXPECT_DOUBLE_EQ(interactive.flush_delay_seconds, std::chrono::duration<double>(config.batch_delay).count());
    EXPECT_EQ(interactive.target_batch_size, 4u);
}

TEST(QosEngine, ClassTaggedSubmitsMatchSyncPredictions) {
    const model<double> m = test::random_model(kernel_type::polynomial);
    inference_engine<double> engine{ m, engine_config{ .num_threads = 2, .max_batch_size = 8, .batch_delay = 100us } };
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
    config.batch_delay = 100us;
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
