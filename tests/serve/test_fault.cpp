/**
 * @file
 * @brief Fault-tolerance tests (ctest label `fault`, all suites prefixed
 *        `Fault`): deterministic injector replay and rule targeting, circuit
 *        breaker lifecycle with a fake clock, fallback-ladder dispatch
 *        masking, batch bisection + quarantine through the engines, watchdog
 *        stall recovery and lane restart, typed shutdown settlement of queued
 *        promises, structured retry-after hints, and the health state
 *        machine (engine + registry aggregation + stats exposition).
 */

#include "serve/serve_test_utils.hpp"

#include "plssvm/backends/backend_types.hpp"
#include "plssvm/core/data_set.hpp"
#include "plssvm/core/parameter.hpp"
#include "plssvm/detail/rng.hpp"
#include "plssvm/exceptions.hpp"
#include "plssvm/ext/multiclass.hpp"
#include "plssvm/serve/fault.hpp"
#include "plssvm/serve/inference_engine.hpp"
#include "plssvm/serve/micro_batcher.hpp"
#include "plssvm/serve/model_registry.hpp"
#include "plssvm/serve/predict_dispatcher.hpp"
#include "plssvm/serve/qos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <exception>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace {

using plssvm::aos_matrix;
using plssvm::kernel_type;
using plssvm::serve::engine_config;
using plssvm::serve::failure_kind;
using plssvm::serve::health_state;
using plssvm::serve::inference_engine;
using plssvm::serve::micro_batcher;
using plssvm::serve::predict_path;
using plssvm::serve::request_class;
using plssvm::serve::request_failed_exception;
using plssvm::serve::request_shed_exception;
using plssvm::serve::serve_stats;
namespace fault = plssvm::serve::fault;
namespace test = plssvm::test;
using namespace std::chrono_literals;

using time_point = std::chrono::steady_clock::time_point;

/// Fake-clock origin for the caller-clocked breaker tests.
[[nodiscard]] time_point fake_now(const std::chrono::microseconds offset = 0us) {
    return time_point{} + 1h + offset;
}

/// An engine config for fault tests: batches of at most @p batch_size,
/// shared injector. Tests that need one full batch hold the drain thread
/// with a `test::drain_gate` while the batch queues up.
[[nodiscard]] engine_config fault_test_config(std::shared_ptr<fault::injector> inject, const std::size_t batch_size = 8) {
    engine_config config;
    config.num_threads = 2;
    config.max_batch_size = batch_size;
    config.fault.inject = std::move(inject);
    return config;
}

/// Submit every row of @p points to @p engine behind a held drain thread, so
/// they leave as ONE batch; returns their futures.
template <typename Engine>
[[nodiscard]] std::vector<std::future<double>> submit_as_one_batch(Engine &engine, const aos_matrix<double> &points) {
    test::drain_gate gate{ engine };
    EXPECT_TRUE(gate.held());
    std::vector<std::future<double>> futures;
    for (std::size_t i = 0; i < points.num_rows(); ++i) {
        futures.push_back(engine.submit(std::vector<double>(points.row_data(i), points.row_data(i) + points.num_cols())));
    }
    EXPECT_TRUE(test::wait_until([&] { return engine.pending_requests() == points.num_rows(); }));
    return futures;  // the gate releases the drain thread here
}

// ---------------------------------------------------------------------------
// deterministic fault injector
// ---------------------------------------------------------------------------

TEST(FaultInjector, NoRulesIsANoOp) {
    fault::injector inj{ 7 };
    const fault::fault_rule fired = inj.evaluate(fault::fault_site::batch_kernel);
    EXPECT_EQ(fired.kind, fault::fault_kind::none);
    EXPECT_EQ(inj.evaluations(fault::fault_site::batch_kernel), 1u);
    EXPECT_EQ(inj.fired(fault::fault_site::batch_kernel), 0u);
    // the hooks are no-ops on a null injector too
    EXPECT_NO_THROW((void) fault::hook_batch_kernel(nullptr, predict_path::host_blocked, 0, 8));
    EXPECT_NO_THROW(fault::hook_dispatch(nullptr));
    EXPECT_NO_THROW(fault::hook_allocation(nullptr));
}

TEST(FaultInjector, SameSeedReplaysTheSameFiringSequence) {
    const auto run = [](const std::uint64_t seed) {
        fault::injector inj{ seed };
        inj.add_rule({ .site = fault::fault_site::dispatch, .kind = fault::fault_kind::kernel_throw, .probability = 0.35 });
        std::vector<bool> fired;
        for (int i = 0; i < 200; ++i) {
            fired.push_back(inj.evaluate(fault::fault_site::dispatch).kind != fault::fault_kind::none);
        }
        return fired;
    };
    const std::vector<bool> first = run(1234);
    const std::vector<bool> second = run(1234);
    EXPECT_EQ(first, second);
    // the probability actually thins the stream (not all-fire, not no-fire)
    const std::size_t count = static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
    EXPECT_GT(count, 0u);
    EXPECT_LT(count, first.size());
}

TEST(FaultInjector, AfterAndLimitBoundTheFiringWindow) {
    fault::injector inj;
    inj.add_rule({ .site = fault::fault_site::batch_kernel, .kind = fault::fault_kind::kernel_throw, .after = 3, .limit = 2 });
    std::vector<bool> fired;
    for (int i = 0; i < 8; ++i) {
        fired.push_back(inj.evaluate(fault::fault_site::batch_kernel).kind != fault::fault_kind::none);
    }
    const std::vector<bool> expected{ false, false, false, true, true, false, false, false };
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(inj.fired(fault::fault_site::batch_kernel), 2u);
}

TEST(FaultInjector, PathFilterRestrictsARuleToOneDispatchPath) {
    fault::injector inj;
    inj.add_rule({ .site = fault::fault_site::batch_kernel, .kind = fault::fault_kind::kernel_throw, .path = predict_path::host_blocked });
    EXPECT_EQ(inj.evaluate(fault::fault_site::batch_kernel, predict_path::reference).kind, fault::fault_kind::none);
    EXPECT_EQ(inj.evaluate(fault::fault_site::batch_kernel, predict_path::host_sparse).kind, fault::fault_kind::none);
    EXPECT_EQ(inj.evaluate(fault::fault_site::batch_kernel, predict_path::host_blocked).kind, fault::fault_kind::kernel_throw);
}

TEST(FaultInjector, PoisonIndexFiresOnlyOnCoveringRanges) {
    fault::injector inj;
    inj.add_rule({ .site = fault::fault_site::batch_kernel, .kind = fault::fault_kind::kernel_throw, .poison_index = 5 });
    EXPECT_EQ(inj.evaluate(fault::fault_site::batch_kernel, {}, 0, 4).kind, fault::fault_kind::none);
    EXPECT_EQ(inj.evaluate(fault::fault_site::batch_kernel, {}, 6, 8).kind, fault::fault_kind::none);
    EXPECT_EQ(inj.evaluate(fault::fault_site::batch_kernel, {}, 0, 8).kind, fault::fault_kind::kernel_throw);
    EXPECT_EQ(inj.evaluate(fault::fault_site::batch_kernel, {}, 5, 6).kind, fault::fault_kind::kernel_throw);
}

TEST(FaultInjector, GlobalInjectorDrivesTheExecutorTaskHook) {
    fault::injector inj;
    inj.add_rule({ .site = fault::fault_site::executor_task, .kind = fault::fault_kind::slow_batch, .stall = 1ms });
    EXPECT_NO_THROW(fault::hook_executor_task());  // nothing installed
    fault::injector::install_global(&inj);
    fault::hook_executor_task();
    fault::injector::install_global(nullptr);
    EXPECT_EQ(inj.fired(fault::fault_site::executor_task), 1u);
    EXPECT_EQ(fault::injector::global(), nullptr);
    // kernel-throw hook actually throws the typed injected exception
    fault::injector thrower;
    thrower.add_rule({ .site = fault::fault_site::batch_kernel, .kind = fault::fault_kind::kernel_throw });
    EXPECT_THROW((void) fault::hook_batch_kernel(&thrower, predict_path::reference, 0, 1), fault::injected_fault_exception);
}

// ---------------------------------------------------------------------------
// circuit breaker + fallback ladder (fake clock, deterministic)
// ---------------------------------------------------------------------------

TEST(FaultBreaker, TripsOnceTheWindowedErrorRateIsReached) {
    fault::circuit_breaker breaker{ fault::breaker_config{ .window = 8, .trip_error_rate = 0.5, .min_samples = 4 } };
    EXPECT_TRUE(breaker.allow(fake_now()));
    breaker.record(true, fake_now());
    breaker.record(true, fake_now());
    breaker.record(false, fake_now());
    EXPECT_EQ(breaker.current(fake_now()), fault::breaker_state::closed) << "below min_samples";
    breaker.record(false, fake_now());  // 2 errors / 4 samples = 50% at min_samples
    EXPECT_EQ(breaker.current(fake_now()), fault::breaker_state::open);
    EXPECT_FALSE(breaker.allow(fake_now()));
    EXPECT_EQ(breaker.trips(), 1u);
}

TEST(FaultBreaker, HalfOpenProbesCloseAfterConsecutiveSuccesses) {
    const fault::breaker_config config{ .window = 8, .trip_error_rate = 0.5, .min_samples = 2, .open_duration = 100ms, .half_open_probes = 2 };
    fault::circuit_breaker breaker{ config };
    breaker.record(false, fake_now());
    breaker.record(false, fake_now());
    EXPECT_EQ(breaker.current(fake_now()), fault::breaker_state::open);
    EXPECT_FALSE(breaker.allow(fake_now(50ms))) << "cooldown not elapsed";
    EXPECT_TRUE(breaker.allow(fake_now(150ms))) << "cooldown elapsed -> half-open probe allowed";
    EXPECT_EQ(breaker.current(fake_now(150ms)), fault::breaker_state::half_open);
    breaker.record(true, fake_now(151ms));
    EXPECT_EQ(breaker.current(fake_now(151ms)), fault::breaker_state::half_open) << "one probe is not enough";
    breaker.record(true, fake_now(152ms));
    EXPECT_EQ(breaker.current(fake_now(152ms)), fault::breaker_state::closed);
    EXPECT_EQ(breaker.trips(), 1u);
}

TEST(FaultBreaker, HalfOpenFailureReopensWithAFreshCooldown) {
    const fault::breaker_config config{ .window = 8, .trip_error_rate = 0.5, .min_samples = 2, .open_duration = 100ms };
    fault::circuit_breaker breaker{ config };
    breaker.record(false, fake_now());
    breaker.record(false, fake_now());
    EXPECT_TRUE(breaker.allow(fake_now(150ms)));
    breaker.record(false, fake_now(151ms));  // failed probe
    EXPECT_EQ(breaker.current(fake_now(152ms)), fault::breaker_state::open);
    EXPECT_FALSE(breaker.allow(fake_now(200ms))) << "cooldown restarts from the failed probe";
    EXPECT_TRUE(breaker.allow(fake_now(300ms)));
    EXPECT_EQ(breaker.trips(), 2u);
}

TEST(FaultLadder, MasksTrippedPathsButNeverReference) {
    fault::path_ladder ladder{ fault::breaker_config{ .min_samples = 2, .open_duration = 10s } };
    ladder.record(predict_path::host_blocked, false, fake_now());
    ladder.record(predict_path::host_blocked, false, fake_now());
    // pathological case: even the reference breaker tripping must not mask it
    ladder.record(predict_path::reference, false, fake_now());
    ladder.record(predict_path::reference, false, fake_now());
    const fault::path_mask mask = ladder.allowed(fake_now(1ms));
    EXPECT_FALSE(mask.allows(predict_path::host_blocked));
    EXPECT_TRUE(mask.allows(predict_path::reference));
    EXPECT_TRUE(mask.allows(predict_path::host_sparse));
    EXPECT_EQ(ladder.trips(), 2u);
    EXPECT_EQ(ladder.trips(predict_path::host_blocked), 1u);
}

TEST(FaultDispatcher, MaskedChooseDemotesDownTheLadder) {
    fault::path_mask no_blocked = fault::path_mask::all();
    no_blocked.allowed[static_cast<std::size_t>(predict_path::host_blocked)] = false;
    const plssvm::serve::predict_shape shape{ 1024, 512, 64, kernel_type::rbf };

    using plssvm::serve::choose_path;
    EXPECT_EQ(choose_path(shape, fault::path_mask::all()), choose_path(shape))
        << "a full mask must reduce to the plain choice";
    EXPECT_EQ(choose_path(shape), predict_path::host_blocked);
    // masking the blocked path leaves reference as the bottom rung of the
    // ladder (a dense panel offers no sparse sweep)...
    EXPECT_EQ(choose_path(shape, no_blocked), predict_path::reference)
        << "with every competitive path masked, reference is the last resort";
    // ...while a sparse-compiled panel still has the sparse sweep to fall to
    const plssvm::serve::predict_shape sparse_panel{ 1024, 512, 64, kernel_type::rbf, /*sv_nnz=*/512 * 64 / 100 };
    EXPECT_EQ(choose_path(sparse_panel, no_blocked), predict_path::host_sparse);
}

// ---------------------------------------------------------------------------
// engine: retry, bisection + quarantine, typed errors
// ---------------------------------------------------------------------------

TEST(FaultEngine, TransientKernelFaultIsRetriedAndEveryRequestCompletes) {
    auto inject = std::make_shared<fault::injector>();
    inject->add_rule({ .site = fault::fault_site::batch_kernel, .kind = fault::fault_kind::kernel_throw, .limit = 1 });
    inference_engine<double> engine{ test::random_model(kernel_type::linear), fault_test_config(inject) };

    const aos_matrix<double> points = test::random_matrix(8, 11, 3);
    const std::vector<double> expected = engine.predict(points);
    std::vector<std::future<double>> futures;
    for (std::size_t i = 0; i < points.num_rows(); ++i) {
        futures.push_back(engine.submit(std::vector<double>(points.row_data(i), points.row_data(i) + points.num_cols())));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
        EXPECT_EQ(futures[i].get(), expected[i]) << "request " << i;
    }
    const serve_stats stats = engine.stats();
    EXPECT_GE(stats.fault.batch_retries, 1u);
    EXPECT_EQ(stats.fault.quarantined_requests, 0u) << "a transient fault must not quarantine anything";
}

TEST(FaultEngine, PoisonedRequestIsQuarantinedAndTheRestComplete) {
    auto inject = std::make_shared<fault::injector>();
    // the first request of every batch after the gate's is poisoned: only
    // ranges covering batch-local index 0 throw, so bisection isolates
    // exactly that request of the 8-request batch
    inject->add_rule({ .site = fault::fault_site::batch_kernel, .kind = fault::fault_kind::kernel_throw, .after = 1, .poison_index = 0 });
    inference_engine<double> engine{ test::random_model(kernel_type::rbf), fault_test_config(inject) };

    const aos_matrix<double> points = test::random_matrix(8, 11, 5);
    const std::vector<double> expected = engine.predict(points);
    std::vector<std::future<double>> futures = submit_as_one_batch(engine, points);
    std::size_t quarantined = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        try {
            EXPECT_EQ(futures[i].get(), expected[i]) << "surviving request " << i;
        } catch (const request_failed_exception &e) {
            ++quarantined;
            EXPECT_EQ(e.kind(), failure_kind::kernel_error);
            EXPECT_NE(std::string{ e.what() }.find("quarantined"), std::string::npos) << e.what();
        }
    }
    EXPECT_GE(quarantined, 1u);
    EXPECT_LT(quarantined, futures.size()) << "bisection must isolate, not fail the whole batch";
    const serve_stats stats = engine.stats();
    EXPECT_EQ(stats.fault.quarantined_requests, quarantined);
    EXPECT_GE(stats.fault.batch_bisections, 1u);
    // one quarantine in the observation window degrades the engine's health
    EXPECT_TRUE(test::wait_until([&] { return engine.health() == health_state::degraded; }));
    EXPECT_TRUE(test::wait_until([&] { return engine.recorder().health_dumps() >= 1u; }));
    EXPECT_NE(engine.last_health_dump().find("health:"), std::string::npos);
}

TEST(FaultEngine, InjectedAllocationFailureSurfacesAsTypedAllocationError) {
    auto inject = std::make_shared<fault::injector>();
    inject->add_rule({ .site = fault::fault_site::allocation, .kind = fault::fault_kind::alloc_failure });
    inference_engine<double> engine{ test::random_model(kernel_type::linear), fault_test_config(inject, 4) };

    std::vector<std::future<double>> futures;
    for (int i = 0; i < 4; ++i) {
        futures.push_back(engine.submit(std::vector<double>(11, 0.25)));
    }
    for (std::future<double> &f : futures) {
        try {
            (void) f.get();
            FAIL() << "every attempt hits the allocation fault, so every request must fail typed";
        } catch (const request_failed_exception &e) {
            EXPECT_EQ(e.kind(), failure_kind::allocation);
        }
    }
}

TEST(FaultEngine, WrongResultInjectionCorruptsExactlyOneSlot) {
    auto inject = std::make_shared<fault::injector>();
    inject->add_rule({ .site = fault::fault_site::batch_kernel, .kind = fault::fault_kind::wrong_result, .limit = 1 });
    inference_engine<double> engine{ test::random_model(kernel_type::linear), fault_test_config(inject) };

    const aos_matrix<double> points = test::random_matrix(8, 11, 9);
    const std::vector<double> expected = engine.predict(points);
    std::vector<std::future<double>> futures;
    for (std::size_t i = 0; i < points.num_rows(); ++i) {
        futures.push_back(engine.submit(std::vector<double>(points.row_data(i), points.row_data(i) + points.num_cols())));
    }
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        if (futures[i].get() != expected[i]) {
            ++mismatches;
        }
    }
    EXPECT_EQ(mismatches, 1u) << "wrong_result corrupts the first slot of the firing attempt's range, nothing else";
}

// ---------------------------------------------------------------------------
// engine: watchdog stall recovery
// ---------------------------------------------------------------------------

TEST(FaultEngine, WatchdogFailsAStalledBatchAndRestartsTheLane) {
    auto inject = std::make_shared<fault::injector>();
    inject->add_rule({ .site = fault::fault_site::batch_kernel, .kind = fault::fault_kind::worker_stall, .limit = 1, .stall = 500ms });
    engine_config config = fault_test_config(inject, 1);
    config.fault.watchdog.stall_timeout = std::chrono::microseconds{ 50ms };
    inference_engine<double> engine{ test::random_model(kernel_type::linear), config };

    std::future<double> stalled = engine.submit(std::vector<double>(11, 0.5));
    try {
        (void) stalled.get();
        FAIL() << "the stalled batch must fail with a typed worker_stall error";
    } catch (const request_failed_exception &e) {
        EXPECT_EQ(e.kind(), failure_kind::worker_stall);
    }
    // the watchdog settles the stalled futures *before* recording the stall
    // counters, so the stats are eventually consistent here — poll
    EXPECT_TRUE(test::wait_until([&] { return engine.stats().fault.stall_restarts == 1u; }));
    EXPECT_TRUE(test::wait_until([&] { return engine.stats().fault.stall_failed_requests == 1u; }));
    // the restarted lane serves new traffic (the stall rule is exhausted)
    const aos_matrix<double> point = test::random_matrix(1, 11, 17);
    const std::vector<double> expected = engine.predict(point);
    std::future<double> next = engine.submit(std::vector<double>(point.row_data(0), point.row_data(0) + point.num_cols()));
    EXPECT_EQ(next.get(), expected.front());
    // a stall forces the health state machine to critical for its window
    EXPECT_GE(engine.stats().fault.health_transitions, 1u);
}

// Asserts: a watchdog stall settles each unsettled request of the batch
// with an error object of its own (callers on different threads must not
// share one refcounted exception), each typed `worker_stall`. Strategy:
// hold the drain thread, queue 4 requests so they leave as one batch, let
// a 500 ms stall rule (skipping the gate's batch) trip a 50 ms watchdog,
// and collect the error each completion callback receives.
TEST(FaultEngine, StalledBatchSettlesOneErrorObjectPerSlot) {
    auto inject = std::make_shared<fault::injector>();
    inject->add_rule({ .site = fault::fault_site::batch_kernel, .kind = fault::fault_kind::worker_stall, .after = 1, .limit = 1, .stall = 500ms });
    engine_config config = fault_test_config(inject, 4);
    config.fault.watchdog.stall_timeout = std::chrono::microseconds{ 50ms };
    inference_engine<double> engine{ test::random_model(kernel_type::linear), config };

    constexpr std::size_t batch_size = 4;
    std::vector<std::promise<std::exception_ptr>> outcomes(batch_size);
    {
        test::drain_gate gate{ engine };
        ASSERT_TRUE(gate.held());
        for (std::size_t i = 0; i < batch_size; ++i) {
            engine.submit(std::vector<double>(11, 0.5), {}, nullptr,
                          [&outcome = outcomes[i]](double, std::exception_ptr error) { outcome.set_value(std::move(error)); });
        }
        ASSERT_TRUE(test::wait_until([&] { return engine.pending_requests() == batch_size; }));
    }
    std::vector<std::exception_ptr> errors;
    for (std::promise<std::exception_ptr> &outcome : outcomes) {
        errors.push_back(outcome.get_future().get());
    }
    for (std::size_t i = 0; i < batch_size; ++i) {
        ASSERT_NE(errors[i], nullptr) << "slot " << i << " must fail with the stall";
        try {
            std::rethrow_exception(errors[i]);
        } catch (const request_failed_exception &e) {
            EXPECT_EQ(e.kind(), failure_kind::worker_stall) << "slot " << i;
        }
        for (std::size_t j = 0; j < i; ++j) {
            EXPECT_NE(errors[i], errors[j]) << "slots " << j << " and " << i << " share one error object";
        }
    }
    EXPECT_TRUE(test::wait_until([&] { return engine.stats().fault.stall_failed_requests == batch_size; }));
}

// ---------------------------------------------------------------------------
// engine: failures land in the rolling windows of their own request class
// ---------------------------------------------------------------------------

/// The `failed` count of class @p cls in the 300 s window of an engine's
/// `stats_json()` (the widest window: a slow host cannot age a failure out).
[[nodiscard]] std::size_t window_failures(const std::string &json, const std::string_view cls) {
    std::size_t pos = json.find("\"windows\"");
    pos = json.find("\"300s\"", pos);
    pos = json.find("\"" + std::string{ cls } + "\"", pos);
    pos = json.find("\"failed\": ", pos);
    EXPECT_NE(pos, std::string::npos) << json;
    return pos == std::string::npos ? 0 : std::stoul(json.substr(pos + std::string_view{ "\"failed\": " }.size()));
}

/// Submit @p count requests of class `batch` behind a held drain thread, so
/// they leave as ONE batch; returns one future per request that reads
/// whether it failed (the error itself is dropped on the settling thread).
[[nodiscard]] std::vector<std::future<bool>> submit_batch_class(inference_engine<double> &engine, const std::size_t count) {
    std::vector<std::future<bool>> failed;
    test::drain_gate gate{ engine };
    EXPECT_TRUE(gate.held());
    for (std::size_t i = 0; i < count; ++i) {
        auto outcome = std::make_shared<std::promise<bool>>();
        failed.push_back(outcome->get_future());
        engine.submit(std::vector<double>(11, 0.5), { request_class::batch }, nullptr,
                      [outcome](double, std::exception_ptr error) { outcome->set_value(error != nullptr); });
    }
    EXPECT_TRUE(test::wait_until([&] { return engine.pending_requests() == count; }));
    return failed;  // the gate releases the drain thread here
}

// Asserts: a request quarantined by bisection counts as one failure of its
// own class in the rolling windows (and so in the SLO availability), not of
// `interactive`. Strategy: poison batch-local index 0 of every batch after
// the gate's, send 4 `batch`-class requests as one batch, wait until all 4
// settled, then read the 300 s window of `stats_json()`: `batch` failed 1,
// `interactive` failed 0 (the gate's request completed).
TEST(FaultEngine, QuarantineCountsAsAFailureOfTheRequestsClass) {
    auto inject = std::make_shared<fault::injector>();
    inject->add_rule({ .site = fault::fault_site::batch_kernel, .kind = fault::fault_kind::kernel_throw, .after = 1, .poison_index = 0 });
    inference_engine<double> engine{ test::random_model(kernel_type::linear), fault_test_config(inject) };

    std::size_t failures = 0;
    for (std::future<bool> &failed : submit_batch_class(engine, 4)) {
        failures += failed.get() ? 1 : 0;
    }
    ASSERT_EQ(failures, 1u) << "bisection must isolate exactly the poisoned request";
    const std::string json = engine.stats_json();
    EXPECT_EQ(window_failures(json, "batch"), 1u) << json;
    EXPECT_EQ(window_failures(json, "interactive"), 0u) << json;
}

// Asserts: every request the lane watchdog fails counts as a failure of the
// stalled batch's class in the rolling windows. Strategy: stall the first
// batch after the gate's for 500 ms under a 50 ms watchdog, send 4
// `batch`-class requests as one batch, wait until all 4 failed, then poll
// the 300 s window of `stats_json()` (the watchdog records after settling)
// until `batch` reads 4 failures; `interactive` stays at 0.
TEST(FaultEngine, StallFailuresCountInTheStalledBatchsClass) {
    auto inject = std::make_shared<fault::injector>();
    inject->add_rule({ .site = fault::fault_site::batch_kernel, .kind = fault::fault_kind::worker_stall, .after = 1, .limit = 1, .stall = 500ms });
    engine_config config = fault_test_config(inject, 4);
    config.fault.watchdog.stall_timeout = std::chrono::microseconds{ 50ms };
    inference_engine<double> engine{ test::random_model(kernel_type::linear), config };

    constexpr std::size_t batch_size = 4;
    for (std::future<bool> &failed : submit_batch_class(engine, batch_size)) {
        EXPECT_TRUE(failed.get()) << "the stalled batch must fail every request";
    }
    EXPECT_TRUE(test::wait_until([&] { return window_failures(engine.stats_json(), "batch") == batch_size; }))
        << engine.stats_json();
    EXPECT_EQ(window_failures(engine.stats_json(), "interactive"), 0u);
}

// ---------------------------------------------------------------------------
// shutdown settlement (satellite: no promise is ever destroyed unsettled)
// ---------------------------------------------------------------------------

TEST(FaultShutdown, FailPendingSettlesQueuedPromisesWithTypedErrors) {
    micro_batcher<double> batcher{ 64 };
    std::vector<std::future<double>> futures;
    for (int i = 0; i < 3; ++i) {
        auto [done, future] = plssvm::serve::promise_completion<double>();
        batcher.enqueue(std::vector<double>{ 1.0, 2.0 }, std::move(done), request_class::interactive);
        futures.push_back(std::move(future));
    }
    // waiters are already blocked on the futures when the batcher stops
    std::vector<std::thread> waiters;
    std::vector<std::exception_ptr> outcomes(futures.size());
    for (std::size_t i = 0; i < futures.size(); ++i) {
        waiters.emplace_back([&futures, &outcomes, i] {
            try {
                (void) futures[i].get();
            } catch (...) {
                outcomes[i] = std::current_exception();
            }
        });
    }
    EXPECT_EQ(batcher.fail_pending(), 3u);
    for (std::thread &t : waiters) {
        t.join();
    }
    for (const std::exception_ptr &outcome : outcomes) {
        ASSERT_NE(outcome, nullptr) << "every waiter must be released with an error, not blocked forever";
        try {
            std::rethrow_exception(outcome);
        } catch (const request_failed_exception &e) {
            EXPECT_EQ(e.kind(), failure_kind::engine_shutdown);
            EXPECT_EQ(e.failed_class(), request_class::interactive);
        }
    }
    // one error object per request: waiters on different threads never
    // share (and race on the refcount of) one exception
    EXPECT_NE(outcomes[0], outcomes[1]);
    EXPECT_NE(outcomes[0], outcomes[2]);
    EXPECT_NE(outcomes[1], outcomes[2]);
    // the batcher is stopped now: a late enqueue fails typed too
    EXPECT_THROW(batcher.enqueue(std::vector<double>{ 1.0 }, [](double, std::exception_ptr) {}, request_class::interactive),
                 request_failed_exception);
}

TEST(FaultShutdown, BatcherDestructionSettlesQueuedPromises) {
    std::future<double> orphan;
    {
        micro_batcher<double> batcher{ 64 };
        auto [done, future] = plssvm::serve::promise_completion<double>();
        batcher.enqueue(std::vector<double>{ 1.0 }, std::move(done), request_class::background);
        orphan = std::move(future);
    }
    try {
        (void) orphan.get();
        FAIL() << "a promise queued at destruction must carry a typed error";
    } catch (const request_failed_exception &e) {
        EXPECT_EQ(e.kind(), failure_kind::engine_shutdown);
    }
}

// ---------------------------------------------------------------------------
// retry-after hint (satellite: structured backpressure)
// ---------------------------------------------------------------------------

TEST(FaultRetryAfter, RateLimitedShedCarriesTheBucketRefillHint) {
    engine_config config;
    config.num_threads = 2;
    config.qos.classes[plssvm::serve::class_index(request_class::interactive)].rate_limit = 10.0;
    config.qos.classes[plssvm::serve::class_index(request_class::interactive)].burst = 1.0;
    inference_engine<double> engine{ test::random_model(kernel_type::linear), config };

    std::future<double> admitted = engine.submit(std::vector<double>(11, 0.1));
    bool shed = false;
    try {
        (void) engine.submit(std::vector<double>(11, 0.2));
    } catch (const request_shed_exception &e) {
        shed = true;
        // 10 tokens/s, empty bucket: the next token is ~100 ms out
        EXPECT_GT(e.retry_after().count(), 0);
        EXPECT_LE(e.retry_after(), std::chrono::microseconds{ 150ms });
    }
    EXPECT_TRUE(shed);
    (void) admitted.get();
    const serve_stats stats = engine.stats();
    EXPECT_DOUBLE_EQ(stats.classes[plssvm::serve::class_index(request_class::interactive)].retry_after_hint_seconds, 0.1);
    EXPECT_NE(engine.stats_json().find("\"retry_after_hint_s\": 1.000000e-01"), std::string::npos);
}

// ---------------------------------------------------------------------------
// fallback ladder end to end: breaker trip reroutes live traffic
// ---------------------------------------------------------------------------

TEST(FaultEngine, TrippedPathReroutesTrafficDownTheLadder) {
    auto inject = std::make_shared<fault::injector>();
    // the blocked host path persistently fails; reference stays healthy
    inject->add_rule({ .site = fault::fault_site::batch_kernel, .kind = fault::fault_kind::kernel_throw, .path = predict_path::host_blocked });
    // batch 64 deterministically picks the blocked host path (`choose_path`
    // routes dense batches of 8+ points there, see the dispatcher tests)
    engine_config config = fault_test_config(inject, 64);
    config.fault.breaker.min_samples = 2;
    config.fault.breaker.window = 8;
    config.fault.breaker.open_duration = std::chrono::microseconds{ 10s };  // stays open for the whole test
    inference_engine<double> engine{ test::random_model(kernel_type::linear), config };

    const aos_matrix<double> points = test::random_matrix(64, 11, 21);
    const std::vector<double> expected = engine.predict(points);  // sync path, unaffected
    std::vector<std::future<double>> futures = submit_as_one_batch(engine, points);
    // attempt 1 + 2 fail on host_blocked and trip its breaker (min_samples
    // 2); attempt 3 re-chooses under the new mask and lands on reference —
    // every request completes without quarantine
    for (std::size_t i = 0; i < futures.size(); ++i) {
        EXPECT_EQ(futures[i].get(), expected[i]) << "request " << i;
    }
    const serve_stats stats = engine.stats();
    EXPECT_GE(stats.fault.breaker_trips, 1u);
    EXPECT_EQ(stats.fault.breaker_states[static_cast<std::size_t>(predict_path::host_blocked)], fault::breaker_state::open);
    EXPECT_GE(stats.reference_batches, 1u) << "rerouted batches must show up in the path counts";
    EXPECT_EQ(stats.fault.quarantined_requests, 0u);
    // an open breaker drives the engine critical, visible in JSON too
    EXPECT_TRUE(test::wait_until([&] { return engine.health() == health_state::critical; }));
    const std::string json = engine.stats_json();
    EXPECT_NE(json.find("\"health\": \"critical\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"host_blocked\": \"open\""), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// health state machine + exposition
// ---------------------------------------------------------------------------

TEST(FaultHealth, MonitorTransitionsAreEdgeTriggeredAndRecover) {
    fault::health_monitor monitor;
    EXPECT_EQ(monitor.state(), health_state::healthy);
    fault::health_inputs inputs;
    inputs.breaker_open = true;
    const fault::health_transition to_critical = monitor.observe(inputs);
    EXPECT_TRUE(to_critical.changed);
    EXPECT_EQ(to_critical.from, health_state::healthy);
    EXPECT_EQ(to_critical.to, health_state::critical);
    EXPECT_FALSE(monitor.observe(inputs).changed) << "steady state must not re-transition";
    inputs.breaker_open = false;
    inputs.breaker_half_open = true;
    EXPECT_EQ(monitor.observe(inputs).to, health_state::degraded);
    inputs.breaker_half_open = false;
    const fault::health_transition recovered = monitor.observe(inputs);
    EXPECT_TRUE(recovered.changed);
    EXPECT_EQ(recovered.to, health_state::healthy);
    EXPECT_EQ(monitor.transitions(), 3u);
}

TEST(FaultHealth, ShedRateDrivesDegradedAndCritical) {
    fault::health_monitor monitor;
    fault::health_inputs inputs;
    inputs.admission_attempts = 100;
    inputs.shed = 10;  // 10% shed in the window
    EXPECT_EQ(monitor.observe(inputs).to, health_state::degraded);
    inputs.admission_attempts = 200;
    inputs.shed = 80;  // 70/100 shed in this window
    EXPECT_EQ(monitor.observe(inputs).to, health_state::critical);
    inputs.admission_attempts = 300;
    inputs.shed = 80;  // clean window: deltas decide, not lifetime totals
    EXPECT_EQ(monitor.observe(inputs).to, health_state::healthy);
}

TEST(FaultHealth, RegistryAggregatesWorstEngineHealth) {
    plssvm::serve::model_registry<double> registry{ 4, engine_config{ .num_threads = 2 } };
    (void) registry.load("clean", test::random_model(kernel_type::linear));
    EXPECT_EQ(registry.health(), health_state::healthy);
    EXPECT_EQ(registry.stats_json().rfind("{\"health\": \"healthy\"", 0), 0u);

    auto inject = std::make_shared<fault::injector>();
    inject->add_rule({ .site = fault::fault_site::batch_kernel, .kind = fault::fault_kind::kernel_throw, .poison_index = 0 });
    auto poisoned = registry.load("poisoned", test::random_model(kernel_type::rbf), fault_test_config(inject));
    std::vector<std::future<double>> futures;
    for (int i = 0; i < 8; ++i) {
        futures.push_back(poisoned->submit(std::vector<double>(11, 0.3)));
    }
    for (std::future<double> &f : futures) {
        try {
            (void) f.get();
        } catch (const request_failed_exception &) {
        }
    }
    EXPECT_TRUE(test::wait_until([&] { return registry.health() == health_state::degraded; }));
    EXPECT_EQ(registry.stats_json().rfind("{\"health\": \"degraded\"", 0), 0u);
    EXPECT_NE(registry.metrics_text().find("plssvm_serve_registry_health 1"), std::string::npos);
}

TEST(FaultStats, JsonAndPrometheusExposeTheFaultPlane) {
    inference_engine<double> engine{ test::random_model(kernel_type::linear), engine_config{ .num_threads = 2 } };
    const std::string json = engine.stats_json();
    for (const char *key : { "\"fault\": {", "\"health\": \"healthy\"", "\"quarantined_requests\": 0",
                             "\"stall_restarts\": 0", "\"breaker_trips\": 0", "\"breakers\": {",
                             "\"batch_retries\": 0", "\"batch_bisections\": 0", "\"shutdown_failed_requests\": 0" }) {
        EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << " in " << json;
    }
    const std::string text = engine.metrics_text();
    for (const char *family : { "plssvm_serve_health ", "plssvm_serve_quarantined_requests_total",
                                "plssvm_serve_breaker_state{", "plssvm_serve_breaker_trips_total",
                                "plssvm_serve_stall_restarts_total", "plssvm_serve_retry_after_hint_seconds" }) {
        EXPECT_NE(text.find(family), std::string::npos) << "missing " << family;
    }
}

// ---------------------------------------------------------------------------
// one-vs-all ensembles share the fault plane
// ---------------------------------------------------------------------------

TEST(FaultMulticlass, PoisonedRequestIsQuarantinedAndSurvivorsMatchSync) {
    auto blobs_engine = plssvm::detail::make_engine(13);
    const double centers[3][2] = { { 4.0, 0.0 }, { -4.0, 4.0 }, { 0.0, -4.0 } };
    aos_matrix<double> train_points{ 90, 2 };
    std::vector<double> train_labels(90);
    for (std::size_t c = 0; c < 3; ++c) {
        for (std::size_t i = 0; i < 30; ++i) {
            const std::size_t row = c * 30 + i;
            train_points(row, 0) = centers[c][0] + plssvm::detail::standard_normal<double>(blobs_engine);
            train_points(row, 1) = centers[c][1] + plssvm::detail::standard_normal<double>(blobs_engine);
            train_labels[row] = static_cast<double>(c);
        }
    }
    plssvm::data_set<double> data{ std::move(train_points), std::move(train_labels) };
    plssvm::parameter params;
    params.kernel = kernel_type::linear;
    plssvm::ext::one_vs_all<double> trainer{ plssvm::backend_type::openmp, params };
    const auto ensemble = trainer.fit(data, plssvm::solver_control{ .epsilon = 1e-8 });

    auto inject = std::make_shared<fault::injector>();
    inject->add_rule({ .site = fault::fault_site::batch_kernel, .kind = fault::fault_kind::kernel_throw, .after = 1, .poison_index = 0 });
    engine_config config = fault_test_config(inject);
    inference_engine<double> engine{ ensemble, config };

    const aos_matrix<double> queries = test::random_matrix(8, 2, 99);
    const std::vector<double> expected = engine.predict(queries);
    std::vector<std::future<double>> futures = submit_as_one_batch(engine, queries);
    std::size_t quarantined = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        try {
            EXPECT_EQ(futures[i].get(), expected[i]) << "surviving request " << i;
        } catch (const request_failed_exception &e) {
            ++quarantined;
            EXPECT_EQ(e.kind(), failure_kind::kernel_error);
        }
    }
    EXPECT_GE(quarantined, 1u);
    EXPECT_LT(quarantined, futures.size());
    EXPECT_EQ(engine.stats().fault.quarantined_requests, quarantined);
    EXPECT_TRUE(test::wait_until([&] { return engine.health() == health_state::degraded; }));
}

}  // namespace
