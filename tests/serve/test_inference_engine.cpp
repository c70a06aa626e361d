/**
 * @file
 * @brief Tests for `serve::inference_engine`: bit-exact parity with
 *        `decision_values`, the async submit path, a multi-threaded
 *        submit/drain stress test, and the statistics aggregates.
 */

#include "serve/serve_test_utils.hpp"

#include "plssvm/core/predict.hpp"
#include "plssvm/detail/tracker.hpp"
#include "plssvm/exceptions.hpp"
#include "plssvm/serve/inference_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <thread>
#include <vector>

namespace {

using plssvm::aos_matrix;
using plssvm::kernel_type;
using plssvm::model;
using plssvm::serve::engine_config;
using plssvm::serve::inference_engine;
namespace test = plssvm::test;
using namespace std::chrono_literals;

TEST(InferenceEngine, BitExactParityWithDecisionValuesForAllKernels) {
    const aos_matrix<double> points = test::random_matrix(41, 11, 3);
    for (const kernel_type kernel : test::all_kernel_types()) {
        const model<double> m = test::random_model(kernel);
        inference_engine<double> engine{ m, engine_config{ .num_threads = 4 } };
        const std::vector<double> expected = plssvm::decision_values(m, points);
        const std::vector<double> actual = engine.decision_values(points);
        ASSERT_EQ(actual.size(), expected.size());
        for (std::size_t p = 0; p < actual.size(); ++p) {
            EXPECT_DOUBLE_EQ(actual[p], expected[p]) << "kernel=" << plssvm::kernel_type_to_string(kernel) << " point=" << p;
        }
    }
}

TEST(InferenceEngine, PredictMapsToLabelDomain) {
    const model<double> m = test::random_model(kernel_type::rbf);
    inference_engine<double> engine{ m, engine_config{ .num_threads = 2 } };
    const aos_matrix<double> points = test::random_matrix(31, 11, 4);
    const std::vector<double> values = engine.decision_values(points);
    const std::vector<double> labels = engine.predict(points);
    for (std::size_t p = 0; p < labels.size(); ++p) {
        EXPECT_EQ(labels[p], m.label_from_decision(values[p]));
    }
}

TEST(InferenceEngine, SubmitMatchesSyncPredict) {
    for (const kernel_type kernel : test::all_kernel_types()) {
        const model<double> m = test::random_model(kernel);
        inference_engine<double> engine{ m, engine_config{ .num_threads = 2, .max_batch_size = 8 } };
        const aos_matrix<double> points = test::random_matrix(20, 11, 5);
        const std::vector<double> expected = engine.predict(points);

        std::vector<std::future<double>> futures;
        for (std::size_t p = 0; p < points.num_rows(); ++p) {
            futures.push_back(engine.submit(std::vector<double>(points.row_data(p), points.row_data(p) + points.num_cols())));
        }
        for (std::size_t p = 0; p < futures.size(); ++p) {
            EXPECT_EQ(futures[p].get(), expected[p]) << "kernel=" << plssvm::kernel_type_to_string(kernel);
        }
    }
}

TEST(InferenceEngine, SparseDecisionValuesMatchDense) {
    // sparse CSR batches share the execution paths of the dense batches
    aos_matrix<double> dense = test::random_matrix(40, 11, 21);
    std::size_t i = 0;
    for (double &v : dense.data()) {
        if (i++ % 3 != 0) {
            v = 0.0;
        }
    }
    const plssvm::csr_matrix<double> sparse{ dense };
    for (const kernel_type kernel : { kernel_type::linear, kernel_type::rbf }) {
        inference_engine<double> engine{ test::random_model(kernel), engine_config{ .num_threads = 2 } };
        const std::vector<double> expected = engine.decision_values(dense);
        const std::vector<double> actual = engine.decision_values(sparse);
        ASSERT_EQ(actual.size(), expected.size());
        for (std::size_t p = 0; p < actual.size(); ++p) {
            EXPECT_NEAR(actual[p], expected[p], 1e-10 * (1.0 + std::abs(expected[p])))
                << "kernel=" << plssvm::kernel_type_to_string(kernel) << " point=" << p;
        }
    }
}

TEST(InferenceEngine, SparseSubmitMatchesDenseSubmit) {
    inference_engine<double> engine{ test::random_model(kernel_type::rbf), engine_config{ .num_threads = 2, .max_batch_size = 4 } };
    // dense point {0, 1.5, 0, ..., -2.25 at index 7}
    std::vector<double> dense(11, 0.0);
    dense[1] = 1.5;
    dense[7] = -2.25;
    const std::vector<plssvm::csr_matrix<double>::entry> sparse{ { 1, 1.5 }, { 7, -2.25 } };
    const double expected = engine.submit(std::move(dense)).get();
    EXPECT_EQ(engine.submit(sparse).get(), expected);
}

TEST(InferenceEngine, SparseSubmitWithOutOfRangeIndexThrowsEagerly) {
    inference_engine<double> engine{ test::random_model(kernel_type::linear) };
    const std::vector<plssvm::csr_matrix<double>::entry> bad{ { 11, 1.0 } };  // valid indices: 0..10
    EXPECT_THROW((void) engine.submit(bad), plssvm::invalid_data_exception);
}

TEST(InferenceEngine, SubmitWithWrongFeatureCountThrowsEagerly) {
    inference_engine<double> engine{ test::random_model(kernel_type::linear) };
    EXPECT_THROW((void) engine.submit({ 1.0, 2.0 }), plssvm::invalid_data_exception);
}

TEST(InferenceEngine, EmptyBatchIsFine) {
    inference_engine<double> engine{ test::random_model(kernel_type::linear) };
    const aos_matrix<double> empty{ 0, 11 };
    EXPECT_TRUE(engine.decision_values(empty).empty());
}

// The stress test of the issue: many producers hammering submit() while the
// drain thread coalesces; every request must be answered exactly once with
// the right value (futures make duplicates structurally impossible, losses
// show up as a hang/broken promise, wrong routing as a value mismatch).
TEST(InferenceEngine, MultiThreadedSubmitStressLosesNothing) {
    const model<double> m = test::random_model(kernel_type::rbf, 16, 8);
    inference_engine<double> engine{ m, engine_config{ .num_threads = 4, .max_batch_size = 32 } };

    constexpr std::size_t num_producers = 8;
    constexpr std::size_t requests_per_producer = 250;
    const aos_matrix<double> queries = test::random_matrix(num_producers * requests_per_producer, 8, 6);
    const std::vector<double> expected = engine.predict(queries);  // sync reference

    std::atomic<std::size_t> mismatches{ 0 };
    std::atomic<std::size_t> answered{ 0 };
    std::vector<std::thread> producers;
    for (std::size_t t = 0; t < num_producers; ++t) {
        producers.emplace_back([&, t]() {
            std::vector<std::future<double>> futures;
            futures.reserve(requests_per_producer);
            for (std::size_t r = 0; r < requests_per_producer; ++r) {
                const std::size_t row = t * requests_per_producer + r;
                futures.push_back(engine.submit(std::vector<double>(queries.row_data(row), queries.row_data(row) + queries.num_cols())));
            }
            for (std::size_t r = 0; r < requests_per_producer; ++r) {
                const double label = futures[r].get();
                ++answered;
                if (label != expected[t * requests_per_producer + r]) {
                    ++mismatches;
                }
            }
        });
    }
    for (std::thread &producer : producers) {
        producer.join();
    }

    EXPECT_EQ(answered.load(), num_producers * requests_per_producer) << "no request may be lost";
    EXPECT_EQ(mismatches.load(), 0u) << "every response must be routed to its own request";

    const plssvm::serve::serve_stats stats = engine.stats();
    // sync reference batch + all async requests
    EXPECT_EQ(stats.total_requests, num_producers * requests_per_producer + queries.num_rows());
    EXPECT_GE(stats.mean_batch_size, 1.0);
    EXPECT_GT(stats.requests_per_second, 0.0);
}

TEST(InferenceEngine, DestructorDrainsInFlightRequests) {
    const model<double> m = test::random_model(kernel_type::linear);
    const aos_matrix<double> points = test::random_matrix(12, 11, 9);
    std::vector<std::future<double>> futures;
    {
        // large batch, held drain thread: the requests are still queued when
        // the engine is destroyed and must be answered, not dropped
        auto engine = std::make_unique<inference_engine<double>>(m, engine_config{ .num_threads = 2, .max_batch_size = 64 });
        auto gate = std::make_unique<test::drain_gate>(*engine);
        ASSERT_TRUE(gate->held());
        for (std::size_t p = 0; p < points.num_rows(); ++p) {
            futures.push_back(engine->submit(std::vector<double>(points.row_data(p), points.row_data(p) + points.num_cols())));
        }
        ASSERT_TRUE(test::wait_until([&] { return engine->pending_requests() == points.num_rows(); }));
        // the destructor shuts the batcher down, then waits for the held
        // drain thread: release it from a second thread once teardown began
        std::promise<void> tearing_down;
        std::thread releaser{ [&gate, destroying = tearing_down.get_future()]() {
            destroying.wait();
            gate.reset();
        } };
        tearing_down.set_value();
        engine.reset();
        releaser.join();
    }
    const plssvm::serve::compiled_model<double> compiled{ m };
    for (std::size_t p = 0; p < futures.size(); ++p) {
        EXPECT_EQ(futures[p].get(), compiled.label_from_decision(compiled.decision_value(points.row_data(p))));
    }
}

TEST(InferenceEngine, StatsAndTrackerReporting) {
    inference_engine<double> engine{ test::random_model(kernel_type::linear), engine_config{ .num_threads = 2 } };
    const aos_matrix<double> points = test::random_matrix(64, 11, 10);
    (void) engine.predict(points);
    (void) engine.predict(points);

    const plssvm::serve::serve_stats stats = engine.stats();
    EXPECT_EQ(stats.total_requests, 128u);
    EXPECT_EQ(stats.total_batches, 2u);
    EXPECT_DOUBLE_EQ(stats.mean_batch_size, 64.0);
    EXPECT_LE(stats.p50_latency_seconds, stats.p99_latency_seconds);
    EXPECT_LE(stats.p99_latency_seconds, stats.max_latency_seconds);
    EXPECT_GT(stats.requests_per_second, 0.0);

    plssvm::detail::tracker tracker;
    engine.report_to(tracker, "serve");
    EXPECT_DOUBLE_EQ(tracker.get_metric("serve/total_requests"), 128.0);
    EXPECT_DOUBLE_EQ(tracker.get_metric("serve/total_batches"), 2.0);
    EXPECT_DOUBLE_EQ(tracker.get_metric("serve/mean_batch_size"), 64.0);
    EXPECT_GT(tracker.get_metric("serve/requests_per_s"), 0.0);
    EXPECT_EQ(tracker.get("serve/batch_kernel").invocations, 1u);
    EXPECT_GE(tracker.get("serve/batch_kernel").wall_seconds, 0.0);
}

}  // namespace
