/**
 * @file
 * @brief Tests of the cost-model-driven `serve::predict_dispatcher`: path
 *        choice as a function of batch size under injected cost-model
 *        parameters, and the path counters surfacing in `serve_stats`.
 */

#include "serve/serve_test_utils.hpp"

#include "plssvm/serve/inference_engine.hpp"
#include "plssvm/serve/predict_dispatcher.hpp"
#include "plssvm/serve/serve_stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

namespace {

using plssvm::aos_matrix;
using plssvm::kernel_type;
using plssvm::model;
using plssvm::serve::dispatch_params;
using plssvm::serve::engine_config;
using plssvm::serve::inference_engine;
using plssvm::serve::predict_dispatcher;
using plssvm::serve::predict_path;
namespace test = plssvm::test;

/// Injected parameters with a deliberately pessimistic, single-thread host.
[[nodiscard]] dispatch_params slow_host_params() {
    dispatch_params params;
    params.min_blocked_batch = 8;
    params.host.effective_gflops = 0.5;
    params.host.num_threads = 1;
    return params;
}

TEST(PredictDispatcher, TinyBatchesTakeTheReferencePath) {
    const predict_dispatcher dispatcher{ slow_host_params() };
    EXPECT_EQ(dispatcher.choose(1, 512, 64, kernel_type::rbf), predict_path::reference);
    EXPECT_EQ(dispatcher.choose(7, 512, 64, kernel_type::rbf), predict_path::reference);
    EXPECT_EQ(dispatcher.choose(0, 512, 64, kernel_type::rbf), predict_path::reference);
}

TEST(PredictDispatcher, DeviceDisabledFallsBackToBlockedHost) {
    // serving has no device path: even against a pessimistic host, large
    // dense batches take the blocked host kernels
    const predict_dispatcher dispatcher{ slow_host_params() };
    EXPECT_EQ(dispatcher.choose(1024, 512, 64, kernel_type::rbf), predict_path::host_blocked);
}

TEST(PredictDispatcher, CostEstimatesScaleWithBatchShape) {
    const predict_dispatcher dispatcher{ slow_host_params() };
    // more points, SVs, or features -> strictly more estimated host time
    const double base = dispatcher.host_seconds(256, 512, 64, kernel_type::rbf);
    EXPECT_GT(dispatcher.host_seconds(512, 512, 64, kernel_type::rbf), base);
    EXPECT_GT(dispatcher.host_seconds(256, 1024, 64, kernel_type::rbf), base);
    EXPECT_GT(dispatcher.host_seconds(256, 512, 128, kernel_type::rbf), base);
}

TEST(PredictDispatcher, EngineRecordsChosenPathInServeStats) {
    const model<double> m = test::random_model(kernel_type::rbf, 37, 11);
    engine_config config;
    config.num_threads = 2;
    config.dispatch = slow_host_params();
    inference_engine<double> engine{ m, config };

    // batch 1 -> reference path
    (void) engine.decision_values(test::random_matrix(1, 11, 3));
    // batch 1024 -> blocked host path
    const aos_matrix<double> big = test::random_matrix(1024, 11, 4);
    const std::vector<double> via_engine = engine.decision_values(big);

    const plssvm::serve::serve_stats stats = engine.stats();
    EXPECT_EQ(stats.reference_batches, 1u);
    EXPECT_EQ(stats.host_blocked_batches, 1u);
    EXPECT_EQ(stats.total_batches, 2u);

    // the dispatched path must agree with the compiled model's own sweep
    const std::vector<double> expected = engine.snapshot()->heads.front().decision_values(big);
    for (std::size_t p = 0; p < expected.size(); ++p) {
        EXPECT_NEAR(via_engine[p], expected[p], 1e-9 * (1.0 + std::abs(expected[p])));
    }
}

TEST(PredictDispatcher, DefaultEngineUsesReferenceForTinyAndBlockedForLargeBatches) {
    // without injected parameters: tiny batches -> reference, big -> blocked
    inference_engine<double> engine{ test::random_model(kernel_type::rbf, 37, 11) };
    (void) engine.decision_values(test::random_matrix(2, 11, 5));
    (void) engine.decision_values(test::random_matrix(256, 11, 6));
    const plssvm::serve::serve_stats stats = engine.stats();
    EXPECT_EQ(stats.reference_batches, 1u);
    EXPECT_EQ(stats.host_blocked_batches, 1u);
}

TEST(PredictDispatcher, PathCountersReachTheTracker) {
    inference_engine<double> engine{ test::random_model(kernel_type::linear, 37, 11) };
    (void) engine.decision_values(test::random_matrix(64, 11, 7));
    plssvm::detail::tracker tracker;
    engine.report_to(tracker, "serve");
    EXPECT_DOUBLE_EQ(tracker.get_metric("serve/host_blocked_batches"), 1.0);
    EXPECT_DOUBLE_EQ(tracker.get_metric("serve/reference_batches"), 0.0);
}

}  // namespace
