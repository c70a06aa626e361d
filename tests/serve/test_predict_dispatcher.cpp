/**
 * @file
 * @brief Tests of `serve::choose_path`: the batch-size floor and the density
 *        threshold of each sparse form, and the path counters surfacing in
 *        `serve_stats`.
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
using plssvm::serve::choose_path;
using plssvm::serve::engine_config;
using plssvm::serve::inference_engine;
using plssvm::serve::predict_path;
using plssvm::serve::predict_shape;
namespace test = plssvm::test;

TEST(PredictDispatcher, TinyBatchesTakeTheReferencePath) {
    EXPECT_EQ(choose_path(predict_shape{ 1, 512, 64, kernel_type::rbf }), predict_path::reference);
    EXPECT_EQ(choose_path(predict_shape{ 7, 512, 64, kernel_type::rbf }), predict_path::reference);
    EXPECT_EQ(choose_path(predict_shape{ 0, 512, 64, kernel_type::rbf }), predict_path::reference);
}

TEST(PredictDispatcher, DeviceDisabledFallsBackToBlockedHost) {
    // serving has no device path: large dense batches take the blocked host
    // kernels
    EXPECT_EQ(choose_path(predict_shape{ 1024, 512, 64, kernel_type::rbf }), predict_path::host_blocked);
}

/// A batch of @p batch points in one sparse form whose stored-entry density
/// is @p density: the SV panel for dense queries, both operands for CSR
/// queries, the queries for the linear kernel.
[[nodiscard]] predict_shape shape_at(const kernel_type kernel, const bool sparse_query, const double density, const std::size_t batch) {
    constexpr std::size_t num_sv = 200;
    constexpr std::size_t dim = 1000;
    predict_shape shape{ batch, num_sv, dim, kernel };
    shape.sparse_query = sparse_query;
    if (kernel != kernel_type::linear) {
        shape.sv_nnz = static_cast<std::size_t>(std::lround(density * num_sv * dim));
    }
    if (sparse_query) {
        shape.query_nnz = static_cast<std::size_t>(std::lround(density * static_cast<double>(batch * dim)));
    }
    return shape;
}

// Asserts: each sparse form runs sparse just below its density threshold
// and blocked just above it at batch 8, and every batch of 7 takes the
// reference path whatever its density. Strategy: build shapes at 0.8x and
// 1.25x of each form's threshold (dense queries x sparse SVs, CSR queries x
// sparse SVs, CSR queries x linear w) and route them at batch 7 and 8.
TEST(PredictDispatcher, EachSparseFormSplitsAtItsDensityThresholdFromBatchEight) {
    struct form {
        const char *name;
        kernel_type kernel;
        bool sparse_query;
        double threshold;
    };
    for (const form f : { form{ "dense queries x sparse SVs", kernel_type::rbf, false, plssvm::serve::sparse_threshold_dense_queries },
                          form{ "CSR queries x sparse SVs", kernel_type::rbf, true, plssvm::serve::sparse_threshold_csr_queries },
                          form{ "CSR queries x linear w", kernel_type::linear, true, plssvm::serve::sparse_threshold_linear } }) {
        const predict_shape below = shape_at(f.kernel, f.sparse_query, 0.8 * f.threshold, 8);
        const predict_shape above = shape_at(f.kernel, f.sparse_query, 1.25 * f.threshold, 8);
        ASSERT_LT(plssvm::serve::sparse_density(below), f.threshold) << f.name;
        ASSERT_GT(plssvm::serve::sparse_density(above), f.threshold) << f.name;
        EXPECT_EQ(choose_path(below), predict_path::host_sparse) << f.name;
        EXPECT_EQ(choose_path(above), predict_path::host_blocked) << f.name;
        EXPECT_EQ(choose_path(shape_at(f.kernel, f.sparse_query, 0.8 * f.threshold, 7)), predict_path::reference) << f.name;
        EXPECT_EQ(choose_path(shape_at(f.kernel, f.sparse_query, 1.25 * f.threshold, 7)), predict_path::reference) << f.name;
    }
    // dense linear batches never run sparse: the GEMV against w ignores the
    // SV panel, and the queries carry no stored-entry count
    EXPECT_EQ(choose_path(shape_at(kernel_type::linear, false, 0.001, 8)), predict_path::host_blocked);
}

TEST(PredictDispatcher, EngineRecordsChosenPathInServeStats) {
    const model<double> m = test::random_model(kernel_type::rbf, 37, 11);
    engine_config config;
    config.num_threads = 2;
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
    const std::vector<double> expected = engine.snapshot()->compiled.decision_values(big);
    for (std::size_t p = 0; p < expected.size(); ++p) {
        EXPECT_NEAR(via_engine[p], expected[p], 1e-9 * (1.0 + std::abs(expected[p])));
    }
}

TEST(PredictDispatcher, DefaultEngineUsesReferenceForTinyAndBlockedForLargeBatches) {
    // tiny batches -> reference, big -> blocked
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
