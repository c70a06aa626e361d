/**
 * @file
 * @brief Tests of the sparse compiled form of the support-vector panel:
 *        density-threshold form selection (including the exact boundary),
 *        density-rule path choice surfacing in `serve_stats`,
 *        zero-downtime reloads that move a model between the dense and
 *        sparse forms under load, and registry-level form switches.
 */

#include "serve/serve_test_utils.hpp"

#include "plssvm/core/matrix.hpp"
#include "plssvm/core/model.hpp"
#include "plssvm/core/sparse_matrix.hpp"
#include "plssvm/ext/multiclass.hpp"
#include "plssvm/serve/compiled_model.hpp"
#include "plssvm/serve/inference_engine.hpp"
#include "plssvm/serve/model_registry.hpp"
#include "plssvm/serve/predict_dispatcher.hpp"
#include "plssvm/serve/serve_stats.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace {

using plssvm::aos_matrix;
using plssvm::csr_matrix;
using plssvm::kernel_type;
using plssvm::model;
using plssvm::serve::compile_options;
using plssvm::serve::choose_path;
using plssvm::serve::compiled_model;
using plssvm::serve::engine_config;
using plssvm::serve::inference_engine;
using plssvm::serve::model_registry;
using plssvm::serve::predict_path;
using plssvm::serve::predict_shape;
namespace test = plssvm::test;
using namespace std::chrono_literals;

// --- compile-form selection --------------------------------------------------

TEST(SparseSV, FormSelectionFollowsTheDensityThreshold) {
    // 37 x 16 panel with exactly 10% stored entries (before edge injection
    // shrinks it a little further)
    const model<double> sparse_model = test::random_sparse_model(kernel_type::rbf, 37, 16, 0.1, 3);
    const compiled_model<double> auto_form{ sparse_model };
    EXPECT_TRUE(auto_form.sparse_sv()) << "density " << auto_form.sv_density() << " is below the default threshold";
    EXPECT_LT(auto_form.sv_density(), compile_options{}.sparse_density_threshold);
    EXPECT_GT(auto_form.sv_nnz(), 0u);

    const model<double> dense_model = test::random_model(kernel_type::rbf, 37, 16, 3);
    const compiled_model<double> dense_form{ dense_model };
    EXPECT_FALSE(dense_form.sparse_sv());
    EXPECT_DOUBLE_EQ(dense_form.sv_density(), 1.0);
    EXPECT_EQ(dense_form.sv_nnz(), 37u * 16u);
}

TEST(SparseSV, DensityExactlyAtTheThresholdCompilesDense) {
    // a panel with NO injected edge cases so the density is exact: 8 x 16
    // cells, 32 stored entries -> density 0.25 == the default threshold
    plssvm::parameter params;
    params.kernel = kernel_type::rbf;
    params.gamma = 0.35;
    aos_matrix<double> sv = test::sparse_random_matrix(8, 16, 0.25, 5);
    const model<double> m{ params, std::move(sv), std::vector<double>(8, 0.5), 0.1, 1.0, -1.0 };
    const compiled_model<double> at_threshold{ m };
    ASSERT_DOUBLE_EQ(at_threshold.sv_density(), 0.25);
    EXPECT_FALSE(at_threshold.sparse_sv()) << "the threshold is strict: density == threshold stays dense";

    // nudging the threshold epsilon above the density flips the form
    const compiled_model<double> just_below{ m, compile_options{ .sparse_density_threshold = 0.25 + 1e-9 } };
    EXPECT_TRUE(just_below.sparse_sv());
}

TEST(SparseSV, ThresholdZeroDisablesAndLargeForcesTheSparseForm) {
    const model<double> m = test::random_sparse_model(kernel_type::polynomial, 21, 13, 0.05, 7);
    EXPECT_FALSE((compiled_model<double>{ m, compile_options{ .sparse_density_threshold = 0.0 } }.sparse_sv()));
    EXPECT_TRUE((compiled_model<double>{ m, compile_options{ .sparse_density_threshold = 1.5 } }.sparse_sv()));
    // an empty model never compiles sparse, whatever the threshold
    EXPECT_FALSE((compiled_model<double>{}.sparse_sv()));
}

TEST(SparseSV, SparseAndDenseFormsAgreeForAllKernels) {
    for (const kernel_type kernel : test::all_kernel_types()) {
        const model<double> m = test::random_sparse_model(kernel, 29, 17, 0.1, 13);
        const compiled_model<double> dense_form{ m, compile_options{ .sparse_density_threshold = 0.0 } };
        const compiled_model<double> sparse_form{ m, compile_options{ .sparse_density_threshold = 1.5 } };
        aos_matrix<double> queries = test::sparse_random_matrix(40, 17, 0.1, 14);
        test::inject_sparse_edge_cases(queries);

        const std::vector<double> expected = dense_form.decision_values(queries);
        const std::vector<double> via_sparse = sparse_form.decision_values(queries);
        const std::vector<double> via_csr = sparse_form.decision_values(csr_matrix<double>{ queries });
        for (std::size_t p = 0; p < expected.size(); ++p) {
            EXPECT_NEAR(via_sparse[p], expected[p], 1e-10 * (1.0 + std::abs(expected[p])))
                << "kernel=" << plssvm::kernel_type_to_string(kernel) << " point=" << p;
            EXPECT_NEAR(via_csr[p], expected[p], 1e-10 * (1.0 + std::abs(expected[p])))
                << "kernel=" << plssvm::kernel_type_to_string(kernel) << " (csr) point=" << p;
        }
    }
}

// --- density-rule dispatch ---------------------------------------------------

TEST(SparseSV, DispatcherRoutesSparseModelsToTheSparsePath) {
    // 1% dense panel: the sparse sweep does ~1% of the flops and traffic
    const predict_shape sparse_model_shape{ 256, 512, 1024, kernel_type::rbf, /*sv_nnz=*/5120 };
    EXPECT_EQ(choose_path(sparse_model_shape), predict_path::host_sparse);

    // no sparse compiled form -> the sparse path must not be offered
    const predict_shape dense_model_shape{ 256, 512, 1024, kernel_type::rbf, /*sv_nnz=*/0 };
    EXPECT_EQ(choose_path(dense_model_shape), predict_path::host_blocked);

    // tiny batches stay on the reference path regardless of sparsity
    predict_shape tiny = sparse_model_shape;
    tiny.batch_size = 2;
    EXPECT_EQ(choose_path(tiny), predict_path::reference);
}

TEST(SparseSV, DispatcherRoutesSparseLinearQueriesBySparsity) {
    // CSR linear queries at 1% density: O(nnz) sweep wins
    const predict_shape sparse_queries{ 256, 512, 1024, kernel_type::linear, 0, /*sparse_query=*/true, /*query_nnz=*/2560 };
    EXPECT_EQ(choose_path(sparse_queries), predict_path::host_sparse);
    // dense linear batches never route sparse: the GEMV against w is already
    // independent of the SV panel
    const predict_shape dense_queries{ 256, 512, 1024, kernel_type::linear, /*sv_nnz=*/5120 };
    EXPECT_EQ(choose_path(dense_queries), predict_path::host_blocked);
}

TEST(SparseSV, EngineRecordsSparsePathInServeStats) {
    engine_config config;
    config.num_threads = 2;
    // sparse rbf model, large dense batch -> host_sparse
    inference_engine<double> engine{ test::random_sparse_model(kernel_type::rbf, 64, 48, 0.05, 17), config };
    ASSERT_TRUE(engine.snapshot()->compiled.sparse_sv());

    const aos_matrix<double> big = test::sparse_random_matrix(256, 48, 0.05, 18);
    const std::vector<double> via_engine = engine.decision_values(big);
    // tiny batches still route to the reference sweep
    (void) engine.decision_values(test::sparse_random_matrix(2, 48, 0.05, 19));

    const plssvm::serve::serve_stats stats = engine.stats();
    EXPECT_EQ(stats.host_sparse_batches, 1u);
    EXPECT_EQ(stats.reference_batches, 1u);
    EXPECT_EQ(stats.host_blocked_batches, 0u);

    // and the sparse path agrees with the reference evaluation
    std::vector<double> reference(big.num_rows());
    engine.snapshot()->compiled.decision_values_reference_into(big, 0, big.num_rows(), reference.data());
    for (std::size_t p = 0; p < reference.size(); ++p) {
        EXPECT_NEAR(via_engine[p], reference[p], 1e-10 * (1.0 + std::abs(reference[p]))) << "point=" << p;
    }

    plssvm::detail::tracker tracker;
    engine.report_to(tracker, "serve");
    EXPECT_DOUBLE_EQ(tracker.get_metric("serve/host_sparse_batches"), 1.0);
}

TEST(SparseSV, EngineRecordsSparsePathForCsrLinearBatches) {
    engine_config config;
    config.num_threads = 2;
    inference_engine<double> engine{ test::random_sparse_model(kernel_type::linear, 32, 64, 0.05, 23), config };

    const aos_matrix<double> queries = test::sparse_random_matrix(64, 64, 0.05, 24);
    (void) engine.decision_values(csr_matrix<double>{ queries });
    EXPECT_EQ(engine.stats().host_sparse_batches, 1u);
}

TEST(SparseSV, EngineKeepsDenseModelsOnTheBlockedPath) {
    engine_config config;
    config.num_threads = 2;
    inference_engine<double> engine{ test::random_model(kernel_type::rbf, 37, 11), config };
    ASSERT_FALSE(engine.snapshot()->compiled.sparse_sv());
    (void) engine.decision_values(test::random_matrix(256, 11, 25));
    const plssvm::serve::serve_stats stats = engine.stats();
    EXPECT_EQ(stats.host_blocked_batches, 1u);
    EXPECT_EQ(stats.host_sparse_batches, 0u);
}

// --- zero-downtime dense <-> sparse form switches ----------------------------

TEST(SparseSV, ReloadMovesAModelBetweenDenseAndSparseForms) {
    engine_config config;
    config.num_threads = 2;
    inference_engine<double> engine{ test::random_model(kernel_type::rbf, 37, 16, 41), config };
    EXPECT_FALSE(engine.snapshot()->compiled.sparse_sv());

    const model<double> sparse_replacement = test::random_sparse_model(kernel_type::rbf, 21, 16, 0.08, 43);
    engine.reload(sparse_replacement);
    EXPECT_EQ(engine.snapshot_version(), 2u);
    EXPECT_TRUE(engine.snapshot()->compiled.sparse_sv()) << "the engine's compile options must apply on reload";

    // back to a dense replacement -> dense form again
    engine.reload(test::random_model(kernel_type::rbf, 19, 16, 44));
    EXPECT_EQ(engine.snapshot_version(), 3u);
    EXPECT_FALSE(engine.snapshot()->compiled.sparse_sv());
}

TEST(SparseSV, RegistryReloadSwitchesFormsBehindAStableEnginePointer) {
    model_registry<double> registry{ 4 };
    const model<double> dense_v1 = test::random_model(kernel_type::rbf, 37, 16, 51);
    const model<double> sparse_v2 = test::random_sparse_model(kernel_type::rbf, 29, 16, 0.06, 52);
    auto engine = registry.load("tenant", dense_v1);
    EXPECT_FALSE(engine->snapshot()->compiled.sparse_sv());

    registry.reload("tenant", sparse_v2).get();
    EXPECT_EQ(registry.find("tenant"), engine) << "form switch must keep the resident engine";
    EXPECT_TRUE(engine->snapshot()->compiled.sparse_sv());

    const aos_matrix<double> points = test::sparse_random_matrix(16, 16, 0.06, 53);
    const std::vector<double> expected = compiled_model<double>{ sparse_v2 }.decision_values(points);
    const std::vector<double> actual = engine->decision_values(points);
    for (std::size_t p = 0; p < expected.size(); ++p) {
        EXPECT_NEAR(actual[p], expected[p], 1e-10 * (1.0 + std::abs(expected[p]))) << "point=" << p;
    }
}

// The reload-sparse stress scenario: producers hammer the engine with dense
// AND CSR batches while a reloader flips the SAME model between its dense and
// sparse compiled forms (install with opposite thresholds). Every response
// must match the model's values at all times — a form switch must be
// numerically invisible (within cross-form tolerance) and lose nothing. A
// three-head ensemble over one shared copy of the model's panel (stored
// once) is scored and flipped alongside: its one stored panel crosses the
// sparse threshold on every install.
TEST(SparseSV, ReloadFormFlipStressKeepsEveryResponseConsistent) {
    constexpr std::size_t dim = 24;
    constexpr std::size_t num_sv = 32;
    constexpr std::size_t batch_rows = 32;  // >= min_blocked_batch -> pooled paths
    constexpr std::size_t num_producers = 3;
    constexpr std::size_t iterations_per_producer = 40;
    constexpr std::size_t form_flips = 16;

    const model<double> m = test::random_sparse_model(kernel_type::rbf, num_sv, dim, 0.08, 61);
    aos_matrix<double> queries = test::sparse_random_matrix(64, dim, 0.08, 62);
    test::inject_sparse_edge_cases(queries);
    const csr_matrix<double> csr_queries{ queries };

    // ground truth from the reference sweep (form-independent baseline)
    const compiled_model<double> baseline{ m, compile_options{ .sparse_density_threshold = 0.0 } };
    std::vector<double> truth(queries.num_rows());
    baseline.decision_values_reference_into(queries, 0, queries.num_rows(), truth.data());
    const auto matches = [](const double a, const double b) {
        return std::abs(a - b) <= 1e-10 * (1.0 + std::abs(b));
    };

    const auto panel = std::make_shared<const aos_matrix<double>>(m.support_vectors());
    std::vector<model<double>> heads;
    for (std::size_t c = 0; c < 3; ++c) {
        std::vector<double> alpha = m.alpha();
        for (std::size_t i = 0; i < alpha.size(); ++i) {
            alpha[i] *= 1.0 + 0.25 * static_cast<double>((c + i) % 3);
        }
        heads.emplace_back(m.params(), panel, std::move(alpha), m.rho() + 0.1 * static_cast<double>(c),
                           c == 1 ? -1.0 : 1.0, c == 1 ? 1.0 : -1.0);
    }
    const plssvm::ext::multiclass_model<double> ensemble{ { 0.0, 1.0, 2.0 }, std::move(heads) };
    const compiled_model<double> ensemble_baseline{ ensemble, compile_options{ .sparse_density_threshold = 0.0 } };
    ASSERT_EQ(ensemble_baseline.num_support_vectors(), num_sv) << "the heads' shared panel is stored once";
    aos_matrix<double> ensemble_truth{ queries.num_rows(), 3 };
    ensemble_baseline.decision_values_reference_into(queries, 0, queries.num_rows(), ensemble_truth.data().data());

    engine_config config;
    config.num_threads = 2;
    inference_engine<double> engine{ m, config };
    inference_engine<double> ensemble_engine{ ensemble, config };

    std::atomic<std::size_t> mismatches{ 0 };
    std::atomic<bool> start{ false };
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < num_producers; ++t) {
        threads.emplace_back([&, t]() {
            while (!start.load()) {
                std::this_thread::yield();
            }
            for (std::size_t it = 0; it < iterations_per_producer; ++it) {
                const std::size_t offset = (t * 11 + it * 5) % (queries.num_rows() - batch_rows);
                // dense batch through the dispatched path
                aos_matrix<double> batch{ batch_rows, dim };
                for (std::size_t r = 0; r < batch_rows; ++r) {
                    std::copy(queries.row_data(offset + r), queries.row_data(offset + r) + dim, batch.row_data(r));
                }
                const std::vector<double> dense_values = engine.decision_values(batch);
                // CSR batch through the sparse-query path
                const std::vector<double> csr_values = engine.decision_values(csr_queries);
                for (std::size_t r = 0; r < batch_rows; ++r) {
                    if (!matches(dense_values[r], truth[offset + r])) {
                        ++mismatches;
                    }
                }
                for (std::size_t r = 0; r < csr_values.size(); ++r) {
                    if (!matches(csr_values[r], truth[r])) {
                        ++mismatches;
                    }
                }
                // every head of the ensemble through the dispatched path
                const aos_matrix<double> scores = ensemble_engine.decision_matrix(batch);
                for (std::size_t r = 0; r < batch_rows; ++r) {
                    for (std::size_t h = 0; h < 3; ++h) {
                        if (!matches(scores(r, h), ensemble_truth(offset + r, h))) {
                            ++mismatches;
                        }
                    }
                }
            }
        });
    }
    threads.emplace_back([&]() {
        while (!start.load()) {
            std::this_thread::yield();
        }
        for (std::size_t flip = 0; flip < form_flips; ++flip) {
            const double threshold = flip % 2 == 0 ? 1.5 : 0.0;  // sparse, dense, sparse, ...
            engine.install(compiled_model<double>{ m, compile_options{ .sparse_density_threshold = threshold } });
            ensemble_engine.install(compiled_model<double>{ ensemble, compile_options{ .sparse_density_threshold = threshold } });
        }
    });
    start.store(true);
    for (std::thread &thread : threads) {
        thread.join();
    }

    EXPECT_EQ(mismatches.load(), 0u) << "a dense<->sparse form flip must be numerically invisible";
    EXPECT_EQ(engine.stats().reloads, form_flips);
    EXPECT_EQ(engine.snapshot_version(), 1u + form_flips);
    // flips alternate sparse, dense, ...: the final (even-count) flip used
    // threshold 0.0, so the engine ends on the dense form
    EXPECT_FALSE(engine.snapshot()->compiled.sparse_sv());
    EXPECT_EQ(ensemble_engine.stats().reloads, form_flips);
    EXPECT_EQ(ensemble_engine.snapshot_version(), 1u + form_flips);
    EXPECT_FALSE(ensemble_engine.snapshot()->compiled.sparse_sv());
}

}  // namespace
