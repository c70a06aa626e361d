/**
 * @file
 * @brief Tests for `serve::model_registry` (multi-tenant load/find/evict with
 *        LRU) and the serving engine over one-vs-all ensembles, including
 *        parity with `ext::one_vs_all::predict`.
 */

#include "serve/serve_test_utils.hpp"

#include "plssvm/backends/backend_types.hpp"
#include "plssvm/core/data_set.hpp"
#include "plssvm/core/parameter.hpp"
#include "plssvm/detail/rng.hpp"
#include "plssvm/exceptions.hpp"
#include "plssvm/ext/multiclass.hpp"
#include "plssvm/serve/model_registry.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <future>
#include <vector>

namespace {

using plssvm::aos_matrix;
using plssvm::kernel_type;
using plssvm::model;
using plssvm::serve::engine_config;
using plssvm::serve::inference_engine;
using plssvm::serve::model_registry;
namespace test = plssvm::test;

TEST(ModelRegistry, RejectsZeroCapacity) {
    EXPECT_THROW(model_registry<double>{ 0 }, plssvm::invalid_parameter_exception);
}

TEST(ModelRegistry, LoadFindEvict) {
    model_registry<double> registry{ 4 };
    auto engine = registry.load("tenant-a", test::random_model(kernel_type::linear));
    ASSERT_NE(engine, nullptr);
    EXPECT_TRUE(registry.contains("tenant-a"));
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_EQ(registry.find("tenant-a"), engine);
    EXPECT_EQ(registry.find("no-such-tenant"), nullptr);

    EXPECT_TRUE(registry.evict("tenant-a"));
    EXPECT_FALSE(registry.evict("tenant-a"));
    EXPECT_FALSE(registry.contains("tenant-a"));
    // the handed-out shared pointer keeps the evicted engine usable
    const aos_matrix<double> points = test::random_matrix(3, 11, 1);
    EXPECT_EQ(engine->predict(points).size(), 3u);
}

TEST(ModelRegistry, EvictsLeastRecentlyUsedAtCapacity) {
    model_registry<double> registry{ 2 };
    (void) registry.load("a", test::random_model(kernel_type::linear));
    (void) registry.load("b", test::random_model(kernel_type::linear));
    // touch "a" so "b" becomes the LRU victim
    ASSERT_NE(registry.find("a"), nullptr);
    (void) registry.load("c", test::random_model(kernel_type::linear));

    EXPECT_EQ(registry.size(), 2u);
    EXPECT_TRUE(registry.contains("a"));
    EXPECT_FALSE(registry.contains("b"));
    EXPECT_TRUE(registry.contains("c"));
    // most recently used first
    EXPECT_EQ(registry.names(), (std::vector<std::string>{ "c", "a" }));
}

TEST(ModelRegistry, ReplacingANameKeepsSize) {
    model_registry<double> registry{ 2 };
    auto first = registry.load("m", test::random_model(kernel_type::linear));
    auto second = registry.load("m", test::random_model(kernel_type::rbf));
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_NE(first, second);
    EXPECT_EQ(registry.find("m"), second);
}

/// Three Gaussian blobs with labels 0 / 1 / 2.
plssvm::data_set<double> make_blobs(const std::size_t per_class, const std::uint64_t seed = 13) {
    auto engine = plssvm::detail::make_engine(seed);
    const double centers[3][2] = { { 4.0, 0.0 }, { -4.0, 4.0 }, { 0.0, -4.0 } };
    aos_matrix<double> points{ 3 * per_class, 2 };
    std::vector<double> labels(3 * per_class);
    for (std::size_t c = 0; c < 3; ++c) {
        for (std::size_t i = 0; i < per_class; ++i) {
            const std::size_t row = c * per_class + i;
            points(row, 0) = centers[c][0] + plssvm::detail::standard_normal<double>(engine);
            points(row, 1) = centers[c][1] + plssvm::detail::standard_normal<double>(engine);
            labels[row] = static_cast<double>(c);
        }
    }
    return plssvm::data_set<double>{ std::move(points), std::move(labels) };
}

/// Train a small 3-class one-vs-all ensemble on synthetic blobs.
plssvm::ext::multiclass_model<double> trained_ensemble(plssvm::data_set<double> &data_out) {
    data_out = make_blobs(30);
    plssvm::parameter params;
    params.kernel = kernel_type::linear;
    plssvm::ext::one_vs_all<double> trainer{ plssvm::backend_type::openmp, params };
    return trainer.fit(data_out, plssvm::solver_control{ .epsilon = 1e-8 });
}

TEST(ModelRegistry, TypeMismatchedFindDoesNotRefreshLru) {
    plssvm::data_set<double> data{ aos_matrix<double>{ 1, 1 } };
    const auto ensemble = trained_ensemble(data);

    model_registry<double> registry{ 2 };
    (void) registry.load("binary", test::random_model(kernel_type::linear));
    (void) registry.load("multi", ensemble);
    // wrong-type probe: must miss AND must not protect "binary" from eviction
    EXPECT_EQ(registry.find_multiclass("binary"), nullptr);
    (void) registry.load("newcomer", test::random_model(kernel_type::linear));

    EXPECT_FALSE(registry.contains("binary"));
    EXPECT_TRUE(registry.contains("multi"));
    EXPECT_TRUE(registry.contains("newcomer"));
}

TEST(MulticlassEngine, MatchesOneVsAllPredict) {
    plssvm::data_set<double> data{ aos_matrix<double>{ 1, 1 } };
    const auto ensemble = trained_ensemble(data);

    inference_engine<double> engine{ ensemble, engine_config{ .num_threads = 2 } };
    EXPECT_TRUE(engine.ensemble());
    EXPECT_EQ(engine.num_heads(), 3u);

    plssvm::parameter params;
    params.kernel = kernel_type::linear;
    const plssvm::ext::one_vs_all<double> reference{ plssvm::backend_type::openmp, params };
    const std::vector<double> expected = reference.predict(ensemble, data);
    const std::vector<double> actual = engine.predict(data.points());
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t p = 0; p < actual.size(); ++p) {
        EXPECT_EQ(actual[p], expected[p]) << "point=" << p;
    }
}

TEST(MulticlassEngine, SubmitMatchesSyncPredict) {
    plssvm::data_set<double> data{ aos_matrix<double>{ 1, 1 } };
    const auto ensemble = trained_ensemble(data);
    inference_engine<double> engine{ ensemble, engine_config{ .num_threads = 2, .max_batch_size = 16 } };

    const aos_matrix<double> &points = data.points();
    const std::vector<double> expected = engine.predict(points);
    std::vector<std::future<double>> futures;
    for (std::size_t p = 0; p < points.num_rows(); ++p) {
        futures.push_back(engine.submit(std::vector<double>(points.row_data(p), points.row_data(p) + points.num_cols())));
    }
    for (std::size_t p = 0; p < futures.size(); ++p) {
        EXPECT_EQ(futures[p].get(), expected[p]);
    }
    EXPECT_GT(engine.stats().total_requests, 0u);
}

TEST(MulticlassEngine, DecisionMatrixShapeAndArgmaxConsistency) {
    plssvm::data_set<double> data{ aos_matrix<double>{ 1, 1 } };
    const auto ensemble = trained_ensemble(data);
    inference_engine<double> engine{ ensemble, engine_config{ .num_threads = 2 } };

    const aos_matrix<double> scores = engine.decision_matrix(data.points());
    EXPECT_EQ(scores.num_rows(), data.points().num_rows());
    EXPECT_EQ(scores.num_cols(), 3u);

    const std::vector<double> labels = engine.predict(data.points());
    for (std::size_t p = 0; p < labels.size(); ++p) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < 3; ++c) {
            if (scores(p, c) > scores(p, best)) {
                best = c;
            }
        }
        EXPECT_EQ(labels[p], engine.class_labels()[best]);
    }
}

TEST(MulticlassEngine, RejectsBinaryOnlyCallsAndKindChangingReloads) {
    inference_engine<double> engine{ test::random_ensemble(kernel_type::linear), engine_config{ .num_threads = 2 } };
    const aos_matrix<double> points = test::random_matrix(4, 11, 5);
    EXPECT_THROW((void) engine.decision_values(points), plssvm::invalid_parameter_exception);
    EXPECT_EQ(engine.decision_matrix(points).num_cols(), 3u);
    // the model kind and class count are fixed for the engine's lifetime
    EXPECT_THROW(engine.reload(test::random_model(kernel_type::linear)), plssvm::invalid_data_exception);
    EXPECT_THROW(engine.reload(test::random_ensemble(kernel_type::linear, 4)), plssvm::invalid_data_exception);
    EXPECT_EQ(engine.snapshot_version(), 1u);
}

TEST(ModelRegistry, MulticlassReloadSwapsSnapshotBehindAStableEnginePointer) {
    plssvm::data_set<double> data{ aos_matrix<double>{ 1, 1 } };
    const auto ensemble = trained_ensemble(data);

    model_registry<double> registry{ 4 };
    auto engine = registry.load("landcover", ensemble);
    EXPECT_EQ(engine->snapshot_version(), 1u);
    const std::vector<double> before = engine->predict(data.points());

    // retrain (same shape) and hot-swap; the engine pointer must survive
    plssvm::data_set<double> data2{ aos_matrix<double>{ 1, 1 } };
    const auto retrained = trained_ensemble(data2);
    registry.reload("landcover", retrained).get();
    EXPECT_EQ(registry.find_multiclass("landcover"), engine);
    EXPECT_EQ(engine->snapshot_version(), 2u);
    EXPECT_EQ(engine->stats().reloads, 1u);
    EXPECT_EQ(engine->predict(data.points()).size(), before.size());

    // class-count mismatches surface through the future, nothing is swapped
    std::future<void> bad = registry.reload("landcover", plssvm::ext::multiclass_model<double>{ { 0.0 }, {} });
    EXPECT_THROW(bad.get(), plssvm::exception);
    EXPECT_EQ(engine->snapshot_version(), 2u);
}

TEST(ModelRegistry, EnginesShareTheRegistryExecutor) {
    plssvm::data_set<double> data{ aos_matrix<double>{ 1, 1 } };
    const auto ensemble = trained_ensemble(data);

    plssvm::serve::executor ex{ 2 };
    engine_config config;
    config.exec = &ex;
    model_registry<double> registry{ 4, config };
    EXPECT_EQ(&registry.shared_executor(), &ex);
    auto binary = registry.load("bin", test::random_model(kernel_type::linear));
    auto multi = registry.load("multi", ensemble);
    EXPECT_EQ(&binary->shared_executor(), &ex);
    EXPECT_EQ(&multi->shared_executor(), &ex);
    EXPECT_EQ(binary->stats().executor_threads, 2u);
    EXPECT_EQ(multi->stats().executor_threads, 2u);
}

TEST(ModelRegistry, HostsMulticlassEnsembles) {
    plssvm::data_set<double> data{ aos_matrix<double>{ 1, 1 } };
    const auto ensemble = trained_ensemble(data);

    model_registry<double> registry{ 4 };
    auto engine = registry.load("landcover", ensemble);
    ASSERT_NE(engine, nullptr);
    EXPECT_TRUE(registry.contains("landcover"));
    EXPECT_EQ(registry.find_multiclass("landcover"), engine);
    EXPECT_EQ(registry.find("landcover"), engine);
    // a binary name is not an ensemble
    (void) registry.load("churn", test::random_model(kernel_type::linear));
    EXPECT_EQ(registry.find_multiclass("churn"), nullptr);

    const std::vector<double> labels = engine->predict(data.points());
    EXPECT_EQ(labels.size(), data.points().num_rows());
}

}  // namespace
