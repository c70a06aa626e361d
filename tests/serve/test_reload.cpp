/**
 * @file
 * @brief Tests for the zero-downtime model lifecycle: immutable snapshots,
 *        atomic reload swaps, in-engine input scaling (raw-feature client
 *        contract), and the concurrent reload stress scenario of the issue
 *        (every response consistent with exactly one snapshot, nothing lost).
 */

#include "serve/serve_test_utils.hpp"

#include "plssvm/core/matrix.hpp"
#include "plssvm/core/model.hpp"
#include "plssvm/exceptions.hpp"
#include "plssvm/io/scaling.hpp"
#include "plssvm/serve/inference_engine.hpp"
#include "plssvm/serve/model_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace {

using plssvm::aos_matrix;
using plssvm::kernel_type;
using plssvm::model;
using plssvm::serve::compiled_model;
using plssvm::serve::engine_config;
using plssvm::serve::inference_engine;
using plssvm::serve::model_registry;
namespace test = plssvm::test;
using namespace std::chrono_literals;

TEST(SnapshotLifecycle, ReloadSwapsModelAndBumpsVersion) {
    const model<double> v1 = test::random_model(kernel_type::rbf, 37, 11, 42);
    const model<double> v2 = test::random_model(kernel_type::linear, 21, 11, 43);
    inference_engine<double> engine{ v1, engine_config{ .num_threads = 2 } };
    EXPECT_EQ(engine.snapshot_version(), 1u);

    const aos_matrix<double> points = test::random_matrix(16, 11, 7);
    const std::vector<double> before = engine.decision_values(points);
    const std::vector<double> expected_before = compiled_model<double>{ v1 }.decision_values(points);
    for (std::size_t p = 0; p < before.size(); ++p) {
        EXPECT_DOUBLE_EQ(before[p], expected_before[p]);
    }

    engine.reload(v2);
    EXPECT_EQ(engine.snapshot_version(), 2u);
    EXPECT_EQ(engine.stats().reloads, 1u);

    const std::vector<double> after = engine.decision_values(points);
    const std::vector<double> expected_after = compiled_model<double>{ v2 }.decision_values(points);
    for (std::size_t p = 0; p < after.size(); ++p) {
        EXPECT_DOUBLE_EQ(after[p], expected_after[p]);
    }
}

TEST(SnapshotLifecycle, ReloadWithWrongFeatureCountThrowsAndKeepsServing) {
    inference_engine<double> engine{ test::random_model(kernel_type::linear, 37, 11) };
    EXPECT_THROW(engine.reload(test::random_model(kernel_type::linear, 37, 7)), plssvm::invalid_data_exception);
    EXPECT_EQ(engine.snapshot_version(), 1u) << "a failed reload must not publish anything";
    EXPECT_EQ(engine.decision_values(test::random_matrix(4, 11, 3)).size(), 4u);
}

TEST(SnapshotLifecycle, OldSnapshotStaysAliveForHolders) {
    const model<double> v1 = test::random_model(kernel_type::rbf, 37, 11, 42);
    inference_engine<double> engine{ v1, engine_config{ .num_threads = 2 } };
    const auto held = engine.snapshot();  // a "long-running batch"
    engine.reload(test::random_model(kernel_type::rbf, 19, 11, 99));

    // the held snapshot still evaluates as v1 even though v2 is live
    const aos_matrix<double> points = test::random_matrix(8, 11, 5);
    const std::vector<double> via_held = held->compiled.decision_values(points);
    const std::vector<double> expected = compiled_model<double>{ v1 }.decision_values(points);
    for (std::size_t p = 0; p < expected.size(); ++p) {
        EXPECT_DOUBLE_EQ(via_held[p], expected[p]);
    }
    EXPECT_EQ(held->version, 1u);
    EXPECT_EQ(engine.snapshot()->version, 2u);
}

/// Scaling fitted to map the training range onto [-1, 1].
std::shared_ptr<const plssvm::io::scaling<double>> fitted_scaling(const aos_matrix<double> &train) {
    auto scaling = std::make_shared<plssvm::io::scaling<double>>(-1.0, 1.0);
    scaling->fit(train);
    return scaling;
}

TEST(SnapshotLifecycle, InEngineScalingMatchesClientSideScaling) {
    const model<double> m = test::random_model(kernel_type::rbf, 37, 11);
    aos_matrix<double> raw = test::random_matrix(40, 11, 23);
    for (double &v : raw.data()) {
        v = 5.0 + 3.0 * v;  // clients send unscaled features
    }
    const auto scaling = fitted_scaling(raw);

    // reference: client scales, engine without transform
    inference_engine<double> plain{ m, engine_config{ .num_threads = 2 } };
    aos_matrix<double> scaled = raw;
    scaling->transform(scaled);
    const std::vector<double> expected = plain.predict(scaled);

    // in-engine: raw features in, snapshot applies the transform
    inference_engine<double> serving{ m, engine_config{ .num_threads = 2 }, scaling };
    const std::vector<double> actual = serving.predict(raw);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t p = 0; p < actual.size(); ++p) {
        EXPECT_DOUBLE_EQ(actual[p], expected[p]) << "point=" << p;
    }

    // the async submit path applies the same snapshot transform
    for (std::size_t p = 0; p < 8; ++p) {
        const std::vector<double> point(raw.row_data(p), raw.row_data(p) + raw.num_cols());
        EXPECT_EQ(serving.submit(point).get(), expected[p]) << "point=" << p;
    }
}

TEST(SnapshotLifecycle, InEngineScalingAppliesToSparseBatches) {
    const model<double> m = test::random_model(kernel_type::linear, 21, 11);
    aos_matrix<double> raw = test::random_matrix(24, 11, 29);
    std::size_t i = 0;
    for (double &v : raw.data()) {
        if (i++ % 3 != 0) {
            v = 0.0;  // sparse-ish client data (explicit zeros still scale!)
        }
    }
    const auto scaling = fitted_scaling(raw);
    inference_engine<double> serving{ m, engine_config{ .num_threads = 2 }, scaling };
    const std::vector<double> dense_values = serving.decision_values(raw);
    const std::vector<double> sparse_values = serving.decision_values(plssvm::csr_matrix<double>{ raw });
    ASSERT_EQ(sparse_values.size(), dense_values.size());
    for (std::size_t p = 0; p < sparse_values.size(); ++p) {
        EXPECT_DOUBLE_EQ(sparse_values[p], dense_values[p]) << "point=" << p;
    }
}

TEST(SnapshotLifecycle, ReloadCanAttachAndDetachScaling) {
    const model<double> m = test::random_model(kernel_type::linear, 21, 11);
    const aos_matrix<double> points = test::random_matrix(8, 11, 31);
    inference_engine<double> engine{ m, engine_config{ .num_threads = 2 } };
    const std::vector<double> unscaled = engine.decision_values(points);

    engine.reload(m, fitted_scaling(points));
    EXPECT_EQ(engine.snapshot_version(), 2u);
    const std::vector<double> with_scaling = engine.decision_values(points);
    // same model, but inputs now pass the transform -> values change
    bool any_difference = false;
    for (std::size_t p = 0; p < unscaled.size(); ++p) {
        any_difference |= with_scaling[p] != unscaled[p];
    }
    EXPECT_TRUE(any_difference);

    engine.reload(m);  // detach the transform again
    const std::vector<double> back = engine.decision_values(points);
    for (std::size_t p = 0; p < unscaled.size(); ++p) {
        EXPECT_DOUBLE_EQ(back[p], unscaled[p]);
    }
}

// The stress scenario of the issue: N producer threads submitting (async
// single points AND sync batches) while M reload threads swap snapshots. No
// response may be lost (futures all resolve), none duplicated (structurally
// impossible with futures), and every response must be consistent with
// exactly ONE of the model versions — a sync batch in particular must be
// evaluated entirely on a single snapshot, never a mix, never a half-built
// model. Linear kernels keep the blocked batch path bit-compatible with the
// per-point reference, so version fingerprints compare near-exactly.
TEST(SnapshotLifecycle, ConcurrentReloadStressEveryResponseMatchesOneSnapshot) {
    constexpr std::size_t num_versions = 4;
    constexpr std::size_t num_producers = 4;
    constexpr std::size_t iterations_per_producer = 60;
    constexpr std::size_t batch_rows = 16;  // >= min_blocked_batch -> lane path
    constexpr std::size_t num_reloaders = 2;
    constexpr std::size_t reloads_per_reloader = 8;
    constexpr std::size_t dim = 8;
    constexpr std::size_t num_queries = 64;

    // all versions share dim but have different support vectors/weights, so
    // their decision values for the same point differ (distinct fingerprints);
    // odd versions have very sparse SV panels and compile into the SPARSE
    // form under the engine's default threshold, so the reload storm also
    // flips the compiled form back and forth while batches are in flight
    std::vector<model<double>> versions;
    std::vector<compiled_model<double>> compiled;
    for (std::size_t v = 0; v < num_versions; ++v) {
        if (v % 2 == 0) {
            versions.push_back(test::random_model(kernel_type::linear, 16, dim, 1000 + v));
        } else {
            versions.push_back(test::random_sparse_model(kernel_type::linear, 16, dim, 0.15, 1000 + v));
        }
        compiled.emplace_back(versions[v]);
    }
    EXPECT_TRUE(compiled[1].sparse_sv()) << "odd versions must exercise the sparse compiled form";
    const aos_matrix<double> queries = test::random_matrix(num_queries, dim, 77);
    const plssvm::csr_matrix<double> csr_queries{ queries };
    // per-point fingerprint: the decision value of the point under version v
    std::vector<std::vector<double>> value_of(num_queries, std::vector<double>(num_versions));
    for (std::size_t p = 0; p < num_queries; ++p) {
        for (std::size_t v = 0; v < num_versions; ++v) {
            value_of[p][v] = compiled[v].decision_value(queries.row_data(p));
        }
    }
    const auto matches = [](const double a, const double b) {
        return std::abs(a - b) <= 1e-12 * (1.0 + std::abs(b));
    };

    inference_engine<double> engine{ versions[0], engine_config{ .num_threads = 2, .max_batch_size = 16 } };

    std::atomic<std::size_t> answered{ 0 };
    std::atomic<std::size_t> inconsistent{ 0 };
    std::atomic<std::size_t> mixed_batches{ 0 };
    std::atomic<bool> start{ false };
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < num_producers; ++t) {
        threads.emplace_back([&, t]() {
            while (!start.load()) {
                std::this_thread::yield();
            }
            for (std::size_t it = 0; it < iterations_per_producer; ++it) {
                // --- async single point through the micro-batcher ----------
                const std::size_t row = (t * iterations_per_producer + it) % num_queries;
                std::future<double> label = engine.submit(std::vector<double>(queries.row_data(row), queries.row_data(row) + dim));

                // --- sync batch through the dispatched lane path -----------
                const std::size_t offset = (t * 13 + it * 7) % (num_queries - batch_rows);
                aos_matrix<double> batch{ batch_rows, dim };
                for (std::size_t r = 0; r < batch_rows; ++r) {
                    std::copy(queries.row_data(offset + r), queries.row_data(offset + r) + dim, batch.row_data(r));
                }
                const std::vector<double> values = engine.decision_values(batch);
                // identify the snapshot by row 0, then the WHOLE batch must
                // be consistent with that one version
                std::size_t batch_version = num_versions;
                for (std::size_t v = 0; v < num_versions; ++v) {
                    if (matches(values[0], value_of[offset][v])) {
                        batch_version = v;
                        break;
                    }
                }
                if (batch_version == num_versions) {
                    ++inconsistent;
                } else {
                    for (std::size_t r = 1; r < batch_rows; ++r) {
                        if (!matches(values[r], value_of[offset + r][batch_version])) {
                            ++mixed_batches;
                            break;
                        }
                    }
                }

                // --- sync CSR batch through the sparse-query path ----------
                // (the linear sparse sweeps are bit-compatible with the dense
                // w-dot, so the same fingerprints identify the snapshot even
                // while reloads flip the compiled form dense <-> sparse)
                const std::vector<double> csr_values = engine.decision_values(csr_queries);
                std::size_t csr_version = num_versions;
                for (std::size_t v = 0; v < num_versions; ++v) {
                    if (matches(csr_values[0], value_of[0][v])) {
                        csr_version = v;
                        break;
                    }
                }
                if (csr_version == num_versions) {
                    ++inconsistent;
                } else {
                    for (std::size_t r = 1; r < num_queries; ++r) {
                        if (!matches(csr_values[r], value_of[r][csr_version])) {
                            ++mixed_batches;
                            break;
                        }
                    }
                }

                // the async label must match one version's label for the point
                const double answer = label.get();
                ++answered;
                bool label_ok = false;
                for (std::size_t v = 0; v < num_versions; ++v) {
                    label_ok |= answer == compiled[v].label_from_decision(value_of[row][v]);
                }
                if (!label_ok) {
                    ++inconsistent;
                }
            }
        });
    }
    for (std::size_t m = 0; m < num_reloaders; ++m) {
        threads.emplace_back([&, m]() {
            while (!start.load()) {
                std::this_thread::yield();
            }
            for (std::size_t r = 0; r < reloads_per_reloader; ++r) {
                engine.reload(versions[(m * reloads_per_reloader + r) % num_versions]);
            }
        });
    }
    start.store(true);
    for (std::thread &thread : threads) {
        thread.join();
    }

    EXPECT_EQ(answered.load(), num_producers * iterations_per_producer) << "no request may be lost";
    EXPECT_EQ(inconsistent.load(), 0u) << "every response must match exactly one model version";
    EXPECT_EQ(mixed_batches.load(), 0u) << "a batch must never span two snapshots";
    EXPECT_EQ(engine.stats().reloads, num_reloaders * reloads_per_reloader);
    // concurrent installs may publish in any order; versions are unique, and
    // the final one is whichever store won
    EXPECT_GE(engine.snapshot_version(), 2u);
    EXPECT_LE(engine.snapshot_version(), 1u + num_reloaders * reloads_per_reloader);
}

// Registry-level zero-downtime reload: the engine pointer handed to clients
// keeps serving across the swap, and the background-lane future reports
// completion/failure.
TEST(RegistryReload, SwapsSnapshotBehindAStableEnginePointer) {
    model_registry<double> registry{ 4 };
    const model<double> v1 = test::random_model(kernel_type::rbf, 37, 11, 1);
    const model<double> v2 = test::random_model(kernel_type::rbf, 19, 11, 2);
    auto engine = registry.load("tenant", v1);
    EXPECT_EQ(engine->snapshot_version(), 1u);

    registry.reload("tenant", v2).get();
    EXPECT_EQ(registry.find("tenant"), engine) << "reload must keep the resident engine";
    EXPECT_EQ(engine->snapshot_version(), 2u);

    const aos_matrix<double> points = test::random_matrix(8, 11, 3);
    const std::vector<double> expected = compiled_model<double>{ v2 }.decision_values(points);
    const std::vector<double> actual = engine->decision_values(points);
    for (std::size_t p = 0; p < expected.size(); ++p) {
        EXPECT_DOUBLE_EQ(actual[p], expected[p]);
    }
}

TEST(RegistryReload, MissingNameDegeneratesToLoad) {
    model_registry<double> registry{ 4 };
    registry.reload("fresh", test::random_model(kernel_type::linear)).get();
    EXPECT_TRUE(registry.contains("fresh"));
    EXPECT_NE(registry.find("fresh"), nullptr);
}

TEST(RegistryReload, TypeMismatchThrows) {
    model_registry<double> registry{ 4 };
    (void) registry.load("binary", test::random_model(kernel_type::linear));
    EXPECT_THROW((void) registry.reload("binary", plssvm::ext::multiclass_model<double>{}), plssvm::exception);
}

TEST(RegistryReload, FeatureMismatchSurfacesThroughTheFuture) {
    model_registry<double> registry{ 4 };
    (void) registry.load("tenant", test::random_model(kernel_type::linear, 37, 11));
    std::future<void> swap = registry.reload("tenant", test::random_model(kernel_type::linear, 37, 7));
    EXPECT_THROW(swap.get(), plssvm::invalid_data_exception);
    EXPECT_EQ(registry.find("tenant")->snapshot_version(), 1u);
}

TEST(RegistryReload, RefreshesLruAgeSoReloadedModelsAreNotEvictedFirst) {
    // regression: reload age bookkeeping must go through the same lock/clock
    // as find/load, otherwise a freshly reloaded model can be the LRU victim
    model_registry<double> registry{ 2 };
    (void) registry.load("a", test::random_model(kernel_type::linear));
    (void) registry.load("b", test::random_model(kernel_type::linear));
    registry.reload("a", test::random_model(kernel_type::linear)).get();  // "a" is now most recent
    (void) registry.load("c", test::random_model(kernel_type::linear));

    EXPECT_TRUE(registry.contains("a"));
    EXPECT_FALSE(registry.contains("b")) << "b is the LRU victim, not the reloaded a";
    EXPECT_TRUE(registry.contains("c"));
}

// Regression for the find()-age-refresh vs. concurrent load/reload race:
// hammer all registry paths that touch the LRU clock from many threads.
// Failures show up as TSan reports, crashes, or broken entries.
TEST(RegistryReload, ConcurrentFindLoadReloadStress) {
    model_registry<double> registry{ 4 };
    const model<double> base = test::random_model(kernel_type::linear, 16, 8);
    (void) registry.load("hot", base);

    std::atomic<bool> stop{ false };
    std::atomic<std::size_t> find_hits{ 0 };
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
        threads.emplace_back([&]() {
            const aos_matrix<double> probe = test::random_matrix(2, 8, 5);
            while (!stop.load()) {
                if (auto engine = registry.find("hot")) {
                    ++find_hits;
                    (void) engine->decision_values(probe);
                }
            }
        });
    }
    threads.emplace_back([&]() {
        for (int i = 0; i < 20; ++i) {
            registry.reload("hot", test::random_model(kernel_type::linear, 16, 8, 500 + i)).get();
        }
        stop.store(true);
    });
    threads.emplace_back([&]() {
        int round = 0;
        while (!stop.load()) {
            (void) registry.load("churn-" + std::to_string(round++ % 3), test::random_model(kernel_type::linear, 8, 8));
        }
    });
    for (std::thread &thread : threads) {
        thread.join();
    }
    EXPECT_GT(find_hits.load(), 0u);
    ASSERT_NE(registry.find("hot"), nullptr);
    EXPECT_EQ(registry.find("hot")->snapshot_version(), 21u);
}

}  // namespace
