/**
 * @file
 * @brief A compiled model serves k heads from one stored copy of each
 *        distinct support-vector panel: per-head parity with k binary
 *        compiles on every execution path, panel sharing by layout, and one
 *        executor fan-out per engine batch.
 *
 * Each test states what it asserts and its strategy.
 */

#include "serve/serve_test_utils.hpp"

#include "plssvm/backends/backend_types.hpp"
#include "plssvm/core/data_set.hpp"
#include "plssvm/core/matrix.hpp"
#include "plssvm/core/model.hpp"
#include "plssvm/core/sparse_matrix.hpp"
#include "plssvm/exceptions.hpp"
#include "plssvm/ext/multiclass.hpp"
#include "plssvm/serve/compiled_model.hpp"
#include "plssvm/serve/executor.hpp"
#include "plssvm/serve/inference_engine.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace {

using plssvm::aos_matrix;
using plssvm::csr_matrix;
using plssvm::kernel_type;
using plssvm::model;
using plssvm::ext::multiclass_model;
using plssvm::serve::compile_options;
using plssvm::serve::compiled_model;
namespace test = plssvm::test;

/// Random SV weights for one head.
[[nodiscard]] std::vector<double> head_alpha(const std::size_t num_sv, const std::uint64_t seed) {
    return test::random_matrix(1, num_sv, seed).data();
}

/**
 * k heads over ONE shared panel object (the layout `one_vs_all::fit`
 * produces): class c is labelled c; even heads map their class to +1, odd
 * heads to -1 (the binary trainer may map the rest side to +1), so both
 * orientations are exercised. A @p density below 1 draws a sparse panel
 * with the edge cases of the sparse harness injected.
 */
[[nodiscard]] multiclass_model<double> shared_panel_ensemble(const kernel_type kernel, const std::size_t k, const std::size_t num_sv,
                                                             const std::size_t dim, const double density, const std::uint64_t seed) {
    plssvm::parameter params;
    params.kernel = kernel;
    params.degree = 3;
    params.gamma = 0.35;
    params.coef0 = 0.75;
    aos_matrix<double> sv = density < 1.0 ? test::sparse_random_matrix(num_sv, dim, density, seed) : test::random_matrix(num_sv, dim, seed);
    if (density < 1.0) {
        test::inject_sparse_edge_cases(sv);
    }
    const auto panel = std::make_shared<const aos_matrix<double>>(std::move(sv));
    std::vector<double> labels;
    std::vector<model<double>> heads;
    for (std::size_t c = 0; c < k; ++c) {
        labels.push_back(static_cast<double>(c));
        const bool toward = c % 2 == 0;
        heads.emplace_back(params, panel, head_alpha(num_sv, seed + 11 * (c + 1)), 0.125 * static_cast<double>(c) - 0.3,
                           toward ? 1.0 : -1.0, toward ? -1.0 : 1.0);
    }
    return multiclass_model<double>{ std::move(labels), std::move(heads) };
}

[[nodiscard]] double orientation(const model<double> &head) { return head.positive_label() > 0.0 ? 1.0 : -1.0; }

/// One execution path of a compiled model over rows [begin, end) of a batch.
using path_fn = void (*)(const compiled_model<double> &, const aos_matrix<double> &, const csr_matrix<double> &, std::size_t, std::size_t, double *);

struct named_path {
    const char *name;
    path_fn run;
};

[[nodiscard]] std::vector<named_path> every_path() {
    return {
        { "reference", [](const compiled_model<double> &cm, const aos_matrix<double> &x, const csr_matrix<double> &, const std::size_t b, const std::size_t e, double *out) { cm.decision_values_reference_into(x, b, e, out); } },
        { "blocked", [](const compiled_model<double> &cm, const aos_matrix<double> &x, const csr_matrix<double> &, const std::size_t b, const std::size_t e, double *out) { cm.decision_values_into(x, b, e, out); } },
        { "sparse_dense_queries", [](const compiled_model<double> &cm, const aos_matrix<double> &x, const csr_matrix<double> &, const std::size_t b, const std::size_t e, double *out) { cm.decision_values_sparse_into(x, b, e, out); } },
        { "csr_queries", [](const compiled_model<double> &cm, const aos_matrix<double> &, const csr_matrix<double> &x, const std::size_t b, const std::size_t e, double *out) { cm.decision_values_into(x, b, e, out); } },
        { "densified_csr", [](const compiled_model<double> &cm, const aos_matrix<double> &, const csr_matrix<double> &x, const std::size_t b, const std::size_t e, double *out) { cm.decision_values_densified_into(x, b, e, out); } },
    };
}

/**
 * Every head of @p ensemble compiled with @p opts gives, on every path and
 * over the whole batch and a sub-range that starts off a tile boundary,
 * exactly its own binary compile's value times its orientation.
 */
void expect_heads_match_binary_compiles(const multiclass_model<double> &ensemble, const compile_options opts,
                                        const aos_matrix<double> &queries, const std::string &context) {
    const compiled_model<double> joint{ ensemble, opts };
    const std::size_t k = ensemble.num_classes();
    ASSERT_EQ(joint.num_heads(), k) << context;
    std::vector<compiled_model<double>> binaries;
    for (const model<double> &head : ensemble.binary_models()) {
        binaries.emplace_back(head, opts);
        ASSERT_EQ(binaries.back().sparse_sv(), joint.sparse_sv()) << context << ": one flag over the stored panels";
    }
    const csr_matrix<double> csr{ queries };
    const std::size_t n = queries.num_rows();
    const std::size_t ranges[][2] = { { 0, n }, { n / 3 + 1, n - n / 7 } };
    for (const named_path &path : every_path()) {
        for (const auto &range : ranges) {
            const std::size_t rows = range[1] - range[0];
            std::vector<double> joint_values(rows * k, std::numeric_limits<double>::quiet_NaN());
            path.run(joint, queries, csr, range[0], range[1], joint_values.data());
            for (std::size_t h = 0; h < k; ++h) {
                std::vector<double> binary_values(rows);
                path.run(binaries[h], queries, csr, range[0], range[1], binary_values.data());
                const double o = orientation(ensemble.binary_models()[h]);
                for (std::size_t p = 0; p < rows; ++p) {
                    ASSERT_EQ(joint_values[p * k + h], o * binary_values[p])
                        << context << " path=" << path.name << " rows=[" << range[0] << ", " << range[1] << ") head=" << h << " point=" << range[0] + p;
                }
            }
        }
    }
    // the parallel wrappers write the same rows x k layout
    const std::vector<double> dense_all = joint.decision_values(queries);
    const std::vector<double> csr_all = joint.decision_values(csr);
    ASSERT_EQ(dense_all.size(), n * k) << context;
    ASSERT_EQ(csr_all.size(), n * k) << context;
    for (std::size_t h = 0; h < k; ++h) {
        const double o = orientation(ensemble.binary_models()[h]);
        const std::vector<double> dense_h = binaries[h].decision_values(queries);
        const std::vector<double> csr_h = binaries[h].decision_values(csr);
        for (std::size_t p = 0; p < n; ++p) {
            ASSERT_EQ(dense_all[p * k + h], o * dense_h[p]) << context << " parallel dense head=" << h << " point=" << p;
            ASSERT_EQ(csr_all[p * k + h], o * csr_h[p]) << context << " parallel csr head=" << h << " point=" << p;
        }
    }
}

/// Argmax over the heads' oriented binary decision values, first class on
/// ties: the label rule `one_vs_all::predict` has always had.
[[nodiscard]] std::vector<double> argmax_of_binary_compiles(const multiclass_model<double> &ensemble, const aos_matrix<double> &queries) {
    std::vector<double> best(queries.num_rows(), -std::numeric_limits<double>::infinity());
    std::vector<double> labels(queries.num_rows(), ensemble.class_labels().front());
    for (std::size_t c = 0; c < ensemble.num_classes(); ++c) {
        const model<double> &head = ensemble.binary_models()[c];
        const std::vector<double> values = compiled_model<double>{ head }.decision_values(queries);
        for (std::size_t p = 0; p < values.size(); ++p) {
            if (orientation(head) * values[p] > best[p]) {
                best[p] = orientation(head) * values[p];
                labels[p] = ensemble.class_labels()[c];
            }
        }
    }
    return labels;
}

// Asserts: for the linear, polynomial, rbf and sigmoid kernels and k = 1, 2
// and 7 heads over one shared panel, each head's value from the k-head
// model equals, exactly, its own binary compile's value times its
// orientation, on the reference, blocked, dense-query sparse, CSR and
// densified-CSR paths and through the parallel wrappers; and the
// ensemble's labels equal `one_vs_all::predict` and the argmax over the
// binary compiles. Strategy: SV counts, dims and batch sizes that are not
// tile multiples, a dense and a sparse panel, each compiled dense
// (threshold 0) and forced sparse (threshold 1.5); the 64-feature panel at
// density 0.005 leaves most columns of W empty, so the linear CSR path
// takes the merge-join there and the gather elsewhere.
TEST(KHeadParity, EachHeadIsExactlyItsBinaryCompileOnEveryPath) {
    struct panel_case {
        std::size_t num_sv;
        std::size_t dim;
        std::size_t batch;
        double density;
    };
    const panel_case cases[] = { { 37, 11, 29, 1.0 }, { 130, 9, 67, 0.1 }, { 37, 64, 29, 0.005 } };
    std::uint64_t seed = 700;
    for (const kernel_type kernel : test::all_kernel_types()) {
        for (const std::size_t k : { 1, 2, 7 }) {
            for (const panel_case &c : cases) {
                seed += 13;
                const multiclass_model<double> ensemble = shared_panel_ensemble(kernel, k, c.num_sv, c.dim, c.density, seed);
                aos_matrix<double> queries = c.density < 1.0 ? test::sparse_random_matrix(c.batch, c.dim, 0.3, seed + 1)
                                                             : test::random_matrix(c.batch, c.dim, seed + 1);
                test::inject_sparse_edge_cases(queries);
                const std::string context = "kernel=" + std::string{ plssvm::kernel_type_to_string(kernel) } + " k=" + std::to_string(k)
                                            + " num_sv=" + std::to_string(c.num_sv) + " dim=" + std::to_string(c.dim) + " density=" + std::to_string(c.density);
                for (const double threshold : { 0.0, 1.5 }) {
                    expect_heads_match_binary_compiles(ensemble, compile_options{ .sparse_density_threshold = threshold }, queries,
                                                       context + " threshold=" + std::to_string(threshold));
                }

                const plssvm::ext::one_vs_all<double> ova{ plssvm::backend_type::openmp, ensemble.binary_models().front().params() };
                const std::vector<double> expected = argmax_of_binary_compiles(ensemble, queries);
                EXPECT_EQ(ova.predict(ensemble, plssvm::data_set<double>{ queries }), expected) << context;
                EXPECT_EQ(compiled_model<double>{ ensemble }.predict_labels(queries), expected) << context;
            }
        }
    }
}

// Asserts: a binary compile is the k = 1 case with the binary label rule,
// and the ensemble's label rule is the argmax with the first class winning
// ties. Strategy: compare `label` on hand-made value rows, including an
// exact tie and an all-NaN row (no head beats -inf: the first class).
TEST(KHeadParity, LabelRuleIsBinaryMappingOrFirstMaximum) {
    const model<double> binary = test::random_model(kernel_type::linear);
    const compiled_model<double> one{ binary };
    EXPECT_EQ(one.num_heads(), 1u);
    EXPECT_FALSE(one.ensemble());
    const double positive = 0.5;
    const double negative = -0.5;
    EXPECT_EQ(one.label(&positive), binary.positive_label());
    EXPECT_EQ(one.label(&negative), binary.negative_label());

    const multiclass_model<double> ensemble = shared_panel_ensemble(kernel_type::linear, 3, 8, 4, 1.0, 5);
    const compiled_model<double> three{ ensemble };
    EXPECT_TRUE(three.ensemble());
    EXPECT_EQ(three.class_labels(), ensemble.class_labels());
    const double tie[] = { 0.25, 0.75, 0.75 };
    EXPECT_EQ(three.label(tie), 1.0);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double none[] = { nan, nan, nan };
    EXPECT_EQ(three.label(none), 0.0);
}

// Asserts: heads that share one panel object (the `one_vs_all::fit`
// layout) store it once: `num_support_vectors()` is n, not k * n, and the
// compiled bytes are those of one SoA copy plus a small weight matrix.
// Strategy: fit a 3-class rbf ensemble, check that its heads share the
// panel object, compile it and compare against the sum of three binary
// compiles.
TEST(KHeadPanels, FitEnsembleStoresItsSharedPanelOnce) {
    const std::size_t n = 60;
    aos_matrix<double> points = test::random_matrix(n, 8, 91);
    std::vector<double> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
        labels[i] = static_cast<double>(i % 3);
        points(i, 0) += 2.0 * labels[i];
    }
    plssvm::parameter params{ kernel_type::rbf };
    params.gamma = 0.1;
    plssvm::ext::one_vs_all<double> ova{ plssvm::backend_type::openmp, params };
    const plssvm::data_set<double> data{ points, labels };
    const multiclass_model<double> ensemble = ova.fit(data);
    ASSERT_EQ(ensemble.num_classes(), 3u);
    ASSERT_EQ(&ensemble.binary_models()[1].support_vectors(), &ensemble.binary_models()[0].support_vectors());

    const compiled_model<double> joint{ ensemble };
    EXPECT_EQ(joint.num_support_vectors(), n);
    std::size_t separate_bytes = 0;
    for (const model<double> &head : ensemble.binary_models()) {
        separate_bytes += compiled_model<double>{ head }.compiled_bytes();
    }
    EXPECT_LT(3 * joint.compiled_bytes(), 2 * separate_bytes) << "one SoA copy, not three";
    EXPECT_EQ(joint.predict_labels(points), argmax_of_binary_compiles(ensemble, points));
}

// Asserts: heads over distinct panels store every panel, and a mixed
// layout (heads 0 and 2 over one panel object, head 1 over another) stores
// two, with each head still exactly its binary compile. Strategy: the
// `random_ensemble` of the test utilities draws one panel per head; the
// mixed ensemble puts head 0 and a head 2 with other weights over one
// shared panel object, so the two heads' columns are not adjacent.
TEST(KHeadPanels, DistinctPanelsAreEachStored) {
    const multiclass_model<double> distinct = test::random_ensemble(kernel_type::rbf, 3);
    const compiled_model<double> joint{ distinct };
    EXPECT_EQ(joint.num_support_vectors(), 3u * 37u);

    const std::vector<model<double>> &heads = distinct.binary_models();
    const model<double> &h1 = heads[1];
    const auto panel = std::make_shared<const aos_matrix<double>>(heads[0].support_vectors());
    const model<double> h0{ heads[0].params(), panel, heads[0].alpha(), heads[0].rho(), heads[0].positive_label(), heads[0].negative_label() };
    const model<double> h2{ h0.params(), panel, head_alpha(h0.num_support_vectors(), 3), 0.5, -1.0, 1.0 };
    const multiclass_model<double> mixed{ { 0.0, 1.0, 2.0 }, { h0, h1, h2 } };
    EXPECT_EQ((compiled_model<double>{ mixed }.num_support_vectors()), 2u * 37u);
    expect_heads_match_binary_compiles(mixed, compile_options{}, test::random_matrix(21, 11, 4), "mixed layout");
    expect_heads_match_binary_compiles(mixed, compile_options{ .sparse_density_threshold = 1.5 }, test::random_matrix(21, 11, 4), "mixed layout, forced sparse");
}

// Asserts: an ensemble whose heads differ in their kernel parameters or
// feature count, or that is empty, is rejected at compile time. Strategy:
// change one head's gamma, one head's features, and drop the heads.
TEST(KHeadPanels, HeadsMustShareKernelAndFeatures) {
    const multiclass_model<double> ensemble = shared_panel_ensemble(kernel_type::rbf, 3, 10, 5, 1.0, 31);
    std::vector<model<double>> heads = ensemble.binary_models();
    plssvm::parameter other = heads[1].params();
    other.gamma = 0.9;
    heads[1] = model<double>{ other, heads[1].support_vectors(), heads[1].alpha(), heads[1].rho(), heads[1].positive_label(), heads[1].negative_label() };
    EXPECT_THROW((compiled_model<double>{ multiclass_model<double>{ ensemble.class_labels(), heads } }), plssvm::invalid_data_exception);
    heads[1] = test::random_model(kernel_type::rbf, 10, 6, 3);
    EXPECT_THROW((compiled_model<double>{ multiclass_model<double>{ ensemble.class_labels(), heads } }), plssvm::invalid_data_exception);
    EXPECT_THROW((compiled_model<double>{ multiclass_model<double>{} }), plssvm::invalid_data_exception);
    EXPECT_THROW((compiled_model<double>{ multiclass_model<double>{ { 0.0, 1.0 }, { ensemble.binary_models()[0] } } }), plssvm::invalid_data_exception);
}

// Asserts: a blocked batch of a k-head ensemble fans out to the executor
// once: the engine lane's `submitted` counter rises by at most the lane's
// `max_concurrency()`, not k times that (the per-head loop enqueued one
// set of chunks per head). Strategy: a six-head rbf ensemble on its own
// four-worker executor; one 256-row `decision_matrix` call from the test
// thread (not a worker, so the batch is partitioned), which must take the
// blocked path.
TEST(KHeadEngine, OneExecutorFanOutPerBatch) {
    plssvm::serve::executor ex{ 4 };
    plssvm::serve::engine_config config;
    config.exec = &ex;
    config.num_threads = 4;
    plssvm::serve::inference_engine<double> engine{ shared_panel_ensemble(kernel_type::rbf, 6, 96, 16, 1.0, 41), config };
    ASSERT_EQ(engine.num_heads(), 6u);
    const auto submitted = [&ex] {
        std::size_t total = 0;
        for (const plssvm::serve::lane_report &lane : ex.lane_reports()) {
            total += lane.name == "engine" ? lane.stats.submitted : 0;
        }
        return total;
    };
    const std::size_t before = submitted();
    const aos_matrix<double> scores = engine.decision_matrix(test::random_matrix(256, 16, 42));
    const std::size_t tasks = submitted() - before;
    EXPECT_EQ(engine.stats().host_blocked_batches, 1u);
    EXPECT_GE(tasks, 1u);
    EXPECT_LE(tasks, engine.num_threads()) << "one fan-out per batch, not one per head";
    EXPECT_EQ(scores.num_cols(), 6u);
}

// Asserts: the engine scores an ensemble exactly like its compiled model,
// on the dispatched path of the batch size, and labels it like
// `one_vs_all::predict`; an installed ensemble replaces it only with the
// same kind and class count. Strategy: a reference-sized (4 rows) and a
// blocked-sized (64 rows) batch against the compiled model's own paths.
TEST(KHeadEngine, EngineScoresMatchTheCompiledModel) {
    const multiclass_model<double> ensemble = shared_panel_ensemble(kernel_type::sigmoid, 5, 45, 7, 1.0, 51);
    plssvm::serve::inference_engine<double> engine{ ensemble, plssvm::serve::engine_config{ .num_threads = 2 } };
    const compiled_model<double> joint{ ensemble };
    for (const std::size_t rows : { 4, 64 }) {
        const aos_matrix<double> queries = test::random_matrix(rows, 7, 52 + rows);
        std::vector<double> expected(rows * 5);
        if (rows < plssvm::serve::min_blocked_batch) {
            joint.decision_values_reference_into(queries, 0, rows, expected.data());
        } else {
            joint.decision_values_into(queries, 0, rows, expected.data());
        }
        EXPECT_EQ(engine.decision_matrix(queries).data(), expected) << "rows=" << rows;
        EXPECT_EQ(engine.predict(queries), argmax_of_binary_compiles(ensemble, queries)) << "rows=" << rows;
    }
    engine.install(compiled_model<double>{ ensemble, compile_options{ .sparse_density_threshold = 1.5 } });
    EXPECT_TRUE(engine.snapshot()->compiled.sparse_sv());
    EXPECT_THROW(engine.install(compiled_model<double>{ ensemble.binary_models().front() }), plssvm::invalid_data_exception);
    EXPECT_THROW(engine.install(compiled_model<double>{ shared_panel_ensemble(kernel_type::sigmoid, 4, 45, 7, 1.0, 53) }), plssvm::invalid_data_exception);
    EXPECT_EQ(engine.snapshot_version(), 2u);
}

}  // namespace
