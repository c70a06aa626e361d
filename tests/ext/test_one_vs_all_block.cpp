/**
 * @file
 * @brief One-vs-all trains its k heads in one solve over k right-hand sides,
 *        and the heads share one support vector panel.
 *
 * Each test states what it asserts and its strategy.
 */

#include "io/io_test_utils.hpp"

#include "plssvm/backends/openmp/csvm.hpp"
#include "plssvm/core/csvm_factory.hpp"
#include "plssvm/core/predict.hpp"
#include "plssvm/datagen/sat6.hpp"
#include "plssvm/ext/multiclass.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

namespace {

using plssvm::backend_type;
using plssvm::data_set;
using plssvm::kernel_type;
using plssvm::model;
using plssvm::parameter;

/// Six-class SAT-6-like images (4x4 pixels, 4 channels: 64 features).
[[nodiscard]] data_set<double> make_images(const std::size_t num_images = 180) {
    plssvm::datagen::sat6_params gen;
    gen.num_images = num_images;
    gen.image_size = 4;
    gen.binary_labels = false;
    gen.seed = 5;
    return plssvm::datagen::make_sat6<double>(gen);
}

[[nodiscard]] parameter make_params(const kernel_type kernel) {
    parameter params{ kernel };
    params.gamma = 1.0 / 64.0;
    params.cost = 10.0;
    return params;
}

/// The binary view of @p data for @p class_label: the class (+1) vs. the rest (-1).
[[nodiscard]] data_set<double> one_vs_rest(const data_set<double> &data, const double class_label) {
    std::vector<double> labels(data.num_data_points());
    for (std::size_t i = 0; i < labels.size(); ++i) {
        labels[i] = data.labels()[i] == class_label ? 1.0 : -1.0;
    }
    return data_set<double>{ data.points(), std::move(labels) };
}

[[nodiscard]] std::uint64_t bits(const double value) { return std::bit_cast<std::uint64_t>(value); }

/// Whether @p head carries bitwise the weights, bias, labels and iterations of @p binary.
[[nodiscard]] ::testing::AssertionResult same_model(const model<double> &head, const model<double> &binary) {
    if (head.num_iterations() != binary.num_iterations()) {
        return ::testing::AssertionFailure() << head.num_iterations() << " vs " << binary.num_iterations() << " iterations";
    }
    if (bits(head.rho()) != bits(binary.rho()) || head.positive_label() != binary.positive_label() || head.negative_label() != binary.negative_label()) {
        return ::testing::AssertionFailure() << "rho " << head.rho() << " vs " << binary.rho() << ", labels "
                                             << head.positive_label() << "/" << head.negative_label() << " vs "
                                             << binary.positive_label() << "/" << binary.negative_label();
    }
    if (head.alpha().size() != binary.alpha().size()) {
        return ::testing::AssertionFailure() << head.alpha().size() << " vs " << binary.alpha().size() << " weights";
    }
    for (std::size_t i = 0; i < head.alpha().size(); ++i) {
        if (bits(head.alpha()[i]) != bits(binary.alpha()[i])) {
            return ::testing::AssertionFailure() << "alpha[" << i << "] " << head.alpha()[i] << " vs " << binary.alpha()[i];
        }
    }
    return ::testing::AssertionSuccess();
}

constexpr plssvm::solver_control parity_ctrl{ .epsilon = 1e-6 };

// Asserts: on the dense OpenMP backend and on a simulated device, each head
// of `one_vs_all::fit` is bitwise the model `csvm::fit` returns on its
// one-vs-rest set (alpha, bias, labels, `num_iterations()`), for the linear
// and the RBF kernel, at 1 and at 4 threads. Strategy: fit the six-class
// images once with one_vs_all, then each one-vs-rest set alone with a fresh
// csvm of the same backend; compare head by head. The heads converge at
// different iterations, so the shared solve really drops columns.
TEST(OneVsAll, EachHeadIsBitwiseItsBinaryFit) {
    const data_set<double> data = make_images();
    for (const backend_type backend : { backend_type::openmp, backend_type::cuda }) {
        for (const kernel_type kernel : { kernel_type::linear, kernel_type::rbf }) {
            for (const int threads : { 1, 4 }) {
                SCOPED_TRACE(::testing::Message() << backend << " " << kernel << " " << threads << " threads");
                const plssvm::test::scoped_omp_threads scoped{ threads };
                const parameter params = make_params(kernel);
                plssvm::ext::one_vs_all<double> ova{ backend, params };
                const plssvm::ext::multiclass_model<double> ensemble = ova.fit(data, parity_ctrl);
                ASSERT_EQ(ensemble.num_classes(), 6U);
                std::vector<std::size_t> iterations;
                for (std::size_t c = 0; c < ensemble.num_classes(); ++c) {
                    const model<double> binary = plssvm::make_csvm<double>(backend, params)->fit(one_vs_rest(data, ensemble.class_labels()[c]), parity_ctrl);
                    EXPECT_TRUE(same_model(ensemble.binary_models()[c], binary)) << "head " << c;
                    iterations.push_back(binary.num_iterations());
                }
                EXPECT_NE(*std::min_element(iterations.begin(), iterations.end()), *std::max_element(iterations.begin(), iterations.end()));
            }
        }
    }
}

// Asserts: the sparse OpenMP solver, which sweeps column by column, also
// gives each column of a k-column `csvm::fit` (the call one_vs_all makes)
// bitwise its binary fit, at 1 and 4 threads. Strategy: one-vs-rest label
// columns of the six-class images through `fit(points, columns)`, against
// `fit` on each one-vs-rest set.
TEST(OneVsAll, SparseSolverColumnsAreBitwiseTheirBinaryFits) {
    const data_set<double> data = make_images(120);
    const std::vector<double> class_labels = data.distinct_labels();
    std::vector<std::vector<double>> columns;
    for (const double label : class_labels) {
        columns.push_back(one_vs_rest(data, label).labels());
    }
    for (const int threads : { 1, 4 }) {
        SCOPED_TRACE(::testing::Message() << threads << " threads");
        const plssvm::test::scoped_omp_threads scoped{ threads };
        plssvm::backend::openmp::csvm<double> sparse{ make_params(kernel_type::linear), /*use_sparse_solver=*/true };
        const std::vector<model<double>> heads = sparse.fit(data.points(), columns, parity_ctrl);
        ASSERT_EQ(heads.size(), class_labels.size());
        for (std::size_t c = 0; c < heads.size(); ++c) {
            EXPECT_TRUE(same_model(heads[c], sparse.fit(one_vs_rest(data, class_labels[c]), parity_ctrl))) << "head " << c;
        }
    }
}

// Asserts: the heads of an ensemble share one support vector panel, a
// copied ensemble shares it too, and a head still saves and loads as a
// standalone LIBSVM model. Strategy: compare the addresses `support_vectors()`
// returns; save head 2, load it (the file groups the support vectors by
// label, so the order changes), and compare its size, bias, labels and
// decision values with the head's.
TEST(OneVsAll, HeadsShareOnePanel) {
    const data_set<double> data = make_images(96);
    plssvm::ext::one_vs_all<double> ova{ backend_type::openmp, make_params(kernel_type::rbf) };
    const plssvm::ext::multiclass_model<double> ensemble = ova.fit(data, parity_ctrl);
    const plssvm::aos_matrix<double> *panel = &ensemble.binary_models().front().support_vectors();
    for (const model<double> &head : ensemble.binary_models()) {
        EXPECT_EQ(&head.support_vectors(), panel);
    }
    EXPECT_NE(panel, &data.points()) << "the ensemble owns its panel";
    EXPECT_EQ(*panel, data.points());

    const plssvm::ext::multiclass_model<double> copy = ensemble;
    for (const model<double> &head : copy.binary_models()) {
        EXPECT_EQ(&head.support_vectors(), panel);
    }

    const model<double> &head = ensemble.binary_models()[2];
    const std::string path = (std::filesystem::temp_directory_path() / "plssvm_test_one_vs_all_head.model").string();
    head.save(path);
    const model<double> loaded = model<double>::load(path);
    std::remove(path.c_str());
    EXPECT_NE(&loaded.support_vectors(), panel);
    EXPECT_EQ(loaded.num_support_vectors(), head.num_support_vectors());
    EXPECT_EQ(loaded.rho(), head.rho());
    EXPECT_EQ(loaded.positive_label(), head.positive_label());
    EXPECT_EQ(loaded.negative_label(), head.negative_label());
    const std::vector<double> expected = plssvm::decision_values(head, data.points());
    const std::vector<double> reloaded = plssvm::decision_values(loaded, data.points());
    ASSERT_EQ(reloaded.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_NEAR(reloaded[i], expected[i], 1e-9 * (1.0 + std::abs(expected[i]))) << "point " << i;
    }
}

}  // namespace
