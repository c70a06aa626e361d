/**
 * @file
 * @brief `fit()` is bitwise reproducible: over repeats and at any OpenMP
 *        thread count, on every training path.
 *
 * The floating-point reductions of training (CG's dot products, the OpenMP
 * operators' sum(x) and <q, x>) sum fixed 1024-entry chunks and add the
 * chunk sums in order, so a fit depends on the data only. Each test states
 * what it asserts and its strategy.
 */

#include "io/io_test_utils.hpp"

#include "plssvm/backends/openmp/csvm.hpp"
#include "plssvm/core/csvm_factory.hpp"
#include "plssvm/datagen/make_classification.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace {

using plssvm::backend_type;
using plssvm::data_set;
using plssvm::kernel_type;
using plssvm::model;
using plssvm::parameter;

/// Planes data of @p num_points points; @p zero_share of the entries are set
/// to zero (for the sparse solver).
[[nodiscard]] data_set<double> make_points(const std::size_t num_points, const std::size_t num_features, const double zero_share = 0.0) {
    plssvm::datagen::classification_params gen;
    gen.num_points = num_points;
    gen.num_features = num_features;
    gen.class_sep = 1.0;
    gen.seed = 17;
    const data_set<double> dense = plssvm::datagen::make_classification<double>(gen);
    plssvm::aos_matrix<double> points = dense.points();
    for (std::size_t i = 0; i < points.num_rows(); ++i) {
        for (std::size_t j = 0; j < points.num_cols(); ++j) {
            if (static_cast<double>((7 * i + 3 * j) % 10) < 10.0 * zero_share) {
                points(i, j) = 0.0;
            }
        }
    }
    return data_set<double>{ std::move(points), dense.labels() };
}

/// Whether two models carry bitwise the same weights, bias and iterations.
[[nodiscard]] ::testing::AssertionResult same_fit(const model<double> &a, const model<double> &b) {
    if (a.num_iterations() != b.num_iterations()) {
        return ::testing::AssertionFailure() << a.num_iterations() << " vs " << b.num_iterations() << " iterations";
    }
    if (std::bit_cast<std::uint64_t>(a.rho()) != std::bit_cast<std::uint64_t>(b.rho())) {
        return ::testing::AssertionFailure() << "rho " << a.rho() << " vs " << b.rho();
    }
    for (std::size_t i = 0; i < a.alpha().size(); ++i) {
        if (std::bit_cast<std::uint64_t>(a.alpha()[i]) != std::bit_cast<std::uint64_t>(b.alpha()[i])) {
            return ::testing::AssertionFailure() << "alpha[" << i << "] " << a.alpha()[i] << " vs " << b.alpha()[i];
        }
    }
    return ::testing::AssertionSuccess();
}

/// Fit @p data three times at the default thread count and once each at 1,
/// 2, 3, 4 and 8 threads; every fit must equal the first bitwise.
template <typename MakeCsvm>
void expect_reproducible(const data_set<double> &data, const MakeCsvm &make_svm) {
    const plssvm::solver_control ctrl{ .epsilon = 1e-3 };
    const model<double> reference = make_svm()->fit(data, ctrl);
    ASSERT_GT(reference.num_iterations(), 2U);
    for (int repeat = 1; repeat < 3; ++repeat) {
        EXPECT_TRUE(same_fit(make_svm()->fit(data, ctrl), reference)) << "repeat " << repeat;
    }
    for (const int threads : { 1, 2, 3, 4, 8 }) {
        const plssvm::test::scoped_omp_threads scoped{ threads };
        EXPECT_TRUE(same_fit(make_svm()->fit(data, ctrl), reference)) << threads << " threads";
    }
}

// Asserts: a dense OpenMP fit is bitwise the same over three repeats and at
// 1, 2, 3, 4 and 8 threads, for the linear and the RBF kernel. Strategy:
// 1100 points, so each reduction spans two chunks, and at 3 or more threads
// an OpenMP `reduction(+)` would split it differently at each count.
TEST(FitReproducibility, DenseOpenMpFitIsBitwiseEqualAtAnyThreadCount) {
    const data_set<double> data = make_points(1100, 4);
    for (const kernel_type kernel : { kernel_type::linear, kernel_type::rbf }) {
        SCOPED_TRACE(kernel_type_to_string(kernel));
        parameter params{ kernel };
        params.gamma = 0.25;
        expect_reproducible(data, [&] { return std::make_unique<plssvm::backend::openmp::csvm<double>>(params); });
    }
}

// Asserts: a sparse OpenMP fit is bitwise the same over repeats and at any
// thread count. Strategy: 1100 points with 70 % zero entries (two chunks
// per reduction; the sparse operator is the slow one).
TEST(FitReproducibility, SparseOpenMpFitIsBitwiseEqualAtAnyThreadCount) {
    const data_set<double> data = make_points(1100, 8, 0.7);
    const parameter params{ kernel_type::linear };
    expect_reproducible(data, [&] { return std::make_unique<plssvm::backend::openmp::csvm<double>>(params, /*use_sparse_solver=*/true); });
}

// Asserts: a simulated device fit, whose CG runs the same chunked dot
// products on the host, is bitwise the same over repeats and at any thread
// count. Strategy: the CUDA backend on 1100 points, linear kernel.
TEST(FitReproducibility, DeviceFitIsBitwiseEqualAtAnyThreadCount) {
    const data_set<double> data = make_points(1100, 4);
    const parameter params{ kernel_type::linear };
    expect_reproducible(data, [&] { return plssvm::make_csvm<double>(backend_type::cuda, params); });
}

}  // namespace
