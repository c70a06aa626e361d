/**
 * @file
 * @brief Parity tests of the batch-prediction kernels against the per-point
 *        scalar reference sweep: the tiled host path across deliberately
 *        awkward shapes (batch/SV counts that are
 *        not tile multiples, single-point batches, dim = 1, fewer SVs than
 *        one tile), and the randomized sparse-parity harness sweeping
 *        (density x shape x kernel) grids over every sparse execution path
 *        (see `serve_test_utils.hpp`).
 */

#include "serve/serve_test_utils.hpp"

#include "plssvm/core/kernel_types.hpp"
#include "plssvm/serve/batch_kernels.hpp"
#include "plssvm/serve/compiled_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

namespace {

using plssvm::aos_matrix;
using plssvm::kernel_type;
using plssvm::model;
using plssvm::serve::compiled_model;
namespace test = plssvm::test;

/// Deliberately awkward (num_points, num_sv, dim) shapes.
struct batch_shape {
    std::size_t num_points;
    std::size_t num_sv;
    std::size_t dim;
};

[[nodiscard]] std::vector<batch_shape> awkward_shapes() {
    return {
        { 1, 37, 11 },    // single-point batch
        { 3, 37, 11 },    // batch smaller than the point tile
        { 5, 1, 11 },     // a single support vector
        { 7, 5, 1 },      // dim = 1, fewer SVs than one SV tile
        { 4, 8, 3 },      // exact point tile, exact SV tile
        { 64, 64, 16 },   // tile multiples everywhere
        { 100, 130, 11 }, // nothing is a tile (or padding) multiple
        { 129, 33, 7 },   // odd everything, batch > 2 blocks of the point tile
    };
}

class BatchKernelsAllKernels : public ::testing::TestWithParam<kernel_type> {};

TEST_P(BatchKernelsAllKernels, BlockedMatchesReferenceAcrossAwkwardShapes) {
    const kernel_type kernel = GetParam();
    for (const batch_shape &shape : awkward_shapes()) {
        const compiled_model<double> compiled{ test::random_model(kernel, shape.num_sv, shape.dim) };
        const aos_matrix<double> points = test::random_matrix(shape.num_points, shape.dim, 13);

        std::vector<double> reference(shape.num_points);
        std::vector<double> blocked(shape.num_points);
        compiled.decision_values_reference_into(points, 0, shape.num_points, reference.data());
        compiled.decision_values_into(points, 0, shape.num_points, blocked.data());

        for (std::size_t p = 0; p < shape.num_points; ++p) {
            EXPECT_NEAR(blocked[p], reference[p], 1e-10 * (1.0 + std::abs(reference[p])))
                << "shape=(" << shape.num_points << ", " << shape.num_sv << ", " << shape.dim << ") point=" << p;
        }
    }
}

TEST_P(BatchKernelsAllKernels, SubRangeEvaluationIsConsistentWithFullBatch) {
    // evaluating [7, 23) of a larger batch must equal the same rows of the
    // full-batch evaluation, for every path (tile boundaries shift)
    const kernel_type kernel = GetParam();
    const compiled_model<double> compiled{ test::random_model(kernel, 37, 11) };
    const aos_matrix<double> points = test::random_matrix(29, 11, 19);

    std::vector<double> full(29);
    compiled.decision_values_into(points, 0, 29, full.data());
    std::vector<double> range(23 - 7);
    compiled.decision_values_into(points, 7, 23, range.data());
    for (std::size_t p = 7; p < 23; ++p) {
        EXPECT_DOUBLE_EQ(range[p - 7], full[p]) << "point=" << p;
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, BatchKernelsAllKernels,
                         ::testing::ValuesIn(test::all_kernel_types()),
                         [](const auto &info) { return std::string{ plssvm::kernel_type_to_string(info.param) }; });

TEST(BatchKernels, LinearPathIsBitExactWithReference) {
    // the linear blocked path shares kernels::dot with the reference sweep
    const compiled_model<double> compiled{ test::random_model(kernel_type::linear, 37, 11) };
    const aos_matrix<double> points = test::random_matrix(23, 11, 23);
    std::vector<double> reference(23);
    std::vector<double> blocked(23);
    compiled.decision_values_reference_into(points, 0, 23, reference.data());
    compiled.decision_values_into(points, 0, 23, blocked.data());
    for (std::size_t p = 0; p < 23; ++p) {
        EXPECT_DOUBLE_EQ(blocked[p], reference[p]) << "point=" << p;
    }
}

TEST(BatchKernels, EmptyRangeIsANoOp) {
    const compiled_model<double> compiled{ test::random_model(kernel_type::rbf) };
    const aos_matrix<double> points = test::random_matrix(5, 11, 29);
    double sentinel = 42.0;
    compiled.decision_values_into(points, 2, 2, &sentinel);
    compiled.decision_values_reference_into(points, 2, 2, &sentinel);
    EXPECT_DOUBLE_EQ(sentinel, 42.0);
}

// --- randomized sparse-parity harness ---------------------------------------

class SparseParityAllKernels : public ::testing::TestWithParam<kernel_type> {};

TEST_P(SparseParityAllKernels, RandomizedGridMatchesReference) {
    // every (density, num_sv, dim, batch) cell of the seeded grid, with empty
    // rows, single-nnz rows, and all-zero columns injected into both the SV
    // panel and the queries; both the forced-sparse and the auto-threshold
    // compiled forms are asserted against decision_values_reference_into
    test::run_sparse_parity_grid(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kernels, SparseParityAllKernels,
                         ::testing::ValuesIn(test::all_kernel_types()),
                         [](const auto &info) { return std::string{ plssvm::kernel_type_to_string(info.param) }; });

TEST(SparseParity, EmptyQueryRowsYieldTheBiasPlusConstantTerms) {
    // a fully empty CSR query row must produce f(0) on every sparse path
    for (const kernel_type kernel : test::all_kernel_types()) {
        const compiled_model<double> compiled{ test::random_sparse_model(kernel, 21, 13, 0.1, 7),
                                               plssvm::serve::compile_options{ .sparse_density_threshold = 1.5 } };
        const aos_matrix<double> zeros{ 5, 13 };
        std::vector<double> reference(5);
        compiled.decision_values_reference_into(zeros, 0, 5, reference.data());
        const std::vector<double> via_csr = compiled.decision_values(plssvm::csr_matrix<double>{ zeros });
        for (std::size_t p = 0; p < 5; ++p) {
            EXPECT_NEAR(via_csr[p], reference[p], 1e-12 * (1.0 + std::abs(reference[p])))
                << "kernel=" << plssvm::kernel_type_to_string(kernel) << " point=" << p;
        }
    }
}

TEST(SparseParity, LinearSparsePathsAreBitExactWithReference) {
    // gather and merge-join skip only exact-zero products -> bit parity
    const model<double> m = test::random_sparse_model(kernel_type::linear, 37, 19, 0.15, 11);
    const aos_matrix<double> queries = test::sparse_random_matrix(23, 19, 0.15, 12);
    const plssvm::csr_matrix<double> csr{ queries };
    for (const double threshold : { 0.0, 1.5 }) {  // dense-form gather, sparse-form merge-join
        const compiled_model<double> compiled{ m, plssvm::serve::compile_options{ .sparse_density_threshold = threshold } };
        std::vector<double> reference(23);
        std::vector<double> sparse(23);
        compiled.decision_values_reference_into(queries, 0, 23, reference.data());
        compiled.decision_values_into(csr, 0, 23, sparse.data());
        for (std::size_t p = 0; p < 23; ++p) {
            EXPECT_DOUBLE_EQ(sparse[p], reference[p]) << "threshold=" << threshold << " point=" << p;
        }
    }
}

TEST(SparseParity, SparseRowSliceWithNonZeroBeginMatchesFullBatch) {
    // the row-slice regression net: every CSR row-range evaluation with
    // row_begin != 0 must equal the same rows of the full-batch sweep, for
    // the sparse-form sweeps AND the dense-form densify fallback, across
    // slice bounds that straddle the internal tile boundaries
    const struct {
        std::size_t begin;
        std::size_t end;
    } slices[] = { { 1, 90 }, { 5, 17 }, { 63, 90 }, { 64, 70 }, { 70, 90 }, { 89, 90 } };
    for (const kernel_type kernel : test::all_kernel_types()) {
        const model<double> m = test::random_sparse_model(kernel, 29, 11, 0.2, 31);
        const aos_matrix<double> queries = test::sparse_random_matrix(90, 11, 0.2, 32);
        const plssvm::csr_matrix<double> csr{ queries };
        for (const double threshold : { 0.0, 1.5 }) {
            const compiled_model<double> compiled{ m, plssvm::serve::compile_options{ .sparse_density_threshold = threshold } };
            std::vector<double> full(90);
            compiled.decision_values_into(csr, 0, 90, full.data());
            for (const auto &slice : slices) {
                std::vector<double> range(slice.end - slice.begin);
                compiled.decision_values_into(csr, slice.begin, slice.end, range.data());
                for (std::size_t p = slice.begin; p < slice.end; ++p) {
                    EXPECT_DOUBLE_EQ(range[p - slice.begin], full[p])
                        << "kernel=" << plssvm::kernel_type_to_string(kernel) << " threshold=" << threshold
                        << " slice=[" << slice.begin << ", " << slice.end << ") point=" << p;
                }
            }
        }
    }
}

}  // namespace
