/**
 * @file
 * @brief The OpenMP `q_operator`'s block apply: one kernel sweep for k
 *        columns, each column bitwise the single-column `apply`.
 *
 * Each test states what it asserts and its strategy.
 */

#include "io/io_test_utils.hpp"

#include "plssvm/backends/openmp/q_operator.hpp"
#include "plssvm/datagen/make_classification.hpp"
#include "plssvm/detail/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace {

using plssvm::kernel_type;

// Asserts: column c of `apply_block` over k columns is bitwise `apply` on
// x_c, for k = 1, 2 and 5, the linear, polynomial and RBF kernels, and 1
// and 4 threads; so a CG over k right-hand sides repeats each column's own
// solve exactly. Strategy: 1100 points (the sum(x) and <q, x> reductions
// span two chunks), random directions, the block result compared entry by
// entry with k single applies.
TEST(QOperatorBlock, EachColumnIsBitwiseTheSingleApply) {
    plssvm::datagen::classification_params gen;
    gen.num_points = 1100;
    gen.num_features = 6;
    const auto data = plssvm::datagen::make_classification<double>(gen);
    auto engine = plssvm::detail::make_engine(3);

    for (const kernel_type kernel : { kernel_type::linear, kernel_type::polynomial, kernel_type::rbf }) {
        const plssvm::kernel_params<double> kp{ kernel, 2, 0.2, 1.0 };
        plssvm::backend::openmp::q_operator<double> op{ data.points(), kp, 10.0 };
        const std::size_t n = op.size();
        for (const std::size_t k : { 1, 2, 5 }) {
            std::vector<double> x(n * k);
            for (double &v : x) {
                v = plssvm::detail::standard_normal<double>(engine);
            }
            for (const int threads : { 1, 4 }) {
                SCOPED_TRACE(::testing::Message() << kernel << ", k = " << k << ", " << threads << " threads");
                const plssvm::test::scoped_omp_threads scoped{ threads };
                std::vector<double> block(n * k);
                op.apply_block(x, block, k);
                for (std::size_t c = 0; c < k; ++c) {
                    const std::vector<double> column(x.begin() + static_cast<std::ptrdiff_t>(c * n), x.begin() + static_cast<std::ptrdiff_t>((c + 1) * n));
                    std::vector<double> single(n);
                    op.apply(column, single);
                    std::size_t mismatches = 0;
                    for (std::size_t i = 0; i < n; ++i) {
                        mismatches += std::bit_cast<std::uint64_t>(block[c * n + i]) != std::bit_cast<std::uint64_t>(single[i]) ? 1 : 0;
                    }
                    EXPECT_EQ(mismatches, 0U) << "column " << c;
                }
            }
        }
    }
}

}  // namespace
