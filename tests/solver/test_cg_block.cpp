/**
 * @file
 * @brief Tests of the CG over k right-hand sides (one sweep per iteration,
 *        each column its own solve), of the skipped initial sweep for a zero
 *        guess, and of the chunked dot product.
 *
 * Every test states what it asserts and its strategy. The operators here
 * count their sweeps, so a test checks the cost contract by count, not by
 * time.
 */

#include "io/io_test_utils.hpp"

#include "plssvm/detail/chunked_sum.hpp"
#include "plssvm/detail/rng.hpp"
#include "plssvm/exceptions.hpp"
#include "plssvm/solver/cg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace {

using plssvm::solver_control;
using plssvm::solver::cg_result;
using plssvm::solver::conjugate_gradients;
using plssvm::solver::linear_operator;

/// Dense symmetric operator that records the width of every `apply_block`
/// call (a single-column solve makes width-1 calls).
class counting_operator final : public linear_operator<double> {
  public:
    explicit counting_operator(std::vector<double> matrix, const std::size_t n) :
        matrix_{ std::move(matrix) },
        n_{ n } {}

    [[nodiscard]] std::size_t size() const noexcept override { return n_; }

    void apply(const std::vector<double> &x, std::vector<double> &out) override {
        multiply(x.data(), out.data());
    }

    void apply_block(const std::vector<double> &x, std::vector<double> &out, const std::size_t num_columns) override {
        widths.push_back(num_columns);
        for (std::size_t c = 0; c < num_columns; ++c) {
            multiply(x.data() + c * n_, out.data() + c * n_);
        }
    }

    std::vector<std::size_t> widths;

  private:
    void multiply(const double *x, double *out) const {
        for (std::size_t i = 0; i < n_; ++i) {
            double sum = 0.0;
            for (std::size_t j = 0; j < n_; ++j) {
                sum += matrix_[i * n_ + j] * x[j];
            }
            out[i] = sum;
        }
    }

    std::vector<double> matrix_;
    std::size_t n_;
};

/// A = H diag(lambda) H with the Householder reflector H = I - 2 v v^T / v^T v:
/// dense, SPD, with eigenvalues lambda_i = 1 + i and eigenvectors h_i = H e_i.
/// A right-hand side in the span of j eigenvectors converges in j iterations.
constexpr std::size_t system_size = 24;

[[nodiscard]] std::vector<double> reflector(const std::uint64_t seed) {
    auto engine = plssvm::detail::make_engine(seed);
    std::vector<double> v(system_size);
    for (double &value : v) {
        value = plssvm::detail::standard_normal<double>(engine);
    }
    double norm2 = 0.0;
    for (const double value : v) {
        norm2 += value * value;
    }
    std::vector<double> h(system_size * system_size);
    for (std::size_t i = 0; i < system_size; ++i) {
        for (std::size_t j = 0; j < system_size; ++j) {
            h[i * system_size + j] = (i == j ? 1.0 : 0.0) - 2.0 * v[i] * v[j] / norm2;
        }
    }
    return h;
}

[[nodiscard]] counting_operator spread_spectrum_operator(const std::vector<double> &h) {
    const std::size_t n = system_size;
    std::vector<double> a(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            for (std::size_t l = 0; l < n; ++l) {
                a[i * n + j] += h[i * n + l] * (1.0 + static_cast<double>(l)) * h[l * n + j];
            }
        }
    }
    return counting_operator{ std::move(a), n };
}

/// sum of the eigenvectors h_l for l in @p eigen (H is symmetric: h_l is row l)
[[nodiscard]] std::vector<double> eigen_mix(const std::vector<double> &h, const std::vector<std::size_t> &eigen) {
    std::vector<double> b(system_size, 0.0);
    for (const std::size_t l : eigen) {
        for (std::size_t i = 0; i < system_size; ++i) {
            b[i] += h[l * system_size + i];
        }
    }
    return b;
}

[[nodiscard]] std::vector<double> random_vector(const std::uint64_t seed) {
    auto engine = plssvm::detail::make_engine(seed);
    std::vector<double> b(system_size);
    for (double &value : b) {
        value = plssvm::detail::standard_normal<double>(engine);
    }
    return b;
}

/// Columns one after another, as the k-column solve takes them.
[[nodiscard]] std::vector<double> stack(const std::vector<std::vector<double>> &columns) {
    std::vector<double> block;
    for (const std::vector<double> &column : columns) {
        block.insert(block.end(), column.begin(), column.end());
    }
    return block;
}

[[nodiscard]] bool bitwise_equal(const double *a, const double *b, const std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) {
            return false;
        }
    }
    return true;
}

/// Right-hand sides that converge at different speeds: one eigenvector
/// (1 iteration), three eigenvectors (3), and a random vector (about n).
[[nodiscard]] std::vector<std::vector<double>> mixed_speed_columns(const std::vector<double> &h) {
    return { random_vector(3), eigen_mix(h, { 4 }), eigen_mix(h, { 1, 9, 17 }) };
}

// ---------------------------------------------------------------------------
// the k-column solve
// ---------------------------------------------------------------------------

// Asserts: each column of a k-column solve takes bitwise the iterations,
// the solution, the residual and the convergence flag of its own
// single-column solve, although the columns converge at different speeds.
// Strategy: solve three right-hand sides (random, one eigenvector, three
// eigenvectors) together, then each alone on a fresh operator, at a refresh
// interval of 5 so that refreshes happen inside the block; compare.
TEST(CgBlock, EachColumnRepeatsItsOwnSolveBitwise) {
    const std::vector<double> h = reflector(1);
    const std::vector<std::vector<double>> columns = mixed_speed_columns(h);
    const solver_control ctrl{ .epsilon = 1e-10, .residual_refresh_interval = 5 };

    counting_operator block_op = spread_spectrum_operator(h);
    std::vector<double> X(system_size * columns.size(), 0.0);
    const std::vector<cg_result> results = conjugate_gradients(block_op, stack(columns), X, columns.size(), ctrl);
    ASSERT_EQ(results.size(), columns.size());

    for (std::size_t c = 0; c < columns.size(); ++c) {
        SCOPED_TRACE(c);
        counting_operator op = spread_spectrum_operator(h);
        std::vector<double> x(system_size, 0.0);
        const cg_result single = conjugate_gradients(op, columns[c], x, ctrl);
        EXPECT_TRUE(single.converged);
        EXPECT_EQ(results[c].iterations, single.iterations);
        EXPECT_EQ(results[c].converged, single.converged);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(results[c].final_relative_residual), std::bit_cast<std::uint64_t>(single.final_relative_residual));
        EXPECT_TRUE(bitwise_equal(X.data() + c * system_size, x.data(), system_size));
    }
    // the speeds differ, so the block really shrinks
    EXPECT_EQ(results[1].iterations, 1U);
    EXPECT_EQ(results[2].iterations, 3U);
    EXPECT_GT(results[0].iterations, 3U);
}

// Asserts: a k-column solve makes one block apply per iteration (plus one
// per residual refresh), over exactly the columns still iterating: a
// column that converged leaves the block and stops moving. Strategy: count
// the block widths of the mixed-speed solve at refresh interval 5. With
// iteration counts 1, 3 and N, iteration t sweeps 3, 2, 2, 1, ... columns,
// and the block applies number N + N / 5 (no sweep for the zero guess).
TEST(CgBlock, OneBlockApplyPerIterationOverTheActiveColumns) {
    const std::vector<double> h = reflector(1);
    const std::vector<std::vector<double>> columns = mixed_speed_columns(h);
    const solver_control ctrl{ .epsilon = 1e-10, .residual_refresh_interval = 5 };

    counting_operator op = spread_spectrum_operator(h);
    std::vector<double> X(system_size * columns.size(), 0.0);
    const std::vector<cg_result> results = conjugate_gradients(op, stack(columns), X, columns.size(), ctrl);
    const std::size_t slowest = results[0].iterations;
    ASSERT_GT(slowest, 5U);
    EXPECT_EQ(op.widths.size(), slowest + slowest / ctrl.residual_refresh_interval);

    // the first sweep of each iteration carries every column still iterating
    std::vector<std::size_t> iteration_widths;
    std::size_t iteration = 0;
    for (std::size_t call = 0; call < op.widths.size(); ++call) {
        ++iteration;
        iteration_widths.push_back(op.widths[call]);
        if (iteration % ctrl.residual_refresh_interval == 0) {
            ++call;  // the refresh of the same iteration
            ASSERT_LT(call, op.widths.size());
            EXPECT_EQ(op.widths[call], op.widths[call - 1]);
        }
    }
    ASSERT_EQ(iteration_widths.size(), slowest);
    for (std::size_t t = 1; t <= slowest; ++t) {
        std::size_t expected = 0;
        for (const cg_result &r : results) {
            expected += r.iterations >= t ? 1 : 0;
        }
        EXPECT_EQ(iteration_widths[t - 1], expected) << "iteration " << t;
    }
}

// Asserts: a zero right-hand side column gets the exact solution x = 0
// without entering the block, even from a non-zero guess, and leaves the
// other columns' solves untouched. Strategy: solve [random, 0] with the
// zero column's guess set to 5; check that column, its result, that no
// block is wider than 1, and the other column against its own solve.
TEST(CgBlock, ZeroColumnIsSolvedWithoutASweep) {
    const std::vector<double> h = reflector(2);
    const std::vector<double> b = random_vector(4);
    const solver_control ctrl{ .epsilon = 1e-10 };

    counting_operator op = spread_spectrum_operator(h);
    std::vector<double> X(2 * system_size, 0.0);
    std::fill(X.begin() + system_size, X.end(), 5.0);
    const std::vector<cg_result> results = conjugate_gradients(op, stack({ b, std::vector<double>(system_size, 0.0) }), X, 2, ctrl);

    EXPECT_TRUE(results[1].converged);
    EXPECT_EQ(results[1].iterations, 0U);
    for (std::size_t i = 0; i < system_size; ++i) {
        EXPECT_EQ(X[system_size + i], 0.0);
    }
    EXPECT_TRUE(std::all_of(op.widths.begin(), op.widths.end(), [](const std::size_t w) { return w == 1; }));

    counting_operator single_op = spread_spectrum_operator(h);
    std::vector<double> x(system_size, 0.0);
    const cg_result single = conjugate_gradients(single_op, b, x, ctrl);
    EXPECT_EQ(results[0].iterations, single.iterations);
    EXPECT_TRUE(bitwise_equal(X.data(), x.data(), system_size));
}

// Asserts: the iteration budget stops each column on its own (a column
// that converges inside the budget reports converged, one that does not
// reports the budget), and `strict` throws when any column misses its
// target but not when all reach it. Strategy: budget 3 on [random, one
// eigenvector]: the eigenvector column converges in 1, the random one stops
// at 3; then the same with `strict`, and a strict solve of two fast columns.
TEST(CgBlock, IterationBudgetAndStrictApplyPerColumn) {
    const std::vector<double> h = reflector(1);
    const std::vector<double> B = stack({ random_vector(3), eigen_mix(h, { 4 }) });
    solver_control ctrl{ .epsilon = 1e-10 };
    ctrl.max_iterations = 3;

    counting_operator op = spread_spectrum_operator(h);
    std::vector<double> X(B.size(), 0.0);
    const std::vector<cg_result> results = conjugate_gradients(op, B, X, 2, ctrl);
    EXPECT_EQ(results[0].iterations, 3U);
    EXPECT_FALSE(results[0].converged);
    EXPECT_EQ(results[1].iterations, 1U);
    EXPECT_TRUE(results[1].converged);

    ctrl.strict = true;
    counting_operator strict_op = spread_spectrum_operator(h);
    std::fill(X.begin(), X.end(), 0.0);
    EXPECT_THROW((void) conjugate_gradients(strict_op, B, X, 2, ctrl), plssvm::solver_exception);

    counting_operator fast_op = spread_spectrum_operator(h);
    const std::vector<double> fast = stack({ eigen_mix(h, { 2 }), eigen_mix(h, { 0, 7 }) });
    std::vector<double> X_fast(fast.size(), 0.0);
    std::vector<cg_result> fast_results;
    EXPECT_NO_THROW(fast_results = conjugate_gradients(fast_op, fast, X_fast, 2, ctrl));
    ASSERT_EQ(fast_results.size(), 2U);
    EXPECT_TRUE(fast_results[0].converged && fast_results[1].converged);
}

// ---------------------------------------------------------------------------
// the initial sweep
// ---------------------------------------------------------------------------

// Asserts: CG from a zero guess skips the A * x0 sweep (its residual is b
// exactly), so it costs one sweep per iteration plus one per refresh.
// Strategy: solve a random system from x0 = 0 at refresh interval 4 and
// count the operator's sweeps.
TEST(ConjugateGradients, ZeroGuessSkipsTheInitialSweep) {
    counting_operator op = spread_spectrum_operator(reflector(5));
    const solver_control ctrl{ .epsilon = 1e-10, .residual_refresh_interval = 4 };
    std::vector<double> x(system_size, 0.0);
    const cg_result result = conjugate_gradients(op, random_vector(6), x, ctrl);
    ASSERT_TRUE(result.converged);
    ASSERT_GT(result.iterations, 4U);
    EXPECT_EQ(op.widths.size(), result.iterations + result.iterations / 4);
}

// Asserts: a non-zero warm start keeps its first sweep (r = b - A x0).
// Strategy: the same system from x0 = 0.1 * 1; count one sweep more than
// iterations plus refreshes.
TEST(ConjugateGradients, WarmStartKeepsItsInitialSweep) {
    counting_operator op = spread_spectrum_operator(reflector(5));
    const solver_control ctrl{ .epsilon = 1e-10, .residual_refresh_interval = 4 };
    std::vector<double> x(system_size, 0.1);
    const cg_result result = conjugate_gradients(op, random_vector(6), x, ctrl);
    ASSERT_TRUE(result.converged);
    EXPECT_EQ(op.widths.size(), 1 + result.iterations + result.iterations / 4);
}

// ---------------------------------------------------------------------------
// the chunked dot product
// ---------------------------------------------------------------------------

// Asserts: `dot_product` sums each 1024-entry chunk serially and adds the
// chunk sums in order, at any thread count, so its result depends on n
// only. Strategy: 10 000 random entries (10 chunks, the last partial);
// compare the result at 1, 2, 3, 4 and 8 threads bitwise against a serial
// evaluation of that definition.
TEST(CgBlas, DotProductIsTheChunkedSumAtAnyThreadCount) {
    constexpr std::size_t n = 10000;
    auto engine = plssvm::detail::make_engine(9);
    std::vector<double> x(n);
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = plssvm::detail::standard_normal<double>(engine);
        y[i] = plssvm::detail::standard_normal<double>(engine);
    }
    double expected = 0.0;
    for (std::size_t begin = 0; begin < n; begin += plssvm::detail::reduction_chunk) {
        double chunk = 0.0;
        for (std::size_t i = begin; i < std::min(n, begin + plssvm::detail::reduction_chunk); ++i) {
            chunk += x[i] * y[i];
        }
        expected += chunk;
    }
    for (const int threads : { 1, 2, 3, 4, 8 }) {
        const plssvm::test::scoped_omp_threads scoped{ threads };
        EXPECT_EQ(std::bit_cast<std::uint64_t>(plssvm::solver::dot_product(x, y)), std::bit_cast<std::uint64_t>(expected)) << threads << " threads";
    }
}

}  // namespace
