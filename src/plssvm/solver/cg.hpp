/**
 * @file
 * @brief Conjugate Gradient solver (Shewchuk's formulation, paper §III-B).
 *
 * Solves A x = b for symmetric positive definite A, terminating when the
 * relative residual ||r|| / ||b|| drops below the configured epsilon — the
 * "epsilon" whose runtime/accuracy trade-off the paper studies in Fig. 3.
 * The exact residual r = b - A x is recomputed every
 * `solver_control::residual_refresh_interval` iterations to bound the drift
 * of the recurrence-updated residual. A zero initial guess costs no sweep:
 * its residual is b itself.
 *
 * One CG carries k right-hand sides that share the operator (the k classes
 * of a one-vs-all ensemble share Q~). Each iteration applies the operator
 * once to the block of directions that are still active; each column keeps
 * its own alpha/beta/delta recurrence, residual refresh and stopping test,
 * and leaves the block once it converges. This is not O'Leary's block CG:
 * the columns share sweeps, not a Krylov space, so column c takes exactly
 * the iterates of its own single-column solve. The single-column entry is
 * the k = 1 call of the same solve.
 *
 * Every dot product is a `detail::chunked_sum`, so a solve is bitwise
 * reproducible at any thread count.
 */

#ifndef PLSSVM_SOLVER_CG_HPP_
#define PLSSVM_SOLVER_CG_HPP_

#include "plssvm/core/parameter.hpp"
#include "plssvm/solver/operator.hpp"

#include <cstddef>
#include <functional>
#include <vector>

namespace plssvm::solver {

/// Outcome of a CG run.
struct cg_result {
    std::size_t iterations{ 0 };
    double final_relative_residual{ 0.0 };
    bool converged{ false };
};

/// Observer invoked after every CG iteration (used by the epsilon benches to
/// record residual trajectories); receives (iteration, relative_residual).
using cg_observer = std::function<void(std::size_t, double)>;

/**
 * @brief Run CG on @p A with right-hand side @p b, starting from @p x
 *        (commonly the zero vector, which callers must pre-size).
 * @throws plssvm::solver_exception when `ctrl.strict` and the iteration budget
 *         is exhausted before reaching the target residual
 */
template <typename T>
cg_result conjugate_gradients(linear_operator<T> &A,
                              const std::vector<T> &b,
                              std::vector<T> &x,
                              const solver_control &ctrl,
                              const cg_observer &observer = {});

/**
 * @brief Run one CG over @p num_rhs right-hand sides of @p A at once.
 *
 * @p B and @p X hold num_rhs columns of A.size() entries each, one after
 * another; column c of @p X is the initial guess of column c and receives
 * its solution. Every iteration makes one `apply_block` call over the
 * columns still iterating. The iteration budget, the residual refresh and
 * `ctrl.strict` apply to each column as in the single-column solve.
 * @return one result per column, in column order
 * @throws plssvm::solver_exception when `ctrl.strict` and some column
 *         exhausts the iteration budget before reaching its target residual
 */
template <typename T>
std::vector<cg_result> conjugate_gradients(linear_operator<T> &A,
                                           const std::vector<T> &B,
                                           std::vector<T> &X,
                                           std::size_t num_rhs,
                                           const solver_control &ctrl);

// --- BLAS-1 style helpers shared by host and simulated-device code paths ---

/// <x, y>, summed over fixed chunks (`detail::chunked_sum`)
template <typename T>
[[nodiscard]] T dot_product(const std::vector<T> &x, const std::vector<T> &y);

/// y += a * x
template <typename T>
void axpy(T a, const std::vector<T> &x, std::vector<T> &y);

/// y = x + a * y   (used for the direction update d = r + beta * d)
template <typename T>
void xpay(const std::vector<T> &x, T a, std::vector<T> &y);

}  // namespace plssvm::solver

#endif  // PLSSVM_SOLVER_CG_HPP_
