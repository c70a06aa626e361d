/**
 * @file
 * @brief OpenMP (CPU) implicit Q~ matrix-vector product.
 *
 * Each application re-evaluates the kernel entries per Eq. 16 instead of
 * storing the (m-1)^2 matrix (paper §III-B). The q vector (k(x_i, x_m)) is
 * precomputed once per solve — the "caching" optimisation of §III-C-2 that
 * drops the per-entry kernel evaluations from three to one.
 *
 * Mirroring the paper, this CPU implementation is deliberately the plain
 * OpenMP-parallel variant (no triangular halving; §IV: "the CPU only OpenMP
 * implementation is currently not as well optimized as the GPU
 * implementations").
 *
 * `apply_block` is the one sweep: it evaluates each kernel entry k(x_i, x_j)
 * once and multiplies it into every column of the block, so the k
 * right-hand sides of a one-vs-all solve cost one sweep per iteration.
 * `apply` is its one-column case. Each column sums over j in the same order
 * whatever the block width, and sum(x) and <q, x> are `detail::chunked_sum`s,
 * so column c of a block is bitwise `apply` on x_c at any thread count.
 */

#ifndef PLSSVM_BACKENDS_OPENMP_Q_OPERATOR_HPP_
#define PLSSVM_BACKENDS_OPENMP_Q_OPERATOR_HPP_

#include "plssvm/core/kernel_functions.hpp"
#include "plssvm/core/matrix.hpp"
#include "plssvm/solver/operator.hpp"

#include <cstddef>
#include <vector>

namespace plssvm::backend::openmp {

template <typename T>
class q_operator final : public solver::linear_operator<T> {
  public:
    /**
     * @param points all m training points (the operator acts on m-1 unknowns)
     * @param kp kernel parameters with gamma resolved
     * @param cost the C regularisation parameter (adds 1/C terms, Eq. 16)
     */
    q_operator(const aos_matrix<T> &points, const kernel_params<T> &kp, T cost);

    [[nodiscard]] std::size_t size() const noexcept override { return n_; }

    void apply(const std::vector<T> &x, std::vector<T> &out) override;

    void apply_block(const std::vector<T> &x, std::vector<T> &out, std::size_t num_columns) override;

    /// Precomputed q vector (q_i = k(x_i, x_m)); reused for bias recovery.
    [[nodiscard]] const std::vector<T> &q() const noexcept { return q_; }

    /// Q_mm = k(x_m, x_m) + 1/C; reused for bias recovery.
    [[nodiscard]] T q_mm() const noexcept { return q_mm_; }

  private:
    const aos_matrix<T> &points_;
    kernel_params<T> kp_;
    T cost_;
    std::size_t n_;     ///< system size m-1
    std::vector<T> q_;  ///< cached k(x_i, x_m)
    T q_mm_;            ///< k(x_m, x_m) + 1/C
};

}  // namespace plssvm::backend::openmp

#endif  // PLSSVM_BACKENDS_OPENMP_Q_OPERATOR_HPP_
