/**
 * @file
 * @brief Sparse (CSR) implicit Q~ operator for the OpenMP backend.
 *
 * The paper's §V names "consider[ing] sparse data structures for the CG
 * solver" as a canonical next step: PLSSVM densifies sparse inputs, which
 * wastes kernel-evaluation work when most features are zero. This operator
 * evaluates Eq. 16 entries over CSR rows (index-merge dot products /
 * distances), making the per-entry cost proportional to the row nnz instead
 * of the full dimension.
 *
 * Semantics are identical to the dense `q_operator`; tests enforce agreement.
 * A block of columns runs through the default `apply_block`, one sweep per
 * column.
 */

#ifndef PLSSVM_BACKENDS_OPENMP_SPARSE_Q_OPERATOR_HPP_
#define PLSSVM_BACKENDS_OPENMP_SPARSE_Q_OPERATOR_HPP_

#include "plssvm/core/kernel_functions.hpp"
#include "plssvm/core/sparse_matrix.hpp"
#include "plssvm/solver/operator.hpp"

#include <cstddef>
#include <vector>

namespace plssvm::backend::openmp {

template <typename T>
class sparse_q_operator final : public solver::linear_operator<T> {
  public:
    /**
     * @param points all m training points in CSR form
     * @param kp kernel parameters with gamma resolved
     * @param cost the C regularisation parameter
     */
    sparse_q_operator(const csr_matrix<T> &points, const kernel_params<T> &kp, T cost);

    [[nodiscard]] std::size_t size() const noexcept override { return n_; }

    void apply(const std::vector<T> &x, std::vector<T> &out) override;

    [[nodiscard]] const std::vector<T> &q() const noexcept { return q_; }
    [[nodiscard]] T q_mm() const noexcept { return q_mm_; }

  private:
    [[nodiscard]] T kernel_entry(std::size_t i, std::size_t j) const;

    const csr_matrix<T> &points_;
    kernel_params<T> kp_;
    T cost_;
    std::size_t n_;
    std::vector<T> q_;
    T q_mm_;
};

}  // namespace plssvm::backend::openmp

#endif  // PLSSVM_BACKENDS_OPENMP_SPARSE_Q_OPERATOR_HPP_
