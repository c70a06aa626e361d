/**
 * @file
 * @brief The OpenMP (CPU) backend.
 *
 * Runs the CG solve with the OpenMP-parallel implicit Q~ operator directly on
 * host memory — no transform/transfer stages (the paper's Fig. 4a therefore
 * has no "transform" component for the CPU backend). The dense operator
 * sweeps the kernel once per iteration for all label columns of a solve;
 * the sparse one sweeps once per column.
 */

#ifndef PLSSVM_BACKENDS_OPENMP_CSVM_HPP_
#define PLSSVM_BACKENDS_OPENMP_CSVM_HPP_

#include "plssvm/core/csvm.hpp"

namespace plssvm::backend::openmp {

template <typename T>
class csvm final : public ::plssvm::csvm<T> {
  public:
    /**
     * @param params SVM hyper-parameters
     * @param use_sparse_solver evaluate the implicit matrix over CSR rows
     *        instead of dense rows (the sparse-CG extension of paper §V;
     *        pays off when the data has many zero features)
     */
    explicit csvm(parameter params, const bool use_sparse_solver = false) :
        ::plssvm::csvm<T>{ params },
        use_sparse_solver_{ use_sparse_solver } {}

    [[nodiscard]] std::string_view backend_name() const noexcept override {
        return use_sparse_solver_ ? "openmp-sparse" : "openmp";
    }

  protected:
    using typename ::plssvm::csvm<T>::solve_result;

    [[nodiscard]] std::vector<solve_result> solve_lssvm(const aos_matrix<T> &points,
                                                        const std::vector<std::vector<T>> &label_columns,
                                                        const kernel_params<T> &kp,
                                                        const solver_control &ctrl) override;

  private:
    bool use_sparse_solver_;
};

}  // namespace plssvm::backend::openmp

#endif  // PLSSVM_BACKENDS_OPENMP_CSVM_HPP_
