#include "plssvm/backends/openmp/csvm.hpp"

#include "plssvm/backends/openmp/q_operator.hpp"
#include "plssvm/backends/openmp/sparse_q_operator.hpp"
#include "plssvm/core/sparse_matrix.hpp"
#include "plssvm/detail/tracker.hpp"

#include <vector>

namespace plssvm::backend::openmp {

template <typename T>
auto csvm<T>::solve_lssvm(const aos_matrix<T> &points,
                          const std::vector<std::vector<T>> &label_columns,
                          const kernel_params<T> &kp,
                          const solver_control &ctrl) -> std::vector<solve_result> {
    const detail::scoped_timer timer{ this->tracker_, "cg" };
    const auto cost = static_cast<T>(this->params_.cost);
    if (use_sparse_solver_) {
        const csr_matrix<T> csr{ points };
        sparse_q_operator<T> op{ csr, kp, cost };
        return this->solve_columns(op, op.q(), op.q_mm(), label_columns, ctrl);
    }
    q_operator<T> op{ points, kp, cost };
    return this->solve_columns(op, op.q(), op.q_mm(), label_columns, ctrl);
}

template class csvm<float>;
template class csvm<double>;

}  // namespace plssvm::backend::openmp
