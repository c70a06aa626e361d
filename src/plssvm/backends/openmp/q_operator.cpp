#include "plssvm/backends/openmp/q_operator.hpp"

#include "plssvm/core/lssvm_math.hpp"
#include "plssvm/detail/assert.hpp"
#include "plssvm/detail/chunked_sum.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

namespace plssvm::backend::openmp {

template <typename T>
q_operator<T>::q_operator(const aos_matrix<T> &points, const kernel_params<T> &kp, const T cost) :
    points_{ points },
    kp_{ kp },
    cost_{ cost },
    n_{ points.num_rows() - 1 },
    q_{ compute_q_vector(points, kp) },
    q_mm_{ compute_q_mm(points, kp, cost) } {
    PLSSVM_ASSERT(points.num_rows() >= 2, "The reduced system requires at least two data points!");
}

template <typename T>
void q_operator<T>::apply(const std::vector<T> &x, std::vector<T> &out) {
    apply_block(x, out, 1);
}

template <typename T>
void q_operator<T>::apply_block(const std::vector<T> &x, std::vector<T> &out, const std::size_t num_columns) {
    PLSSVM_ASSERT(x.size() == n_ * num_columns && out.size() == n_ * num_columns, "Vector size does not match the operator size!");

    // per column x of the block:
    // (Q~ x)_i = sum_j k(x_i, x_j) x_j            (expensive part, recomputed)
    //          - q_i * S - <q, x> + c0 * S        (rank-one corrections)
    //          + x_i / C                          (regularisation diagonal)
    // with S = sum_j x_j and c0 = k(x_m, x_m) + 1/C = q_mm.
    std::vector<T> sum_x(num_columns);
    std::vector<T> q_dot_x(num_columns);
    for (std::size_t c = 0; c < num_columns; ++c) {
        const T *xc = x.data() + c * n_;
        sum_x[c] = detail::chunked_sum<T>(n_, [xc](const std::size_t j) { return xc[j]; });
        q_dot_x[c] = detail::chunked_sum<T>(n_, [this, xc](const std::size_t j) { return q_[j] * xc[j]; });
    }

    const std::size_t dim = points_.num_cols();
    const T inv_cost = T{ 1 } / cost_;

    #pragma omp parallel
    {
        std::vector<T> kernel_sum(num_columns);
        #pragma omp for schedule(dynamic, 16)
        for (std::size_t i = 0; i < n_; ++i) {
            const T *xi = points_.row_data(i);
            std::fill(kernel_sum.begin(), kernel_sum.end(), T{ 0 });
            for (std::size_t j = 0; j < n_; ++j) {
                const T k_ij = kernels::apply(kp_, xi, points_.row_data(j), dim);
                for (std::size_t c = 0; c < num_columns; ++c) {
                    kernel_sum[c] += k_ij * x[c * n_ + j];
                }
            }
            for (std::size_t c = 0; c < num_columns; ++c) {
                out[c * n_ + i] = kernel_sum[c] - q_[i] * sum_x[c] - q_dot_x[c] + q_mm_ * sum_x[c] + inv_cost * x[c * n_ + i];
            }
        }
    }
}

template class q_operator<float>;
template class q_operator<double>;

}  // namespace plssvm::backend::openmp
