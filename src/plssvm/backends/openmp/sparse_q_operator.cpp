#include "plssvm/backends/openmp/sparse_q_operator.hpp"

#include "plssvm/detail/assert.hpp"
#include "plssvm/detail/chunked_sum.hpp"

#include <cstddef>
#include <vector>

namespace plssvm::backend::openmp {

template <typename T>
sparse_q_operator<T>::sparse_q_operator(const csr_matrix<T> &points, const kernel_params<T> &kp, const T cost) :
    points_{ points },
    kp_{ kp },
    cost_{ cost },
    n_{ points.num_rows() - 1 } {
    PLSSVM_ASSERT(points.num_rows() >= 2, "The reduced system requires at least two data points!");
    const std::size_t last = n_;
    q_.resize(n_);
    #pragma omp parallel for
    for (std::size_t i = 0; i < n_; ++i) {
        q_[i] = kernel_entry(i, last);
    }
    q_mm_ = kernel_entry(last, last) + T{ 1 } / cost_;
}

template <typename T>
T sparse_q_operator<T>::kernel_entry(const std::size_t i, const std::size_t j) const {
    const T core = kernels::uses_inner_product_core(kp_.kernel)
                       ? points_.dot(i, j)
                       : points_.squared_distance(i, j);
    return kernels::finish(kp_, core);
}

template <typename T>
void sparse_q_operator<T>::apply(const std::vector<T> &x, std::vector<T> &out) {
    PLSSVM_ASSERT(x.size() == n_ && out.size() == n_, "Vector size does not match the operator size!");

    const T sum_x = detail::chunked_sum<T>(n_, [&x](const std::size_t j) { return x[j]; });
    const T q_dot_x = detail::chunked_sum<T>(n_, [this, &x](const std::size_t j) { return q_[j] * x[j]; });

    const T inv_cost = T{ 1 } / cost_;
    #pragma omp parallel for schedule(dynamic, 16)
    for (std::size_t i = 0; i < n_; ++i) {
        T kernel_sum{ 0 };
        for (std::size_t j = 0; j < n_; ++j) {
            kernel_sum += kernel_entry(i, j) * x[j];
        }
        out[i] = kernel_sum - q_[i] * sum_x - q_dot_x + q_mm_ * sum_x + inv_cost * x[i];
    }
}

template class sparse_q_operator<float>;
template class sparse_q_operator<double>;

}  // namespace plssvm::backend::openmp
