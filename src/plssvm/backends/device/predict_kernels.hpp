/**
 * @file
 * @brief Device prediction kernels.
 *
 * Native PLSSVM predicts on the device with two kernels: `device_kernel_w`
 * collapses the support vectors into the explicit normal vector w for the
 * linear kernel (one pass over the SVs), and `device_kernel_predict`
 * evaluates the kernel sums for the non-linear kernels. Together with
 * `device_kernel_q` and `device_kernel_svm` these are the "3 compute
 * kernels" the paper's profiling section refers to.
 *
 * Both kernels operate on the padded SoA layout like the training kernels.
 */

#ifndef PLSSVM_BACKENDS_DEVICE_PREDICT_KERNELS_HPP_
#define PLSSVM_BACKENDS_DEVICE_PREDICT_KERNELS_HPP_

#include "plssvm/core/kernel_functions.hpp"

#include <cstddef>

namespace plssvm::backend::device {

/**
 * @brief `device_kernel_w`: w_f = sum_i alpha_i sv[i][f] (linear kernel path).
 *
 * @param sv feature-major support vectors (padded rows)
 * @param alpha weights (padded, zero beyond num_sv)
 * @param num_sv number of support vectors
 * @param padded padded support vector count
 * @param dim number of features
 * @param w_out output vector of length dim
 */
template <typename T>
void kernel_w(const T *sv, const T *alpha, std::size_t num_sv, std::size_t padded,
              std::size_t dim, T *w_out);

/**
 * @brief `device_kernel_predict`: out_p = sum_i alpha_i k(sv_i, x_p) for all
 *        prediction points (non-linear kernels).
 *
 * @param sv feature-major support vectors (padded rows: padded_sv)
 * @param alpha weights (padded, zero beyond num_sv)
 * @param points feature-major prediction points (padded rows: padded_points)
 * @param out output vector (padded_points entries; entries >= num_points untouched semantics: zeroed)
 */
template <typename T>
void kernel_predict(const T *sv, const T *alpha, std::size_t num_sv, std::size_t padded_sv,
                    const T *points, std::size_t num_points, std::size_t padded_points,
                    std::size_t dim, const kernel_params<T> &kp, T *out);

}  // namespace plssvm::backend::device

#endif  // PLSSVM_BACKENDS_DEVICE_PREDICT_KERNELS_HPP_
