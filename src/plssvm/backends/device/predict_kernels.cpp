#include "plssvm/backends/device/predict_kernels.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

namespace plssvm::backend::device {

template <typename T>
void kernel_w(const T *sv, const T *alpha, const std::size_t num_sv, const std::size_t padded,
              const std::size_t dim, T *w_out) {
    for (std::size_t f = 0; f < dim; ++f) {
        const T *column = sv + f * padded;
        T sum{ 0 };
        #pragma omp simd reduction(+ : sum)
        for (std::size_t i = 0; i < num_sv; ++i) {
            sum += alpha[i] * column[i];
        }
        w_out[f] = sum;
    }
}

template <typename T>
void kernel_predict(const T *sv, const T *alpha, const std::size_t num_sv, const std::size_t padded_sv,
                    const T *points, const std::size_t num_points, const std::size_t padded_points,
                    const std::size_t dim, const kernel_params<T> &kp, T *out) {
    const bool inner_product = kernels::uses_inner_product_core(kp.kernel);
    std::fill(out, out + padded_points, T{ 0 });

    // feature-blocked core accumulation: core[p * num_sv + i] += op(x_p[f], sv_i[f])
    // (tiled over prediction points to bound the scratch size)
    constexpr std::size_t point_tile = 64;
    std::vector<T> core(point_tile * num_sv);
    for (std::size_t p0 = 0; p0 < num_points; p0 += point_tile) {
        const std::size_t tile_points = std::min(point_tile, num_points - p0);
        std::fill(core.begin(), core.end(), T{ 0 });
        for (std::size_t f = 0; f < dim; ++f) {
            const T *sv_column = sv + f * padded_sv;
            const T *pt_column = points + f * padded_points + p0;
            for (std::size_t p = 0; p < tile_points; ++p) {
                const T x = pt_column[p];
                T *row = core.data() + p * num_sv;
                if (inner_product) {
                    #pragma omp simd
                    for (std::size_t i = 0; i < num_sv; ++i) {
                        row[i] += x * sv_column[i];
                    }
                } else {
                    #pragma omp simd
                    for (std::size_t i = 0; i < num_sv; ++i) {
                        const T diff = x - sv_column[i];
                        row[i] += diff * diff;
                    }
                }
            }
        }
        for (std::size_t p = 0; p < tile_points; ++p) {
            const T *row = core.data() + p * num_sv;
            T sum{ 0 };
            for (std::size_t i = 0; i < num_sv; ++i) {
                sum += alpha[i] * kernels::finish(kp, row[i]);
            }
            out[p0 + p] = sum;
        }
    }
}

template void kernel_w<float>(const float *, const float *, std::size_t, std::size_t, std::size_t, float *);
template void kernel_w<double>(const double *, const double *, std::size_t, std::size_t, std::size_t, double *);
template void kernel_predict<float>(const float *, const float *, std::size_t, std::size_t, const float *, std::size_t, std::size_t, std::size_t, const kernel_params<float> &, float *);
template void kernel_predict<double>(const double *, const double *, std::size_t, std::size_t, const double *, std::size_t, std::size_t, std::size_t, const kernel_params<double> &, double *);

}  // namespace plssvm::backend::device
