#include "plssvm/serve/batch_kernels.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

/**
 * Function multi-versioning of the non-linear batch kernel: the baseline
 * build stays portable (plain x86-64 / SSE2), but on CPUs with AVX2+FMA or
 * AVX-512 the runtime resolver picks a clone compiled for that ISA, which
 * widens the register tile's FMA throughput by 2-4x. The clones may contract
 * multiply+add to FMA, so blocked results can differ from the scalar
 * reference path in the last bits on such machines — parity tests compare
 * with rel. tolerance 1e-10 (see batch_kernels.hpp).
 */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
    // sanitizers cannot handle the ifunc resolvers multi-versioning emits
    // (they run before the sanitizer runtime initializes -> startup crash),
    // so sanitizer builds fall back to the portable baseline clone
    #define PLSSVM_SERVE_TARGET_CLONES __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
    #define PLSSVM_SERVE_TARGET_CLONES
#endif

namespace plssvm::serve::batch {

namespace {

constexpr std::size_t B = batch_point_tile;
constexpr std::size_t W = batch_sv_tile;

/**
 * @brief Core accumulation of one full B x W register tile:
 *        `acc[p][j] = sum_f x_p[f] * sv[i0 + j][f]`.
 *
 * All loop bounds are compile-time constants so the accumulator block stays
 * in registers across the whole feature sweep; each column load `col[j]` is
 * reused for all B points. The feature-ascending elementwise accumulation
 * matches the reference path's arithmetic order exactly.
 *
 * @param col0 SoA column base of the tile, i.e. `sv_data + i0`
 * @param x_rows the B contiguous AoS query rows
 */
template <typename T>
[[gnu::always_inline]] inline void accumulate_tile_full(const T *col0, const std::size_t padded, const std::size_t dim,
                                                        const T *const *x_rows, T acc[B][W]) {
    for (std::size_t p = 0; p < B; ++p) {
        for (std::size_t j = 0; j < W; ++j) {
            acc[p][j] = T{ 0 };
        }
    }
    for (std::size_t f = 0; f < dim; ++f) {
        const T *col = col0 + f * padded;
        for (std::size_t p = 0; p < B; ++p) {
            const T xf = x_rows[p][f];
            #pragma omp simd
            for (std::size_t j = 0; j < W; ++j) {
                acc[p][j] += xf * col[j];
            }
        }
    }
}

/// Remainder-tile core accumulation with runtime point (@p pb) and SV (@p jw)
/// counts; per-point arithmetic is identical to the full-tile version.
template <typename T>
[[gnu::always_inline]] inline void accumulate_tile_partial(const T *col0, const std::size_t padded, const std::size_t dim,
                                                           const T *const *x_rows, const std::size_t pb, const std::size_t jw,
                                                           T acc[B][W]) {
    for (std::size_t p = 0; p < pb; ++p) {
        for (std::size_t j = 0; j < jw; ++j) {
            acc[p][j] = T{ 0 };
        }
    }
    for (std::size_t f = 0; f < dim; ++f) {
        const T *col = col0 + f * padded;
        for (std::size_t p = 0; p < pb; ++p) {
            const T xf = x_rows[p][f];
            #pragma omp simd
            for (std::size_t j = 0; j < jw; ++j) {
                acc[p][j] += xf * col[j];
            }
        }
    }
}

/// Per-head partial sums of one point tile: @p size entries of thread-local
/// scratch. The kernels run per lane chunk on the serving hot path and must
/// not pay a heap allocation per call (resize only ever grows the capacity).
template <typename T>
[[nodiscard]] T *partial_scratch(const std::size_t size) {
    static thread_local std::vector<T> partial;
    partial.resize(size);
    return partial.data();
}

/// Store the finished partial sums of @p pb points (`heads.num_heads` each)
/// into their output columns, starting at output row @p out_row.
template <typename T>
inline void store_heads(const head_block<T> &heads, const T *partial, const std::size_t pb, const std::size_t out_row, T *out) {
    for (std::size_t p = 0; p < pb; ++p) {
        T *o = out + (out_row + p) * heads.stride;
        for (std::size_t g = 0; g < heads.num_heads; ++g) {
            const std::size_t column = heads.columns[g];
            o[column] = partial[p * heads.num_heads + g] + heads.bias[column];
        }
    }
}

/// Add the kernel value @p f of SV @p i, weighted per head, into the
/// @p partial sums of every head.
template <typename T>
[[gnu::always_inline]] inline void add_heads(const head_block<T> &heads, const std::size_t i, const T f, T *partial) {
    const T *alpha = heads.alpha + i * heads.num_heads;
    for (std::size_t g = 0; g < heads.num_heads; ++g) {
        partial[g] += alpha[g] * f;
    }
}

/// Shared body of `kernel_decision_values`; force-inlined into each ISA clone
/// so the register tile compiles with the clone's vector width.
template <typename T>
[[gnu::always_inline]] inline void kernel_decision_values_body(const soa_matrix<T> &sv, const T *sv_sq_norms,
                                                               const kernel_params<T> &kp, const head_block<T> &heads,
                                                               const aos_matrix<T> &points, const std::size_t row_begin, const std::size_t row_end,
                                                               T *out) {
    const std::size_t dim = sv.num_cols();
    const std::size_t num_sv = sv.num_rows();
    const std::size_t padded = sv.padded_rows();
    const T *sv_data = sv.data().data();
    const bool rbf = !kernels::uses_inner_product_core(kp.kernel);
    const std::size_t k = heads.num_heads;
    T *partial = partial_scratch<T>(B * k);

    for (std::size_t p0 = row_begin; p0 < row_end; p0 += B) {
        const std::size_t pb = std::min(B, row_end - p0);

        const T *x_rows[B] = {};
        T x_sq[B] = {};
        for (std::size_t p = 0; p < pb; ++p) {
            x_rows[p] = points.row_data(p0 + p);
            if (rbf) {
                // same dot call as the reference path -> identical ||x||^2
                x_sq[p] = kernels::dot(x_rows[p], x_rows[p], dim);
            }
        }
        std::fill(partial, partial + pb * k, T{ 0 });

        for (std::size_t i0 = 0; i0 < num_sv; i0 += W) {
            const std::size_t jw = std::min(W, num_sv - i0);
            T acc[B][W];
            // a full register tile may read the zero padding beyond num_sv
            // (jw < W); the epilogue below only consumes the jw real SVs
            if (pb == B && i0 + W <= padded) {
                accumulate_tile_full(sv_data + i0, padded, dim, x_rows, acc);
            } else {
                accumulate_tile_partial(sv_data + i0, padded, dim, x_rows, pb, jw, acc);
            }
            // one kernel evaluation per (point, SV), shared by every head
            for (std::size_t p = 0; p < pb; ++p) {
                T *part = partial + p * k;
                if (rbf) {
                    for (std::size_t j = 0; j < jw; ++j) {
                        // clamp tiny negative rounding residue like the reference
                        const T core = std::max(sv_sq_norms[i0 + j] + x_sq[p] - T{ 2 } * acc[p][j], T{ 0 });
                        add_heads(heads, i0 + j, kernels::finish(kp, core), part);
                    }
                } else {
                    for (std::size_t j = 0; j < jw; ++j) {
                        add_heads(heads, i0 + j, kernels::finish(kp, acc[p][j]), part);
                    }
                }
            }
        }
        store_heads(heads, partial, pb, p0 - row_begin, out);
    }
}

}  // namespace

template <typename T>
void linear_decision_values(const aos_matrix<T> &w, const T *bias,
                            const aos_matrix<T> &points, const std::size_t row_begin, const std::size_t row_end,
                            T *out) {
    // GEMM X * W^T: the rows of W are L1-resident after the first point,
    // each query row is streamed exactly once; kernels::dot keeps bit-parity
    // with the reference path.
    const std::size_t k = w.num_rows();
    const std::size_t dim = w.num_cols();
    for (std::size_t p = row_begin; p < row_end; ++p) {
        const T *x = points.row_data(p);
        T *o = out + (p - row_begin) * k;
        for (std::size_t h = 0; h < k; ++h) {
            o[h] = kernels::dot(w.row_data(h), x, dim) + bias[h];
        }
    }
}

template <>
PLSSVM_SERVE_TARGET_CLONES
void kernel_decision_values<float>(const soa_matrix<float> &sv, const float *sv_sq_norms,
                                   const kernel_params<float> &kp, const head_block<float> &heads,
                                   const aos_matrix<float> &points, const std::size_t row_begin, const std::size_t row_end,
                                   float *out) {
    kernel_decision_values_body<float>(sv, sv_sq_norms, kp, heads, points, row_begin, row_end, out);
}

template <>
PLSSVM_SERVE_TARGET_CLONES
void kernel_decision_values<double>(const soa_matrix<double> &sv, const double *sv_sq_norms,
                                    const kernel_params<double> &kp, const head_block<double> &heads,
                                    const aos_matrix<double> &points, const std::size_t row_begin, const std::size_t row_end,
                                    double *out) {
    kernel_decision_values_body<double>(sv, sv_sq_norms, kp, heads, points, row_begin, row_end, out);
}

template void linear_decision_values<float>(const aos_matrix<float> &, const float *, const aos_matrix<float> &, std::size_t, std::size_t, float *);
template void linear_decision_values<double>(const aos_matrix<double> &, const double *, const aos_matrix<double> &, std::size_t, std::size_t, double *);

// --- sparse SV-side sweeps --------------------------------------------------
//
// The sparse kernels are gather/merge bound, not FMA bound, so they are not
// ISA-multi-versioned: there is no register tile for wider vectors to speed
// up, and the branchy merge-joins do not vectorize anyway.

namespace {

/// ||row||^2 over the stored entries (exact: dropped entries are zero).
template <typename T>
[[nodiscard]] inline T row_sq_norm(const typename csr_matrix<T>::entry *e, const typename csr_matrix<T>::entry *e_end) noexcept {
    T sum{ 0 };
    for (; e != e_end; ++e) {
        sum += e->value * e->value;
    }
    return sum;
}

}  // namespace

template <typename T>
void sparse_linear_decision_values(const aos_matrix<T> &w, const csr_matrix<T> &w_sparse, const T *bias,
                                   const csr_matrix<T> &points, const std::size_t row_begin, const std::size_t row_end,
                                   T *out) {
    const std::size_t k = w.num_rows();
    const std::size_t dim = w.num_cols();
    for (std::size_t p = row_begin; p < row_end; ++p) {
        const auto *x = points.row_begin(p);
        const auto *x_end = points.row_end(p);
        T *o = out + (p - row_begin) * k;
        for (std::size_t h = 0; h < k; ++h) {
            if (w_sparse.num_rows() > 0 && static_cast<std::size_t>(w_sparse.row_end(h) - w_sparse.row_begin(h)) * 4 <= dim) {
                o[h] = csr_matrix<T>::merge_dot(w_sparse.row_begin(h), w_sparse.row_end(h), x, x_end) + bias[h];
                continue;
            }
            const T *w_h = w.row_data(h);
            T sum{ 0 };
            for (const auto *e = x; e != x_end; ++e) {
                sum += e->value * w_h[e->index];
            }
            o[h] = sum + bias[h];
        }
    }
}

template <typename T>
void sparse_kernel_decision_values(const csr_matrix<T> &sv, const T *sv_sq_norms,
                                   const kernel_params<T> &kp, const head_block<T> &heads,
                                   const csr_matrix<T> &points, const std::size_t row_begin, const std::size_t row_end,
                                   T *out) {
    constexpr std::size_t S = sparse_point_tile;
    const std::size_t num_sv = sv.num_rows();
    const bool rbf = !kernels::uses_inner_product_core(kp.kernel);
    const std::size_t k = heads.num_heads;
    T *partial = partial_scratch<T>(S * k);

    for (std::size_t p0 = row_begin; p0 < row_end; p0 += S) {
        const std::size_t pb = std::min(S, row_end - p0);
        T x_sq[S] = {};
        if (rbf) {
            for (std::size_t p = 0; p < pb; ++p) {
                x_sq[p] = row_sq_norm<T>(points.row_begin(p0 + p), points.row_end(p0 + p));
            }
        }
        std::fill(partial, partial + pb * k, T{ 0 });
        // one streaming pass over the CSR SV panel per point tile
        for (std::size_t i = 0; i < num_sv; ++i) {
            const auto *sv_row = sv.row_begin(i);
            const auto *sv_row_end = sv.row_end(i);
            for (std::size_t p = 0; p < pb; ++p) {
                const T dot = csr_matrix<T>::merge_dot(sv_row, sv_row_end, points.row_begin(p0 + p), points.row_end(p0 + p));
                // clamp tiny negative rounding residue like the reference
                const T f = kernels::finish(kp, rbf ? std::max(sv_sq_norms[i] + x_sq[p] - T{ 2 } * dot, T{ 0 }) : dot);
                add_heads(heads, i, f, partial + p * k);
            }
        }
        store_heads(heads, partial, pb, p0 - row_begin, out);
    }
}

template <typename T>
void dense_sparse_kernel_decision_values(const csr_matrix<T> &sv_csc, const std::size_t num_sv, const T *sv_sq_norms,
                                         const kernel_params<T> &kp, const head_block<T> &heads,
                                         const aos_matrix<T> &points, const std::size_t row_begin, const std::size_t row_end,
                                         T *out) {
    constexpr std::size_t S = sparse_point_tile;
    const std::size_t dim = sv_csc.num_rows();  // rows of the transpose = features
    const bool rbf = !kernels::uses_inner_product_core(kp.kernel);
    const std::size_t k = heads.num_heads;
    // per-tile accumulator block: acc[p * num_sv + i] = <sv_i, x_p>; sized for
    // one tile so it stays cache-resident across the whole feature sweep.
    // thread-local scratch: this runs per lane chunk on the serving hot path
    // and must not pay a heap allocation per call (resize only ever grows
    // the capacity) — same pattern as compiled_model::decision_value
    static thread_local std::vector<T> acc;
    acc.resize(std::min(S, row_end > row_begin ? row_end - row_begin : std::size_t{ 0 }) * num_sv);
    T *partial = partial_scratch<T>(S * k);

    for (std::size_t p0 = row_begin; p0 < row_end; p0 += S) {
        const std::size_t pb = std::min(S, row_end - p0);
        const T *x_rows[S] = {};
        T x_sq[S] = {};
        for (std::size_t p = 0; p < pb; ++p) {
            x_rows[p] = points.row_data(p0 + p);
            if (rbf) {
                // same dot call as the reference path -> identical ||x||^2
                x_sq[p] = kernels::dot(x_rows[p], x_rows[p], dim);
            }
        }
        std::fill(acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(pb * num_sv), T{ 0 });
        // feature-major sweep touching only the stored SV entries; each CSC
        // row (one feature) is reused for the whole point tile
        for (std::size_t f = 0; f < dim; ++f) {
            const auto *col = sv_csc.row_begin(f);
            const auto *col_end = sv_csc.row_end(f);
            if (col == col_end) {
                continue;  // all-zero feature column
            }
            for (std::size_t p = 0; p < pb; ++p) {
                const T xf = x_rows[p][f];
                if (xf == T{ 0 }) {
                    continue;  // skipping exact-zero products is result-neutral
                }
                T *acc_p = acc.data() + p * num_sv;
                for (const auto *e = col; e != col_end; ++e) {
                    acc_p[e->index] += xf * e->value;
                }
            }
        }
        for (std::size_t p = 0; p < pb; ++p) {
            // one kernel evaluation per (point, SV), in place, shared by every head
            T *acc_p = acc.data() + p * num_sv;
            for (std::size_t i = 0; i < num_sv; ++i) {
                acc_p[i] = kernels::finish(kp, rbf ? std::max(sv_sq_norms[i] + x_sq[p] - T{ 2 } * acc_p[i], T{ 0 }) : acc_p[i]);
            }
            for (std::size_t g = 0; g < k; ++g) {
                T sum{ 0 };
                for (std::size_t i = 0; i < num_sv; ++i) {
                    sum += heads.alpha[i * k + g] * acc_p[i];
                }
                partial[p * k + g] = sum;
            }
        }
        store_heads(heads, partial, pb, p0 - row_begin, out);
    }
}

template void sparse_linear_decision_values<float>(const aos_matrix<float> &, const csr_matrix<float> &, const float *, const csr_matrix<float> &, std::size_t, std::size_t, float *);
template void sparse_linear_decision_values<double>(const aos_matrix<double> &, const csr_matrix<double> &, const double *, const csr_matrix<double> &, std::size_t, std::size_t, double *);
template void sparse_kernel_decision_values<float>(const csr_matrix<float> &, const float *, const kernel_params<float> &, const head_block<float> &, const csr_matrix<float> &, std::size_t, std::size_t, float *);
template void sparse_kernel_decision_values<double>(const csr_matrix<double> &, const double *, const kernel_params<double> &, const head_block<double> &, const csr_matrix<double> &, std::size_t, std::size_t, double *);
template void dense_sparse_kernel_decision_values<float>(const csr_matrix<float> &, std::size_t, const float *, const kernel_params<float> &, const head_block<float> &, const aos_matrix<float> &, std::size_t, std::size_t, float *);
template void dense_sparse_kernel_decision_values<double>(const csr_matrix<double> &, std::size_t, const double *, const kernel_params<double> &, const head_block<double> &, const aos_matrix<double> &, std::size_t, std::size_t, double *);

}  // namespace plssvm::serve::batch
