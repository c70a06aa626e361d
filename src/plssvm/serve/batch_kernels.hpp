/**
 * @file
 * @brief Register/cache-tiled batch-prediction kernels of the serving layer.
 *
 * The per-point reference path (`compiled_model::decision_values_reference_into`)
 * re-streams the entire padded SoA support-vector panel from memory for every
 * query point: one pass of `padded_sv * dim` loads, one accumulator load and
 * store per multiply-add. These kernels instead process a *tile* of
 * `batch_point_tile` points against register panels of `batch_sv_tile`
 * support vectors, so
 *
 *  - each SoA column load is reused `batch_point_tile` times,
 *  - the `batch_point_tile x batch_sv_tile` core accumulator lives entirely
 *    in registers across the whole feature sweep (no accumulator traffic),
 *  - the support-vector panel is streamed from memory once per *point tile*
 *    instead of once per *point* — a `batch_point_tile`-fold traffic cut.
 *
 * This is the GEMM-shaped rewrite of the prediction sweep the paper's
 * profiling section motivates: the inner-product core of a batch is exactly
 * `points (B x d) * sv^T (d x num_sv)`.
 *
 * Every kernel serves k heads at once (`head_block`): the epilogue computes
 * `kernels::finish` once per (point, SV) pair and adds `alpha[i][h] * f` into
 * each head's partial sum, SV-ascending; every execution writes rows x k
 * decision values. The heads of a one-vs-all ensemble share one panel, so a
 * batch of k heads costs one core sweep and one kernel evaluation per pair
 * plus k multiply-adds, not k sweeps. For k = 1 the arithmetic is exactly
 * that of a single-head sweep.
 *
 * Numerical contract: for every point and head the arithmetic *order* is
 * identical to the scalar reference path (feature-ascending elementwise core
 * accumulation, support-vector-ascending epilogue sum, identical
 * `kernels::dot` calls for the linear kernel and the RBF `||x||^2` term).
 * Tiling only changes the memory access order. The non-linear kernel is
 * ISA-multi-versioned (`target_clones`): on AVX2/AVX-512 hosts the selected
 * clone may contract
 * multiply+add to FMA, so blocked and reference results agree bit-for-bit on
 * baseline builds and to ~1e-15 relative where FMA contraction differs;
 * parity tests therefore compare bit-tolerantly (rel. error <= 1e-10). The
 * linear path shares `kernels::dot` with the reference and is always
 * bit-identical to it.
 *
 * Tile-size constants can be overridden at configure time, e.g.
 * `cmake -DCMAKE_CXX_FLAGS="-DPLSSVM_SERVE_POINT_TILE=8 -DPLSSVM_SERVE_SV_TILE=8"`;
 * `PLSSVM_SERVE_SV_TILE` must divide `compiled_model_row_padding` (64).
 * Remainder tiles (batch sizes that are not tile multiples, support-vector
 * counts that are not `batch_sv_tile` multiples) are handled explicitly and
 * produce the same per-point arithmetic as full tiles.
 */

#ifndef PLSSVM_SERVE_BATCH_KERNELS_HPP_
#define PLSSVM_SERVE_BATCH_KERNELS_HPP_

#include "plssvm/core/kernel_functions.hpp"
#include "plssvm/core/matrix.hpp"
#include "plssvm/core/sparse_matrix.hpp"

#include <cstddef>

namespace plssvm::serve {

/// Points processed per register tile (B): every SoA column load is reused
/// this many times.
#ifndef PLSSVM_SERVE_POINT_TILE
inline constexpr std::size_t batch_point_tile = 4;
#else
inline constexpr std::size_t batch_point_tile = PLSSVM_SERVE_POINT_TILE;
#endif

/// Support vectors processed per register tile (W): the core accumulator is
/// a `batch_point_tile x batch_sv_tile` block held in registers.
#ifndef PLSSVM_SERVE_SV_TILE
inline constexpr std::size_t batch_sv_tile = 8;
#else
inline constexpr std::size_t batch_sv_tile = PLSSVM_SERVE_SV_TILE;
#endif

/// Points processed per tile of the *sparse* sweeps: the CSR support-vector
/// panel is streamed from memory once per tile of this many queries, and the
/// dense-query x sparse-SV sweep keeps a `sparse_point_tile x num_sv`
/// accumulator block cache-resident across the feature sweep.
#ifndef PLSSVM_SERVE_SPARSE_POINT_TILE
inline constexpr std::size_t sparse_point_tile = 16;
#else
inline constexpr std::size_t sparse_point_tile = PLSSVM_SERVE_SPARSE_POINT_TILE;
#endif

static_assert(batch_point_tile >= 1, "batch_point_tile must be at least 1");
static_assert(batch_sv_tile >= 1, "batch_sv_tile must be at least 1");
static_assert(sparse_point_tile >= 1, "sparse_point_tile must be at least 1");

namespace batch {

/**
 * @brief The heads one sweep of a stored support-vector panel feeds.
 *
 * A sweep evaluates each (point, SV) kernel entry of its panel once and adds
 * `alpha[i][g] * k(x, sv_i)` into head g's partial sum, SV-ascending, so each
 * head's sum runs in the order of a sweep for that head alone. Point p's
 * value of head g lands in `out[(p - row_begin) * stride + columns[g]]`.
 */
template <typename T>
struct head_block {
    /// `num_sv x num_heads` SV weights, row-major: the weights of SV i for
    /// every head are contiguous
    const T *alpha{ nullptr };
    std::size_t num_heads{ 1 };
    const std::size_t *columns{ nullptr };  ///< output column of each head
    const T *bias{ nullptr };               ///< bias per output column
    std::size_t stride{ 1 };                ///< output row stride: the model's head count
};

/**
 * @brief Blocked linear decision values: `out[(p - row_begin) * k + h] =
 *        <w_h, x_p> + bias[h]` for rows [@p row_begin, @p row_end) of
 *        @p points and the k rows `w_h` of @p w.
 *
 * The linear kernel needs no SV sweep at serve time (each head's normal
 * vector is collapsed once at compile time), so the batch shape is a GEMM
 * `X * W^T`: each contiguous AoS query row is dotted against the
 * L1-resident rows of `W`. Uses the same `kernels::dot` as the reference
 * path for bit-identical results.
 *
 * @param w collapsed normal vectors, one row per head
 */
template <typename T>
void linear_decision_values(const aos_matrix<T> &w, const T *bias,
                            const aos_matrix<T> &points, std::size_t row_begin, std::size_t row_end,
                            T *out);

/**
 * @brief Blocked non-linear decision values for rows [@p row_begin, @p row_end)
 *        of @p points against the padded SoA support-vector panel @p sv.
 *
 * Core accumulation is the register-tiled inner-product GEMM described in the
 * file header; the epilogue applies the kernel function once per (point, SV)
 * pair and adds it, weighted, into every head of @p heads.
 *
 * @param sv padded feature-major support vectors
 * @param sv_sq_norms cached `||sv_i||^2` (`sv.num_rows()` entries); required
 *        for the RBF kernel (distance core `||sv||^2 + ||x||^2 - 2<sv, x>`),
 *        ignored (may be nullptr) for the inner-product kernels
 */
template <typename T>
void kernel_decision_values(const soa_matrix<T> &sv, const T *sv_sq_norms,
                            const kernel_params<T> &kp, const head_block<T> &heads,
                            const aos_matrix<T> &points, std::size_t row_begin, std::size_t row_end,
                            T *out);

/**
 * @brief Sparse linear decision values: `out[(p - row_begin) * k + h] =
 *        <w_h, x_p> + bias[h]` for CSR rows [@p row_begin, @p row_end) of
 *        @p points.
 *
 * Head h takes the O(nnz_row + nnz_w) merge-join against row h of
 * @p w_sparse (both sides sorted by column index — the LIBSVM-style sparse
 * dot) when @p w_sparse has rows and row h stores at most a quarter of the
 * features; otherwise it gathers the row's entries from the dense row `w_h`.
 * Both skip only exact-zero products, so the result is bit-identical to the
 * dense `kernels::dot` sweep over the densified row.
 *
 * @param w collapsed normal vectors, one row per head
 * @param w_sparse the non-zero entries of each row of @p w, or an empty
 *        matrix (every head gathers)
 */
template <typename T>
void sparse_linear_decision_values(const aos_matrix<T> &w, const csr_matrix<T> &w_sparse, const T *bias,
                                   const csr_matrix<T> &points, std::size_t row_begin, std::size_t row_end,
                                   T *out);

/**
 * @brief Sparse non-linear decision values for CSR query rows
 *        [@p row_begin, @p row_end) against the CSR support-vector panel
 *        @p sv: one merge-join row-pair core per (point, SV) pair.
 *
 * Point-tiled like the dense kernels: the whole CSR SV panel is streamed once
 * per `sparse_point_tile` queries instead of once per query. The RBF core is
 * the cached-norm form `||sv||^2 + ||x||^2 - 2<sv, x>` with `||x||^2` summed
 * over the stored query entries (exact: dropped entries are zero).
 *
 * @param sv support vectors in CSR form (row = one SV, column-ascending)
 * @param sv_sq_norms cached `||sv_i||^2`; required for RBF, may be nullptr
 *        for the inner-product kernels
 */
template <typename T>
void sparse_kernel_decision_values(const csr_matrix<T> &sv, const T *sv_sq_norms,
                                   const kernel_params<T> &kp, const head_block<T> &heads,
                                   const csr_matrix<T> &points, std::size_t row_begin, std::size_t row_end,
                                   T *out);

/**
 * @brief Sparse non-linear decision values for *dense* query rows
 *        [@p row_begin, @p row_end) against the transposed (feature-major)
 *        CSR support-vector panel @p sv_csc.
 *
 * The sparse analogue of the SoA sweep: for each feature `f`, only the
 * support vectors actually storing `f` receive an accumulator update, so the
 * core accumulation is O(sv_nnz) per point tile instead of O(num_sv * dim).
 * The `sparse_point_tile x num_sv` accumulator block stays cache-resident
 * across the feature sweep, and the panel is streamed once per point tile.
 *
 * @param sv_csc transposed SV panel: row `f` lists the (sv index, value)
 *        pairs of feature `f` (`csr_matrix::transposed()` of the SV CSR)
 * @param num_sv number of support vectors (columns of @p sv_csc)
 */
template <typename T>
void dense_sparse_kernel_decision_values(const csr_matrix<T> &sv_csc, std::size_t num_sv, const T *sv_sq_norms,
                                         const kernel_params<T> &kp, const head_block<T> &heads,
                                         const aos_matrix<T> &points, std::size_t row_begin, std::size_t row_end,
                                         T *out);

// ISA-multi-versioned explicit specializations (defined in batch_kernels.cpp)
template <>
void kernel_decision_values<float>(const soa_matrix<float> &, const float *, const kernel_params<float> &, const head_block<float> &,
                                   const aos_matrix<float> &, std::size_t, std::size_t, float *);
template <>
void kernel_decision_values<double>(const soa_matrix<double> &, const double *, const kernel_params<double> &, const head_block<double> &,
                                    const aos_matrix<double> &, std::size_t, std::size_t, double *);

}  // namespace batch

}  // namespace plssvm::serve

#endif  // PLSSVM_SERVE_BATCH_KERNELS_HPP_
