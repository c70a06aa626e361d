/**
 * @file
 * @brief A prediction-optimized, immutable view of a trained `model`.
 *
 * `plssvm::decision_values` historically rebuilt all per-model prediction
 * state (the collapsed linear normal vector `w`, the resolved kernel
 * parameters) on *every* call, which is fine for one-shot evaluation but
 * disastrous for serving: a per-point predict loop pays O(#SV * #features)
 * setup per point. `compiled_model` performs that work exactly once:
 *
 *  - linear kernel: the support vectors and weights are collapsed into the
 *    normal vector `w`, turning each prediction into a single dot product;
 *  - rbf kernel: the squared norms ||sv_i||^2 are cached so the distance
 *    core can be computed as ||sv||^2 + ||x||^2 - 2<sv, x>, i.e. via the
 *    same vectorizable inner-product sweep as the other kernels;
 *  - all non-linear kernels: the support vectors are copied into a padded
 *    feature-major (SoA) layout so the per-feature accumulation sweep is a
 *    contiguous, vectorizable AXPY over all support vectors at once.
 *
 * Very sparse models (text/categorical workloads — the dominant libsvm use
 * case) additionally compile the support-vector panel itself into a *sparse*
 * form: when the SV density falls below `compile_options::
 * sparse_density_threshold`, the SVs are stored as CSR plus a transposed
 * (feature-major) CSR variant, and the batch sweeps switch to the O(nnz)
 * sparse kernels of `serve/batch_kernels` (CSR-query x CSR-SV merge-join
 * row pairs, dense-query x transposed-CSR accumulation) instead of
 * re-streaming mostly-zero dense panels. The dense SoA copy is kept
 * alongside so the per-point reference sweep stays available as the parity
 * baseline; `choose_path` decides per batch, by the stored-entry density,
 * which execution runs (`predict_path::host_sparse`).
 *
 * The batch entry point is deliberately split into a serial range method
 * (`decision_values_into`) and a parallel convenience wrapper so that the
 * serving layer can do its own work partitioning on a thread pool without
 * fighting nested parallelism.
 *
 * Batch evaluation has three executions of the same math (see
 * `serve::predict_path`): the blocked host kernels of `serve/batch_kernels`
 * (`decision_values_into`, the default), the per-point scalar sweep
 * (`decision_values_reference_into`, parity baseline and tiny batches), and
 * the sparse O(nnz) sweeps (`decision_values_sparse_into`). `choose_path`
 * picks between them per batch from its shape.
 */

#ifndef PLSSVM_SERVE_COMPILED_MODEL_HPP_
#define PLSSVM_SERVE_COMPILED_MODEL_HPP_

#include "plssvm/core/kernel_functions.hpp"
#include "plssvm/core/matrix.hpp"
#include "plssvm/core/model.hpp"
#include "plssvm/core/sparse_matrix.hpp"
#include "plssvm/exceptions.hpp"
#include "plssvm/serve/batch_kernels.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace plssvm::serve {

/// Padding multiple of the SoA support-vector copy; cache-line friendly, and
/// keeps the inner simd loop free of remainder handling.
inline constexpr std::size_t compiled_model_row_padding = 64;

/// Knobs of the model compile step (overridable per engine via
/// `engine_config::compile`).
struct compile_options {
    /// SV-panel density (nnz / (num_sv * dim)) strictly below which the
    /// sparse compiled form is built in addition to the dense state. A
    /// density exactly at the threshold compiles dense. 0 disables the
    /// sparse form entirely; any value > 1 forces it for every model.
    double sparse_density_threshold{ 0.25 };
};

template <typename T>
class compiled_model {
  public:
    using real_type = T;

    compiled_model() = default;

    /// Precompute all prediction state from @p trained (the model itself is
    /// not referenced afterwards). @p opts controls whether the support-vector
    /// panel is additionally compiled into the sparse (CSR + transposed CSR)
    /// form.
    explicit compiled_model(const model<T> &trained, const compile_options opts = {}) :
        options_{ opts },
        params_{ trained.params().kernel, trained.params().degree, trained.effective_gamma(), static_cast<T>(trained.params().coef0) },
        bias_{ trained.bias() },
        positive_label_{ trained.positive_label() },
        negative_label_{ trained.negative_label() },
        dim_{ trained.num_features() },
        num_sv_{ trained.num_support_vectors() } {
        const aos_matrix<T> &sv = trained.support_vectors();
        const std::vector<T> &alpha = trained.alpha();

        // density detection is one pass over the panel, charged once per
        // compile (i.e. per reload), never on the serving path
        sv_nnz_ = 0;
        for (const T &v : sv.data()) {
            sv_nnz_ += v != T{ 0 } ? 1 : 0;
        }
        const std::size_t cells = num_sv_ * dim_;
        sv_density_ = cells == 0 ? 1.0 : static_cast<double>(sv_nnz_) / static_cast<double>(cells);
        sparse_sv_ = cells > 0 && sv_density_ < opts.sparse_density_threshold;

        if (params_.kernel == kernel_type::linear) {
            // collapse SVs and weights into the normal vector once
            w_.assign(dim_, T{ 0 });
            for (std::size_t i = 0; i < num_sv_; ++i) {
                const T a = alpha[i];
                const T *row = sv.row_data(i);
                #pragma omp simd
                for (std::size_t k = 0; k < dim_; ++k) {
                    w_[k] += a * row[k];
                }
            }
            if (sparse_sv_) {
                // sparse form of w for the CSR-query merge-join: only the
                // features any SV touches can be non-zero
                for (std::size_t k = 0; k < dim_; ++k) {
                    if (w_[k] != T{ 0 }) {
                        w_sparse_.push_back(typename csr_matrix<T>::entry{ static_cast<std::uint32_t>(k), w_[k] });
                    }
                }
            }
        } else {
            alpha_ = alpha;
            sv_soa_ = transform_to_soa(sv, compiled_model_row_padding);
            if (params_.kernel == kernel_type::rbf) {
                sv_sq_norms_.resize(num_sv_);
                for (std::size_t i = 0; i < num_sv_; ++i) {
                    const T *row = sv.row_data(i);
                    sv_sq_norms_[i] = kernels::dot(row, row, dim_);
                }
            }
            if (sparse_sv_) {
                sv_csr_ = csr_matrix<T>{ sv };
                sv_csc_ = sv_csr_.transposed();
            }
        }
    }

    [[nodiscard]] const kernel_params<T> &params() const noexcept { return params_; }
    [[nodiscard]] const compile_options &options() const noexcept { return options_; }
    /// Whether the sparse compiled form (CSR + transposed CSR SV panel, or
    /// the sparse `w` for linear models) is active.
    [[nodiscard]] bool sparse_sv() const noexcept { return sparse_sv_; }
    /// SV-panel density detected at compile time (1.0 for an empty model).
    [[nodiscard]] double sv_density() const noexcept { return sv_density_; }
    /// Stored (non-zero) SV-panel entries detected at compile time.
    [[nodiscard]] std::size_t sv_nnz() const noexcept { return sv_nnz_; }
    [[nodiscard]] T bias() const noexcept { return bias_; }
    [[nodiscard]] T positive_label() const noexcept { return positive_label_; }
    [[nodiscard]] T negative_label() const noexcept { return negative_label_; }
    [[nodiscard]] std::size_t num_features() const noexcept { return dim_; }
    [[nodiscard]] std::size_t num_support_vectors() const noexcept { return num_sv_; }
    [[nodiscard]] bool empty() const noexcept { return dim_ == 0; }

    /// Map a decision value to the original label domain.
    [[nodiscard]] T label_from_decision(const T decision) const noexcept {
        return decision > T{ 0 } ? positive_label_ : negative_label_;
    }

    /// @throws plssvm::invalid_data_exception if @p num_point_features
    ///         differs from @p num_model_features
    static void validate_feature_count(const std::size_t num_model_features, const std::size_t num_point_features) {
        if (num_point_features != num_model_features) {
            throw invalid_data_exception{ "The data has " + std::to_string(num_point_features) + " features but the model was trained with " + std::to_string(num_model_features) + "!" };
        }
    }

    /// @throws plssvm::invalid_data_exception if the feature count differs
    ///         from the training feature count
    void validate_features(const std::size_t num_point_features) const {
        validate_feature_count(dim_, num_point_features);
    }

    /// Decision value of a single feature vector @p x (`num_features()` entries).
    [[nodiscard]] T decision_value(const T *x) const {
        // thread-local scratch: the single-point hot path must not pay a
        // heap allocation per request (resize only ever grows the capacity)
        static thread_local std::vector<T> acc;
        acc.resize(accumulator_size());
        return decide_one(x, acc);
    }

    /**
     * @brief Serial batch kernel: decision values of rows [@p row_begin, @p row_end)
     *        of @p points into `out[0 .. row_end - row_begin)`, evaluated by
     *        the register/cache-tiled kernels of `serve/batch_kernels`.
     *
     * Serial on purpose: callers (the inference engine, the OpenMP wrapper
     * below) own the parallel decomposition.
     */
    void decision_values_into(const aos_matrix<T> &points, const std::size_t row_begin, const std::size_t row_end, T *out) const {
        validate_features(points.num_cols());
        if (params_.kernel == kernel_type::linear) {
            batch::linear_decision_values(w_.data(), bias_, dim_, points, row_begin, row_end, out);
        } else {
            batch::kernel_decision_values(sv_soa_, alpha_.data(), sv_sq_norms_.empty() ? nullptr : sv_sq_norms_.data(),
                                          params_, bias_, points, row_begin, row_end, out);
        }
    }

    /**
     * @brief Serial *sparse* batch kernel over dense query rows: the
     *        feature-major O(nnz) sweep against the transposed CSR SV panel
     *        (`batch::dense_sparse_kernel_decision_values`).
     *
     * Only meaningful when the sparse compiled form is active and the kernel
     * is non-linear; otherwise this falls through to the dense execution
     * (linear prediction never touches the SV panel at serve time, and a
     * dense-form model has no CSR panel to sweep). Keeping the call total
     * lets the engines route `predict_path::host_sparse` unconditionally.
     */
    void decision_values_sparse_into(const aos_matrix<T> &points, const std::size_t row_begin, const std::size_t row_end, T *out) const {
        validate_features(points.num_cols());
        if (!sparse_sv_ || params_.kernel == kernel_type::linear) {
            decision_values_into(points, row_begin, row_end, out);
            return;
        }
        batch::dense_sparse_kernel_decision_values(sv_csc_, num_sv_, alpha_.data(),
                                                   sv_sq_norms_.empty() ? nullptr : sv_sq_norms_.data(),
                                                   params_, bias_, points, row_begin, row_end, out);
    }

    /**
     * @brief Per-point scalar sweep over the same range: the parity baseline
     *        of the blocked kernels, and the execution path of tiny batches
     *        (below `min_blocked_batch`).
     */
    void decision_values_reference_into(const aos_matrix<T> &points, const std::size_t row_begin, const std::size_t row_end, T *out) const {
        validate_features(points.num_cols());
        // one accumulator reused across the whole range -> no per-point allocation
        std::vector<T> acc(accumulator_size());
        for (std::size_t p = row_begin; p < row_end; ++p) {
            out[p - row_begin] = decide_one(points.row_data(p), acc);
        }
    }

    /// Parallel batch evaluation of all rows of @p points (blocked kernels;
    /// the sparse feature-major sweep when the sparse compiled form is active).
    [[nodiscard]] std::vector<T> decision_values(const aos_matrix<T> &points) const {
        return parallel_decision_values(points);
    }

    /**
     * @brief Serial sparse batch kernel over CSR query rows.
     *
     * Linear kernel fast path: each decision value is a sparse dot against
     * the cached normal vector `w` — an O(nnz_row) gather against dense `w`,
     * or the O(nnz_row + nnz_w) merge-join against the sparse `w` when the
     * sparse compiled form is active AND `w` itself is mostly empty (the
     * merge streams compact entries instead of gathering into a large,
     * mostly-cold dense array; against a dense-ish `w` the gather is
     * strictly cheaper). Both skip only exact-zero products, so results are
     * bit-identical to the dense sweep.
     *
     * Non-linear kernels with the sparse compiled form run the true
     * CSR-query x CSR-SV row-pair sweep (`batch::sparse_kernel_decision_values`,
     * point-tiled so the panel streams once per tile); dense-form models
     * densify tiles of rows into a scratch batch and run the blocked dense
     * kernels.
     */
    void decision_values_into(const csr_matrix<T> &points, const std::size_t row_begin, const std::size_t row_end, T *out) const {
        validate_features(points.num_cols());
        if (params_.kernel == kernel_type::linear) {
            if (sparse_sv_ && w_sparse_.size() * 4 <= dim_) {
                batch::sparse_linear_decision_values(w_sparse_.data(), w_sparse_.size(), bias_, points, row_begin, row_end, out);
                return;
            }
            const T *w = w_.data();
            for (std::size_t p = row_begin; p < row_end; ++p) {
                T sum{ 0 };
                const auto *end = points.row_end(p);
                for (const auto *e = points.row_begin(p); e != end; ++e) {
                    sum += e->value * w[e->index];
                }
                out[p - row_begin] = sum + bias_;
            }
            return;
        }
        if (sparse_sv_) {
            batch::sparse_kernel_decision_values(sv_csr_, alpha_.data(),
                                                 sv_sq_norms_.empty() ? nullptr : sv_sq_norms_.data(),
                                                 params_, bias_, points, row_begin, row_end, out);
            return;
        }
        decision_values_densified_into(points, row_begin, row_end, out);
    }

    /**
     * @brief Densify-tiles execution of CSR query rows: scatter fixed-size
     *        row tiles into dense scratch and run the blocked dense kernels.
     *
     * The CSR execution of dense-form models, and of sparse-form batches
     * `choose_path` routes to the dense tiles (too dense for the merge-join
     * to win). Scratch stays O(tile x dim) regardless of the batch size, so
     * wide-feature models never materialize the whole batch densely.
     */
    void decision_values_densified_into(const csr_matrix<T> &points, const std::size_t row_begin, const std::size_t row_end, T *out) const {
        validate_features(points.num_cols());
        constexpr std::size_t tile = 64;
        aos_matrix<T> dense{ std::min(tile, row_end - row_begin), dim_ };
        for (std::size_t p0 = row_begin; p0 < row_end; p0 += tile) {
            const std::size_t rows = std::min(tile, row_end - p0);
            std::fill(dense.data().begin(), dense.data().end(), T{ 0 });
            for (std::size_t p = 0; p < rows; ++p) {
                T *row = dense.row_data(p);
                const auto *end = points.row_end(p0 + p);
                for (const auto *e = points.row_begin(p0 + p); e != end; ++e) {
                    row[e->index] = e->value;
                }
            }
            decision_values_into(dense, 0, rows, out + (p0 - row_begin));
        }
    }

    /// Parallel sparse batch evaluation of all rows of @p points.
    [[nodiscard]] std::vector<T> decision_values(const csr_matrix<T> &points) const {
        return parallel_decision_values(points);
    }

    /// Predicted labels in the model's original label domain.
    [[nodiscard]] std::vector<T> predict_labels(const aos_matrix<T> &points) const {
        std::vector<T> values = decision_values(points);
        for (T &v : values) {
            v = label_from_decision(v);
        }
        return values;
    }

  private:
    /// Shared body of the dense/sparse parallel wrappers: contiguous blocks
    /// keep each OpenMP thread inside the (tiled or CSR) serial range kernel.
    /// The block size is derived from the host's thread count (with a floor
    /// of a few point tiles) so large batches use every core while tiles
    /// stay full.
    template <typename Matrix>
    [[nodiscard]] std::vector<T> parallel_decision_values(const Matrix &points) const {
        validate_features(points.num_cols());
        const std::size_t num_points = points.num_rows();
        std::vector<T> values(num_points);
        constexpr std::size_t min_block = 4 * batch_point_tile;
        const std::size_t target_blocks = 4 * std::max<std::size_t>(1, std::thread::hardware_concurrency());
        std::size_t block = std::max(min_block, (num_points + target_blocks - 1) / target_blocks);
        block = (block + batch_point_tile - 1) / batch_point_tile * batch_point_tile;
        const std::size_t num_blocks = (num_points + block - 1) / block;
        #pragma omp parallel for schedule(static)
        for (std::size_t b = 0; b < num_blocks; ++b) {
            const std::size_t begin = b * block;
            const std::size_t end = std::min(begin + block, num_points);
            serial_into(points, begin, end, values.data() + begin);
        }
        return values;
    }

    /// Serial range kernel of the parallel wrappers: dense query batches
    /// against a sparse-compiled model take the sparse feature-major sweep,
    /// everything else the canonical `decision_values_into` overload.
    void serial_into(const aos_matrix<T> &points, const std::size_t begin, const std::size_t end, T *out) const {
        if (sparse_sv_ && params_.kernel != kernel_type::linear) {
            decision_values_sparse_into(points, begin, end, out);
        } else {
            decision_values_into(points, begin, end, out);
        }
    }

    void serial_into(const csr_matrix<T> &points, const std::size_t begin, const std::size_t end, T *out) const {
        decision_values_into(points, begin, end, out);
    }

    /// Scratch entries `decide_one` needs (0 for linear: no accumulator sweep).
    [[nodiscard]] std::size_t accumulator_size() const noexcept {
        return params_.kernel == kernel_type::linear ? 0 : sv_soa_.padded_rows();
    }

    /// f(x) for one point; @p acc must hold `accumulator_size()` entries.
    [[nodiscard]] T decide_one(const T *x, std::vector<T> &acc) const {
        if (params_.kernel == kernel_type::linear) {
            return kernels::dot(w_.data(), x, dim_) + bias_;
        }

        // feature-major sweep: acc[i] accumulates <sv_i, x> for ALL support
        // vectors simultaneously over contiguous SoA columns
        const std::size_t padded = sv_soa_.padded_rows();
        std::fill(acc.begin(), acc.end(), T{ 0 });
        T *acc_data = acc.data();
        for (std::size_t f = 0; f < dim_; ++f) {
            const T xf = x[f];
            const T *column = sv_soa_.feature_data(f);
            #pragma omp simd
            for (std::size_t i = 0; i < padded; ++i) {
                acc_data[i] += xf * column[i];
            }
        }

        T sum{ 0 };
        if (params_.kernel == kernel_type::rbf) {
            // ||sv - x||^2 = ||sv||^2 + ||x||^2 - 2 <sv, x>, clamped against
            // tiny negative rounding residue so exp(-gamma * core) <= 1
            const T x_sq = kernels::dot(x, x, dim_);
            for (std::size_t i = 0; i < num_sv_; ++i) {
                const T core = std::max(sv_sq_norms_[i] + x_sq - T{ 2 } * acc_data[i], T{ 0 });
                sum += alpha_[i] * kernels::finish(params_, core);
            }
        } else {
            for (std::size_t i = 0; i < num_sv_; ++i) {
                sum += alpha_[i] * kernels::finish(params_, acc_data[i]);
            }
        }
        return sum + bias_;
    }

    compile_options options_{};
    kernel_params<T> params_{};
    T bias_{ 0 };
    T positive_label_{ 1 };
    T negative_label_{ -1 };
    std::size_t dim_{ 0 };
    std::size_t num_sv_{ 0 };
    bool sparse_sv_{ false };     ///< sparse compiled form active
    double sv_density_{ 1.0 };    ///< SV-panel density detected at compile time
    std::size_t sv_nnz_{ 0 };     ///< stored SV-panel entries
    std::vector<T> alpha_;        ///< SV weights (non-linear kernels only)
    std::vector<T> w_;            ///< collapsed normal vector (linear kernel only)
    std::vector<typename csr_matrix<T>::entry> w_sparse_;  ///< non-zeros of w (linear sparse form only)
    soa_matrix<T> sv_soa_;        ///< padded feature-major SV copy (non-linear kernels only)
    csr_matrix<T> sv_csr_;        ///< CSR SV panel (non-linear sparse form only)
    csr_matrix<T> sv_csc_;        ///< transposed CSR SV panel (non-linear sparse form only)
    std::vector<T> sv_sq_norms_;  ///< cached ||sv_i||^2 (rbf kernel only)
};

}  // namespace plssvm::serve

#endif  // PLSSVM_SERVE_COMPILED_MODEL_HPP_
