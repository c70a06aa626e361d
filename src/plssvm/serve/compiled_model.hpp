/**
 * @file
 * @brief A prediction-optimized, immutable view of a trained `model` or of a
 *        one-vs-all ensemble of them.
 *
 * `plssvm::decision_values` historically rebuilt all per-model prediction
 * state (the collapsed linear normal vector `w`, the resolved kernel
 * parameters) on *every* call, which is fine for one-shot evaluation but
 * disastrous for serving: a per-point predict loop pays O(#SV * #features)
 * setup per point. `compiled_model` performs that work exactly once.
 *
 * A compiled model has k heads and every evaluation writes k decision values
 * per point (row-major, one row per point). A binary model is the k = 1
 * case. A one-vs-all ensemble has one head per class, each oriented toward
 * its class: the binary trainer may have mapped the rest side to +1, so a
 * head with a negative `positive_label` has its weights and bias negated at
 * compile time (negation is exact). The ensemble's label is the argmax over
 * its heads, first class on ties — exactly `ext::one_vs_all::predict`.
 *
 * In an LS-SVM every training point is a support vector, so the heads of an
 * ensemble trained by `ext::one_vs_all::fit` share one support-vector panel
 * object. The compile stores each distinct panel object once, records which
 * heads sum over it, and makes one pass over it:
 *
 *  - linear kernel: the pass collapses every head into its row of the
 *    k x d normal-vector matrix `W`, turning each prediction into one dot
 *    product per head;
 *  - non-linear kernels: the pass caches the rbf squared norms
 *    ||sv_i||^2, so the distance core can be computed as
 *    ||sv||^2 + ||x||^2 - 2<sv, x>; the panel is copied once into a padded
 *    feature-major (SoA) layout, so the per-feature accumulation sweep is a
 *    contiguous, vectorizable AXPY over all support vectors at once; and the
 *    panel's heads get one num_sv x k_panel weight matrix. Every execution
 *    evaluates each (point, SV) kernel entry once and adds it into the
 *    columns of the heads that sum over that SV.
 *
 * Per head, every sum runs over the same rows in the same order as a compile
 * of that head alone, so each head's value is exactly what its own binary
 * compile gives (times its orientation). Heads over distinct panels cost what
 * separate compiles cost; no head multiplies another head's kernel values.
 *
 * The linear collapse (and its stored-entry count) runs in ranges of
 * features: each range sums its columns of `W` over the SVs in ascending
 * order, in register tiles chosen from the head count, so `W` is bitwise the
 * same however the features are split. A compile given a `compile_runner`
 * runs a large collapse's ranges through it — the inference engine passes
 * one over its executor lane, so a model load fans out like a batch — and a
 * standalone compile (`plssvm::decision_values`, `one_vs_all::predict`) runs
 * them on the calling thread. The non-linear passes (norms, SoA copy) are
 * serial.
 *
 * Very sparse models (text/categorical workloads — the dominant libsvm use
 * case) additionally compile the stored panels into a *sparse* form: when
 * the density of the stored panels falls below `compile_options::
 * sparse_density_threshold`, each stored panel is also kept as CSR plus a
 * transposed (feature-major) CSR variant, and the batch sweeps switch to the
 * O(nnz) sparse kernels of `serve/batch_kernels` (CSR-query x CSR-SV
 * merge-join row pairs, dense-query x transposed-CSR accumulation) instead of
 * re-streaming mostly-zero dense panels. Each stored panel keeps its one
 * dense SoA copy next to its sparse form, so the per-point reference sweep
 * stays available as the parity baseline; `choose_path` decides per batch,
 * by the stored-entry density, which execution runs
 * (`predict_path::host_sparse`).
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
#include "plssvm/ext/multiclass.hpp"
#include "plssvm/serve/batch_kernels.hpp"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
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
    /// Density (nnz / (num_sv * dim)) of the stored SV panels strictly
    /// below which the sparse compiled form is built in addition to the
    /// dense state. A density exactly at the threshold compiles dense. 0
    /// disables the sparse form entirely; any value > 1 forces it for every
    /// model.
    double sparse_density_threshold{ 0.25 };
};

/**
 * @brief How a compile runs its independent ranges: `run(n, range)` calls
 *        `range(r)` once for every r < n, possibly on other threads, and
 *        returns once every call returned, rethrowing the first error.
 *
 * `width` is how many ranges it runs at once. The default has no `run`: the
 * compile runs on the calling thread alone. The inference engine passes a
 * runner over its executor lane (`serve/inference_engine.hpp`).
 */
struct compile_runner {
    std::size_t width{ 1 };
    std::function<void(std::size_t, const std::function<void(std::size_t)> &)> run{};
};

/// Multiply-adds (support vectors x heads x features over the stored panels)
/// from which a linear collapse splits into ranges for a `compile_runner`:
/// the smallest measured row at which four ranges on an idle four-worker
/// executor beat the serial compile, 6 heads x 256 SVs x 256 features (4-vCPU
/// x86-64 host, 0.3 ms between compiles, two runs: 0.88-0.91 of the serial
/// time, against 1.05-1.61 at 192 SVs). A fan-out costs the calling thread
/// its enqueues and the workers their start-up: an idle worker started a task
/// 24-51 us after its enqueue (p50). One head over 64 features gains less,
/// its ranges being 16 features wide: 4096 SVs (262,144) read 1.13-1.19 and
/// stay serial.
inline constexpr std::size_t min_fan_out_collapse = std::size_t{ 6 } * 256 * 256;

template <typename T>
class compiled_model {
  public:
    using real_type = T;

    compiled_model() = default;

    /// Precompute all prediction state of the binary model @p trained (one
    /// head; the model itself is not referenced afterwards). @p opts
    /// controls whether the support-vector panel is additionally compiled
    /// into the sparse (CSR + transposed CSR) form; @p runner may run a large
    /// linear collapse in feature ranges (the result is bitwise the same).
    explicit compiled_model(const model<T> &trained, const compile_options opts = {}, const compile_runner &runner = {}) :
        compiled_model{ opts, std::vector<const model<T> *>{ &trained }, false, runner } {
        positive_label_ = trained.positive_label();
        negative_label_ = trained.negative_label();
    }

    /// Precompute the prediction state of the one-vs-all @p ensemble: one
    /// head per class, oriented toward its class, each distinct SV panel
    /// stored once.
    /// @throws plssvm::invalid_data_exception if the ensemble is empty, its
    ///         label and head counts differ, or its heads differ in kernel
    ///         parameters or feature count
    explicit compiled_model(const ext::multiclass_model<T> &ensemble, const compile_options opts = {}, const compile_runner &runner = {}) :
        compiled_model{ opts, ensemble_heads(ensemble), true, runner } {
        class_labels_ = ensemble.class_labels();
    }

    [[nodiscard]] const kernel_params<T> &params() const noexcept { return params_; }
    [[nodiscard]] const compile_options &options() const noexcept { return options_; }
    /// Whether the sparse compiled form (CSR + transposed CSR of every stored
    /// panel, or the sparse rows of `W` for linear models) is active.
    [[nodiscard]] bool sparse_sv() const noexcept { return sparse_sv_; }
    /// Density of the stored SV panels detected at compile time (1.0 for an
    /// empty model).
    [[nodiscard]] double sv_density() const noexcept { return sv_density_; }
    /// Stored (non-zero) entries of the stored SV panels.
    [[nodiscard]] std::size_t sv_nnz() const noexcept { return sv_nnz_; }
    /// Decision values per point: 1 for a binary model, one per class for an
    /// ensemble (0 for an empty model).
    [[nodiscard]] std::size_t num_heads() const noexcept { return biases_.size(); }
    /// Whether this is a one-vs-all ensemble (rather than a binary model).
    [[nodiscard]] bool ensemble() const noexcept { return !class_labels_.empty(); }
    /// The ensemble's class labels in head order (empty for a binary model).
    [[nodiscard]] const std::vector<T> &class_labels() const noexcept { return class_labels_; }
    /// Bias of head @p head (oriented toward its class for an ensemble).
    [[nodiscard]] T bias(const std::size_t head = 0) const noexcept { return biases_[head]; }
    [[nodiscard]] T positive_label() const noexcept { return positive_label_; }
    [[nodiscard]] T negative_label() const noexcept { return negative_label_; }
    [[nodiscard]] std::size_t num_features() const noexcept { return dim_; }
    /// Stored support vectors: the rows of each distinct panel, counted once.
    [[nodiscard]] std::size_t num_support_vectors() const noexcept { return num_sv_; }
    [[nodiscard]] bool empty() const noexcept { return dim_ == 0; }
    /// The collapsed normal vectors `W`, one row per head (linear kernel
    /// only; empty otherwise).
    [[nodiscard]] const aos_matrix<T> &normal_vectors() const noexcept { return w_; }
    /// The non-zeros of each row of `W` (the sparse form of a linear model
    /// only; empty otherwise).
    [[nodiscard]] const csr_matrix<T> &sparse_normal_vectors() const noexcept { return w_sparse_; }

    /// Bytes of compiled prediction state: `W` and its sparse rows, or the
    /// SoA copies, weight matrices, norms and sparse forms of the stored
    /// panels.
    [[nodiscard]] std::size_t compiled_bytes() const noexcept {
        std::size_t bytes = (w_.data().size() + biases_.size()) * sizeof(T) + csr_bytes(w_sparse_);
        for (const panel &pn : panels_) {
            bytes += (pn.soa.data().size() + pn.alpha.size() + pn.sq_norms.size()) * sizeof(T)
                     + pn.heads.size() * sizeof(std::size_t) + csr_bytes(pn.csr) + csr_bytes(pn.csc);
        }
        return bytes;
    }

    /// Map a binary model's decision value to the original label domain.
    [[nodiscard]] T label_from_decision(const T decision) const noexcept {
        return decision > T{ 0 } ? positive_label_ : negative_label_;
    }

    /// The label of one point from its `num_heads()` decision values:
    /// `label_from_decision` for a binary model, the argmax over the heads
    /// for an ensemble (first class on ties).
    [[nodiscard]] T label(const T *values) const noexcept {
        if (!ensemble()) {
            return label_from_decision(values[0]);
        }
        T best = -std::numeric_limits<T>::infinity();
        T best_label = class_labels_.front();
        for (std::size_t h = 0; h < class_labels_.size(); ++h) {
            if (values[h] > best) {
                best = values[h];
                best_label = class_labels_[h];
            }
        }
        return best_label;
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

    /// Decision value of a single feature vector @p x (`num_features()`
    /// entries) of a binary model (head 0 of an ensemble).
    [[nodiscard]] T decision_value(const T *x) const {
        // thread-local scratch: the single-point hot path must not pay a
        // heap allocation per request (resize only ever grows the capacity)
        static thread_local std::vector<T> scratch;
        scratch.resize(accumulator_size() + num_heads());
        T *values = scratch.data() + accumulator_size();
        decide_one(x, scratch.data(), values);
        return values[0];
    }

    /**
     * @brief Serial batch kernel: the decision values of rows
     *        [@p row_begin, @p row_end) of @p points into
     *        `out[0 .. (row_end - row_begin) * num_heads())`, row-major,
     *        evaluated by the register/cache-tiled kernels of
     *        `serve/batch_kernels`.
     *
     * Serial on purpose: callers (the inference engine, the OpenMP wrapper
     * below) own the parallel decomposition.
     */
    void decision_values_into(const aos_matrix<T> &points, const std::size_t row_begin, const std::size_t row_end, T *out) const {
        validate_features(points.num_cols());
        if (params_.kernel == kernel_type::linear) {
            batch::linear_decision_values(w_, biases_.data(), points, row_begin, row_end, out);
            return;
        }
        for (const panel &pn : panels_) {
            batch::kernel_decision_values(pn.soa, norms_of(pn), params_, heads_of(pn), points, row_begin, row_end, out);
        }
    }

    /**
     * @brief Serial *sparse* batch kernel over dense query rows: the
     *        feature-major O(nnz) sweep against the transposed CSR form of
     *        each stored panel (`batch::dense_sparse_kernel_decision_values`).
     *
     * Only meaningful when the sparse compiled form is active and the kernel
     * is non-linear; otherwise this falls through to the dense execution
     * (linear prediction never touches the SV panel at serve time, and a
     * dense-form model has no CSR panel to sweep). Keeping the call total
     * lets the engine route `predict_path::host_sparse` unconditionally.
     */
    void decision_values_sparse_into(const aos_matrix<T> &points, const std::size_t row_begin, const std::size_t row_end, T *out) const {
        validate_features(points.num_cols());
        if (!sparse_sv_ || params_.kernel == kernel_type::linear) {
            decision_values_into(points, row_begin, row_end, out);
            return;
        }
        for (const panel &pn : panels_) {
            batch::dense_sparse_kernel_decision_values(pn.csc, pn.num_sv, norms_of(pn), params_, heads_of(pn), points, row_begin, row_end, out);
        }
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
            decide_one(points.row_data(p), acc.data(), out + (p - row_begin) * num_heads());
        }
    }

    /// Parallel batch evaluation of all rows of @p points (blocked kernels;
    /// the sparse feature-major sweep when the sparse compiled form is
    /// active): `num_rows() * num_heads()` values, row-major.
    [[nodiscard]] std::vector<T> decision_values(const aos_matrix<T> &points) const {
        return parallel_decision_values(points);
    }

    /**
     * @brief Serial sparse batch kernel over CSR query rows.
     *
     * Linear kernel fast path: each decision value is a sparse dot against
     * the head's row of `W` — an O(nnz_row) gather against the dense row,
     * or the O(nnz_row + nnz_w) merge-join against the row's stored entries
     * when the sparse compiled form is active AND the row itself is mostly
     * empty (the merge streams compact entries instead of gathering into a
     * large, mostly-cold dense array; against a dense-ish row the gather is
     * strictly cheaper). Both skip only exact-zero products, so results are
     * bit-identical to the dense sweep.
     *
     * Non-linear kernels with the sparse compiled form run the true
     * CSR-query x CSR-SV row-pair sweep (`batch::sparse_kernel_decision_values`,
     * point-tiled so each panel streams once per tile); dense-form models
     * densify tiles of rows into a scratch batch and run the blocked dense
     * kernels.
     */
    void decision_values_into(const csr_matrix<T> &points, const std::size_t row_begin, const std::size_t row_end, T *out) const {
        validate_features(points.num_cols());
        if (params_.kernel == kernel_type::linear) {
            batch::sparse_linear_decision_values(w_, w_sparse_, biases_.data(), points, row_begin, row_end, out);
            return;
        }
        if (sparse_sv_) {
            for (const panel &pn : panels_) {
                batch::sparse_kernel_decision_values(pn.csr, norms_of(pn), params_, heads_of(pn), points, row_begin, row_end, out);
            }
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
            decision_values_into(dense, 0, rows, out + (p0 - row_begin) * num_heads());
        }
    }

    /// Parallel sparse batch evaluation of all rows of @p points.
    [[nodiscard]] std::vector<T> decision_values(const csr_matrix<T> &points) const {
        return parallel_decision_values(points);
    }

    /// Predicted labels (see `label`): the model's original label domain
    /// for a binary model, the class labels for an ensemble.
    [[nodiscard]] std::vector<T> predict_labels(const aos_matrix<T> &points) const {
        const std::vector<T> values = decision_values(points);
        std::vector<T> labels(points.num_rows());
        for (std::size_t p = 0; p < labels.size(); ++p) {
            labels[p] = label(values.data() + p * num_heads());
        }
        return labels;
    }

  private:
    /// Linear collapse tiles: a tile of at most `collapse_head_tile` heads of
    /// `W` sums a block of `collapse_sv_block` SVs in registers; the block's
    /// rows stay in L1 while every head tile passes over them.
    static constexpr std::size_t collapse_head_tile = 6;
    static constexpr std::size_t collapse_sv_block = 32;

    /// One stored SV panel and the heads that sum over it.
    struct panel {
        std::size_t num_sv{ 0 };
        std::vector<std::size_t> heads;  ///< output column of each head over this panel
        std::vector<T> alpha;            ///< num_sv x heads.size() weights, row-major, oriented (non-linear kernels only)
        soa_matrix<T> soa;               ///< padded feature-major copy (non-linear kernels only)
        std::vector<T> sq_norms;         ///< cached ||sv_i||^2 (rbf kernel only)
        csr_matrix<T> csr;               ///< CSR form (non-linear sparse form only)
        csr_matrix<T> csc;               ///< transposed CSR form (non-linear sparse form only)
    };

    /// The heads of @p ensemble after its shape checks.
    [[nodiscard]] static std::vector<const model<T> *> ensemble_heads(const ext::multiclass_model<T> &ensemble) {
        const std::vector<model<T>> &heads = ensemble.binary_models();
        if (ensemble.class_labels().empty() || heads.empty()) {
            throw invalid_data_exception{ "The multi-class model is empty!" };
        }
        if (heads.size() != ensemble.class_labels().size()) {
            throw invalid_data_exception{ "The multi-class model has " + std::to_string(ensemble.class_labels().size()) + " class labels but " + std::to_string(heads.size()) + " binary heads!" };
        }
        std::vector<const model<T> *> pointers;
        for (const model<T> &head : heads) {
            pointers.push_back(&head);
        }
        return pointers;
    }

    [[nodiscard]] static std::size_t csr_bytes(const csr_matrix<T> &m) noexcept {
        return m.num_nonzeros() * sizeof(typename csr_matrix<T>::entry) + (m.num_rows() + 1) * sizeof(std::size_t);
    }

    /// Compile the @p heads; with @p orient, each head of a one-vs-all
    /// ensemble is oriented toward "its" class (negated when its binary
    /// trainer mapped the rest side to +1). A linear collapse large enough
    /// runs its feature ranges through @p runner.
    compiled_model(const compile_options opts, const std::vector<const model<T> *> &heads, const bool orient, const compile_runner &runner) :
        options_{ opts } {
        const model<T> &front = *heads.front();
        params_ = kernel_params<T>{ front.params().kernel, front.params().degree, front.effective_gamma(), static_cast<T>(front.params().coef0) };
        dim_ = front.num_features();
        const bool linear = params_.kernel == kernel_type::linear;
        const bool rbf = params_.kernel == kernel_type::rbf;

        // each head is oriented and assigned to the stored panel it sums over
        std::vector<T> orientation;
        std::vector<const aos_matrix<T> *> sources;
        for (std::size_t h = 0; h < heads.size(); ++h) {
            const model<T> &head = *heads[h];
            if (head.num_features() != dim_ || head.params().kernel != params_.kernel || head.params().degree != params_.degree
                || head.effective_gamma() != params_.gamma || static_cast<T>(head.params().coef0) != params_.coef0) {
                throw invalid_data_exception{ "The heads of a multi-class model must share their kernel parameters and feature count!" };
            }
            orientation.push_back(!orient || head.positive_label() > T{ 0 } ? T{ 1 } : T{ -1 });
            biases_.push_back(orientation[h] * head.bias());
            std::size_t s = 0;
            while (s < sources.size() && sources[s] != &head.support_vectors()) {
                ++s;
            }
            if (s == sources.size()) {
                sources.push_back(&head.support_vectors());
                panels_.emplace_back();
            }
            panels_[s].heads.push_back(h);
        }

        // one pass over each stored panel: the oriented weights of its heads
        // (num_sv x heads of the panel), then either the linear collapse into
        // W or the stored-entry count, the rbf squared norms and the SoA copy
        std::vector<std::vector<T>> weights(panels_.size());
        for (std::size_t s = 0; s < panels_.size(); ++s) {
            panel &pn = panels_[s];
            pn.num_sv = sources[s]->num_rows();
            num_sv_ += pn.num_sv;
            const std::size_t kp = pn.heads.size();
            weights[s].resize(pn.num_sv * kp);
            for (std::size_t g = 0; g < kp; ++g) {
                const std::size_t h = pn.heads[g];
                for (std::size_t i = 0; i < pn.num_sv; ++i) {
                    weights[s][i * kp + g] = orientation[h] * heads[h]->alpha()[i];
                }
            }
        }
        if (linear) {
            collapse_linear(sources, weights, runner);
        } else {
            for (std::size_t s = 0; s < panels_.size(); ++s) {
                panel &pn = panels_[s];
                const aos_matrix<T> &sv = *sources[s];
                pn.alpha = std::move(weights[s]);
                if (rbf) {
                    pn.sq_norms.resize(pn.num_sv);
                }
                for (std::size_t i = 0; i < pn.num_sv; ++i) {
                    const T *row = sv.row_data(i);
                    sv_nnz_ += count_stored(row, row + dim_);
                    if (rbf) {
                        pn.sq_norms[i] = kernels::dot(row, row, dim_);
                    }
                }
                pn.soa = transform_to_soa(sv, compiled_model_row_padding);
            }
        }

        const std::size_t cells = num_sv_ * dim_;
        sv_density_ = cells == 0 ? 1.0 : static_cast<double>(sv_nnz_) / static_cast<double>(cells);
        sparse_sv_ = cells > 0 && sv_density_ < opts.sparse_density_threshold;
        if (!sparse_sv_) {
            return;
        }
        if (linear) {
            // sparse rows of W for the CSR-query merge-join: only the
            // features any SV touches can be non-zero
            w_sparse_ = csr_matrix<T>{ w_ };
            return;
        }
        for (std::size_t s = 0; s < panels_.size(); ++s) {
            panels_[s].csr = csr_matrix<T>{ *sources[s] };
            panels_[s].csc = panels_[s].csr.transposed();
        }
    }

    /// Stored (non-zero) entries of [@p first, @p last).
    [[nodiscard]] static std::size_t count_stored(const T *first, const T *last) noexcept {
        return static_cast<std::size_t>(std::count_if(first, last, [](const T v) { return v != T{ 0 }; }));
    }

    /**
     * @brief Collapse every linear head into its row of `W` and count the
     *        stored entries of the panels, one range of features at a time.
     *
     * Each range owns its columns of `W` and adds the SVs of each panel in
     * ascending order, each entry starting from zero: the order a compile of
     * one head alone adds in, so `W` is bitwise the same however the
     * features are split. A collapse of at least `min_fan_out_collapse`
     * multiply-adds splits into up to `runner.width` ranges of whole cache
     * lines and runs them through @p runner; each such range sums into its
     * own tile of `W`'s columns and stores it once at the end, so no two
     * threads write one cache line while they sum. Any other collapse runs
     * as one range on the calling thread, straight into `W`. @p weights
     * holds each panel's oriented weights (num_sv x heads of the panel).
     */
    void collapse_linear(const std::vector<const aos_matrix<T> *> &sources, const std::vector<std::vector<T>> &weights, const compile_runner &runner) {
        w_ = aos_matrix<T>{ num_heads(), dim_ };
        std::size_t work = 0;
        for (const panel &pn : panels_) {
            work += pn.num_sv * pn.heads.size() * dim_;
        }
        constexpr std::size_t line = 64 / sizeof(T);  // entries of one cache line
        std::size_t width = dim_;                     // features per range
        if (runner.run && runner.width > 1 && work >= min_fan_out_collapse) {
            const std::size_t lines = (dim_ + line - 1) / line;
            width = (lines + runner.width - 1) / runner.width * line;
        }
        const std::size_t num_ranges = width == 0 ? 0 : (dim_ + width - 1) / width;
        std::vector<std::size_t> stored(num_ranges, 0);
        const auto range = [&](const std::size_t r) {
            const std::size_t begin = r * width;
            const std::size_t columns = std::min(dim_, begin + width) - begin;
            std::vector<T> tile;
            T *dest = w_.data().data() + begin;
            std::size_t stride = dim_;
            if (num_ranges > 1) {
                tile.resize(num_heads() * columns);
                dest = tile.data();
                stride = columns;
            }
            std::size_t count = 0;
            for (std::size_t s = 0; s < panels_.size(); ++s) {
                count += collapse_range(*sources[s], panels_[s], weights[s].data(), begin, columns, dest, stride);
            }
            if (num_ranges > 1) {
                for (std::size_t h = 0; h < num_heads(); ++h) {
                    std::copy(tile.begin() + static_cast<std::ptrdiff_t>(h * columns), tile.begin() + static_cast<std::ptrdiff_t>((h + 1) * columns), w_.row_data(h) + begin);
                }
            }
            stored[r] = count;
        };
        if (num_ranges > 1) {
            runner.run(num_ranges, range);
        } else if (num_ranges == 1) {
            range(0);
        }
        for (const std::size_t count : stored) {
            sv_nnz_ += count;
        }
    }

    /// SVs [i0, i1) of one panel, the heads a tile sums them into, and where
    /// their sums go: head h's entry of column c (counted from the range's
    /// first feature) is `dest[h * stride + c]`.
    struct collapse_block {
        const aos_matrix<T> *sv;
        const T *weights;           ///< the tile's first weight column
        std::size_t weight_stride;  ///< weights per SV: the heads of the panel
        const std::size_t *heads;   ///< the tile's heads
        std::size_t i0;
        std::size_t i1;
        T *dest;
        std::size_t stride;
    };

    /**
     * @brief One range of `collapse_linear` over one panel @p pn: add its SVs
     *        @p sv, weighted by @p weights, into the @p columns features from
     *        @p begin of its heads' sums (`collapse_block::dest`), in
     *        ascending SV order; returns the panel's stored entries there.
     *
     * The heads split into tiles of near-equal size, at most
     * `collapse_head_tile` each. A tile of H heads sums a block of
     * `collapse_sv_block` SVs into H x F entries held in registers, so each
     * SV entry loaded feeds every head of the tile; the tile is chosen from
     * H so that it holds 16-24 independent sums, since a narrower one chains
     * each add on the one before.
     */
    std::size_t collapse_range(const aos_matrix<T> &sv, const panel &pn, const T *weights, const std::size_t begin, const std::size_t columns,
                               T *dest, const std::size_t stride) {
        const std::size_t kp = pn.heads.size();
        const std::size_t num_tiles = (kp + collapse_head_tile - 1) / collapse_head_tile;
        std::size_t stored = 0;
        for (std::size_t i0 = 0; i0 < pn.num_sv; i0 += collapse_sv_block) {
            const std::size_t i1 = std::min(pn.num_sv, i0 + collapse_sv_block);
            for (std::size_t i = i0; i < i1; ++i) {
                stored += count_stored(sv.row_data(i) + begin, sv.row_data(i) + begin + columns);
            }
            for (std::size_t t = 0, g = 0; t < num_tiles; ++t) {
                const std::size_t heads = kp / num_tiles + (t < kp % num_tiles ? 1 : 0);
                const collapse_block block{ &sv, weights + g, kp, pn.heads.data() + g, i0, i1, dest, stride };
                switch (heads) {
                    case 1:
                        collapse_heads<1, 16>(block, begin, columns);
                        break;
                    case 2:
                        collapse_heads<2, 8>(block, begin, columns);
                        break;
                    case 3:
                        collapse_heads<3, 8>(block, begin, columns);
                        break;
                    case 4:
                        collapse_heads<4, 4>(block, begin, columns);
                        break;
                    case 5:
                        collapse_heads<5, 4>(block, begin, columns);
                        break;
                    default:
                        collapse_heads<collapse_head_tile, 4>(block, begin, columns);
                        break;
                }
                g += heads;
            }
        }
        return stored;
    }

    /// Add @p block into @p columns features from @p begin of H heads' sums:
    /// H x F register tiles, then H x 1 tiles for the last columns.
    template <std::size_t H, std::size_t F>
    static void collapse_heads(const collapse_block &block, const std::size_t begin, const std::size_t columns) {
        T *sums[H];
        for (std::size_t h = 0; h < H; ++h) {
            sums[h] = block.dest + block.heads[h] * block.stride;
        }
        std::size_t c = 0;
        for (; c + F <= columns; c += F) {
            collapse_tile<H, F>(block, sums, begin + c, c);
        }
        for (; c < columns; ++c) {
            collapse_tile<H, 1>(block, sums, begin + c, c);
        }
    }

    /// Column @p c of H heads' @p sums (feature @p f, F entries each) plus
    /// the SVs of @p block, summed in registers in ascending SV order.
    template <std::size_t H, std::size_t F>
    static void collapse_tile(const collapse_block &block, T *const *sums, const std::size_t f, const std::size_t c) {
        T acc[H][F];
        for (std::size_t h = 0; h < H; ++h) {
            for (std::size_t j = 0; j < F; ++j) {
                acc[h][j] = sums[h][c + j];
            }
        }
        for (std::size_t i = block.i0; i < block.i1; ++i) {
            const T *x = block.sv->row_data(i) + f;
            const T *a = block.weights + i * block.weight_stride;
            for (std::size_t h = 0; h < H; ++h) {
                #pragma omp simd
                for (std::size_t j = 0; j < F; ++j) {
                    acc[h][j] += a[h] * x[j];
                }
            }
        }
        for (std::size_t h = 0; h < H; ++h) {
            for (std::size_t j = 0; j < F; ++j) {
                sums[h][c + j] = acc[h][j];
            }
        }
    }

    /// Shared body of the dense/sparse parallel wrappers: contiguous blocks
    /// keep each OpenMP thread inside the (tiled or CSR) serial range kernel.
    /// The block size is derived from the host's thread count (with a floor
    /// of a few point tiles) so large batches use every core while tiles
    /// stay full.
    template <typename Matrix>
    [[nodiscard]] std::vector<T> parallel_decision_values(const Matrix &points) const {
        validate_features(points.num_cols());
        const std::size_t num_points = points.num_rows();
        std::vector<T> values(num_points * num_heads());
        constexpr std::size_t min_block = 4 * batch_point_tile;
        const std::size_t target_blocks = 4 * std::max<std::size_t>(1, std::thread::hardware_concurrency());
        std::size_t block = std::max(min_block, (num_points + target_blocks - 1) / target_blocks);
        block = (block + batch_point_tile - 1) / batch_point_tile * batch_point_tile;
        const std::size_t num_blocks = (num_points + block - 1) / block;
        #pragma omp parallel for schedule(static)
        for (std::size_t b = 0; b < num_blocks; ++b) {
            const std::size_t begin = b * block;
            const std::size_t end = std::min(begin + block, num_points);
            serial_into(points, begin, end, values.data() + begin * num_heads());
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

    /// The heads one sweep of @p pn feeds.
    [[nodiscard]] batch::head_block<T> heads_of(const panel &pn) const noexcept {
        return batch::head_block<T>{ pn.alpha.data(), pn.heads.size(), pn.heads.data(), biases_.data(), num_heads() };
    }

    [[nodiscard]] static const T *norms_of(const panel &pn) noexcept {
        return pn.sq_norms.empty() ? nullptr : pn.sq_norms.data();
    }

    /// Scratch entries `decide_one` needs (0 for linear: no accumulator sweep).
    [[nodiscard]] std::size_t accumulator_size() const noexcept {
        std::size_t size = 0;
        if (params_.kernel != kernel_type::linear) {
            for (const panel &pn : panels_) {
                size = std::max(size, pn.soa.padded_rows());
            }
        }
        return size;
    }

    /// The `num_heads()` decision values of one point @p x into @p out;
    /// @p acc must hold `accumulator_size()` entries.
    void decide_one(const T *x, T *acc, T *out) const {
        if (params_.kernel == kernel_type::linear) {
            for (std::size_t h = 0; h < num_heads(); ++h) {
                out[h] = kernels::dot(w_.row_data(h), x, dim_) + biases_[h];
            }
            return;
        }

        const bool rbf = params_.kernel == kernel_type::rbf;
        const T x_sq = rbf ? kernels::dot(x, x, dim_) : T{ 0 };
        for (const panel &pn : panels_) {
            // feature-major sweep: acc[i] accumulates <sv_i, x> for ALL support
            // vectors simultaneously over contiguous SoA columns
            const std::size_t padded = pn.soa.padded_rows();
            std::fill(acc, acc + padded, T{ 0 });
            for (std::size_t f = 0; f < dim_; ++f) {
                const T xf = x[f];
                const T *column = pn.soa.feature_data(f);
                #pragma omp simd
                for (std::size_t i = 0; i < padded; ++i) {
                    acc[i] += xf * column[i];
                }
            }
            // one kernel evaluation per SV, in place
            for (std::size_t i = 0; i < pn.num_sv; ++i) {
                // ||sv - x||^2 = ||sv||^2 + ||x||^2 - 2 <sv, x>, clamped against
                // tiny negative rounding residue so exp(-gamma * core) <= 1
                acc[i] = kernels::finish(params_, rbf ? std::max(pn.sq_norms[i] + x_sq - T{ 2 } * acc[i], T{ 0 }) : acc[i]);
            }
            const std::size_t kp = pn.heads.size();
            for (std::size_t g = 0; g < kp; ++g) {
                T sum{ 0 };
                for (std::size_t i = 0; i < pn.num_sv; ++i) {
                    sum += pn.alpha[i * kp + g] * acc[i];
                }
                out[pn.heads[g]] = sum + biases_[pn.heads[g]];
            }
        }
    }

    compile_options options_{};
    kernel_params<T> params_{};
    std::vector<T> biases_;        ///< one per head, oriented
    std::vector<T> class_labels_;  ///< ensemble label domain in head order; empty for a binary model
    T positive_label_{ 1 };
    T negative_label_{ -1 };
    std::size_t dim_{ 0 };
    std::size_t num_sv_{ 0 };      ///< stored SV rows over all panels
    bool sparse_sv_{ false };      ///< sparse compiled form active
    double sv_density_{ 1.0 };     ///< density of the stored panels detected at compile time
    std::size_t sv_nnz_{ 0 };      ///< stored entries of the stored panels
    aos_matrix<T> w_;              ///< collapsed normal vectors, one row per head (linear kernel only)
    csr_matrix<T> w_sparse_;       ///< non-zeros of each row of `w_` (linear sparse form only)
    std::vector<panel> panels_;    ///< the distinct SV panels and their heads
};

}  // namespace plssvm::serve

#endif  // PLSSVM_SERVE_COMPILED_MODEL_HPP_
