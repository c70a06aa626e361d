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

template <typename T>
class compiled_model {
  public:
    using real_type = T;

    compiled_model() = default;

    /// Precompute all prediction state of the binary model @p trained (one
    /// head; the model itself is not referenced afterwards). @p opts
    /// controls whether the support-vector panel is additionally compiled
    /// into the sparse (CSR + transposed CSR) form.
    explicit compiled_model(const model<T> &trained, const compile_options opts = {}) :
        compiled_model{ opts, std::vector<const model<T> *>{ &trained }, false } {
        positive_label_ = trained.positive_label();
        negative_label_ = trained.negative_label();
    }

    /// Precompute the prediction state of the one-vs-all @p ensemble: one
    /// head per class, oriented toward its class, each distinct SV panel
    /// stored once.
    /// @throws plssvm::invalid_data_exception if the ensemble is empty, its
    ///         label and head counts differ, or its heads differ in kernel
    ///         parameters or feature count
    explicit compiled_model(const ext::multiclass_model<T> &ensemble, const compile_options opts = {}) :
        compiled_model{ opts, ensemble_heads(ensemble), true } {
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
    /// trainer mapped the rest side to +1).
    compiled_model(const compile_options opts, const std::vector<const model<T> *> &heads, const bool orient) :
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

        // one pass over each stored panel: count its stored entries, collapse
        // every linear head into its row of W (in the order a compile of that
        // head alone adds), cache the rbf squared norms
        if (linear) {
            w_ = aos_matrix<T>{ heads.size(), dim_ };
        }
        for (std::size_t s = 0; s < panels_.size(); ++s) {
            panel &pn = panels_[s];
            const aos_matrix<T> &sv = *sources[s];
            pn.num_sv = sv.num_rows();
            num_sv_ += pn.num_sv;
            const std::size_t kp = pn.heads.size();
            if (!linear) {
                pn.alpha.resize(pn.num_sv * kp);
                for (std::size_t g = 0; g < kp; ++g) {
                    const std::size_t h = pn.heads[g];
                    for (std::size_t i = 0; i < pn.num_sv; ++i) {
                        pn.alpha[i * kp + g] = orientation[h] * heads[h]->alpha()[i];
                    }
                }
            }
            if (rbf) {
                pn.sq_norms.resize(pn.num_sv);
            }
            std::size_t nnz = 0;
            for (std::size_t i = 0; i < pn.num_sv; ++i) {
                const T *row = sv.row_data(i);
                nnz += static_cast<std::size_t>(std::count_if(row, row + dim_, [](const T v) { return v != T{ 0 }; }));
                if (linear) {
                    for (std::size_t g = 0; g < kp; ++g) {
                        const std::size_t h = pn.heads[g];
                        const T a = orientation[h] * heads[h]->alpha()[i];
                        T *w = w_.row_data(h);
                        #pragma omp simd
                        for (std::size_t f = 0; f < dim_; ++f) {
                            w[f] += a * row[f];
                        }
                    }
                } else if (rbf) {
                    pn.sq_norms[i] = kernels::dot(row, row, dim_);
                }
            }
            sv_nnz_ += nnz;
            if (!linear) {
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
