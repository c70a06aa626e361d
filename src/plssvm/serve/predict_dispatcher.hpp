/**
 * @file
 * @brief Cost-model-driven routing of prediction batches across the host
 *        execution paths.
 *
 * The serving layer has three ways to evaluate a batch (see `predict_path`):
 * the per-point scalar reference sweep, the register/cache-tiled host batch
 * kernels, and the sparse O(nnz) sweeps. Which one wins depends on the batch
 * shape: below a handful of points the blocked kernels cannot fill a
 * register tile and the reference sweep is just as fast, and the sparse
 * sweeps only pay off when queries or the SV panel are mostly zeros.
 *
 * `predict_dispatcher` makes that call per batch from `sim::cost_model` host
 * rooflines (`serve_predict_cost`, `serve_sparse_predict_cost`), so the
 * choice moves correctly with batch size, #SV, feature count, sparsity, and
 * kernel type. Every parameter is injectable (`dispatch_params`) for tests
 * and for calibration against measured hardware.
 */

#ifndef PLSSVM_SERVE_PREDICT_DISPATCHER_HPP_
#define PLSSVM_SERVE_PREDICT_DISPATCHER_HPP_

#include "plssvm/core/kernel_types.hpp"
#include "plssvm/serve/serve_stats.hpp"
#include "plssvm/sim/cost_model.hpp"

#include <cstddef>

namespace plssvm::serve {

/// Injectable knobs of the dispatch decision.
struct dispatch_params {
    /// Batches smaller than this always take the per-point reference path
    /// (a register tile cannot be filled, so blocking buys nothing).
    std::size_t min_blocked_batch{ 8 };
    /// Host execution model of the blocked batch kernels.
    sim::host_profile host{};
    /// sizeof(real_type) of the served model; 0 means "auto" (the serving
    /// engines resolve it to their `sizeof(T)`, standalone dispatchers
    /// default to sizeof(double)).
    std::size_t real_bytes{ 0 };
    /// Replace a *default* host profile with measured numbers at engine
    /// start (`serve::calibrated_host_profile`): `BENCH_serve.json` if
    /// present, a one-time in-process micro-measurement otherwise.
    /// Explicitly injected host profiles are never overridden.
    bool calibrate_host{ true };
};

/**
 * @brief Shape of one prediction batch, including the sparsity information
 *        the nnz-aware cost terms need.
 *
 * `sv_nnz == 0` means the served model has no sparse compiled form (the
 * sparse SV sweeps are unavailable); `sparse_query` marks CSR query batches
 * with `query_nnz` total stored entries (`query_nnz` is ignored for dense
 * batches — the cost model substitutes `batch_size * dim`).
 */
struct predict_shape {
    std::size_t batch_size{ 0 };
    std::size_t num_sv{ 0 };
    std::size_t dim{ 0 };
    kernel_type kernel{ kernel_type::linear };
    std::size_t sv_nnz{ 0 };       ///< stored SV entries; 0 = no sparse compiled form
    bool sparse_query{ false };    ///< the query batch arrives as CSR
    std::size_t query_nnz{ 0 };    ///< stored query entries (CSR batches only)
};

class predict_dispatcher {
  public:
    predict_dispatcher() :
        predict_dispatcher{ dispatch_params{} } {}

    explicit predict_dispatcher(dispatch_params params) :
        params_{ params } {
        if (params_.real_bytes == 0) {
            params_.real_bytes = sizeof(double);
        }
    }

    [[nodiscard]] const dispatch_params &params() const noexcept { return params_; }

    /// Estimated host seconds for one blocked sweep over the batch.
    [[nodiscard]] double host_seconds(std::size_t batch_size, std::size_t num_sv, std::size_t dim, kernel_type kernel) const;

    /// Estimated host seconds for one sparse sweep over the batch
    /// (`sim::serve_sparse_predict_cost`: O(nnz) core, panel streamed once
    /// per point tile).
    [[nodiscard]] double host_sparse_seconds(const predict_shape &shape) const;

    /// Pick the execution path for one batch of the given shape (dense-model,
    /// dense-query convenience overload).
    [[nodiscard]] predict_path choose(std::size_t batch_size, std::size_t num_sv, std::size_t dim, kernel_type kernel) const;

    /// Estimated seconds of the path `choose(shape)` would pick — the
    /// cost-model per-batch latency estimate the deadline batch caps feed on
    /// (reference batches are approximated with the host roofline).
    [[nodiscard]] double estimated_seconds(const predict_shape &shape) const;

    /// Estimated seconds of @p shape along an *already-chosen* @p path —
    /// the attribution the observability plane records per batch, so the
    /// measured-vs-estimated comparison always charges the path the batch
    /// actually ran, even when a caller overrode the dispatch decision.
    [[nodiscard]] double estimated_seconds(const predict_shape &shape, predict_path path) const;

    /**
     * @brief Pick the execution path for one batch with full sparsity
     *        information.
     *
     * The sparse path competes when it exists for the shape: non-linear
     * kernels need the sparse compiled SV panel (`sv_nnz > 0`), the linear
     * kernel needs a CSR query batch (its dense path never touches the SV
     * panel, so SV sparsity is irrelevant there).
     */
    [[nodiscard]] predict_path choose(const predict_shape &shape) const;

    /**
     * @brief Pick the execution path among the paths @p allowed permits —
     *        the fallback-ladder overload the fault plane uses.
     *
     * Same cost comparison as `choose(shape)`, but a path whose circuit
     * breaker is open (masked out of @p allowed) never competes: dispatch
     * demotes host_blocked/host_sparse -> reference as breakers trip.
     * `reference` is the unconditional last resort — it is chosen
     * whenever every competitive path is masked (or the batch is too small
     * to block), regardless of the mask's reference bit. With a full mask
     * this reduces exactly to `choose(shape)`.
     */
    [[nodiscard]] predict_path choose(const predict_shape &shape, const fault::path_mask &allowed) const;

  private:
    dispatch_params params_{};
};

}  // namespace plssvm::serve

#endif  // PLSSVM_SERVE_PREDICT_DISPATCHER_HPP_
