/**
 * @file
 * @brief Routing of prediction batches across the host execution paths by
 *        their shape.
 *
 * The serving layer has three ways to evaluate a batch (see `predict_path`):
 * the per-point scalar reference sweep, the register/cache-tiled host batch
 * kernels, and the sparse O(nnz) sweeps. Which one wins depends on the batch
 * shape alone: below a handful of points the blocked kernels cannot fill a
 * register tile and the reference sweep is just as fast, and the sparse
 * sweeps only pay off when the entries they walk are mostly zeros.
 *
 * `choose_path` makes that call per batch from two fixed rules, with no
 * host model, file or per-machine tuning: a batch size floor
 * (`min_blocked_batch`), and one stored-entry density threshold per sparse
 * form, read off the crossovers that `bench_serve_throughput`'s sparsity
 * sweep (experiment 4) measures.
 */

#ifndef PLSSVM_SERVE_PREDICT_DISPATCHER_HPP_
#define PLSSVM_SERVE_PREDICT_DISPATCHER_HPP_

#include "plssvm/core/kernel_types.hpp"
#include "plssvm/serve/serve_stats.hpp"

#include <cstddef>

namespace plssvm::serve {

/// Batches smaller than this always take the per-point reference path (a
/// register tile cannot be filled, so blocking buys nothing).
inline constexpr std::size_t min_blocked_batch = 8;

/// Density thresholds of the sparse sweeps: a batch whose stored-entry
/// density (see `sparse_density`) is below its form's threshold runs
/// sparse. Each sits between the densities where experiment 4 measures the
/// sparse sweep winning and losing against the blocked kernels.
/// Dense queries x sparse SV panel, by SV-panel density (against fully
/// populated queries the sweep wins at 0.01, runs level at 0.05 and loses
/// at 0.1).
inline constexpr double sparse_threshold_dense_queries = 0.075;
/// CSR queries x sparse SV panel, by the mean of the query and SV-panel
/// densities (the merge-join wins at 0.001 and loses at 0.01).
inline constexpr double sparse_threshold_csr_queries = 0.005;
/// CSR queries x linear `w`, by query density (the O(nnz) gather wins at
/// 0.25 and no longer beats the dense dot product at 0.5).
inline constexpr double sparse_threshold_linear = 0.4;

/**
 * @brief Shape of one prediction batch, including the sparsity information
 *        the density rule needs.
 *
 * `sv_nnz == 0` means the served model has no sparse compiled form (the
 * sparse SV sweeps are unavailable); `sparse_query` marks CSR query batches
 * with `query_nnz` total stored entries (`query_nnz` is ignored for dense
 * batches).
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

/// Stored-entry density of the operands the sparse sweep of @p shape walks:
/// the query density for linear CSR batches (the sweep never touches the SV
/// panel), the SV-panel density for dense queries, and the mean of both for
/// CSR queries (the merge-join advances through both rows of every pair).
[[nodiscard]] double sparse_density(const predict_shape &shape) noexcept;

/**
 * @brief Pick the execution path of one batch among the paths @p allowed
 *        permits.
 *
 * A batch below `min_blocked_batch` points takes the reference path.
 * Otherwise the sparse sweep runs when it is offered (non-linear kernels:
 * the model compiled the sparse form of its SV panels, `sv_nnz > 0`;
 * linear kernel: CSR queries), its breaker allows it, and `sparse_density`
 * is below the form's threshold; otherwise the blocked kernels run. A path
 * whose circuit breaker is open (masked out of @p allowed) never runs:
 * dispatch demotes host_blocked -> host_sparse (when offered) -> reference
 * as breakers trip.
 * `reference` is the unconditional last resort, regardless of the mask's
 * reference bit.
 */
[[nodiscard]] predict_path choose_path(const predict_shape &shape, const fault::path_mask &allowed = fault::path_mask::all()) noexcept;

}  // namespace plssvm::serve

#endif  // PLSSVM_SERVE_PREDICT_DISPATCHER_HPP_
