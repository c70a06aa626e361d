/**
 * @file
 * @brief Analytic cost model of the simulated device layer.
 *
 * Every kernel launch carries a `kernel_cost` describing the work it
 * performs: floating point operations and the global-memory traffic after the
 * shared-memory blocking of §III-C has been applied. The simulated execution
 * time follows the roofline model
 *
 *     t = launch_overhead + max(flops / achieved_flops, bytes / bandwidth)
 *
 * with achieved_flops = peak * device_efficiency * backend_efficiency.
 *
 * The cost formulas for the library's own kernels live here as free functions
 * so the *functional* launch sites and the *analytic* paper-scale projections
 * (used where a 2^15 x 2^12 problem cannot be executed numerically on this
 * host) are guaranteed to charge identical costs.
 *
 * The model covers the simulated devices of training only. Serving runs on
 * the host and models nothing: it routes batches by their shape
 * (`serve::choose_path`) and estimates them from the batches it measured.
 */

#ifndef PLSSVM_SIM_COST_MODEL_HPP_
#define PLSSVM_SIM_COST_MODEL_HPP_

#include "plssvm/core/kernel_types.hpp"
#include "plssvm/sim/device_spec.hpp"
#include "plssvm/sim/runtime_profile.hpp"

#include <cstddef>

namespace plssvm::sim {

/// Work performed by one kernel launch.
struct kernel_cost {
    double flops{ 0.0 };
    double global_bytes{ 0.0 };

    kernel_cost &operator+=(const kernel_cost &other) noexcept {
        flops += other.flops;
        global_bytes += other.global_bytes;
        return *this;
    }
};

/// Blocking configuration of the device kernels (§III-C-1/3/4). Both sizes
/// are compile-time-tunable in real PLSSVM; here they are runtime knobs so
/// the ablation bench can sweep them.
struct block_config {
    /// Threads per block dimension (thread block = block_size x block_size).
    std::size_t block_size{ 16 };
    /// Sub-tile edge each thread computes in registers (thread-level caching).
    std::size_t internal_size{ 4 };
    /// Whether only the upper triangular blocks are computed and mirrored.
    bool triangular{ true };
    /// Whether the q vector is precomputed (3 kernel evals per entry -> 1).
    bool cache_q{ true };

    /// Points covered per block edge.
    [[nodiscard]] std::size_t tile() const noexcept { return block_size * internal_size; }
};

/// Simulated seconds for one launch of a kernel with cost @p cost.
[[nodiscard]] double roofline_seconds(const device_spec &spec, const runtime_profile &profile, const kernel_cost &cost);

/// Simulated seconds for a host<->device copy of @p bytes.
[[nodiscard]] double transfer_seconds(const device_spec &spec, const runtime_profile &profile, double bytes);

// --- cost formulas of the library's device kernels -------------------------

/**
 * @brief Cost of `device_kernel_q`: q_i = k(x_i, x_m) for the n = m-1 reduced
 *        rows (kernel evaluation = 2d flops; reads the full feature slice).
 */
[[nodiscard]] kernel_cost q_kernel_cost(std::size_t n, std::size_t dim, kernel_type kernel, std::size_t real_bytes);

/**
 * @brief Cost of the implicit matrix-vector kernel `device_kernel_svm`.
 *
 * With triangular blocking only ~half of the n^2 pairwise kernel evaluations
 * are computed (2d flops each, plus the epilogue); block-level caching means
 * each tile of points is loaded from global memory once per opposing block.
 *
 * @param n system size (m - 1, padded internally to full tiles)
 * @param dim features on this device (feature split divides this, §III-C-5)
 * @param kernel kernel function (changes the epilogue flops only)
 * @param cfg blocking configuration
 * @param real_bytes sizeof(float) or sizeof(double)
 */
[[nodiscard]] kernel_cost svm_kernel_cost(std::size_t n, std::size_t dim, kernel_type kernel, const block_config &cfg, std::size_t real_bytes);

/// Cost of the BLAS-1 style vector kernels inside CG (axpy/dot/etc.).
[[nodiscard]] kernel_cost vector_kernel_cost(std::size_t n, std::size_t real_bytes);

/// Cost of the w-vector / prediction kernels (linear prediction path).
[[nodiscard]] kernel_cost predict_kernel_cost(std::size_t num_predict, std::size_t num_sv, std::size_t dim, kernel_type kernel, std::size_t real_bytes);

}  // namespace plssvm::sim

#endif  // PLSSVM_SIM_COST_MODEL_HPP_
