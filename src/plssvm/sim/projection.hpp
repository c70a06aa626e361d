/**
 * @file
 * @brief Paper-scale analytic training-time projection.
 *
 * The paper's largest experiments (e.g. 2^15 points x 2^12 features, Table I
 * / Figs. 1c-4b) perform ~10^14 FLOPs per run — far beyond what this
 * single-core host can execute functionally. The library therefore offers a
 * projection facility that walks the *identical* launch sequence the device
 * backend would issue (data upload, one q kernel, per-CG-iteration direction
 * upload + svm kernel + result download per device) and sums the same
 * `cost_model` times a real run would accumulate. Benches run functionally
 * at reduced scale and use this projection for paper-scale rows; both paths
 * share every cost formula, so they agree by construction where they overlap
 * (enforced by tests).
 *
 * CG iteration counts are an input: the paper reports them directly (e.g. 26
 * iterations at 2^15 x 2^10) and they are nearly size-independent (§IV-C),
 * so benches pass counts measured functionally at reduced scale.
 */

#ifndef PLSSVM_SIM_PROJECTION_HPP_
#define PLSSVM_SIM_PROJECTION_HPP_

#include "plssvm/core/kernel_types.hpp"
#include "plssvm/sim/cost_model.hpp"
#include "plssvm/sim/device_spec.hpp"
#include "plssvm/sim/runtime_profile.hpp"

#include <cstddef>

namespace plssvm::sim {

/// Problem description for a projected PLSSVM training run.
struct projection_params {
    std::size_t num_points{ 0 };
    std::size_t num_features{ 0 };
    kernel_type kernel{ kernel_type::linear };
    std::size_t cg_iterations{ 25 };
    std::size_t num_devices{ 1 };
    std::size_t real_bytes{ sizeof(double) };
    block_config blocking{};
};

/// Projected component times (simulated device seconds).
struct projection_result {
    double init_seconds{ 0.0 };
    double h2d_seconds{ 0.0 };
    double q_kernel_seconds{ 0.0 };
    double cg_seconds{ 0.0 };  ///< per-iteration transfers + svm kernel, summed
    double total_seconds{ 0.0 };
    double per_device_memory_bytes{ 0.0 };
    double svm_kernel_flops{ 0.0 };  ///< total flops of the implicit matvec kernel
};

/**
 * @brief Project a PLSSVM training run on @p spec via @p runtime.
 *
 * Walks the same launch sequence as `device_csvm::solve_lssvm` for one label
 * column (a binary fit); devices work concurrently, so multi-device time is
 * the per-device maximum (the feature split is balanced, making all devices
 * equal). It charges one sweep per CG iteration and none for the initial
 * guess: CG starts from zero, whose residual needs no sweep. A k-column
 * solve (a one-vs-all ensemble) pays the upload and the q kernel once and
 * one sweep per iteration for every column still iterating.
 */
[[nodiscard]] projection_result project_plssvm_training(const device_spec &spec,
                                                        backend_runtime runtime,
                                                        const projection_params &params);

/// ThunderSVM-style baseline projection inputs.
struct thunder_projection_params {
    std::size_t num_points{ 0 };
    std::size_t num_features{ 0 };
    kernel_type kernel{ kernel_type::linear };
    /// Total SMO steps; each issues 2 reduction + 1 update + 1 gradient launch
    /// (benches fit this from functional measurements; it grows ~quadratically
    /// in the number of points, unlike the near-constant CG counts).
    std::size_t total_steps{ 10000 };
    /// Distinct kernel rows computed on the device (~ number of SVs touched).
    std::size_t distinct_rows{ 1000 };
    std::size_t real_bytes{ sizeof(double) };
    /// Fraction of FP64 peak ThunderSVM's kernels achieve (paper: 2.4 %).
    double kernel_efficiency{ 0.024 };
};

/**
 * @brief Project a ThunderSVM-style training run (single device; ThunderSVM
 *        is CUDA-only and single-GPU, paper §IV-H).
 */
[[nodiscard]] projection_result project_thunder_training(const device_spec &spec,
                                                         const thunder_projection_params &params);

}  // namespace plssvm::sim

#endif  // PLSSVM_SIM_PROJECTION_HPP_
