/**
 * @file
 * @brief Specifications of the simulated accelerator devices.
 *
 * This repository reproduces a GPU paper on a machine without GPUs; the
 * device layer executes the real blocked kernels numerically while an
 * analytic cost model advances a simulated clock (see DESIGN.md §1).
 *
 * The registry below contains every GPU of the paper's Table I and §IV-A.
 * Peak FLOPS / bandwidth / memory are the public data-sheet numbers; the
 * per-device `fp64_efficiency` (the fraction of peak the paper's style of
 * implicit-matrix kernel achieves) is fitted once to Table I and
 * then reused unchanged for every other experiment — the validation is that
 * the *shapes* of Figures 1-4 follow without further tuning.
 */

#ifndef PLSSVM_SIM_DEVICE_SPEC_HPP_
#define PLSSVM_SIM_DEVICE_SPEC_HPP_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace plssvm::sim {

/// GPU vendor; influences which backends are available (CUDA is NVIDIA-only).
enum class vendor_type {
    nvidia,
    amd,
    intel,
};

/// Static description of one accelerator.
struct device_spec {
    std::string name;
    vendor_type vendor{ vendor_type::nvidia };
    /// Peak double-precision throughput in TFLOPS.
    double fp64_peak_tflops{ 1.0 };
    /// Global memory bandwidth in GB/s.
    double mem_bandwidth_gbs{ 100.0 };
    /// Global memory capacity in GiB.
    double mem_capacity_gib{ 8.0 };
    /// NVIDIA compute capability (major.minor as e.g. 7.0); 0 for non-NVIDIA.
    double compute_capability{ 0.0 };
    /// Calibrated fraction of FP64 peak the implicit-matrix kernel achieves.
    double fp64_efficiency{ 0.35 };
    /// Effective host<->device transfer bandwidth in GB/s (PCIe).
    double pcie_bandwidth_gbs{ 12.0 };

    [[nodiscard]] double peak_flops() const noexcept { return fp64_peak_tflops * 1e12; }
    [[nodiscard]] double bandwidth_bytes_per_s() const noexcept { return mem_bandwidth_gbs * 1e9; }
    [[nodiscard]] std::size_t capacity_bytes() const noexcept {
        return static_cast<std::size_t>(mem_capacity_gib * 1024.0 * 1024.0 * 1024.0);
    }
};

/// All devices of the paper's evaluation, plus lookup by name.
namespace devices {

[[nodiscard]] device_spec nvidia_a100();
[[nodiscard]] device_spec nvidia_v100();
[[nodiscard]] device_spec nvidia_p100();
[[nodiscard]] device_spec nvidia_gtx_1080_ti();
[[nodiscard]] device_spec nvidia_rtx_3080();
[[nodiscard]] device_spec amd_radeon_vii();
[[nodiscard]] device_spec intel_uhd_p630();

/// Every registered device (Table I order).
[[nodiscard]] const std::vector<device_spec> &all();

/// @throws plssvm::invalid_parameter_exception for unknown names.
[[nodiscard]] device_spec by_name(std::string_view name);

}  // namespace devices

}  // namespace plssvm::sim

#endif  // PLSSVM_SIM_DEVICE_SPEC_HPP_
