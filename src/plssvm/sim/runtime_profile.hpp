/**
 * @file
 * @brief Per-backend runtime characteristics of the simulated devices.
 *
 * The paper runs the *same* kernels through CUDA, OpenCL, and SYCL and
 * observes backend-dependent slowdowns (Table I): OpenCL close to CUDA,
 * hipSYCL slightly slower on compute capability >= 7.0 but over 3x slower on
 * older NVIDIA GPUs ("indicating that PLSSVM uses a feature which hipSYCL
 * does not efficiently map to older NVIDIA GPUs"), and DPC++ about 2x slower
 * than OpenCL on the Intel iGPU. The profile below encodes exactly these
 * effects: a per-launch overhead and a multiplicative kernel-efficiency
 * factor that may depend on the device.
 */

#ifndef PLSSVM_SIM_RUNTIME_PROFILE_HPP_
#define PLSSVM_SIM_RUNTIME_PROFILE_HPP_

#include "plssvm/sim/device_spec.hpp"

#include <string>
#include <string_view>

namespace plssvm::sim {

/// Which programming-model runtime drives the simulated device.
enum class backend_runtime {
    cuda,
    opencl,
    sycl,
};

[[nodiscard]] std::string_view backend_runtime_to_string(backend_runtime runtime);

/// Runtime-dependent execution parameters.
struct runtime_profile {
    backend_runtime runtime{ backend_runtime::cuda };
    /// Seconds of host-side overhead per kernel launch.
    double kernel_launch_overhead_s{ 5e-6 };
    /// Fixed one-time runtime/context initialisation cost in seconds
    /// (the "small overhead accessing the GPU" of §V).
    double init_overhead_s{ 0.2 };
    /// Per-transfer latency in seconds (on top of bytes / PCIe bandwidth).
    double transfer_latency_s{ 10e-6 };
    /// Multiplicative efficiency factor applied on top of the device's
    /// fitted kernel efficiency; depends on (runtime, device).
    double efficiency_factor{ 1.0 };

    /**
     * @brief Build the profile for @p runtime on @p spec, encoding the
     *        Table I observations described above.
     * @throws plssvm::unsupported_backend_exception for CUDA on non-NVIDIA devices
     */
    [[nodiscard]] static runtime_profile for_device(backend_runtime runtime, const device_spec &spec);
};

}  // namespace plssvm::sim

#endif  // PLSSVM_SIM_RUNTIME_PROFILE_HPP_
