#include "plssvm/sim/device_spec.hpp"

#include "plssvm/detail/string_utils.hpp"
#include "plssvm/exceptions.hpp"

#include <string>
#include <vector>

namespace plssvm::sim::devices {

// Data-sheet numbers; fp64_efficiency fitted to Table I (DESIGN.md §1).
// The high-FP64 data-center GPUs achieve 26-39 % of peak (the paper profiles
// 32 % on the A100); consumer cards with 1/32-1/64 FP64 ratios are so
// FLOP-starved that the kernel runs close to their (tiny) FP64 peak.

device_spec nvidia_a100() {
    return device_spec{ "NVIDIA A100", vendor_type::nvidia, 9.7, 1555.0, 40.0, 8.0, 0.32, 20.0 };
}

device_spec nvidia_v100() {
    return device_spec{ "NVIDIA V100", vendor_type::nvidia, 7.8, 900.0, 32.0, 7.0, 0.385, 12.0 };
}

device_spec nvidia_p100() {
    return device_spec{ "NVIDIA P100", vendor_type::nvidia, 4.7, 732.0, 16.0, 6.0, 0.26, 12.0 };
}

device_spec nvidia_gtx_1080_ti() {
    return device_spec{ "NVIDIA GTX 1080 Ti", vendor_type::nvidia, 0.355, 484.0, 11.0, 6.1, 0.88, 12.0 };
}

device_spec nvidia_rtx_3080() {
    return device_spec{ "NVIDIA RTX 3080", vendor_type::nvidia, 0.465, 760.0, 10.0, 8.6, 0.90, 16.0 };
}

device_spec amd_radeon_vii() {
    return device_spec{ "AMD Radeon VII", vendor_type::amd, 3.36, 1024.0, 16.0, 0.0, 0.245, 12.0 };
}

device_spec intel_uhd_p630() {
    return device_spec{ "Intel UHD Graphics Gen9 P630", vendor_type::intel, 0.115, 41.6, 8.0, 0.0, 0.30, 8.0 };
}

const std::vector<device_spec> &all() {
    static const std::vector<device_spec> registry{
        nvidia_gtx_1080_ti(),
        nvidia_rtx_3080(),
        nvidia_p100(),
        nvidia_v100(),
        nvidia_a100(),
        amd_radeon_vii(),
        intel_uhd_p630(),
    };
    return registry;
}

device_spec by_name(const std::string_view name) {
    const std::string lower = detail::to_lower_case(name);
    for (const device_spec &spec : all()) {
        if (detail::to_lower_case(spec.name) == lower) {
            return spec;
        }
    }
    // short aliases for CLI convenience
    if (lower == "a100") { return nvidia_a100(); }
    if (lower == "v100") { return nvidia_v100(); }
    if (lower == "p100") { return nvidia_p100(); }
    if (lower == "gtx1080ti" || lower == "1080ti") { return nvidia_gtx_1080_ti(); }
    if (lower == "rtx3080" || lower == "3080") { return nvidia_rtx_3080(); }
    if (lower == "radeonvii" || lower == "radeon7") { return amd_radeon_vii(); }
    if (lower == "p630" || lower == "uhd630") { return intel_uhd_p630(); }
    throw invalid_parameter_exception{ "Unknown simulated device: '" + std::string{ name } + "'!" };
}

}  // namespace plssvm::sim::devices
