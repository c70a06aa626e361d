#include "plssvm/sim/cost_model.hpp"

#include <algorithm>
#include <cstddef>

namespace plssvm::sim {

namespace {

/// Fraction of the data-sheet bandwidth streaming kernels actually reach.
constexpr double effective_bandwidth_fraction = 0.75;

/// Approximate flop cost of the kernel epilogue per matrix entry (§II-E):
/// the linear kernel is a bare inner product; polynomial adds the fused
/// multiply-add plus the exponentiation by squaring; rbf/sigmoid pay for the
/// transcendental.
[[nodiscard]] double epilogue_flops(const kernel_type kernel) noexcept {
    switch (kernel) {
        case kernel_type::linear:
            return 0.0;
        case kernel_type::polynomial:
            return 6.0;
        case kernel_type::rbf:
            return 10.0;
        case kernel_type::sigmoid:
            return 14.0;
    }
    return 0.0;
}

[[nodiscard]] std::size_t round_up(const std::size_t value, const std::size_t multiple) noexcept {
    return (value + multiple - 1) / multiple * multiple;
}

}  // namespace

double roofline_seconds(const device_spec &spec, const runtime_profile &profile, const kernel_cost &cost) {
    const double achieved_flops = spec.peak_flops() * spec.fp64_efficiency * profile.efficiency_factor;
    const double achieved_bandwidth = spec.bandwidth_bytes_per_s() * effective_bandwidth_fraction;
    const double compute_time = cost.flops / achieved_flops;
    const double memory_time = cost.global_bytes / achieved_bandwidth;
    return profile.kernel_launch_overhead_s + std::max(compute_time, memory_time);
}

double transfer_seconds(const device_spec &spec, const runtime_profile &profile, const double bytes) {
    return profile.transfer_latency_s + bytes / (spec.pcie_bandwidth_gbs * 1e9);
}

kernel_cost q_kernel_cost(const std::size_t n, const std::size_t dim, const kernel_type kernel, const std::size_t real_bytes) {
    kernel_cost cost;
    const double evals = static_cast<double>(n);
    cost.flops = evals * (2.0 * static_cast<double>(dim) + epilogue_flops(kernel));
    // reads all n rows plus x_m once, writes the q vector
    cost.global_bytes = (static_cast<double>(n) * static_cast<double>(dim) + static_cast<double>(dim) + static_cast<double>(n)) * static_cast<double>(real_bytes);
    return cost;
}

kernel_cost svm_kernel_cost(const std::size_t n, const std::size_t dim, const kernel_type kernel, const block_config &cfg, const std::size_t real_bytes) {
    const std::size_t tile = std::max<std::size_t>(1, cfg.tile());
    const std::size_t n_pad = round_up(n, tile);

    // pairwise kernel evaluations; triangular blocking halves them (§III-C-1)
    double pairs = static_cast<double>(n_pad) * static_cast<double>(n_pad);
    if (cfg.triangular) {
        pairs *= 0.5;
    }
    // without the cached q vector, each entry costs three kernel evaluations
    // instead of one (§III-C-2)
    const double evals_per_entry = cfg.cache_q ? 1.0 : 3.0;

    kernel_cost cost;
    cost.flops = pairs * evals_per_entry * (2.0 * static_cast<double>(dim) + epilogue_flops(kernel))
                 // rank-one corrections and the diagonal term, O(n) work
                 + 6.0 * static_cast<double>(n_pad);

    // Block-level caching (§III-C-3): each tile pair loads 2 * tile * dim
    // values from global memory once, then reuses them tile^2 times out of
    // shared memory / registers. Traffic per pair is therefore 2 * dim / tile.
    const double tile_traffic = pairs * evals_per_entry * 2.0 * static_cast<double>(dim) / static_cast<double>(tile);
    // input/output vectors and the q vector
    const double vector_traffic = 4.0 * static_cast<double>(n_pad);
    cost.global_bytes = (tile_traffic + vector_traffic) * static_cast<double>(real_bytes);
    return cost;
}

kernel_cost vector_kernel_cost(const std::size_t n, const std::size_t real_bytes) {
    kernel_cost cost;
    cost.flops = 2.0 * static_cast<double>(n);
    cost.global_bytes = 3.0 * static_cast<double>(n) * static_cast<double>(real_bytes);
    return cost;
}

kernel_cost predict_kernel_cost(const std::size_t num_predict, const std::size_t num_sv, const std::size_t dim, const kernel_type kernel, const std::size_t real_bytes) {
    kernel_cost cost;
    if (kernel == kernel_type::linear) {
        // w accumulation plus one dot product per prediction point
        cost.flops = 2.0 * static_cast<double>(num_sv) * static_cast<double>(dim)
                     + 2.0 * static_cast<double>(num_predict) * static_cast<double>(dim);
        cost.global_bytes = (static_cast<double>(num_sv) + static_cast<double>(num_predict)) * static_cast<double>(dim) * static_cast<double>(real_bytes);
    } else {
        cost.flops = static_cast<double>(num_predict) * static_cast<double>(num_sv) * (2.0 * static_cast<double>(dim) + epilogue_flops(kernel));
        cost.global_bytes = (static_cast<double>(num_sv) + static_cast<double>(num_predict)) * static_cast<double>(dim) * static_cast<double>(real_bytes);
    }
    return cost;
}

}  // namespace plssvm::sim
