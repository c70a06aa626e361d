/**
 * @file
 * @brief Host-profile calibration for the predict dispatcher.
 *
 * `serve::predict_dispatcher` compares `sim::cost_model` host rooflines of
 * the execution paths to route each batch and feeds the same estimates to
 * the deadline batch caps; the host model (`sim::host_profile`) shipped with
 * hard-coded commodity-core defaults, so those estimates could land far from
 * what this machine actually sustains. Calibration replaces the defaults
 * with measured numbers:
 *
 *  1. if a `BENCH_serve.json` written by `bench_serve_throughput` is present
 *     in the working directory, its recorded `host_profile` section is used
 *     (the bench measures the real blocked kernels at full length);
 *  2. otherwise a quick in-process micro-measurement (~a few milliseconds,
 *     once per process) times the blocked RBF batch kernel and a streaming
 *     memory sweep to estimate per-thread GFLOP/s and bandwidth.
 *
 * Engines opt in through `dispatch_params::calibrate_host` (default on);
 * explicitly injected host profiles are never overridden.
 */

#ifndef PLSSVM_SERVE_CALIBRATION_HPP_
#define PLSSVM_SERVE_CALIBRATION_HPP_

#include "plssvm/sim/cost_model.hpp"

#include <cstddef>
#include <string>

namespace plssvm::serve {

/// Default path the calibration looks for a bench-written profile under.
inline constexpr const char *bench_serve_json_path = "BENCH_serve.json";

/// True iff @p profile is value-identical to a default-constructed
/// `sim::host_profile` (i.e. nobody injected measured numbers).
[[nodiscard]] bool is_default_host_profile(const sim::host_profile &profile) noexcept;

/**
 * @brief Parse the `"host_profile"` section of a `BENCH_serve.json` written
 *        by `bench_serve_throughput` into @p out.
 * @return true iff the file exists and both fields were found
 */
[[nodiscard]] bool host_profile_from_bench_json(const std::string &path, sim::host_profile &out);

/**
 * @brief The calibrated host profile of this process: `BENCH_serve.json` if
 *        present, an in-process micro-measurement otherwise.
 *
 * The measurement runs once per process (subsequent calls return the cached
 * result), costs a few milliseconds, and measures single-thread numbers —
 * `num_threads` is left at 0 ("auto") for the engines to resolve against
 * their lane concurrency.
 */
[[nodiscard]] sim::host_profile calibrated_host_profile(std::size_t real_bytes = sizeof(double));

/// The raw micro-measurement (no JSON lookup, no cache). Exposed for tests.
[[nodiscard]] sim::host_profile measure_host_profile(std::size_t real_bytes = sizeof(double));

}  // namespace plssvm::serve

#endif  // PLSSVM_SERVE_CALIBRATION_HPP_
