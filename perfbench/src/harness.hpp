/**
 * @file
 * @brief The two phases every workload runs: training (parse, fit, score)
 *        and serving (the fitted model behind the TCP server, driven by the
 *        open-loop generator).
 */

#ifndef PERFBENCH_HARNESS_HPP_
#define PERFBENCH_HARNESS_HPP_

#include "common.hpp"

#include "plssvm/core/data_set.hpp"
#include "plssvm/core/model.hpp"
#include "plssvm/ext/multiclass.hpp"

#include <optional>
#include <string>

namespace perfbench {

/// What the training phase hands to the serving phase.
struct trained_state {
    std::optional<plssvm::model<double>> binary;                ///< set for binary workloads
    std::optional<plssvm::ext::multiclass_model<double>> ensemble;  ///< set for one-vs-all workloads
    std::optional<plssvm::data_set<double>> test;               ///< held-out split (the query pool)
};

/// Generate the seeded train/test splits and write them as LIBSVM files.
void write_inputs(const options &opts, const std::string &train_file, const std::string &test_file);

/// Parse, fit and score. Untraced runs report `setup_s` (parse workloads)
/// and `test_accuracy`; traced runs time `fit_reps` fits for `train_s`,
/// rebuild the fit from its public pieces under spans and report the
/// training-side layer metrics.
trained_state run_training(const options &opts, const std::string &train_file, const std::string &test_file,
                           span_recorder *rec, run_report &report);

/// Serve the fitted model over loopback TCP. Untraced runs report `setup_s`
/// (wire workloads), `peak_rss_mb`, and the latency and blocking waits of a
/// lone request; traced runs report the CPU time per request at the light
/// and heavy rates, the open-loop latencies, the max-rate ladder, the
/// in-process dispatcher pass, kernel sweeps and counter deltas.
void run_serving(const options &opts, const trained_state &state, span_recorder *rec, run_report &report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HPP_
