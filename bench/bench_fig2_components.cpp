/**
 * @file
 * @brief Reproduces **Figure 2**: runtime breakdown of the PLSSVM pipeline
 *        components (read / transform / cg / write / total) on a single GPU,
 *        (a) scaling the number of data points, (b) scaling features.
 *
 * The "read" and "write" components run for real (file parsing / model
 * writing on the host running the bench). "read" times
 * `data_set::from_file`: the two-pass LIBSVM parser of io/libsvm.hpp,
 * parallel over the host's OpenMP threads. "transform" is the real AoS->SoA
 * conversion; "cg" reports simulated A100 seconds. A paper-scale projection
 * block shows the cg-dominance the paper reports (>= 92 % of total at 2^15
 * points).
 *
 * Expected shape (paper): for small data sets the I/O components dominate;
 * beyond ~2^12 points "cg" takes over and reaches >= 92 % of the total;
 * doubling points multiplies cg by ~3.3, doubling features by ~2.1.
 */

#include "common/bench_utils.hpp"
#include "plssvm/backends/cuda/csvm.hpp"
#include "plssvm/core/data_set.hpp"
#include "plssvm/datagen/make_classification.hpp"
#include "plssvm/sim/projection.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

namespace bench = plssvm::bench;

namespace {

struct components {
    double read{ 0 };
    double transform{ 0 };
    double cg{ 0 };
    double write{ 0 };

    [[nodiscard]] double total() const noexcept { return read + transform + cg + write; }
};

/// Run the full pipeline once: generate -> write file -> read file -> fit -> write model.
[[nodiscard]] components run_pipeline(const std::size_t points, const std::size_t features, const std::uint64_t seed) {
    plssvm::datagen::classification_params gen;
    gen.num_points = points;
    gen.num_features = features;
    gen.class_sep = 2.7 / std::sqrt(static_cast<double>(features / 2));
    gen.flip_y = 0.01;
    gen.seed = seed;
    const auto generated = plssvm::datagen::make_classification<double>(gen);
    const std::string data_file = "/tmp/plssvm_bench_fig2.libsvm";
    const std::string model_file = "/tmp/plssvm_bench_fig2.model";
    generated.save_libsvm(data_file, /*sparse=*/false);

    components result;
    bench::stopwatch read_watch;
    const auto data = plssvm::data_set<double>::from_file(data_file);
    result.read = read_watch.seconds();

    plssvm::backend::cuda::csvm<double> svm{ plssvm::parameter{ plssvm::kernel_type::linear } };
    const auto model = svm.fit(data, plssvm::solver_control{ .epsilon = 1e-5 });

    const auto &tracker = svm.performance_tracker();
    result.transform = tracker.get("transform").wall_seconds;
    result.cg = tracker.get("cg").sim_seconds;  // simulated device seconds

    bench::stopwatch write_watch;
    model.save(model_file);
    result.write = write_watch.seconds();

    std::filesystem::remove(data_file);
    std::filesystem::remove(model_file);
    return result;
}

void print_row(bench::table_printer &table, const std::string &label, const components &c) {
    table.add_row({ label,
                    bench::format_seconds(c.read),
                    bench::format_seconds(c.transform),
                    bench::format_seconds(c.cg),
                    bench::format_seconds(c.write),
                    bench::format_seconds(c.total()),
                    bench::format_double(100.0 * c.cg / c.total(), 1) + " %" });
}

}  // namespace

int main(int argc, char **argv) {
    const auto options = bench::bench_options::parse(
        argc, argv, "Figure 2: PLSSVM component breakdown (read/transform/cg/write) on a single GPU");

    const auto scaled = [&](const std::size_t base) {
        return std::max<std::size_t>(16, static_cast<std::size_t>(static_cast<double>(base) * options.scale));
    };

    // ---- (a) components vs #points ----------------------------------------
    {
        const std::size_t features = scaled(128);
        std::printf("== Fig 2a: components vs #points (%zu features, simulated A100) ==\n", features);
        bench::table_printer table{ { "#points", "read", "transform", "cg (sim)", "write", "total", "cg share" } };
        for (const std::size_t m : { scaled(128), scaled(256), scaled(512), scaled(1024), scaled(2048) }) {
            print_row(table, std::to_string(m), run_pipeline(m, features, options.seed));
        }
        table.print();
        std::printf("\n");
    }

    // ---- (b) components vs #features ---------------------------------------
    {
        const std::size_t points = scaled(1024);
        std::printf("== Fig 2b: components vs #features (%zu points, simulated A100) ==\n", points);
        bench::table_printer table{ { "#features", "read", "transform", "cg (sim)", "write", "total", "cg share" } };
        for (const std::size_t d : { scaled(32), scaled(64), scaled(128), scaled(256) }) {
            print_row(table, std::to_string(d), run_pipeline(points, d, options.seed));
        }
        table.print();
    }

    // ---- paper-scale projection: the >= 92 % cg dominance claim ------------
    {
        std::printf("\n== Fig 2 (paper-scale projection, 2^15 points x 2^12 features, 26 CG iterations) ==\n");
        plssvm::sim::projection_params proj;
        proj.num_points = 32768;
        proj.num_features = 4096;
        proj.cg_iterations = 26;
        const auto result = plssvm::sim::project_plssvm_training(plssvm::sim::devices::nvidia_a100(),
                                                                 plssvm::sim::backend_runtime::cuda, proj);
        std::printf("h2d %.2f s, q-kernel %.2f s, cg %.2f s, init %.2f s => total %.2f s; cg share %.1f %%\n",
                    result.h2d_seconds, result.q_kernel_seconds, result.cg_seconds, result.init_seconds,
                    result.total_seconds, 100.0 * result.cg_seconds / result.total_seconds);
        std::printf("paper: cg is responsible for 92 %% of the total runtime at 2^15 data points.\n");
    }
    return 0;
}
