/**
 * @file
 * @brief Benchmark harness entry point: generates a workload's seeded
 *        inputs, runs its training and serving phases against the
 *        library's public API, and prints one JSON result line.
 *
 * Usage (normally through `run.py`, which passes the workload settings):
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --workdir <dir> [--key value ...]
 *
 * Exits non-zero when an output is wrong (a wire label that differs from
 * the in-process reference, or a traced fit that does not reproduce `fit()`).
 */

#include "harness.hpp"

#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>

namespace {

void print_result(const perfbench::run_report &report) {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {", report.correct ? "true" : "false",
                report.attempted, report.failed);
    bool first = true;
    for (const auto &[name, value] : report.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(), value.first, value.second.c_str());
        first = false;
    }
    std::printf("}}\n");
}

}  // namespace

int main(int argc, char **argv) {
    try {
        const perfbench::options opts{ argc, argv };
        const bool traced = opts.count("trace") != 0;
        const std::filesystem::path workdir = opts.str("workdir");
        std::filesystem::create_directories(workdir);
        const std::string train_file = (workdir / "train.libsvm").string();
        const std::string test_file = (workdir / "test.libsvm").string();

        perfbench::write_inputs(opts, train_file, test_file);

        std::unique_ptr<perfbench::span_recorder> rec;
        if (traced) {
            rec = std::make_unique<perfbench::span_recorder>();
        }
        perfbench::run_report report;
        const perfbench::trained_state state = perfbench::run_training(opts, train_file, test_file, rec.get(), report);
        perfbench::run_serving(opts, state, rec.get(), report);

        if (traced) {
            rec->write_jsonl((workdir / "spans.jsonl").string());
        } else {
            report.set("ok_frac", static_cast<double>(report.attempted - report.failed) / static_cast<double>(report.attempted), "fraction");
        }
        print_result(report);
        return report.correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
