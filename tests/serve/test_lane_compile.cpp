/**
 * @file
 * @brief An engine compiles its model on its own executor lane: the linear
 *        collapse splits into feature ranges that fan out over the lane and
 *        give bitwise the serial compile's `W`, a registry load fans out, a
 *        registry reload stays inline on its worker, and the one fan-out
 *        helper of batches and compiles returns only once every task
 *        returned.
 *
 * Each test states what it asserts and its strategy.
 */

#include "serve/serve_test_utils.hpp"

#include "plssvm/core/matrix.hpp"
#include "plssvm/core/model.hpp"
#include "plssvm/core/sparse_matrix.hpp"
#include "plssvm/ext/multiclass.hpp"
#include "plssvm/serve/compiled_model.hpp"
#include "plssvm/serve/executor.hpp"
#include "plssvm/serve/inference_engine.hpp"
#include "plssvm/serve/model_registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using plssvm::aos_matrix;
using plssvm::csr_matrix;
using plssvm::kernel_type;
using plssvm::model;
using plssvm::ext::multiclass_model;
using plssvm::serve::compile_runner;
using plssvm::serve::compiled_model;
using plssvm::serve::executor;
namespace test = plssvm::test;

/// Linear heads over ONE shared panel, as `one_vs_all::fit` lays them out;
/// even heads map their class to +1, odd heads to -1, so both orientations
/// are summed. k = 1 is a binary model (not oriented).
struct linear_heads {
    std::shared_ptr<const aos_matrix<double>> panel;
    std::vector<model<double>> heads;

    [[nodiscard]] multiclass_model<double> ensemble() const {
        std::vector<double> labels;
        for (std::size_t c = 0; c < heads.size(); ++c) {
            labels.push_back(static_cast<double>(c));
        }
        return multiclass_model<double>{ std::move(labels), heads };
    }

    /// The compile of these heads: the binary model for k = 1, the ensemble
    /// otherwise, through @p runner.
    [[nodiscard]] compiled_model<double> compile(const compile_runner &runner = {}) const {
        if (heads.size() == 1) {
            return compiled_model<double>{ heads.front(), {}, runner };
        }
        return compiled_model<double>{ ensemble(), {}, runner };
    }
};

[[nodiscard]] linear_heads make_linear_heads(const std::size_t k, const std::size_t num_sv, const std::size_t dim, const double density, const std::uint64_t seed) {
    plssvm::parameter params;
    params.kernel = kernel_type::linear;
    aos_matrix<double> sv = density < 1.0 ? test::sparse_random_matrix(num_sv, dim, density, seed) : test::random_matrix(num_sv, dim, seed);
    linear_heads lh{ std::make_shared<const aos_matrix<double>>(std::move(sv)), {} };
    for (std::size_t c = 0; c < k; ++c) {
        const bool toward = k == 1 || c % 2 == 0;
        lh.heads.emplace_back(params, lh.panel, test::random_matrix(1, num_sv, seed + 7 * (c + 1)).data(), 0.25 * static_cast<double>(c) - 0.5,
                              toward ? 1.0 : -1.0, toward ? -1.0 : 1.0);
    }
    return lh;
}

/// `W` summed in the test body: entry (h, f) is Σ_i (o_h α_hi) x_if, added
/// in ascending i from zero.
[[nodiscard]] aos_matrix<double> in_order_normal_vectors(const linear_heads &lh) {
    const aos_matrix<double> &sv = *lh.panel;
    aos_matrix<double> w{ lh.heads.size(), sv.num_cols() };
    for (std::size_t h = 0; h < lh.heads.size(); ++h) {
        const double orientation = lh.heads.size() == 1 || lh.heads[h].positive_label() > 0.0 ? 1.0 : -1.0;
        for (std::size_t f = 0; f < sv.num_cols(); ++f) {
            double sum = 0.0;
            for (std::size_t i = 0; i < sv.num_rows(); ++i) {
                sum += orientation * lh.heads[h].alpha()[i] * sv(i, f);
            }
            w(h, f) = sum;
        }
    }
    return w;
}

/// Whether @p a and @p b hold the same entries in every row.
[[nodiscard]] bool same_rows(const csr_matrix<double> &a, const csr_matrix<double> &b) {
    if (a.num_rows() != b.num_rows() || a.num_nonzeros() != b.num_nonzeros()) {
        return false;
    }
    for (std::size_t r = 0; r < a.num_rows(); ++r) {
        if (a.row_end(r) - a.row_begin(r) != b.row_end(r) - b.row_begin(r)) {
            return false;
        }
        for (const auto *x = a.row_begin(r), *y = b.row_begin(r); x != a.row_end(r); ++x, ++y) {
            if (x->index != y->index || x->value != y->value) {
                return false;
            }
        }
    }
    return true;
}

/// Tasks ever submitted to the lanes named @p name of @p ex.
[[nodiscard]] std::size_t submitted_to(const executor &ex, const std::string &name) {
    std::size_t total = 0;
    for (const plssvm::serve::lane_report &lane : ex.lane_reports()) {
        total += lane.name == name ? lane.stats.submitted : 0;
    }
    return total;
}

/// Holds every worker of an executor in a task until `release()` (or the
/// destructor): the explicit signal with which a test makes the lanes queue
/// up with no worker to serve them.
class worker_hold {
  public:
    explicit worker_hold(executor &ex) :
        lane_{ ex.create_lane(plssvm::serve::lane_options{ .name = "hold" }) },
        gate_{ release_.get_future().share() } {
        for (std::size_t w = 0; w < ex.size(); ++w) {
            held_.push_back(lane_.enqueue([gate = gate_]() { gate.wait(); }));
        }
        all_held_ = test::wait_until([this, &ex]() { return lane_.stats().in_flight == ex.size(); });
    }

    worker_hold(const worker_hold &) = delete;
    worker_hold &operator=(const worker_hold &) = delete;

    ~worker_hold() { release(); }

    [[nodiscard]] bool all_held() const noexcept { return all_held_; }
    [[nodiscard]] std::size_t in_flight() const { return lane_.stats().in_flight; }

    void release() {
        if (!released_) {
            released_ = true;
            release_.set_value();
            for (std::future<void> &f : held_) {
                f.get();
            }
        }
    }

  private:
    executor::lane lane_;
    std::promise<void> release_;
    std::shared_future<void> gate_;
    std::vector<std::future<void>> held_;
    bool all_held_{ false };
    bool released_{ false };
};

// Asserts: a compile whose linear collapse fans out over an executor lane
// and the serial compile both give bitwise the `W` the test body sums in
// order, Σ_i (o_h α_hi) x_i, with equal stored-entry counts and, below the
// sparse threshold, equal sparse rows of `W` (the CSR of the in-order `W`).
// Strategy: k = 1, 2, 6, 7, 13 heads over d = 1, 3, 61, 129, 256 features,
// a dense panel and one of density 0.1, each panel large enough that its
// collapse reaches `min_fan_out_collapse`; the lane's submitted tasks show
// that every d with more than one cache line of features fanned out.
TEST(KHeadCompile, LaneAndSerialCompilesAreBitwiseTheInOrderSum) {
    executor ex{ 4 };
    executor::lane lane = ex.create_lane(plssvm::serve::lane_options{ .name = "engine", .quota = 4 });
    const compile_runner runner{ plssvm::serve::fan_out_width(lane), [&lane](const std::size_t n, const std::function<void(std::size_t)> &range) {
                                    plssvm::serve::fan_out(lane, n, range);
                                } };
    ASSERT_EQ(runner.width, 4u);
    std::uint64_t seed = 100;
    for (const double density : { 1.0, 0.1 }) {
        for (const std::size_t k : { 1, 2, 6, 7, 13 }) {
            for (const std::size_t d : { 1, 3, 61, 129, 256 }) {
                const std::string context = "k=" + std::to_string(k) + " d=" + std::to_string(d) + " density=" + std::to_string(density);
                // an odd SV count: the last SV block is a partial one
                const std::size_t num_sv = plssvm::serve::min_fan_out_collapse / (k * d) + 37;
                const linear_heads lh = make_linear_heads(k, num_sv, d, density, ++seed);
                const aos_matrix<double> expected = in_order_normal_vectors(lh);

                const compiled_model<double> serial = lh.compile();
                const std::size_t before = lane.stats().submitted;
                const compiled_model<double> fanned = lh.compile(runner);
                const std::size_t tasks = lane.stats().submitted - before;

                EXPECT_EQ(serial.normal_vectors(), expected) << context;
                EXPECT_EQ(fanned.normal_vectors(), expected) << context;
                EXPECT_EQ(fanned.sv_nnz(), serial.sv_nnz()) << context;
                EXPECT_EQ(fanned.sparse_sv(), density < 1.0) << context;
                EXPECT_EQ(serial.sparse_sv(), density < 1.0) << context;
                if (density < 1.0) {
                    const csr_matrix<double> expected_rows{ expected };
                    EXPECT_TRUE(same_rows(serial.sparse_normal_vectors(), expected_rows)) << context;
                    EXPECT_TRUE(same_rows(fanned.sparse_normal_vectors(), expected_rows)) << context;
                }
                if (d > 8) {
                    EXPECT_EQ(tasks, runner.width - 1) << context << ": one range on the calling thread, the others on the lane";
                } else {
                    EXPECT_EQ(tasks, 0u) << context << ": one cache line of features is one range";
                }
            }
        }
    }
}

// Asserts: `registry.load` of a large linear ensemble compiles on the
// engine's lane (its ranges show up as tasks of the lane named "engine"),
// while `registry.reload` — one task on the registry's quota-1 reload lane —
// compiles inline on that worker and adds no engine-lane task; both give
// the serial compile's `W`. Strategy: count submitted tasks per lane name
// through `executor::lane_reports()` around each call. Fails against a
// library whose engine compiles on the loading thread alone (no
// engine-lane task at load).
TEST(KHeadCompile, RegistryLoadFansOutAndReloadStaysInline) {
    executor ex{ 4 };
    plssvm::serve::model_registry<double> registry{ 2, plssvm::serve::engine_config{ .exec = &ex } };
    const linear_heads lh = make_linear_heads(6, 512, 256, 1.0, 7);
    const multiclass_model<double> ensemble = lh.ensemble();
    const compiled_model<double> serial{ ensemble };

    const std::size_t engine_before = submitted_to(ex, "engine");
    const auto engine = registry.load("sat6", ensemble);
    const std::size_t load_tasks = submitted_to(ex, "engine") - engine_before;
    EXPECT_GE(load_tasks, 1u) << "the load's collapse fans out over the engine's lane";
    EXPECT_LE(load_tasks, engine->num_threads() - 1) << "one range runs on the loading thread";
    EXPECT_EQ(engine->snapshot()->compiled.normal_vectors(), serial.normal_vectors());

    const std::size_t engine_at_reload = submitted_to(ex, "engine");
    const std::size_t reload_lane_before = submitted_to(ex, "registry-reload");
    registry.reload("sat6", ensemble).get();
    EXPECT_EQ(submitted_to(ex, "registry-reload") - reload_lane_before, 1u) << "a reload is one task on the reload lane";
    EXPECT_EQ(submitted_to(ex, "engine"), engine_at_reload) << "the reload compiles inline on its worker";
    EXPECT_EQ(engine->snapshot_version(), 2u);
    EXPECT_EQ(engine->snapshot()->compiled.normal_vectors(), serial.normal_vectors());
}

// Asserts: a registry load completes on the loading thread while every
// worker of the executor is held: the loading thread runs its own range,
// then runs the ranges it queued on the engine lane itself (help while
// waiting, which ignores the quota). Strategy: a `worker_hold` blocks both
// workers of a two-worker executor on a gate; the load must return, with
// the serial compile's `W`, while both workers are still held.
TEST(KHeadCompile, LoadCompletesWhileEveryWorkerIsHeld) {
    executor ex{ 2 };
    plssvm::serve::model_registry<double> registry{ 2, plssvm::serve::engine_config{ .exec = &ex } };
    const linear_heads lh = make_linear_heads(6, 512, 256, 1.0, 9);
    const multiclass_model<double> ensemble = lh.ensemble();
    const compiled_model<double> serial{ ensemble };

    worker_hold hold{ ex };
    ASSERT_TRUE(hold.all_held());
    const std::size_t engine_before = submitted_to(ex, "engine");
    const auto engine = registry.load("sat6", ensemble);
    EXPECT_EQ(hold.in_flight(), ex.size()) << "the load returned while every worker was still held";
    EXPECT_EQ(submitted_to(ex, "engine") - engine_before, 1u) << "two workers: one range queued, one on the loading thread";
    EXPECT_EQ(engine->snapshot()->compiled.normal_vectors(), serial.normal_vectors());
    hold.release();
    EXPECT_EQ(engine->predict(test::random_matrix(3, 256, 10)).size(), 3u);
}

// Asserts: when one chunk of a pooled evaluation throws, the call rethrows
// that error only after every other chunk returned, since the chunks write
// into the caller's frame. Strategy: two rows on a two-worker lane, so two
// chunks: chunk 0 throws at once; chunk 1 holds until the call has returned
// or a 250 ms window passed, then marks itself done. The call must not
// return before chunk 1 is done. A helper that rethrows the first failed
// chunk without waiting returns while chunk 1 still holds (it then
// releases chunk 1 through the signal).
TEST(KHeadFanOut, FailedChunkWaitsForEveryOtherChunk) {
    std::mutex mutex;
    std::condition_variable returned_cv;
    bool returned = false;
    std::atomic<bool> chunk1_done{ false };
    std::vector<double> out(2, 0.0);
    const aos_matrix<double> points{ 2, 1 };

    executor ex{ 2 };
    executor::lane lane = ex.create_lane(plssvm::serve::lane_options{ .name = "engine", .quota = 2 });
    ASSERT_EQ(plssvm::serve::fan_out_width(lane), 2u);
    const auto serial = [&](const aos_matrix<double> &, const std::size_t begin, const std::size_t, double *o) {
        if (begin == 0) {
            throw std::runtime_error{ "chunk 0" };
        }
        {
            std::unique_lock lock{ mutex };
            returned_cv.wait_for(lock, std::chrono::milliseconds{ 250 }, [&] { return returned; });
        }
        *o = 1.0;
        chunk1_done = true;
    };
    bool done_at_return = false;
    try {
        plssvm::serve::pooled_evaluate(lane, points, 1, out.data(), serial);
        ADD_FAILURE() << "chunk 0's error must surface";
    } catch (const std::runtime_error &e) {
        done_at_return = chunk1_done.load();
        EXPECT_EQ(std::string{ e.what() }, "chunk 0");
    }
    {
        const std::lock_guard lock{ mutex };
        returned = true;
    }
    returned_cv.notify_all();
    EXPECT_TRUE(done_at_return) << "the call returned while chunk 1 still ran";
    EXPECT_TRUE(test::wait_until([&] { return chunk1_done.load(); }));
    EXPECT_EQ(out[1], 1.0);
}

}  // namespace
