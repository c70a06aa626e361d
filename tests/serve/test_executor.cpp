/**
 * @file
 * @brief Tests for `serve::executor`: the shared worker pool, lane quota
 *        enforcement and fairness, steal/queue-depth accounting and its
 *        one-snapshot consistency, and the thread-ownership acceptance
 *        scenario (8 resident engines, one executor's worth of workers).
 *
 * Concurrency assertions are gate-based (tasks block on futures/latches the
 * test controls) or bounded predicate waits, never sleeps, so they hold on
 * single-core runners.
 */

#include "serve/serve_test_utils.hpp"

#include "plssvm/exceptions.hpp"
#include "plssvm/serve/executor.hpp"
#include "plssvm/serve/model_registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace {

using plssvm::serve::executor;
using plssvm::serve::lane_options;
using plssvm::serve::lane_report;
using plssvm::serve::lane_stats;
namespace test = plssvm::test;
using namespace std::chrono_literals;

TEST(Executor, CreatesRequestedWorkerCount) {
    const executor ex{ 3 };
    EXPECT_EQ(ex.size(), 3u);
    // 0 = hardware concurrency, at least one worker
    const executor auto_sized{ 0 };
    EXPECT_GE(auto_sized.size(), 1u);
}

TEST(Executor, ProcessWideIsASingleton) {
    EXPECT_EQ(&executor::process_wide(), &executor::process_wide());
    EXPECT_GE(executor::process_wide().size(), 1u);
}

TEST(Executor, LaneRunsTasksAndReturnsFutures) {
    executor ex{ 2 };
    executor::lane lane = ex.create_lane();
    std::future<int> result = lane.enqueue([]() { return 41 + 1; });
    EXPECT_EQ(result.get(), 42);

    std::atomic<int> fired{ 0 };
    for (int i = 0; i < 16; ++i) {
        lane.enqueue_detached([&fired]() { ++fired; });
    }
    // lane destruction drains everything that was enqueued
    executor::lane moved = std::move(lane);
    moved = executor::lane{};
    EXPECT_EQ(fired.load(), 16);
}

TEST(Executor, DetachedLaneThrowsOnEnqueue) {
    executor::lane detached;
    EXPECT_FALSE(detached.attached());
    EXPECT_THROW(detached.enqueue_detached([]() {}), plssvm::exception);
}

TEST(Executor, LaneMaxConcurrencyClampsQuotaToPool) {
    executor ex{ 2 };
    const executor::lane unbounded = ex.create_lane();
    EXPECT_EQ(unbounded.max_concurrency(), 2u);
    const executor::lane capped = ex.create_lane(lane_options{ .quota = 1 });
    EXPECT_EQ(capped.max_concurrency(), 1u);
    const executor::lane oversized = ex.create_lane(lane_options{ .quota = 64 });
    EXPECT_EQ(oversized.max_concurrency(), 2u);
}

TEST(Executor, StatsCountSubmittedCompletedAndQueueDepth) {
    executor ex{ 1 };
    executor::lane lane = ex.create_lane();

    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::future<void> running = lane.enqueue([gate]() { gate.wait(); });
    // the single worker is busy -> these stay queued
    std::future<void> queued_a = lane.enqueue([]() {});
    std::future<void> queued_b = lane.enqueue([]() {});

    // wait until the first task actually occupies the worker
    ASSERT_TRUE(test::wait_until([&]() { return lane.stats().in_flight == 1u; }));
    lane_stats stats = lane.stats();
    EXPECT_EQ(stats.submitted, 3u);
    EXPECT_EQ(stats.in_flight, 1u);
    EXPECT_EQ(stats.queue_depth, 2u);
    EXPECT_GE(stats.max_queue_depth, 2u);

    release.set_value();
    running.get();
    queued_a.get();
    queued_b.get();
    // completion counters are bumped after the future resolves; wait for them
    ASSERT_TRUE(test::wait_until([&]() { return lane.stats().completed == 3u; }));
    stats = lane.stats();
    EXPECT_EQ(stats.completed, 3u);
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_EQ(stats.in_flight, 0u);
}

// Quota semantics: a lane never occupies more workers than its quota, so the
// remaining workers stay available no matter how much work the lane queues.
TEST(Executor, QuotaCapsConcurrentWorkersOfALane) {
    executor ex{ 2 };
    executor::lane greedy = ex.create_lane(lane_options{ .name = "greedy", .quota = 1 });
    executor::lane quiet = ex.create_lane(lane_options{ .name = "quiet" });

    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::atomic<std::size_t> greedy_running{ 0 };
    std::atomic<std::size_t> greedy_peak{ 0 };
    std::vector<std::future<void>> pending;
    for (std::size_t i = 0; i < 8; ++i) {
        pending.push_back(greedy.enqueue([gate, &greedy_running, &greedy_peak]() {
            const std::size_t now = ++greedy_running;
            std::size_t peak = greedy_peak.load();
            while (now > peak && !greedy_peak.compare_exchange_weak(peak, now)) {
            }
            gate.wait();
            --greedy_running;
        }));
    }

    // even with 8 blocking greedy tasks queued, the quota of 1 leaves a free
    // worker: the quiet lane's task completes while greedy work is pending
    std::future<int> answer = quiet.enqueue([]() { return 7; });
    EXPECT_EQ(answer.get(), 7);
    EXPECT_GT(greedy.stats().queue_depth, 0u) << "greedy backlog must still be pending";

    release.set_value();
    for (std::future<void> &f : pending) {
        f.get();
    }
    EXPECT_EQ(greedy_peak.load(), 1u) << "quota 1 must never run two greedy tasks at once";
}

// Fairness: lanes are drained in rotation order, so a lane that floods the
// executor cannot starve another lane's queued work even without quotas.
TEST(Executor, SaturatingLaneCannotStarveAnother) {
    executor ex{ 1 };  // worst case: every task fights for one worker
    executor::lane flood = ex.create_lane(lane_options{ .name = "flood" });
    executor::lane victim = ex.create_lane(lane_options{ .name = "victim" });

    // hold the worker so both lanes queue up behind it
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::future<void> holder = flood.enqueue([gate]() { gate.wait(); });

    std::atomic<std::size_t> flood_done{ 0 };
    std::size_t victim_seen_flood_done = 0;
    for (std::size_t i = 0; i < 64; ++i) {
        flood.enqueue_detached([&flood_done]() { ++flood_done; });
    }
    std::future<void> victim_task = victim.enqueue([&flood_done, &victim_seen_flood_done]() {
        victim_seen_flood_done = flood_done.load();
    });

    release.set_value();
    holder.get();
    victim_task.get();
    // rotation order guarantees the victim ran after at most one sweep of
    // the flood lane, not behind its entire 64-task backlog
    EXPECT_LT(victim_seen_flood_done, 64u) << "victim must not wait for the whole flood backlog";
}

TEST(Executor, StealAndCompletionAccountingIsConsistent) {
    executor ex{ 2 };
    executor::lane lane = ex.create_lane();
    std::vector<std::future<void>> pending;
    for (std::size_t i = 0; i < 32; ++i) {
        pending.push_back(lane.enqueue([]() {}));
    }
    for (std::future<void> &f : pending) {
        f.get();
    }
    // completion counters are bumped after the future resolves; wait for them
    ASSERT_TRUE(test::wait_until([&]() { return lane.stats().completed == 32u; }));
    const lane_stats stats = lane.stats();
    EXPECT_EQ(stats.submitted, 32u);
    EXPECT_EQ(stats.completed, 32u);
    EXPECT_LE(stats.stolen, stats.completed) << "steals are a subset of completions";
    EXPECT_EQ(ex.total_steals() >= stats.stolen, true);
}

// Every counter read is one critical section: while two workers and a
// helper thread (`try_run_one`) run a stream of tasks, each lane.stats() and
// lane_reports() read satisfies submitted == completed + queued + in_flight.
TEST(Executor, LaneStatsAreOneConsistentSnapshot) {
    executor ex{ 2 };
    executor::lane lane = ex.create_lane(lane_options{ .name = "stream" });
    constexpr std::size_t num_tasks = 4000;
    std::atomic<std::size_t> done{ 0 };
    std::atomic<bool> helping{ true };
    std::thread helper{ [&]() {
        while (helping.load()) {
            if (!lane.try_run_one()) {
                std::this_thread::yield();
            }
        }
    } };
    const auto consistent = [](const lane_stats &s) {
        return s.submitted == s.completed + s.queue_depth + s.in_flight;
    };
    std::size_t reads = 0;
    std::size_t inconsistent = 0;
    for (std::size_t i = 0; i < num_tasks; ++i) {
        lane.enqueue_detached([&done]() {
            volatile std::size_t spin = 0;
            for (std::size_t k = 0; k < 200; ++k) {
                spin = spin + k;
            }
            done.fetch_add(1);
        });
        inconsistent += consistent(lane.stats()) ? 0 : 1;
        const std::vector<lane_report> reports = ex.lane_reports();
        inconsistent += reports.size() == 1 && consistent(reports.front().stats) ? 0 : 1;
        reads += 2;
    }
    // keep reading while the workers and the helper drain the stream
    const bool drained = test::wait_until([&]() {
        const lane_stats s = lane.stats();
        inconsistent += consistent(s) ? 0 : 1;
        ++reads;
        return s.completed == num_tasks;
    });
    helping.store(false);
    helper.join();
    ASSERT_TRUE(drained);
    EXPECT_EQ(inconsistent, 0u) << "of " << reads << " reads";
    EXPECT_EQ(done.load(), num_tasks);
    const lane_stats final_stats = lane.stats();
    EXPECT_EQ(final_stats.submitted, num_tasks);
    EXPECT_EQ(final_stats.completed, num_tasks);
    EXPECT_EQ(final_stats.queue_depth + final_stats.in_flight, 0u);
}

TEST(Executor, ManyLanesShareTheWorkersToCompletion) {
    executor ex{ 2 };
    constexpr std::size_t num_lanes = 8;
    constexpr std::size_t tasks_per_lane = 50;
    std::vector<executor::lane> lanes;
    lanes.reserve(num_lanes);
    std::atomic<std::size_t> done{ 0 };
    for (std::size_t l = 0; l < num_lanes; ++l) {
        lanes.push_back(ex.create_lane(lane_options{ .name = "lane-" + std::to_string(l) }));
    }
    EXPECT_EQ(ex.num_lanes(), num_lanes);
    for (executor::lane &lane : lanes) {
        for (std::size_t i = 0; i < tasks_per_lane; ++i) {
            lane.enqueue_detached([&done]() { ++done; });
        }
    }
    lanes.clear();  // drains every lane
    EXPECT_EQ(done.load(), num_lanes * tasks_per_lane);
    EXPECT_EQ(ex.num_lanes(), 0u);
}

// Regression: a task's closure can hold the LAST reference to an engine
// (the registry's reload task does exactly that when the engine is evicted
// mid-compile and clients dropped theirs). The engine teardown then runs on
// a worker thread: its closure must not be destroyed under the scheduler
// mutex, and the final drain of pending requests must run inline instead of
// fanning out over (and blocking on) the worker's own pool — on this
// single-worker executor, either bug is a deadlock, not a flake.
TEST(Executor, WorkerCanTearDownAnEngineItOwnsTheLastReferenceTo) {
    executor ex{ 1 };
    plssvm::serve::engine_config config;
    config.exec = &ex;
    // large batch: the 16 submits below queue behind a held drain thread and
    // are still pending when the engine dies, so teardown must drain them
    // (>= min_blocked_batch of them, so the drain would take the pooled path
    // if it fanned out)
    config.max_batch_size = 64;
    auto engine = std::make_shared<plssvm::serve::inference_engine<double>>(
        test::random_model(plssvm::kernel_type::rbf), config);

    auto gate = std::make_unique<test::drain_gate>(*engine);
    ASSERT_TRUE(gate->held());
    const plssvm::aos_matrix<double> points = test::random_matrix(16, 11, 13);
    std::vector<std::future<double>> pending;
    for (std::size_t p = 0; p < points.num_rows(); ++p) {
        pending.push_back(engine->submit(std::vector<double>(points.row_data(p), points.row_data(p) + points.num_cols())));
    }
    ASSERT_TRUE(test::wait_until([&] { return engine->pending_requests() == points.num_rows(); }));

    executor::lane lane = ex.create_lane();
    std::promise<void> tearing_down;
    std::future<void> torn_down = lane.enqueue([last_owner = std::move(engine), &tearing_down]() mutable {
        tearing_down.set_value();
        last_owner.reset();  // ~inference_engine on the worker thread
    });
    // the destructor shuts the batcher down right after this signal and then
    // waits for the held drain thread, which the release lets go on to the
    // 16 queued requests
    tearing_down.get_future().wait();
    gate.reset();
    torn_down.get();

    for (std::future<double> &f : pending) {
        (void) f.get();  // drained during teardown, never dropped
    }
}

#ifdef __linux__
/// Current thread count of this process (/proc/self/status "Threads:" line).
[[nodiscard]] std::size_t process_thread_count() {
    std::ifstream status{ "/proc/self/status" };
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0) {
            return static_cast<std::size_t>(std::stoul(line.substr(8)));
        }
    }
    return 0;
}
#endif

// The acceptance scenario of the issue: a registry with 8 resident engines
// on a 4-core-sized executor creates at most one shared executor's worth of
// worker threads — every engine runs on the same 4 workers.
TEST(Executor, RegistryWithEightEnginesSharesOneFourWorkerExecutor) {
    executor ex{ 4 };
    plssvm::serve::engine_config config;
    config.exec = &ex;
    config.num_threads = 2;  // per-engine quota, not per-engine threads
    plssvm::serve::model_registry<double> registry{ 8, config };

#ifdef __linux__
    const std::size_t threads_before = process_thread_count();
#endif
    std::vector<std::shared_ptr<plssvm::serve::inference_engine<double>>> engines;
    for (int i = 0; i < 8; ++i) {
        engines.push_back(registry.load("tenant-" + std::to_string(i), test::random_model(plssvm::kernel_type::rbf)));
    }
#ifdef __linux__
    // loading 8 engines spawns NO pool threads (the executor pre-exists) —
    // only the 8 micro-batcher drain threads, one per engine
    const std::size_t threads_after = process_thread_count();
    ASSERT_GT(threads_before, 0u);
    EXPECT_EQ(threads_after - threads_before, 8u)
        << "engines must not create pool threads beyond the shared executor";
#endif
    EXPECT_EQ(registry.size(), 8u);
    for (const auto &engine : engines) {
        EXPECT_EQ(&engine->shared_executor(), &ex) << "every engine must share the registry executor";
        EXPECT_EQ(engine->stats().executor_threads, 4u);
        EXPECT_EQ(engine->num_threads(), 2u);  // quota, clamped to the pool
    }
    // 8 engine lanes + the registry's background reload lane, all on 4 workers
    EXPECT_EQ(ex.num_lanes(), 9u);
    EXPECT_EQ(ex.size(), 4u);

    // all engines actually serve on the shared workers
    const plssvm::aos_matrix<double> points = test::random_matrix(32, 11, 17);
    for (const auto &engine : engines) {
        EXPECT_EQ(engine->predict(points).size(), 32u);
    }
}

}  // namespace
