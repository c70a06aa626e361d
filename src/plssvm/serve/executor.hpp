/**
 * @file
 * @brief Process-wide serving executor: one worker pool shared by every
 *        inference engine, with per-engine submission lanes.
 *
 * The process owns one fixed set of workers, and engines own lightweight
 * **lanes**: named FIFO submission queues with a concurrency *quota* (the
 * most workers a lane may occupy at once). A registry with eight resident
 * models on a four-core host therefore runs four workers, not 32.
 *
 * One mutex guards all scheduling state: every lane's FIFO of tasks, its
 * quota bookkeeping and its counters, and the lane list. Idle workers wait
 * on one condition variable. A worker takes ONE task from the next runnable
 * lane in rotation order (a lane is runnable when it has queued tasks and
 * spare quota), runs it outside the lock, destroys the closure, and only
 * then locks again to count the completion. Closing lanes wait on a second
 * condition variable until their last task completed.
 *
 * Fairness: the rotation resumes one past the lane served last, so a
 * saturated lane cannot starve the others; any lane with queued work and
 * spare quota is reached within one sweep of the lane list.
 *
 * Every lane has a home worker (round-robin at creation). A task run by a
 * worker other than its lane's home worker counts as *stolen*; the home
 * worker changes no scheduling decision, it only defines that counter.
 *
 * Quota semantics: `quota` caps how many workers run one lane's tasks
 * simultaneously. Capping the greedy tenants is what guarantees the quiet
 * ones: if every lane's quota is at most `size() - k`, any other lane can
 * always get `k` workers the moment it has queued work.
 *
 * Tasks must not block on futures of tasks in the same executor (a task
 * waiting for a worker while holding a worker can deadlock once all workers
 * wait). The serving layer obeys this: engines enqueue leaf work only and
 * block on results from *their own* (drain or caller) threads, helping with
 * `lane::try_run_one()` while they wait.
 */

#ifndef PLSSVM_SERVE_EXECUTOR_HPP_
#define PLSSVM_SERVE_EXECUTOR_HPP_
#pragma once

#include <condition_variable>  // std::condition_variable
#include <cstddef>             // std::size_t, std::max_align_t
#include <deque>               // std::deque
#include <future>              // std::future, std::packaged_task
#include <latch>               // std::latch
#include <memory>              // std::shared_ptr
#include <mutex>               // std::mutex
#include <new>                 // placement new
#include <string>              // std::string
#include <thread>              // std::thread
#include <type_traits>         // std::invoke_result_t, std::decay_t, ...
#include <utility>             // std::move, std::exchange, std::forward
#include <vector>              // std::vector

namespace plssvm::serve {

namespace detail {

/**
 * @brief Move-only type-erased callable: the executor's unit of work.
 * @details Replaces `std::function<void()>`, whose *copyable* requirement
 *          forced every future-returning enqueue through a
 *          `shared_ptr<packaged_task>` indirection. A `task` captures
 *          move-only closures (packaged_task, unique_ptr captures) directly,
 *          with small-buffer storage so typical closures allocate nothing.
 */
class task {
    static constexpr std::size_t buffer_size = 56;

    struct vtable {
        void (*invoke)(void *storage);
        void (*relocate)(void *from, void *to) noexcept;  // move + destroy source
        void (*destroy)(void *storage) noexcept;
    };

    template <typename F>
    static constexpr bool fits_inline = sizeof(F) <= buffer_size && alignof(F) <= alignof(std::max_align_t)
                                        && std::is_nothrow_move_constructible_v<F>;

    template <typename F>
    struct inline_ops {
        static void invoke(void *storage) { (*static_cast<F *>(storage))(); }
        static void relocate(void *from, void *to) noexcept {
            ::new (to) F{ std::move(*static_cast<F *>(from)) };
            static_cast<F *>(from)->~F();
        }
        static void destroy(void *storage) noexcept { static_cast<F *>(storage)->~F(); }
        static constexpr vtable table{ &invoke, &relocate, &destroy };
    };

    template <typename F>
    struct heap_ops {
        static F *&ptr(void *storage) noexcept { return *static_cast<F **>(storage); }
        static void invoke(void *storage) { (*ptr(storage))(); }
        static void relocate(void *from, void *to) noexcept {
            ::new (to) F *{ ptr(from) };
        }
        static void destroy(void *storage) noexcept { delete ptr(storage); }
        static constexpr vtable table{ &invoke, &relocate, &destroy };
    };

  public:
    task() noexcept = default;

    template <typename F, typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, task>>>
    task(F &&fn) {  // NOLINT(google-explicit-constructor): intentional — lambdas convert implicitly
        using function_type = std::decay_t<F>;
        if constexpr (fits_inline<function_type>) {
            ::new (static_cast<void *>(buffer_)) function_type{ std::forward<F>(fn) };
            vt_ = &inline_ops<function_type>::table;
        } else {
            ::new (static_cast<void *>(buffer_)) function_type *{ new function_type{ std::forward<F>(fn) } };
            vt_ = &heap_ops<function_type>::table;
        }
    }

    task(task &&other) noexcept :
        vt_{ std::exchange(other.vt_, nullptr) } {
        if (vt_ != nullptr) {
            vt_->relocate(other.buffer_, buffer_);
        }
    }

    task &operator=(task &&other) noexcept {
        if (this != &other) {
            reset();
            vt_ = std::exchange(other.vt_, nullptr);
            if (vt_ != nullptr) {
                vt_->relocate(other.buffer_, buffer_);
            }
        }
        return *this;
    }

    task(const task &) = delete;
    task &operator=(const task &) = delete;

    ~task() { reset(); }

    [[nodiscard]] explicit operator bool() const noexcept { return vt_ != nullptr; }

    /// Run the callable. Precondition: non-empty.
    void operator()() { vt_->invoke(buffer_); }

    void reset() noexcept {
        if (vt_ != nullptr) {
            vt_->destroy(buffer_);
            vt_ = nullptr;
        }
    }

  private:
    const vtable *vt_{ nullptr };
    alignas(std::max_align_t) unsigned char buffer_[buffer_size]{};
};

}  // namespace detail

/// Per-lane scheduling knobs.
struct lane_options {
    /// Diagnostic name (shows up in the per-lane stats and gauges).
    std::string name{};
    /// Most workers that may service this lane concurrently; 0 = no cap.
    std::size_t quota{ 0 };
};

/// Point-in-time aggregate counters of the whole executor (all lanes), read
/// in one critical section.
struct executor_stats {
    std::size_t workers{ 0 };       ///< worker threads of the pool
    std::size_t lanes{ 0 };         ///< currently registered lanes
    std::size_t queued{ 0 };        ///< tasks queued across all lanes right now
    std::size_t in_flight{ 0 };     ///< tasks executing right now
    std::size_t total_steals{ 0 };  ///< steals over all lanes ever registered
};

/// Point-in-time counters of one lane, read in one critical section, so
/// `submitted == completed + queue_depth + in_flight` holds on every read.
/// A task counts as `completed` only after its closure returned AND was
/// destroyed: the future of an `enqueue()`d task can therefore be ready
/// while the task still counts as `in_flight`. Wait for the counter, not for
/// the future, when a test needs `completed` to have moved.
struct lane_stats {
    std::size_t submitted{ 0 };        ///< tasks ever enqueued
    std::size_t completed{ 0 };        ///< tasks finished (closure returned and destroyed)
    std::size_t stolen{ 0 };           ///< tasks run by a worker other than the lane's home worker
    std::size_t queue_depth{ 0 };      ///< currently queued tasks
    std::size_t in_flight{ 0 };        ///< tasks executing right now (workers and helpers)
    std::size_t max_queue_depth{ 0 };  ///< high-water mark of queue_depth
};

/// Name + counters of one registered lane (`executor::lane_reports()`), for
/// the per-lane observability export.
struct lane_report {
    std::string name;                  ///< the lane's diagnostic name (several lanes may share one)
    std::size_t id{ 0 };               ///< creation ordinal, unique within the executor
    std::size_t affinity{ 0 };         ///< home worker index
    lane_stats stats;                  ///< point-in-time counters
};

class executor {
    /// One lane's queue and counters. Everything but the immutable
    /// fields is guarded by `executor::mutex_`.
    struct lane_state {
        lane_options options;       ///< immutable after creation
        std::size_t id{ 0 };        ///< creation ordinal (immutable)
        std::size_t affinity{ 0 };  ///< home worker index (immutable)
        std::deque<detail::task> queue;
        std::size_t workers_busy{ 0 };  ///< workers running this lane's tasks (quota check)
        bool closed{ false };           ///< no further enqueues; drain pending
        lane_stats counters;            ///< `queue_depth` is filled in from `queue` on read
    };

  public:
    /// Start @p num_threads workers; 0 means `std::thread::hardware_concurrency()`.
    /// Returns once every worker has started.
    explicit executor(std::size_t num_threads = 0);

    executor(const executor &) = delete;
    executor &operator=(const executor &) = delete;

    /// Runs every queued task, then joins the workers. Every lane handle must
    /// have been destroyed (or must never enqueue again) before this runs.
    ~executor();

    /// The lazily-created executor shared by all engines that do not inject
    /// their own (`engine_config::exec == nullptr`). Sized to the hardware.
    [[nodiscard]] static executor &process_wide();

    /// Number of worker threads.
    [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

    /// True iff the calling thread is one of THIS executor's workers. Work
    /// that would fan out over the executor must run inline instead when
    /// already on a worker (a worker blocking on its own pool can deadlock
    /// it — e.g. an engine torn down by the last-owner reload task draining
    /// its final batches).
    [[nodiscard]] bool on_worker_thread() const noexcept;

    /**
     * @brief Move-only handle to one submission lane. Destroying the handle
     *        blocks until the lane's queued and in-flight tasks finished,
     *        then unregisters it — so a dying engine can never leave work
     *        behind that touches freed state.
     */
    class lane {
      public:
        lane() = default;
        lane(lane &&other) noexcept :
            owner_{ std::exchange(other.owner_, nullptr) },
            state_{ std::move(other.state_) } {}

        lane &operator=(lane &&other) noexcept {
            if (this != &other) {
                close();
                owner_ = std::exchange(other.owner_, nullptr);
                state_ = std::move(other.state_);
            }
            return *this;
        }

        lane(const lane &) = delete;
        lane &operator=(const lane &) = delete;

        ~lane() { close(); }

        [[nodiscard]] bool attached() const noexcept { return state_ != nullptr; }
        [[nodiscard]] executor *owner() const noexcept { return owner_; }

        /// Effective parallelism of this lane: its quota clamped to the pool.
        [[nodiscard]] std::size_t max_concurrency() const noexcept;

        /// Enqueue a fire-and-forget task (any move-only callable).
        /// @throws plssvm::exception if the lane is detached or closed
        void enqueue_detached(detail::task job);

        /// Enqueue a task and obtain a future for its result. The callable
        /// moves straight into the packaged_task.
        template <typename F>
        [[nodiscard]] std::future<std::invoke_result_t<F>> enqueue(F &&job) {
            using result_type = std::invoke_result_t<F>;
            std::packaged_task<result_type()> packaged{ std::forward<F>(job) };
            std::future<result_type> future = packaged.get_future();
            enqueue_detached(detail::task{ std::move(packaged) });
            return future;
        }

        /// Pop one queued task of THIS lane and run it on the calling
        /// thread. Lets a caller that is about to block on lane futures
        /// help drain its own queue instead ("help while waiting"), which
        /// makes waiting immune to worker starvation — even with every
        /// worker busy (or tearing down this very engine), the caller
        /// finishes its own fan-out itself. Ignores the quota: the caller
        /// spends its own thread, not a worker.
        /// @return true iff a task was executed
        bool try_run_one();

        /// Current counters of this lane (one consistent snapshot).
        [[nodiscard]] lane_stats stats() const;

      private:
        friend class executor;
        lane(executor *owner, std::shared_ptr<lane_state> state) :
            owner_{ owner },
            state_{ std::move(state) } {}

        /// Drain and unregister (the destructor body).
        void close();

        executor *owner_{ nullptr };
        std::shared_ptr<lane_state> state_;
    };

    /// Register a new lane.
    [[nodiscard]] lane create_lane(lane_options options = {});

    /// Number of currently registered lanes.
    [[nodiscard]] std::size_t num_lanes() const;

    /// Tasks executed by a worker other than their lane's home worker, over
    /// all lanes ever registered.
    [[nodiscard]] std::size_t total_steals() const;

    /// Aggregate counters over all registered lanes.
    [[nodiscard]] executor_stats stats() const;

    /// Name + counters of every registered lane, in registration order: the
    /// per-lane queue-depth/steal gauges of the observability export.
    [[nodiscard]] std::vector<lane_report> lane_reports() const;

    /// Executor-wide counters plus every lane's per-lane gauges, rendered
    /// as one machine-readable JSON object from one consistent snapshot.
    [[nodiscard]] std::string stats_json() const;

  private:
    /// Counts @p started down once it holds `mutex_`, then serves lanes.
    void worker_loop(std::size_t worker_index, std::latch &started);

    /// The next lane a worker may take a task from, or nullptr (requires
    /// `mutex_`). Advances the rotation cursor.
    [[nodiscard]] lane_state *next_runnable_lane();

    /// Pop the front task of @p state and count it in flight (requires
    /// `mutex_` and a non-empty queue).
    [[nodiscard]] detail::task take(lane_state &state, std::size_t worker_index);

    /// Count a finished task of @p state (taken by `take()` with the same
    /// @p worker_index) and wake a closer waiting for the lane to drain
    /// (requires `mutex_`).
    void finish(lane_state &state, std::size_t worker_index);

    /// Whether @p state has a queued task and a free quota slot for one more
    /// worker (requires `mutex_`).
    [[nodiscard]] static bool runnable(const lane_state &state);

    void close_lane(const std::shared_ptr<lane_state> &state);

    /// The counters of @p state with `queue_depth` filled in (requires `mutex_`).
    [[nodiscard]] static lane_stats counters_of(const lane_state &state);

    /// Lane reports / aggregate counters (require `mutex_`).
    [[nodiscard]] std::vector<lane_report> reports_locked() const;
    [[nodiscard]] executor_stats stats_locked() const;

    /// Sentinel `worker_index` of `take()`/`finish()` for a helper thread
    /// running a task through `lane::try_run_one()`: never a steal, never a
    /// quota slot.
    static constexpr std::size_t helper_thread = static_cast<std::size_t>(-1);

    // --- immutable after construction ---
    std::vector<std::thread> workers_;

    // --- guarded by mutex_ ---
    mutable std::mutex mutex_;
    std::condition_variable work_available_;  ///< idle workers wait here
    std::condition_variable lane_drained_;    ///< lane closers wait here
    std::vector<std::shared_ptr<lane_state>> lanes_;  ///< registration order
    std::size_t cursor_{ 0 };                         ///< lane served last (rotation start)
    std::size_t lane_counter_{ 0 };                   ///< lanes created so far: round-robin affinity and lane ids
    std::size_t total_steals_{ 0 };
    bool stop_{ false };
};

}  // namespace plssvm::serve

#endif  // PLSSVM_SERVE_EXECUTOR_HPP_
