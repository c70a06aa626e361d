/**
 * @file
 * @brief Class-aware request-coalescing micro-batcher for online inference.
 *
 * Single-point predict requests arrive one at a time but the batch kernels
 * of `compiled_model` amortize their per-call setup over many points. The
 * micro-batcher bridges the two: producers enqueue points (tagged with a
 * `request_class`, an optional deadline and the completion callback that
 * settles them) and a consumer (the inference engine's drain thread) pulls
 * *class-homogeneous batches*.
 *
 * Natural batching: one FIFO per `request_class`; `next_batch()` blocks
 * only while nothing is queued, and otherwise at once pops the
 * highest-priority non-empty class, up to that class's cap (the engine's
 * `max_batch_size`, lowered for deadline-carrying classes by
 * `class_batch_caps`). Nothing waits for a batch to fill: a lone request
 * leaves as soon as the consumer is free, and under load batches grow from
 * the requests that queued while the previous batch ran.
 *
 * Wakeup discipline: the consumer blocks on ONE condition variable with an
 * untimed wait, so an idle engine performs no periodic wakeups and the
 * batcher has no timer at all.
 */

#ifndef PLSSVM_SERVE_MICRO_BATCHER_HPP_
#define PLSSVM_SERVE_MICRO_BATCHER_HPP_

#include "plssvm/exceptions.hpp"
#include "plssvm/serve/fault.hpp"
#include "plssvm/serve/obs.hpp"
#include "plssvm/serve/qos.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace plssvm::serve {

template <typename T>
class micro_batcher {
  public:
    using time_point = std::chrono::steady_clock::time_point;

    /// One pending predict request.
    struct request {
        std::vector<T> point;                                ///< feature vector
        completion_callback<T> done;                         ///< settles the request, exactly once
        time_point admitted{};                               ///< admission decision (trace stamp 1)
        time_point enqueued{};                               ///< for latency accounting (trace stamp 2)
        time_point deadline{ no_deadline };                  ///< absolute fulfilment deadline
        std::uint64_t trace_id{ 0 };                         ///< flight-recorder trace id (0 = unsampled)
        bool traced{ false };                                ///< publish a lifecycle trace on completion
        std::shared_ptr<obs::wire_trace_context> wire{};     ///< wire-to-wire trace context (null for in-process requests)
    };

    /// One popped batch: requests of exactly one class, FIFO within it.
    struct class_batch {
        request_class cls{ request_class::interactive };
        time_point sealed{};                                 ///< batch-seal instant (trace stamp 3)
        std::vector<request> requests;

        [[nodiscard]] bool empty() const noexcept { return requests.empty(); }
        [[nodiscard]] std::size_t size() const noexcept { return requests.size(); }
    };

    /// Cap every class at @p max_batch_size requests per batch.
    /// @throws plssvm::invalid_parameter_exception if @p max_batch_size is 0
    explicit micro_batcher(const std::size_t max_batch_size = 64) :
        max_batch_size_{ max_batch_size } {
        if (max_batch_size_ == 0) {
            throw invalid_parameter_exception{ "micro_batcher max_batch_size must be at least 1!" };
        }
        caps_.fill(max_batch_size_);
    }

    micro_batcher(const micro_batcher &) = delete;
    micro_batcher &operator=(const micro_batcher &) = delete;

    /// A batcher destroyed with requests still queued settles every one of
    /// them with a typed `request_failed_exception` (`engine_shutdown`), so
    /// no caller waits forever.
    ~micro_batcher() {
        (void) fail_pending();
    }

    /// The live per-class batch caps (for `serve_stats`).
    [[nodiscard]] per_class<std::size_t> class_caps() const {
        const std::lock_guard lock{ mutex_ };
        return caps_;
    }

    /// Replace the per-class batch caps, each clamped to [1, the
    /// constructor's cap]. A cap never makes a class wait, so no consumer
    /// needs waking.
    void set_class_caps(const per_class<std::size_t> &caps) {
        const std::lock_guard lock{ mutex_ };
        for (const request_class cls : all_request_classes) {
            caps_[class_index(cls)] = std::clamp<std::size_t>(caps[class_index(cls)], 1, max_batch_size_);
        }
    }

    /// Enqueue a predict request; @p done is called exactly once, by the
    /// consumer that processed the batch containing it or by `fail_pending`.
    /// @param cls priority class the request is queued under
    /// @param deadline_budget time budget from now to fulfilment; 0 = none
    /// @param admitted admission-decision instant (trace stamp 1; default:
    ///                 same as the enqueue instant)
    /// @param trace_id flight-recorder trace id; != 0 marks the request as
    ///                 sampled for lifecycle tracing
    /// @throws request_failed_exception (`engine_shutdown`) if the batcher
    ///         has been shut down; @p done is then never called
    void enqueue(std::vector<T> point, completion_callback<T> done, const request_class cls = request_class::interactive,
                 const std::chrono::microseconds deadline_budget = std::chrono::microseconds{ 0 },
                 const time_point admitted = {}, const std::uint64_t trace_id = 0,
                 std::shared_ptr<obs::wire_trace_context> wire = {}) {
        {
            const std::lock_guard lock{ mutex_ };
            if (stopped_) {
                throw request_failed_exception{ failure_kind::engine_shutdown, cls, "micro_batcher: enqueue after shutdown!" };
            }
            request &req = queues_[class_index(cls)].emplace_back();
            req.point = std::move(point);
            req.done = std::move(done);
            req.enqueued = std::chrono::steady_clock::now();
            req.admitted = admitted == time_point{} ? req.enqueued : admitted;
            req.trace_id = trace_id;
            req.traced = trace_id != 0;
            req.wire = std::move(wire);
            req.deadline = deadline_budget.count() > 0 ? req.enqueued + deadline_budget : no_deadline;
            ++total_pending_;
        }
        cv_.notify_one();
    }

    /**
     * @brief Pop the highest-priority non-empty class, up to its cap;
     *        block (untimed) only while nothing is queued.
     *
     * Returns an empty batch only after `shutdown()` once all pending
     * requests have been drained — the consumer's exit signal. After
     * shutdown, still-pending requests keep being handed out (in priority
     * order) so nothing is ever dropped.
     */
    [[nodiscard]] class_batch next_batch() {
        std::unique_lock lock{ mutex_ };
        if (total_pending_ == 0 && !stopped_) {
            ++waiting_;
            cv_.wait(lock, [this]() { return stopped_ || total_pending_ > 0; });
            --waiting_;
        }
        for (const request_class cls : all_request_classes) {
            if (!queues_[class_index(cls)].empty()) {
                return pop_batch(cls);
            }
        }
        return {};  // shut down and fully drained
    }

    /// Reject new requests and wake all waiting consumers; pending requests
    /// remain retrievable via `next_batch()`.
    void shutdown() {
        {
            const std::lock_guard lock{ mutex_ };
            stopped_ = true;
        }
        cv_.notify_all();
    }

    [[nodiscard]] bool is_shutdown() const {
        const std::lock_guard lock{ mutex_ };
        return stopped_;
    }

    /// Shut down and settle every still-queued request with a typed
    /// `request_failed_exception` (`engine_shutdown`) of its own instead of
    /// handing it to a consumer. Callbacks run *outside* the batcher mutex
    /// so a callback can re-enter the batcher without deadlocking. Returns
    /// the number of requests failed.
    std::size_t fail_pending() {
        per_class<std::deque<request>> orphans;
        {
            const std::lock_guard lock{ mutex_ };
            stopped_ = true;
            orphans.swap(queues_);
            total_pending_ = 0;
        }
        cv_.notify_all();
        std::size_t failed = 0;
        for (const request_class cls : all_request_classes) {
            for (request &req : orphans[class_index(cls)]) {
                if (req.done) {
                    req.done(T{}, std::make_exception_ptr(request_failed_exception{
                                      failure_kind::engine_shutdown, cls, "micro_batcher destroyed/stopped with the request still queued" }));
                }
                ++failed;
            }
        }
        return failed;
    }

    /// Number of currently queued requests over all classes.
    [[nodiscard]] std::size_t pending() const {
        const std::lock_guard lock{ mutex_ };
        return total_pending_;
    }

    /// Number of currently queued requests of @p cls.
    [[nodiscard]] std::size_t pending(const request_class cls) const {
        const std::lock_guard lock{ mutex_ };
        return queues_[class_index(cls)].size();
    }

    /// Consumers currently blocked in `next_batch()` on an empty batcher.
    [[nodiscard]] std::size_t waiting() const {
        const std::lock_guard lock{ mutex_ };
        return waiting_;
    }

  private:
    /// Pop up to the class cap from @p cls (FIFO). Requires `mutex_`.
    [[nodiscard]] class_batch pop_batch(const request_class cls) {
        std::deque<request> &queue = queues_[class_index(cls)];
        const std::size_t batch_size = std::min(queue.size(), caps_[class_index(cls)]);
        class_batch batch;
        batch.cls = cls;
        batch.sealed = std::chrono::steady_clock::now();
        batch.requests.reserve(batch_size);
        for (std::size_t i = 0; i < batch_size; ++i) {
            batch.requests.push_back(std::move(queue.front()));
            queue.pop_front();
        }
        total_pending_ -= batch_size;
        return batch;
    }

    std::size_t max_batch_size_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    per_class<std::deque<request>> queues_;
    per_class<std::size_t> caps_{};
    std::size_t total_pending_{ 0 };
    std::size_t waiting_{ 0 };
    bool stopped_{ false };
};

}  // namespace plssvm::serve

#endif  // PLSSVM_SERVE_MICRO_BATCHER_HPP_
