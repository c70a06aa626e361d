/**
 * @file
 * @brief QoS vocabulary and batch caps of the serving control plane.
 *
 * Until now every request entered the micro-batcher unconditionally and was
 * batched under one static size/deadline policy — under overload, p99
 * exploded uniformly instead of degrading gracefully. This header introduces
 * the traffic-management vocabulary production serving systems put in front
 * of compiled models:
 *
 *  - **request classes** (`request_class`): interactive / batch / background.
 *    Every async submission carries one (plus an optional deadline budget);
 *    the micro-batcher keeps one FIFO per class and always serves the
 *    highest-priority non-empty class.
 *  - **per-class QoS limits** (`class_qos_config`): token-bucket rate limit,
 *    queue-depth shed threshold, default deadline budget. Enforced by
 *    `serve::admission_controller` (see `admission.hpp`).
 *  - **natural batching with a deadline cap** (`class_batch_caps`): a batch
 *    is whatever queued while the previous one ran, up to the class's cap.
 *    The cap is the engine's `max_batch_size`; a class with a deadline
 *    budget halves it while the engine's estimate of one capped batch —
 *    its size times the seconds per request the engine measured on the
 *    batch's path — would eat more than `exec_budget_fraction` of the
 *    budget. Until the engine has measured a batch there is no estimate and
 *    no cap below `max_batch_size`. Nothing waits for a batch to fill, so a
 *    lone request runs at once.
 */

#ifndef PLSSVM_SERVE_QOS_HPP_
#define PLSSVM_SERVE_QOS_HPP_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

namespace plssvm::serve {

/// Priority class of one serving request. Lower enumerator = higher
/// priority: the micro-batcher always releases the highest-priority class
/// that is ready, so interactive traffic is never stuck behind bulk work.
enum class request_class : std::uint8_t {
    interactive = 0,  ///< latency-sensitive user-facing requests
    batch = 1,        ///< throughput-oriented bulk scoring
    background = 2,   ///< best-effort traffic (backfills, shadow evaluation)
};

/// Number of request classes (array extent of all per-class state).
inline constexpr std::size_t num_request_classes = 3;

/// All classes in priority order, for range-for iteration.
inline constexpr std::array<request_class, num_request_classes> all_request_classes{
    request_class::interactive, request_class::batch, request_class::background
};

/// Per-class storage, indexed by `class_index()`.
template <typename V>
using per_class = std::array<V, num_request_classes>;

[[nodiscard]] constexpr std::size_t class_index(const request_class cls) noexcept {
    return static_cast<std::size_t>(cls);
}

[[nodiscard]] constexpr std::string_view request_class_to_string(const request_class cls) noexcept {
    switch (cls) {
        case request_class::interactive:
            return "interactive";
        case request_class::batch:
            return "batch";
        case request_class::background:
            return "background";
    }
    return "unknown";
}

/// Outcome of one admission decision (recorded per class in `serve_stats`).
enum class admission_decision : std::uint8_t {
    admitted,           ///< request entered the micro-batcher
    shed_rate_limited,  ///< token bucket of the class was empty
    shed_queue_full,    ///< class backlog reached its shed threshold
};

[[nodiscard]] constexpr std::string_view admission_decision_to_string(const admission_decision decision) noexcept {
    switch (decision) {
        case admission_decision::admitted:
            return "admitted";
        case admission_decision::shed_rate_limited:
            return "shed_rate_limited";
        case admission_decision::shed_queue_full:
            return "shed_queue_full";
    }
    return "unknown";
}

/// "This request has no deadline" sentinel.
inline constexpr std::chrono::steady_clock::time_point no_deadline = std::chrono::steady_clock::time_point::max();

/// Per-request submission options of the async serving path.
struct request_options {
    /// Priority class the request is queued and accounted under.
    request_class cls{ request_class::interactive };
    /// Deadline budget from submission to fulfilment; 0 = the class default
    /// (`class_qos_config::deadline_budget`; 0 there too = no deadline).
    std::chrono::microseconds deadline{ 0 };
};

/// QoS limits of one request class. The zero-valued defaults mean
/// "unlimited" / "none", so a default-constructed config never sheds and
/// preserves the pre-QoS behaviour of existing embedders.
struct class_qos_config {
    /// Admitted requests per second (token-bucket refill rate); 0 = unlimited.
    double rate_limit{ 0.0 };
    /// Token-bucket capacity (burst size); 0 = one second of `rate_limit`.
    double burst{ 0.0 };
    /// Shed once this many requests of the class are already queued in the
    /// micro-batcher; 0 = never shed on queue depth. The threshold is
    /// approximate under concurrent submitters (the depth check and the
    /// enqueue are not one atomic step, so N racing producers can overshoot
    /// by at most N) — it is a backpressure bound, not an exact capacity.
    std::size_t max_pending{ 0 };
    /// Default per-request deadline budget applied when a submission does
    /// not carry its own; 0 = no deadline.
    std::chrono::microseconds deadline_budget{ 0 };
};

/// Batch-cap knob of the deadline-carrying classes.
struct adaptive_batch_config {
    /// Fraction of a class's deadline budget that may be spent *executing*
    /// the batch (the rest is queueing headroom). A deadline-carrying class
    /// halves its batch cap until the engine's estimate of one batch fits
    /// this fraction of the budget.
    double exec_budget_fraction{ 0.5 };
};

/// Complete QoS configuration of one engine.
struct qos_config {
    /// Per-class admission limits, indexed by `class_index()`.
    per_class<class_qos_config> classes{};
    /// Batch-cap knob of the deadline-carrying classes.
    adaptive_batch_config adaptive{};
};

/// Estimated seconds to execute one batch of the given size (the engine
/// supplies its measured-rate estimate, 0 while unmeasured); may be empty.
using latency_estimator = std::function<double(std::size_t)>;

/**
 * @brief The per-class batch caps of natural batching: the most requests of
 *        a class that leave the micro-batcher in one batch.
 *
 * Every class is capped at @p max_batch_size. A class with a deadline
 * budget halves its cap (never below 1) while @p estimate of one capped
 * batch overruns `exec_budget_fraction` of the budget, so a batch never
 * spends its requests' deadlines executing. Pure in its inputs: the engine
 * recomputes the caps whenever its estimate changes (a reload resets it, a
 * measured batch moves it).
 */
[[nodiscard]] per_class<std::size_t> class_batch_caps(const qos_config &config, std::size_t max_batch_size, const latency_estimator &estimate);

}  // namespace plssvm::serve

#endif  // PLSSVM_SERVE_QOS_HPP_
