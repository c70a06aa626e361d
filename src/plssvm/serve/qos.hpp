/**
 * @file
 * @brief QoS vocabulary and load-adaptive batching policy of the serving
 *        control plane.
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
 *    highest-priority class that is ready.
 *  - **per-class QoS limits** (`class_qos_config`): token-bucket rate limit,
 *    queue-depth shed threshold, default deadline budget, flush-delay range.
 *    Enforced by `serve::admission_controller` (see `admission.hpp`).
 *  - **load-adaptive batching** (`batch_tuner`): the target batch size and
 *    flush deadline of each class adapt continuously from an EWMA of queue
 *    depth (the batcher's own backlog, the engine's executor-lane queue and
 *    cross-lane executor pressure) and from the calibrated cost model's
 *    per-batch latency estimate. Under load, batches
 *    grow toward `adaptive_batch_config::max_batch_size` for throughput;
 *    idle, they shrink to `min_batch_size` for latency; and a class with a
 *    deadline budget never grows its batches past the point where the
 *    estimated batch execution time would eat the budget.
 *
 * The tuner is deliberately clock-free and purely functional in its inputs
 * (`observe()` takes raw counters, `policies()` is a pure function of the
 * smoothed state), so adaptive growth/shrink is deterministic in tests.
 */

#ifndef PLSSVM_SERVE_QOS_HPP_
#define PLSSVM_SERVE_QOS_HPP_

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
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
/// "unlimited" / "derive from the engine's base batch policy", so a
/// default-constructed config never sheds and preserves the pre-QoS
/// behaviour of existing embedders.
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
    /// Flush delay of the class when the engine is idle; 0 = the engine's
    /// `batch_delay` scaled by the class factor (interactive 1x, batch 4x,
    /// background 16x).
    std::chrono::microseconds base_flush_delay{ 0 };
    /// Flush delay ceiling the tuner may stretch to under full load;
    /// 0 = 8x the resolved `base_flush_delay`.
    std::chrono::microseconds max_flush_delay{ 0 };
};

/// Knobs of the load-adaptive batch sizing. All zero-valued defaults are
/// resolved against the engine's base `batch_policy` by the `batch_tuner`.
struct adaptive_batch_config {
    /// Idle target batch size (released as soon as this many requests are
    /// pending); 0 = max(1, engine max_batch_size / 8).
    std::size_t min_batch_size{ 0 };
    /// Overload target ceiling; 0 = 4x the engine max_batch_size.
    std::size_t max_batch_size{ 0 };
    /// EWMA smoothing factor of the pressure signal (0..1; larger = faster
    /// reaction).
    double alpha{ 0.25 };
    /// Pressure level mapped to full saturation (target = max_batch_size);
    /// 0 = 2x the resolved max_batch_size.
    double backlog_at_max{ 0.0 };
    /// Fraction of a class's deadline budget that may be spent *executing*
    /// the batch (the rest is queueing/flush headroom). The tuner halves a
    /// deadline-carrying class's target until the cost-model estimate of
    /// one batch fits this fraction of the budget.
    double exec_budget_fraction{ 0.5 };
};

/// Complete QoS configuration of one engine.
struct qos_config {
    /// Per-class admission limits, indexed by `class_index()`.
    per_class<class_qos_config> classes{};
    /// Load-adaptive batching knobs.
    adaptive_batch_config adaptive{};
    /// Switch the adaptive tuner off entirely: every class keeps the
    /// engine's static `max_batch_size` / `batch_delay` policy (the pre-QoS
    /// behaviour; used by tests that need deterministic batch formation).
    bool adaptive_batching{ true };
};

/// Batch-formation policy of one class at one instant — what the adaptive
/// tuner publishes into the micro-batcher after every batch.
struct class_batch_policy {
    /// Release a batch as soon as this many requests of the class are
    /// pending (also the per-batch pop cap).
    std::size_t target_batch_size{ 64 };
    /// Release a partial batch once its oldest request waited this long.
    std::chrono::microseconds flush_delay{ 250 };
    /// Cost-model estimate of executing one target-sized batch; the batcher
    /// reserves it out of a request's deadline (a deadline-carrying request
    /// is flushed no later than `deadline - estimated_batch_latency`).
    std::chrono::microseconds estimated_batch_latency{ 0 };
};

/// The static base policy the per-class policies are derived from (mirrors
/// the engine's historical `max_batch_size` / `batch_delay` knobs).
struct batch_policy {
    /// Release a batch as soon as this many requests are pending (>= 1).
    std::size_t max_batch_size{ 64 };
    /// Release a partial batch once its oldest request has waited this long.
    std::chrono::microseconds max_delay{ 500 };
};

/**
 * @brief Load-adaptive batch policy controller of one engine.
 *
 * The engine's drain thread calls `observe()` after every batch with the
 * current backlog and executor queue depths; `policies()` maps the smoothed
 * state to one `class_batch_policy` per class. Thread-safe (observe from
 * the drain thread, policies also from `stats()` callers).
 *
 * Target computation (see qos.cpp for the details):
 *   pressure   = EWMA(backlog + lane_depth + cross_lane/4)
 *   saturation = clamp01(pressure / backlog_at_max)
 *   target     = min + saturation * (max - min), then halved while the
 *                cost-model batch estimate overruns the class's deadline share
 *   flush      = base_flush + saturation * (max_flush - base_flush)
 *
 * Only queue depth drives saturation: an idle engine reads zero pressure,
 * so a lone request keeps the idle flush delay and the minimum target.
 */
class batch_tuner {
  public:
    /// Estimated seconds to execute one batch of the given size (the engine
    /// supplies its dispatcher's cost-model estimate); may be empty.
    using latency_estimator = std::function<double(std::size_t)>;

    /// Resolve @p config against @p base and start at idle (saturation 0).
    batch_tuner(const qos_config &config, batch_policy base, latency_estimator estimate);

    batch_tuner(const batch_tuner &) = delete;
    batch_tuner &operator=(const batch_tuner &) = delete;

    /**
     * @brief Feed one telemetry observation and recompute the policies.
     *
     * @param backlog           requests currently queued in the micro-batcher
     * @param lane_queue_depth  tasks queued on the engine's executor lane
     * @param cross_lane_queued tasks queued on *other* lanes of the shared
     *                          executor (cross-tenant pressure)
     */
    void observe(std::size_t backlog, std::size_t lane_queue_depth, std::size_t cross_lane_queued);

    /// Current per-class batch policies (idle values before any observation).
    [[nodiscard]] per_class<class_batch_policy> policies() const;

    /// Smoothed load signal in [0, 1] (0 = idle, 1 = fully saturated).
    [[nodiscard]] double saturation() const;

    /// The configuration with every zero-valued "auto" field resolved.
    [[nodiscard]] const qos_config &config() const noexcept { return config_; }

  private:
    /// Map the smoothed state to per-class policies (requires `mutex_`).
    void recompute();

    qos_config config_;  ///< resolved (no zero-valued "auto" fields left)
    latency_estimator estimate_;
    mutable std::mutex mutex_;
    double ewma_pressure_{ 0.0 };
    double saturation_{ 0.0 };
    per_class<class_batch_policy> policies_{};
};

}  // namespace plssvm::serve

#endif  // PLSSVM_SERVE_QOS_HPP_
