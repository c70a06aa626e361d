/**
 * @file
 * @brief Fault-tolerance plane of the serving subsystem
 *        (`plssvm::serve::fault`).
 *
 * Until now a throwing batch kernel poisoned its entire micro-batch, a hung
 * drain thread left promises unfulfilled forever, and a persistently failing
 * dispatch path was retried blindly. This header adds the failure story a
 * production serving node needs:
 *
 *  - **typed per-request outcomes** (`request_failed_exception` with a
 *    `failure_kind`): every request an engine accepts is settled exactly
 *    once through its `completion_callback` — with a value, or with a
 *    structured error of its own. A failing batch is bisected until the
 *    poisoned request is isolated and quarantined; the rest of the batch
 *    completes normally.
 *  - a **lane watchdog** (`drain_supervisor`): the drain thread publishes a
 *    per-batch deadline before evaluating — `stall_timeout`, or
 *    `estimate_factor` times the engine's measured estimate of the batch if
 *    that is longer; a watchdog thread fails the in-flight batch with
 *    `failure_kind::worker_stall` and restarts the lane on a fresh
 *    generation when the deadline passes. Off by default
 *    (`watchdog_config::stall_timeout == 0`).
 *  - a **retry + fallback ladder** (`retry_config`, `circuit_breaker`,
 *    `path_ladder`): transient batch failures retry with bounded exponential
 *    backoff + deterministic jitter; each `predict_path` carries an
 *    error-rate-windowed breaker (closed -> open -> half-open) and
 *    `choose_path` only chooses among non-tripped paths, demoting
 *    host_blocked/host_sparse -> reference. `reference` is the
 *    unconditional last resort and never masked.
 *  - a **health state machine** (`health_monitor`): healthy / degraded /
 *    critical per engine, driven by breaker state, shed rate, deadline
 *    misses, quarantines, and stall restarts; every transition is recorded
 *    into `serve_stats` and force-dumps the flight recorder.
 *  - a **deterministic fault-injection harness** (`injector`): seeded,
 *    always compiled, no-op by default. Hook points sit in the drain loop
 *    (dispatch decision, allocation, batch kernel) and in the executor's
 *    task chunks; rules fire kernel throws, wrong results, worker stalls,
 *    slow batches, and allocation failures with per-site counters so a
 *    replay with the same seed fires identically.
 *
 * Everything here is engine-internal except the exception types and the
 * injector configuration, which are part of the public serving API.
 */

#ifndef PLSSVM_SERVE_FAULT_HPP_
#define PLSSVM_SERVE_FAULT_HPP_

#include "plssvm/exceptions.hpp"
#include "plssvm/serve/obs.hpp"  // predict_path
#include "plssvm/serve/qos.hpp"  // request_class

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace plssvm::serve {

// ---------------------------------------------------------------------------
// typed request outcomes
// ---------------------------------------------------------------------------

/// Why an accepted request failed to produce a prediction. Carried by
/// `request_failed_exception` so clients can distinguish retryable conditions
/// (allocation pressure, a stalled lane) from poisoned inputs (kernel error).
enum class failure_kind : std::uint8_t {
    kernel_error = 0,     ///< the batch kernel threw even at batch size 1 (poisoned request)
    allocation = 1,       ///< an allocation failed while assembling/evaluating the batch
    worker_stall = 2,     ///< the lane watchdog failed the in-flight batch and restarted the lane
    engine_shutdown = 3,  ///< the engine/batcher stopped while the request was still pending
};

[[nodiscard]] constexpr std::string_view failure_kind_to_string(const failure_kind kind) noexcept {
    switch (kind) {
        case failure_kind::kernel_error:
            return "kernel_error";
        case failure_kind::allocation:
            return "allocation";
        case failure_kind::worker_stall:
            return "worker_stall";
        case failure_kind::engine_shutdown:
            return "engine_shutdown";
    }
    return "unknown";
}

/// Delivered (through the request's completion callback or future) when an
/// accepted async request cannot be completed. Unlike
/// `request_shed_exception` this is a post-admission failure: the request
/// was queued and the engine owes it a settlement.
class request_failed_exception : public exception {
  public:
    request_failed_exception(const failure_kind kind, const std::optional<request_class> cls, const std::string &detail) :
        exception{ build_message(kind, cls, detail) },
        kind_{ kind },
        cls_{ cls } {}

    /// The failure category (kernel error, allocation, stall, shutdown).
    [[nodiscard]] failure_kind kind() const noexcept { return kind_; }

    /// The request class of the failed request, if known at the failure site.
    [[nodiscard]] std::optional<request_class> failed_class() const noexcept { return cls_; }

  private:
    [[nodiscard]] static std::string build_message(const failure_kind kind, const std::optional<request_class> cls, const std::string &detail) {
        std::string msg{ "request failed (" };
        msg += failure_kind_to_string(kind);
        if (cls.has_value()) {
            msg += ", class=";
            msg += request_class_to_string(*cls);
        }
        msg += ")";
        if (!detail.empty()) {
            msg += ": ";
            msg += detail;
        }
        return msg;
    }

    failure_kind kind_;
    std::optional<request_class> cls_;
};

// ---------------------------------------------------------------------------
// request completion
// ---------------------------------------------------------------------------

/// Settles one accepted async request: called with the label and a null
/// error, or with the error (the label is then value-initialized). The
/// engine calls it exactly once, on whichever thread settles the request —
/// the drain thread, the lane watchdog, or the thread tearing the engine
/// down — and never while it holds an engine lock. It must not throw.
template <typename T>
using completion_callback = std::function<void(T label, std::exception_ptr error)>;

/// The promise adapter over a completion callback: the returned callback
/// settles the returned future.
template <typename T>
[[nodiscard]] std::pair<completion_callback<T>, std::future<T>> promise_completion() {
    auto promise = std::make_shared<std::promise<T>>();
    std::future<T> future = promise->get_future();
    completion_callback<T> done = [promise = std::move(promise)](T label, std::exception_ptr error) {
        if (error != nullptr) {
            promise->set_exception(std::move(error));
        } else {
            promise->set_value(std::move(label));
        }
    };
    return { std::move(done), std::move(future) };
}

// ---------------------------------------------------------------------------
// health state machine vocabulary
// ---------------------------------------------------------------------------

/// Coarse engine/registry health, exposed through `serve_stats` and the
/// Prometheus exposition. Ordered by severity so aggregation is `max`.
enum class health_state : std::uint8_t {
    healthy = 0,   ///< all paths closed, shed/miss rates nominal
    degraded = 1,  ///< a breaker is probing (half-open), quarantines occurred, or shed/miss rates are elevated
    critical = 2,  ///< a breaker is open, a lane stalled, or the majority of traffic is shed
};

[[nodiscard]] constexpr std::string_view health_state_to_string(const health_state state) noexcept {
    switch (state) {
        case health_state::healthy:
            return "healthy";
        case health_state::degraded:
            return "degraded";
        case health_state::critical:
            return "critical";
    }
    return "unknown";
}

namespace fault {

// ---------------------------------------------------------------------------
// deterministic fault injection
// ---------------------------------------------------------------------------

/// Thrown by an injected `fault_kind::kernel_throw` rule. Distinct type so
/// tests and the soak bench can tell injected faults from organic ones.
class injected_fault_exception : public exception {
  public:
    using exception::exception;
};

/// Where in the serving pipeline an injection hook sits.
enum class fault_site : std::uint8_t {
    batch_kernel = 0,   ///< inside the drain loop, around the batch evaluation
    dispatch = 1,       ///< at the dispatch decision for one evaluation attempt
    executor_task = 2,  ///< inside a `pooled_evaluate` work chunk (global injector only)
    allocation = 3,     ///< at batch-assembly allocation sites
};

inline constexpr std::size_t num_fault_sites = 4;

[[nodiscard]] constexpr std::size_t fault_site_index(const fault_site site) noexcept {
    return static_cast<std::size_t>(site);
}

[[nodiscard]] constexpr std::string_view fault_site_to_string(const fault_site site) noexcept {
    switch (site) {
        case fault_site::batch_kernel:
            return "batch_kernel";
        case fault_site::dispatch:
            return "dispatch";
        case fault_site::executor_task:
            return "executor_task";
        case fault_site::allocation:
            return "allocation";
    }
    return "unknown";
}

/// What an injection rule does when it fires.
enum class fault_kind : std::uint8_t {
    none = 0,           ///< inert rule (placeholder)
    kernel_throw = 1,   ///< throw `injected_fault_exception`
    wrong_result = 2,   ///< corrupt the first decision value of the batch
    worker_stall = 3,   ///< sleep for `fault_rule::stall` (trips the watchdog when longer than its timeout)
    slow_batch = 4,     ///< sleep for `fault_rule::stall` (models a slow batch; same mechanics, different intent)
    alloc_failure = 5,  ///< throw `std::bad_alloc`
};

/// One injection rule. Rules are evaluated in configuration order at the
/// hook site they name; the first rule that fires wins.
struct fault_rule {
    /// Hook site the rule applies to.
    fault_site site{ fault_site::batch_kernel };
    /// Effect when the rule fires.
    fault_kind kind{ fault_kind::none };
    /// Firing probability per evaluation in [0, 1]; 1.0 = always (subject to
    /// `after`/`limit`). Driven by the injector's seeded PRNG, so a replay
    /// with the same seed and call sequence fires identically.
    double probability{ 1.0 };
    /// Skip the first `after` evaluations of this rule before it may fire.
    std::size_t after{ 0 };
    /// Maximum number of firings (0 = unlimited).
    std::size_t limit{ 0 };
    /// Sleep duration for `worker_stall` / `slow_batch`.
    std::chrono::microseconds stall{ 0 };
    /// Restrict the rule to one dispatch path (batch_kernel/dispatch sites).
    std::optional<predict_path> path{};
    /// Restrict the rule to the batch range covering this request index
    /// (fires only when `begin <= poison_index < end`); -1 = any range.
    /// This is how a single "poisoned request" is planted for bisection tests.
    std::ptrdiff_t poison_index{ -1 };
};

/// Result of evaluating the batch-kernel hook: the only non-throwing,
/// non-sleeping effect is result corruption, which the caller must apply.
struct kernel_hook_result {
    bool wrong_result{ false };
};

/// Deterministic, seeded fault injector. Always compiled; with no rules every
/// hook is a cheap no-op. Configure rules *before* traffic flows — the rule
/// list is read under the same mutex that orders the per-site counters, but
/// determinism only holds if the rule set is fixed for the replayed window.
class injector {
  public:
    explicit injector(const std::uint64_t seed = 0x9e3779b97f4a7c15ULL) :
        seed_{ seed } {}

    /// Append one rule. Returns *this for chaining.
    injector &add_rule(const fault_rule &rule) {
        const std::lock_guard lock{ mutex_ };
        rules_.push_back(rule);
        return *this;
    }

    /// Remove all rules (the injector becomes a no-op again).
    void clear_rules() {
        const std::lock_guard lock{ mutex_ };
        rules_.clear();
    }

    /// Evaluate the hook at `site`. Returns the rule that fired, or
    /// `fault_kind::none`. `path` is the dispatch path of the current
    /// attempt (if meaningful at the site), `begin`/`end` the request-index
    /// range of the current evaluation (for `poison_index` targeting).
    [[nodiscard]] fault_rule evaluate(fault_site site, std::optional<predict_path> path = {},
                                      std::ptrdiff_t begin = -1, std::ptrdiff_t end = -1);

    /// Number of hook evaluations at `site` so far.
    [[nodiscard]] std::size_t evaluations(const fault_site site) const {
        const std::lock_guard lock{ mutex_ };
        return evaluations_[fault_site_index(site)];
    }

    /// Number of rule firings at `site` so far.
    [[nodiscard]] std::size_t fired(const fault_site site) const {
        const std::lock_guard lock{ mutex_ };
        return fired_[fault_site_index(site)];
    }

    /// The injector's seed (for replay bookkeeping).
    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

    /// Install `inj` as the process-global injector consulted by the
    /// executor-task hook (the executor is shared across engines, so it
    /// cannot consult a per-engine injector). Pass `nullptr` to uninstall.
    /// The caller keeps ownership and must uninstall before destroying it.
    static void install_global(injector *inj) noexcept { global_slot().store(inj, std::memory_order_release); }

    /// The installed global injector, or nullptr.
    [[nodiscard]] static injector *global() noexcept { return global_slot().load(std::memory_order_acquire); }

  private:
    [[nodiscard]] static std::atomic<injector *> &global_slot() noexcept {
        static std::atomic<injector *> slot{ nullptr };
        return slot;
    }

    /// splitmix64 finalizer -> uniform double in [0, 1).
    [[nodiscard]] static double uniform(std::uint64_t x) noexcept {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        x = x ^ (x >> 31);
        return static_cast<double>(x >> 11) * 0x1.0p-53;
    }

    std::uint64_t seed_;
    mutable std::mutex mutex_;
    std::vector<fault_rule> rules_{};
    std::vector<std::size_t> rule_evaluations_{};
    std::vector<std::size_t> rule_firings_{};
    std::array<std::size_t, num_fault_sites> evaluations_{};
    std::array<std::size_t, num_fault_sites> fired_{};
};

/// Batch-kernel hook: throws / sleeps per the fired rule; returns whether the
/// caller must corrupt the result. No-op when `inj` is null or has no rules.
kernel_hook_result hook_batch_kernel(injector *inj, predict_path path, std::ptrdiff_t begin, std::ptrdiff_t end);

/// Dispatch-site hook: only throw/sleep effects are meaningful here.
void hook_dispatch(injector *inj);

/// Allocation-site hook: fires `alloc_failure` rules as `std::bad_alloc`.
void hook_allocation(injector *inj);

/// Executor-task hook, consulted from `pooled_evaluate` work chunks. Uses the
/// process-global injector (the executor is shared across engines). Only the
/// sleep effects apply — a throw from inside a pooled chunk would tear the
/// parallel-for, so stall/slow rules are the supported executor faults.
void hook_executor_task();

// ---------------------------------------------------------------------------
// circuit breaker + fallback ladder
// ---------------------------------------------------------------------------

/// Lifecycle of one per-path circuit breaker.
enum class breaker_state : std::uint8_t {
    closed = 0,     ///< path healthy, traffic flows
    open = 1,       ///< path tripped, no traffic until the cooldown elapses
    half_open = 2,  ///< probing: a bounded number of requests may try the path
};

[[nodiscard]] constexpr std::string_view breaker_state_to_string(const breaker_state state) noexcept {
    switch (state) {
        case breaker_state::closed:
            return "closed";
        case breaker_state::open:
            return "open";
        case breaker_state::half_open:
            return "half_open";
    }
    return "unknown";
}

/// Error-rate-window breaker tuning.
struct breaker_config {
    /// Rolling count window: after this many samples the window resets.
    std::size_t window{ 32 };
    /// Error rate in the window that trips the breaker.
    double trip_error_rate{ 0.5 };
    /// Minimum samples in the window before the rate is meaningful.
    std::size_t min_samples{ 8 };
    /// How long an open breaker blocks the path before probing.
    std::chrono::microseconds open_duration{ std::chrono::milliseconds{ 250 } };
    /// Consecutive half-open successes required to close again.
    std::size_t half_open_probes{ 2 };
};

/// One path's circuit breaker. Caller-clocked (pass `now`) so tests drive it
/// with a fake clock; thread-safe.
class circuit_breaker {
  public:
    using clock = std::chrono::steady_clock;

    explicit circuit_breaker(const breaker_config config = {}) :
        config_{ config } {}

    /// Record the outcome of one evaluation attempt on this path.
    void record(const bool success, const clock::time_point now) {
        const std::lock_guard lock{ mutex_ };
        advance(now);
        switch (state_) {
            case breaker_state::closed: {
                ++win_total_;
                if (!success) {
                    ++win_errors_;
                }
                if (win_total_ >= config_.min_samples
                    && static_cast<double>(win_errors_) >= config_.trip_error_rate * static_cast<double>(win_total_)) {
                    trip(now);
                } else if (win_total_ >= config_.window) {
                    win_total_ = 0;
                    win_errors_ = 0;
                }
                break;
            }
            case breaker_state::half_open: {
                if (success) {
                    ++probe_successes_;
                    if (probe_successes_ >= config_.half_open_probes) {
                        state_ = breaker_state::closed;
                        win_total_ = 0;
                        win_errors_ = 0;
                    }
                } else {
                    trip(now);
                }
                break;
            }
            case breaker_state::open:
                // a straggler attempt that started before the trip; on
                // failure refresh the cooldown, on success ignore
                if (!success) {
                    opened_at_ = now;
                }
                break;
        }
    }

    /// Whether traffic may be routed to this path right now. Transitions
    /// open -> half-open when the cooldown has elapsed.
    [[nodiscard]] bool allow(const clock::time_point now) {
        const std::lock_guard lock{ mutex_ };
        advance(now);
        return state_ != breaker_state::open;
    }

    /// Current state (advancing open -> half-open if the cooldown elapsed).
    [[nodiscard]] breaker_state current(const clock::time_point now) {
        const std::lock_guard lock{ mutex_ };
        advance(now);
        return state_;
    }

    /// Number of closed/half-open -> open transitions so far.
    [[nodiscard]] std::size_t trips() const {
        const std::lock_guard lock{ mutex_ };
        return trips_;
    }

  private:
    void advance(const clock::time_point now) {
        if (state_ == breaker_state::open && now - opened_at_ >= config_.open_duration) {
            state_ = breaker_state::half_open;
            probe_successes_ = 0;
        }
    }

    void trip(const clock::time_point now) {
        state_ = breaker_state::open;
        opened_at_ = now;
        ++trips_;
        win_total_ = 0;
        win_errors_ = 0;
        probe_successes_ = 0;
    }

    breaker_config config_;
    mutable std::mutex mutex_;
    breaker_state state_{ breaker_state::closed };
    clock::time_point opened_at_{};
    std::size_t win_total_{ 0 };
    std::size_t win_errors_{ 0 };
    std::size_t probe_successes_{ 0 };
    std::size_t trips_{ 0 };
};

/// Which dispatch paths are currently allowed (indexed by `predict_path`).
struct path_mask {
    std::array<bool, 3> allowed{ true, true, true };

    [[nodiscard]] bool allows(const predict_path path) const noexcept {
        return allowed[static_cast<std::size_t>(path)];
    }

    [[nodiscard]] static path_mask all() noexcept { return path_mask{}; }
};

/// One breaker per dispatch path; the fallback ladder
/// host_blocked/host_sparse -> reference emerges from masking tripped paths
/// out of `choose_path`. `reference` is never masked —
/// it is the last resort, and with every other path open it still serves.
class path_ladder {
  public:
    using clock = circuit_breaker::clock;

    explicit path_ladder(const breaker_config config = {}) :
        breakers_{ circuit_breaker{ config }, circuit_breaker{ config }, circuit_breaker{ config } } {}

    /// Mask of paths `choose_path` may choose right now.
    [[nodiscard]] path_mask allowed(const clock::time_point now) {
        path_mask mask{};
        mask.allowed[static_cast<std::size_t>(predict_path::reference)] = true;
        mask.allowed[static_cast<std::size_t>(predict_path::host_blocked)] = breakers_[1].allow(now);
        mask.allowed[static_cast<std::size_t>(predict_path::host_sparse)] = breakers_[2].allow(now);
        return mask;
    }

    /// Record one evaluation attempt's outcome on `path`.
    void record(const predict_path path, const bool success, const clock::time_point now) {
        breakers_[static_cast<std::size_t>(path)].record(success, now);
    }

    /// Current state of `path`'s breaker.
    [[nodiscard]] breaker_state state(const predict_path path, const clock::time_point now) {
        return breakers_[static_cast<std::size_t>(path)].current(now);
    }

    /// Total trips across all paths.
    [[nodiscard]] std::size_t trips() const {
        std::size_t total = 0;
        for (const circuit_breaker &b : breakers_) {
            total += b.trips();
        }
        return total;
    }

    /// Trips of one path's breaker.
    [[nodiscard]] std::size_t trips(const predict_path path) const {
        return breakers_[static_cast<std::size_t>(path)].trips();
    }

  private:
    std::array<circuit_breaker, 3> breakers_;
};

// ---------------------------------------------------------------------------
// retry policy
// ---------------------------------------------------------------------------

/// Bounded exponential backoff with deterministic jitter for transient batch
/// failures (retries happen at whole-batch granularity before bisection).
struct retry_config {
    /// Evaluation attempts per batch before bisection (1 = no retry).
    std::size_t max_attempts{ 3 };
    /// Backoff before the first retry.
    std::chrono::microseconds base_backoff{ 100 };
    /// Multiplier applied per further retry.
    double backoff_multiplier{ 2.0 };
    /// Jitter fraction in [0, 1]: the actual sleep is backoff * (1 ± jitter/2),
    /// drawn from the fault plane's seeded PRNG.
    double jitter{ 0.5 };
    /// Upper bound on one backoff sleep.
    std::chrono::microseconds max_backoff{ std::chrono::milliseconds{ 5 } };
    /// Seed of the jitter PRNG (deterministic across runs).
    std::uint64_t seed{ 42 };
};

// ---------------------------------------------------------------------------
// watchdog
// ---------------------------------------------------------------------------

/// Lane-watchdog tuning. Disabled by default: serving threads are trusted
/// unless the deployment opts into stall detection. The watchdog is event
/// driven (a condition variable keyed on publish/clear), so it never polls.
struct watchdog_config {
    /// A batch whose evaluation exceeds max(stall_timeout, estimate_factor *
    /// estimated seconds) is declared stalled; 0 disables the watchdog.
    std::chrono::microseconds stall_timeout{ 0 };
    /// Headroom multiplier over the engine's measured estimate of the batch
    /// (its size times the measured seconds per request of its path). Until
    /// that path has run a clean batch there is no estimate, and
    /// `stall_timeout` alone bounds the batch.
    double estimate_factor{ 8.0 };
};

// ---------------------------------------------------------------------------
// engine-facing configuration bundle
// ---------------------------------------------------------------------------

/// Fault-tolerance knobs of one engine (`engine_config::fault`).
struct fault_config {
    /// Transient-failure retry policy of the drain loop.
    retry_config retry{};
    /// Per-path circuit-breaker tuning.
    breaker_config breaker{};
    /// Lane-watchdog tuning (off by default).
    watchdog_config watchdog{};
    /// Fault injector consulted by this engine's hooks (shared so tests and
    /// the soak bench can inspect counters while the engine runs); null = none.
    std::shared_ptr<injector> inject{};
};

/// Per-engine fault-plane state: the ladder, the injector handle, and the
/// deterministic jitter stream for retry backoff.
class fault_plane {
  public:
    explicit fault_plane(const fault_config &config) :
        config_{ config },
        ladder_{ config.breaker },
        jitter_state_{ config.retry.seed } {}

    [[nodiscard]] const fault_config &config() const noexcept { return config_; }

    [[nodiscard]] path_ladder &ladder() noexcept { return ladder_; }

    [[nodiscard]] injector *inject() const noexcept { return config_.inject.get(); }

    /// Backoff before retry number `attempt` (1-based), jittered and bounded.
    [[nodiscard]] std::chrono::microseconds backoff(const std::size_t attempt) {
        const retry_config &r = config_.retry;
        double us = static_cast<double>(r.base_backoff.count());
        for (std::size_t i = 1; i < attempt; ++i) {
            us *= r.backoff_multiplier;
        }
        if (r.jitter > 0.0) {
            // deterministic jitter stream: splitmix64 sequence from the seed
            std::uint64_t x = jitter_state_.fetch_add(0x9e3779b97f4a7c15ULL, std::memory_order_relaxed) + 0x9e3779b97f4a7c15ULL;
            x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
            x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
            x = x ^ (x >> 31);
            const double u = static_cast<double>(x >> 11) * 0x1.0p-53;  // [0, 1)
            us *= 1.0 + r.jitter * (u - 0.5);
        }
        us = std::min(us, static_cast<double>(r.max_backoff.count()));
        us = std::max(us, 0.0);
        return std::chrono::microseconds{ static_cast<std::chrono::microseconds::rep>(us) };
    }

  private:
    fault_config config_;
    path_ladder ladder_;
    std::atomic<std::uint64_t> jitter_state_;
};

// ---------------------------------------------------------------------------
// settle-once in-flight batch
// ---------------------------------------------------------------------------

/// The completion callbacks of one in-flight batch, wrapped so every request
/// is settled exactly once even when the drain thread and the watchdog race:
/// the drain thread settles per-request results as it completes them, and
/// the watchdog calls `fail_unsettled()` when it declares the lane stalled.
/// A slot's callback is taken out under the internal mutex and called after
/// the mutex is released, so a callback never runs under an engine lock.
template <typename T>
class inflight_batch {
  public:
    inflight_batch(std::vector<completion_callback<T>> callbacks, const request_class cls) :
        callbacks_{ std::move(callbacks) },
        cls_{ cls } {}

    /// Number of requests in the batch.
    [[nodiscard]] std::size_t size() const noexcept { return callbacks_.size(); }

    /// Request class of the batch.
    [[nodiscard]] request_class cls() const noexcept { return cls_; }

    /// Settle slot `i` with a value. Returns false if already settled.
    bool set_value(const std::size_t i, T value) {
        return settle(i, std::move(value), nullptr);
    }

    /// Settle slot `i` with an exception. Returns false if already settled.
    bool set_exception(const std::size_t i, std::exception_ptr error) {
        return settle(i, T{}, std::move(error));
    }

    /// Fail every still-unsettled slot with a `request_failed_exception` of
    /// @p kind built for that slot alone (callers on different threads never
    /// share one error object) and mark the batch abandoned (the drain
    /// thread's late settles become no-ops). Returns the number of slots
    /// failed.
    std::size_t fail_unsettled(const failure_kind kind, const std::string &detail) {
        std::vector<completion_callback<T>> unsettled;
        {
            const std::lock_guard lock{ mutex_ };
            abandoned_ = true;
            for (completion_callback<T> &done : callbacks_) {
                if (done) {
                    unsettled.push_back(std::exchange(done, nullptr));
                }
            }
        }
        for (completion_callback<T> &done : unsettled) {
            done(T{}, std::make_exception_ptr(request_failed_exception{ kind, cls_, detail }));
        }
        return unsettled.size();
    }

    /// Whether `fail_unsettled` ran (the batch was taken over by the watchdog).
    [[nodiscard]] bool abandoned() const {
        const std::lock_guard lock{ mutex_ };
        return abandoned_;
    }

  private:
    bool settle(const std::size_t i, T value, std::exception_ptr error) {
        completion_callback<T> done;
        {
            const std::lock_guard lock{ mutex_ };
            done = std::exchange(callbacks_[i], nullptr);
        }
        if (!done) {
            return false;
        }
        done(std::move(value), std::move(error));
        return true;
    }

    mutable std::mutex mutex_;
    std::vector<completion_callback<T>> callbacks_;  ///< empty once settled
    bool abandoned_{ false };
    request_class cls_;
};

// ---------------------------------------------------------------------------
// drain supervisor (lane watchdog + restart)
// ---------------------------------------------------------------------------

/// Owns an engine's drain thread and (optionally) a watchdog thread that
/// monitors per-batch deadlines. The drain thread `publish()`es each batch's
/// in-flight requests plus a deadline before evaluating and `clear()`s them
/// after evaluating; when a published deadline passes, the watchdog fails the
/// batch's unsettled requests with `failure_kind::worker_stall`, bumps the
/// lane **generation** (the abandoned drain thread sees the bump at its next
/// loop head and exits), retires the stuck thread, and starts a fresh one.
///
/// Generation discipline: `publish`/`clear` carry the caller's generation and
/// no-op when it is stale, so an abandoned thread that wakes from a stuck
/// kernel can never touch the new generation's state. Lock order is
/// supervisor mutex -> inflight mutex (fail_unsettled is called *outside*
/// the supervisor mutex; the inflight pointer is moved out first).
template <typename T>
class drain_supervisor {
  public:
    using clock = std::chrono::steady_clock;
    /// Drain-loop body; runs until `generation() != my_gen` or shutdown.
    using run_fn = std::function<void(std::uint64_t generation)>;
    /// Stall callback (metrics/health hook), invoked after a restart with the
    /// running restart count, the number of requests failed by this stall and
    /// the request class of the stalled batch.
    using stall_fn = std::function<void(std::size_t stall_restarts, std::size_t failed_requests, request_class cls)>;

    drain_supervisor() = default;

    ~drain_supervisor() { stop(); }

    drain_supervisor(const drain_supervisor &) = delete;
    drain_supervisor &operator=(const drain_supervisor &) = delete;

    /// Start the drain thread (generation 1) and, if `config.stall_timeout`
    /// is non-zero, the watchdog thread.
    void start(const watchdog_config &config, run_fn run, stall_fn on_stall = {}) {
        config_ = config;
        run_ = std::move(run);
        on_stall_ = std::move(on_stall);
        generation_.store(1, std::memory_order_release);
        drainer_ = std::thread{ [this] { run_(1); } };
        if (config_.stall_timeout.count() > 0) {
            watchdog_ = std::thread{ [this] { watchdog_loop(); } };
        }
    }

    /// Current lane generation; the drain loop re-checks it at every loop
    /// head and after every batch, exiting when it no longer matches.
    [[nodiscard]] std::uint64_t generation() const noexcept { return generation_.load(std::memory_order_acquire); }

    /// Publish the in-flight batch + its deadline (drain thread, before
    /// evaluation). No-ops if `gen` is stale.
    void publish(std::shared_ptr<inflight_batch<T>> batch, const clock::time_point deadline, const std::uint64_t gen) {
        {
            const std::lock_guard lock{ mutex_ };
            if (gen != generation_.load(std::memory_order_relaxed)) {
                return;
            }
            inflight_ = std::move(batch);
            deadline_ = deadline;
            ++seq_;
        }
        cv_.notify_all();
    }

    /// Clear the published batch (drain thread, after settling). No-ops if
    /// `gen` is stale.
    void clear(const std::uint64_t gen) {
        {
            const std::lock_guard lock{ mutex_ };
            if (gen != generation_.load(std::memory_order_relaxed)) {
                return;
            }
            inflight_.reset();
            ++seq_;
        }
        cv_.notify_all();
    }

    /// Number of watchdog-triggered lane restarts.
    [[nodiscard]] std::size_t stall_restarts() const {
        const std::lock_guard lock{ mutex_ };
        return stall_restarts_;
    }

    /// Stop the watchdog and join all drain threads (current + retired).
    /// The caller must have already shut the batcher down so the drain
    /// thread's `next_batch()` returns empty and the loop exits.
    void stop() {
        {
            const std::lock_guard lock{ mutex_ };
            if (stopping_) {
                return;
            }
            stopping_ = true;
            ++seq_;
        }
        cv_.notify_all();
        if (watchdog_.joinable()) {
            watchdog_.join();
        }
        if (drainer_.joinable()) {
            drainer_.join();
        }
        std::vector<std::thread> retired;
        {
            const std::lock_guard lock{ mutex_ };
            retired.swap(retired_);
        }
        for (std::thread &t : retired) {
            if (t.joinable()) {
                t.join();
            }
        }
    }

  private:
    void watchdog_loop() {
        std::unique_lock lock{ mutex_ };
        while (!stopping_) {
            if (inflight_ == nullptr) {
                // idle: wait untimed for a publish/stop (seq_ changes)
                const std::uint64_t seen = seq_;
                cv_.wait(lock, [this, seen] { return stopping_ || seq_ != seen; });
                continue;
            }
            const std::uint64_t seen = seq_;
            const clock::time_point deadline = deadline_;
            if (clock::now() < deadline) {
                cv_.wait_until(lock, deadline, [this, seen] { return stopping_ || seq_ != seen; });
                continue;
            }
            // deadline passed with the batch still published: declare a stall
            std::shared_ptr<inflight_batch<T>> stalled = std::move(inflight_);
            inflight_.reset();
            ++seq_;
            const std::uint64_t new_gen = generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
            retired_.push_back(std::move(drainer_));
            ++stall_restarts_;
            const std::size_t restarts = stall_restarts_;
            lock.unlock();
            // settle outside the supervisor mutex (lock order: supervisor -> inflight)
            const std::size_t failed = stalled->fail_unsettled(failure_kind::worker_stall, "lane watchdog: batch deadline exceeded, lane restarted");
            std::thread fresh{ [this, new_gen] { run_(new_gen); } };
            lock.lock();
            drainer_ = std::move(fresh);
            lock.unlock();
            if (on_stall_) {
                on_stall_(restarts, failed, stalled->cls());
            }
            lock.lock();
        }
    }

    watchdog_config config_{};
    run_fn run_{};
    stall_fn on_stall_{};
    std::atomic<std::uint64_t> generation_{ 0 };
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::shared_ptr<inflight_batch<T>> inflight_{};
    clock::time_point deadline_{};
    std::uint64_t seq_{ 0 };
    std::thread drainer_;
    std::thread watchdog_;
    std::vector<std::thread> retired_{};
    bool stopping_{ false };
    std::size_t stall_restarts_{ 0 };
};

// ---------------------------------------------------------------------------
// health monitor
// ---------------------------------------------------------------------------

/// Inputs of one health evaluation (sampled after every drained batch and on
/// stall restarts).
struct health_inputs {
    /// Any path breaker currently open.
    bool breaker_open{ false };
    /// Any path breaker currently half-open.
    bool breaker_half_open{ false };
    /// A stall restart happened since the last observation.
    bool stall_restarted{ false };
    /// SLO burn-rate alert at degraded severity (multi-window, see slo.hpp).
    bool slo_degraded{ false };
    /// SLO burn-rate alert at critical severity.
    bool slo_critical{ false };
    /// Cumulative counters (the monitor diffs them internally into a window).
    std::size_t admission_attempts{ 0 };
    std::size_t shed{ 0 };
    std::size_t completed{ 0 };
    std::size_t deadline_misses{ 0 };
    std::size_t quarantined{ 0 };
};

/// Result of one health observation.
struct health_transition {
    bool changed{ false };
    health_state from{ health_state::healthy };
    health_state to{ health_state::healthy };
};

/// Engine health state machine: healthy / degraded / critical, driven by
/// breaker state, windowed shed rate, windowed deadline-miss rate,
/// quarantines, and stall restarts. Cumulative counters are diffed into
/// deltas per observation so a long-past incident does not pin the state.
class health_monitor {
  public:
    /// Observe the current inputs; returns the (possible) transition.
    health_transition observe(const health_inputs &in) {
        const std::lock_guard lock{ mutex_ };
        const std::size_t d_attempts = in.admission_attempts - last_.admission_attempts;
        const std::size_t d_shed = in.shed - last_.shed;
        const std::size_t d_completed = in.completed - last_.completed;
        const std::size_t d_misses = in.deadline_misses - last_.deadline_misses;
        const std::size_t d_quarantined = in.quarantined - last_.quarantined;
        last_ = in;

        const double shed_rate = d_attempts > 0 ? static_cast<double>(d_shed) / static_cast<double>(d_attempts) : 0.0;
        const double miss_rate = d_completed > 0 ? static_cast<double>(d_misses) / static_cast<double>(d_completed) : 0.0;

        health_state next = health_state::healthy;
        if (in.breaker_open || in.stall_restarted || in.slo_critical || shed_rate >= 0.5) {
            next = health_state::critical;
        } else if (in.breaker_half_open || in.slo_degraded || d_quarantined > 0 || shed_rate >= 0.05 || miss_rate >= 0.05) {
            next = health_state::degraded;
        }

        health_transition result{ next != state_, state_, next };
        if (result.changed) {
            state_ = next;
            ++transitions_;
        }
        return result;
    }

    [[nodiscard]] health_state state() const {
        const std::lock_guard lock{ mutex_ };
        return state_;
    }

    /// Number of state transitions so far.
    [[nodiscard]] std::size_t transitions() const {
        const std::lock_guard lock{ mutex_ };
        return transitions_;
    }

  private:
    mutable std::mutex mutex_;
    health_state state_{ health_state::healthy };
    std::size_t transitions_{ 0 };
    health_inputs last_{};
};

// ---------------------------------------------------------------------------
// error-construction helpers
// ---------------------------------------------------------------------------

/// Classify an exception from an evaluation attempt into a `failure_kind`.
[[nodiscard]] inline failure_kind classify_failure(const std::exception_ptr &error) noexcept {
    try {
        std::rethrow_exception(error);
    } catch (const std::bad_alloc &) {
        return failure_kind::allocation;
    } catch (...) {
        return failure_kind::kernel_error;
    }
}

/// The message of @p cause, for the detail of a typed error built from it.
[[nodiscard]] inline std::string failure_cause(const std::exception_ptr &cause) {
    try {
        std::rethrow_exception(cause);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "non-standard exception";
    }
}

/// Build the typed quarantine error for one poisoned request, preserving the
/// original cause's message as detail.
[[nodiscard]] inline std::exception_ptr quarantine_error(const std::exception_ptr &cause, const request_class cls) {
    return std::make_exception_ptr(request_failed_exception{
        classify_failure(cause), cls, "request quarantined after batch bisection; cause: " + failure_cause(cause) });
}

}  // namespace fault

}  // namespace plssvm::serve

#endif  // PLSSVM_SERVE_FAULT_HPP_
