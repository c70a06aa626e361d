/**
 * @file
 * @brief Observability plane of the serving stack (`plssvm::serve::obs`):
 *        request-lifecycle tracing, log-bucketed latency histograms, a
 *        Prometheus text exposition builder, and an always-on flight
 *        recorder.
 *
 * The serving stack (admission control, micro-batching, executor
 * lanes, shape-based dispatch) previously exposed only end-to-end p50/p99 per
 * class — when a QoS gate blew there was no way to tell whether the time
 * went to admission, queue wait, batch formation, or the kernel. This header
 * adds the three missing primitives:
 *
 *  - **lifecycle traces** (`request_trace`): every request is stamped at
 *    admission, enqueue, batch-seal, dispatch-start, and completion. Sampled
 *    traces (rate configurable per request class; deadline-carrying requests
 *    are always traced) are published into bounded, mutex-guarded rings.
 *  - **log-bucketed histograms** (`latency_histogram`): HDR-style log-linear
 *    buckets over nanoseconds (16 sub-buckets per octave, <= ~6% relative
 *    error). Mergeable and subtractable, so percentiles are epoch-stable:
 *    a window delta between two snapshots never blends pre- and
 *    post-load-change samples the way the old overwriting sample rings did.
 *  - **flight recorder** (`flight_recorder`): retains the last N complete
 *    traces per class and renders them as JSON on shed, deadline miss
 *    (rate-limited), or explicit request — a QoS violation ships with its
 *    own diagnosis.
 *
 * `prometheus_builder` renders counters/gauges/histograms in the Prometheus
 * text exposition format; `engine.metrics_text()` / `registry.metrics_text()`
 * are built on it.
 */

#ifndef PLSSVM_SERVE_OBS_HPP_
#define PLSSVM_SERVE_OBS_HPP_

#include "plssvm/serve/qos.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace plssvm::serve {

/// Execution path a prediction batch was routed to by `choose_path`
/// (recorded per batch in `serve_stats` and per trace in the flight
/// recorder).
enum class predict_path {
    /// Serial small-batch path: the per-point scalar sweep for dense batches
    /// (also the parity baseline), the serial CSR sweep for sparse ones.
    reference,
    /// Register/cache-tiled host batch kernels (`serve/batch_kernels`).
    host_blocked,
    /// Sparse host sweeps (`serve/batch_kernels` CSR kernels): CSR-query or
    /// CSR-compiled SV panels evaluated in O(nnz) instead of O(dim)/O(sv*dim).
    host_sparse,
};

[[nodiscard]] constexpr std::string_view predict_path_to_string(const predict_path path) noexcept {
    switch (path) {
        case predict_path::reference:
            return "reference";
        case predict_path::host_blocked:
            return "host_blocked";
        case predict_path::host_sparse:
            return "host_sparse";
    }
    return "unknown";
}

namespace obs {

// ---------------------------------------------------------------------------
// trace stage vocabulary
// ---------------------------------------------------------------------------

/// Lifecycle interval of one request, delimited by the five stamps
/// admission -> enqueue -> batch-seal -> dispatch-start -> completion.
enum class trace_stage : std::uint8_t {
    admission = 0,   ///< admission decision to micro-batcher enqueue
    queue_wait = 1,  ///< enqueue to batch seal (time spent waiting in the class FIFO)
    dispatch = 2,    ///< batch seal to kernel dispatch start (copy/shape/route)
    service = 3,     ///< dispatch start to completion (kernel + fulfilment)
};

/// Number of lifecycle stages (array extent of per-stage state).
inline constexpr std::size_t num_trace_stages = 4;

/// All stages in lifecycle order, for range-for iteration.
inline constexpr std::array<trace_stage, num_trace_stages> all_trace_stages{
    trace_stage::admission, trace_stage::queue_wait, trace_stage::dispatch, trace_stage::service
};

[[nodiscard]] constexpr std::size_t stage_index(const trace_stage stage) noexcept {
    return static_cast<std::size_t>(stage);
}

[[nodiscard]] constexpr std::string_view trace_stage_to_string(const trace_stage stage) noexcept {
    switch (stage) {
        case trace_stage::admission:
            return "admission";
        case trace_stage::queue_wait:
            return "queue_wait";
        case trace_stage::dispatch:
            return "dispatch";
        case trace_stage::service:
            return "service";
    }
    return "unknown";
}

/// Per-stage durations in seconds, indexed by `stage_index()`.
using stage_seconds = std::array<double, num_trace_stages>;

// ---------------------------------------------------------------------------
// log-bucketed latency histogram
// ---------------------------------------------------------------------------

/**
 * @brief HDR-style log-linear latency histogram over nanoseconds.
 *
 * Buckets: values below 16 ns get one bucket each; every octave above is
 * split into 16 sub-buckets, so the relative bucket width — and therefore
 * the worst-case quantile error — is bounded by 1/16 (~6%). The covered
 * range is [0, 2^40 ns ≈ 18 min]; larger values clamp into the top bucket.
 *
 * Histograms are plain values (no internal locking — callers serialize, the
 * `serve_metrics` mutex in practice). They are mergeable (`merge`) across
 * engines and subtractable (`delta_since`) so two cumulative snapshots yield
 * exact per-window percentiles: the epoch-stability the old overwriting
 * sample rings could not provide.
 */
class latency_histogram {
  public:
    /// Sub-bucket resolution: each octave splits into 2^sub_bits buckets.
    static constexpr unsigned sub_bits = 4;
    /// Sub-buckets per octave.
    static constexpr std::size_t sub_count = std::size_t{ 1 } << sub_bits;
    /// Largest representable value (ns); larger observations clamp here.
    static constexpr std::uint64_t max_value_ns = (std::uint64_t{ 1 } << 40) - 1;
    /// Total bucket count: 16 unit buckets + 36 octaves x 16 sub-buckets.
    static constexpr std::size_t num_buckets = sub_count + (40 - sub_bits) * sub_count;

    /// Bucket index of @p ns (clamped into the covered range).
    [[nodiscard]] static constexpr std::size_t bucket_index(std::uint64_t ns) noexcept {
        ns = ns < max_value_ns ? ns : max_value_ns;
        if (ns < sub_count) {
            return static_cast<std::size_t>(ns);
        }
        const unsigned exp = 63u - static_cast<unsigned>(std::countl_zero(ns));
        const std::size_t sub = static_cast<std::size_t>((ns >> (exp - sub_bits)) & (sub_count - 1));
        return (exp - sub_bits + 1) * sub_count + sub;
    }

    /// Inclusive upper bound (ns) of bucket @p index.
    [[nodiscard]] static constexpr std::uint64_t bucket_upper_ns(const std::size_t index) noexcept {
        if (index < sub_count) {
            return index;
        }
        const std::size_t block = index / sub_count;
        const unsigned exp = static_cast<unsigned>(block) + sub_bits - 1;
        const std::uint64_t sub = index % sub_count;
        const std::uint64_t lower = (std::uint64_t{ 1 } << exp) + (sub << (exp - sub_bits));
        return lower + (std::uint64_t{ 1 } << (exp - sub_bits)) - 1;
    }

    /// Record one observation of @p seconds (negative values clamp to 0).
    void record(const double seconds) {
        const double ns_d = seconds > 0.0 ? seconds * 1e9 : 0.0;
        const auto ns = ns_d < static_cast<double>(max_value_ns) ? static_cast<std::uint64_t>(ns_d) : max_value_ns;
        ++counts_[bucket_index(ns)];
        ++count_;
        sum_seconds_ += seconds > 0.0 ? seconds : 0.0;
        max_ns_ = ns > max_ns_ ? ns : max_ns_;
    }

    /// Fold @p count observations quantized at bucket @p index into the
    /// histogram (used by time-series window merges; the sum charges each
    /// observation at the bucket's upper bound, consistent with quantile()'s
    /// one-sided error).
    void accumulate(const std::size_t index, const std::uint64_t count) noexcept {
        if (index >= num_buckets || count == 0) {
            return;
        }
        counts_[index] += count;
        count_ += count;
        const std::uint64_t upper = bucket_upper_ns(index);
        sum_seconds_ += static_cast<double>(count) * static_cast<double>(upper) * 1e-9;
        max_ns_ = upper > max_ns_ ? upper : max_ns_;
    }

    /// Fold @p other into this histogram (cross-engine aggregation).
    void merge(const latency_histogram &other) noexcept {
        for (std::size_t i = 0; i < num_buckets; ++i) {
            counts_[i] += other.counts_[i];
        }
        count_ += other.count_;
        sum_seconds_ += other.sum_seconds_;
        max_ns_ = other.max_ns_ > max_ns_ ? other.max_ns_ : max_ns_;
    }

    /// The observations recorded since @p earlier (an older snapshot of this
    /// same histogram) — the epoch-stable window view. Saturating: a bucket
    /// never underflows even if @p earlier is not actually a prefix.
    [[nodiscard]] latency_histogram delta_since(const latency_histogram &earlier) const noexcept {
        latency_histogram delta;
        for (std::size_t i = 0; i < num_buckets; ++i) {
            delta.counts_[i] = counts_[i] >= earlier.counts_[i] ? counts_[i] - earlier.counts_[i] : 0;
            delta.count_ += delta.counts_[i];
        }
        delta.sum_seconds_ = sum_seconds_ >= earlier.sum_seconds_ ? sum_seconds_ - earlier.sum_seconds_ : 0.0;
        delta.max_ns_ = max_ns_;  // max is cumulative; the window max is not recoverable
        return delta;
    }

    /// Number of recorded observations.
    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

    /// Sum of all recorded observations in seconds.
    [[nodiscard]] double sum_seconds() const noexcept { return sum_seconds_; }

    /// Largest recorded observation in seconds (bucket-exact).
    [[nodiscard]] double max_seconds() const noexcept { return static_cast<double>(max_ns_) * 1e-9; }

    /// Nearest-rank quantile in seconds (q in [0, 1]); 0 if empty. Reports
    /// the upper bound of the target bucket, capped at the recorded max, so
    /// the error is one-sided (never optimistic) and <= one sub-bucket.
    [[nodiscard]] double quantile(const double q) const noexcept {
        if (count_ == 0) {
            return 0.0;
        }
        const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
        const auto rank = static_cast<std::uint64_t>(clamped * static_cast<double>(count_ - 1) + 0.5);
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < num_buckets; ++i) {
            cumulative += counts_[i];
            if (cumulative > rank) {
                const std::uint64_t upper = bucket_upper_ns(i);
                return static_cast<double>(upper < max_ns_ ? upper : max_ns_) * 1e-9;
            }
        }
        return max_seconds();
    }

    /// Observations in buckets whose upper bound is <= @p seconds (the
    /// cumulative `le` count of the Prometheus exposition; bucket-quantized,
    /// monotone in @p seconds).
    [[nodiscard]] std::uint64_t count_le(const double seconds) const noexcept {
        const double ns_d = seconds > 0.0 ? seconds * 1e9 : 0.0;
        const auto ns = ns_d < static_cast<double>(max_value_ns) ? static_cast<std::uint64_t>(ns_d) : max_value_ns;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < num_buckets && bucket_upper_ns(i) <= ns; ++i) {
            cumulative += counts_[i];
        }
        return cumulative;
    }

  private:
    std::array<std::uint64_t, num_buckets> counts_{};
    std::uint64_t count_{ 0 };
    double sum_seconds_{ 0.0 };
    std::uint64_t max_ns_{ 0 };
};

// ---------------------------------------------------------------------------
// rolling time-series store
// ---------------------------------------------------------------------------

/**
 * @brief Rolling time series of per-second buckets: per-class counter
 *        deltas plus the latency observations of each bucket, so windowed
 *        rates and percentiles (10s / 1m / 5m) are computable at any moment
 *        without a since-epoch bias.
 *
 * A plain value like `latency_histogram`: no internal locking, callers
 * serialize (the `serve_metrics` mutex in practice). A bucket is reused for
 * a newer second by clearing it; an observation stamped with a second whose
 * bucket a newer second already took is dropped.
 *
 * The clock is injected per call (`record*`/`windows` take the observation
 * time point), which makes bucket rollover, ring wraparound, and idle-gap
 * behavior deterministic under a fake clock in tests.
 */
class time_series_store {
  public:
    /// Default ring capacity in seconds: covers the 5 m window plus slack.
    static constexpr std::size_t default_capacity_seconds = 330;

    explicit time_series_store(std::size_t capacity_seconds = default_capacity_seconds);

    /// Record one completed request observed at @p now.
    void record_complete(request_class cls, std::chrono::steady_clock::time_point now,
                         double latency_seconds, bool deadline_missed);

    /// Record one shed decision observed at @p now.
    void record_shed(request_class cls, std::chrono::steady_clock::time_point now);

    /// Record @p count failed (typed-error) requests observed at @p now.
    void record_failure(request_class cls, std::chrono::steady_clock::time_point now, std::uint64_t count = 1);

    /// Aggregates of one trailing window ending at the query instant.
    struct window_view {
        std::chrono::seconds window{ 0 };
        per_class<std::uint64_t> completed{};
        per_class<std::uint64_t> shed{};
        per_class<std::uint64_t> failed{};
        per_class<std::uint64_t> deadline_misses{};
        per_class<latency_histogram> latency{};

        [[nodiscard]] std::uint64_t total_completed() const noexcept {
            std::uint64_t total = 0;
            for (const std::uint64_t v : completed) { total += v; }
            return total;
        }

        /// Requests per second over the window (completed only).
        [[nodiscard]] double rate(const request_class cls) const noexcept {
            return window.count() > 0 ? static_cast<double>(completed[class_index(cls)]) / static_cast<double>(window.count()) : 0.0;
        }

        /// Fraction of offered requests answered (1.0 when idle).
        [[nodiscard]] double availability(const request_class cls) const noexcept {
            const std::size_t i = class_index(cls);
            const std::uint64_t offered = completed[i] + shed[i] + failed[i];
            return offered == 0 ? 1.0 : static_cast<double>(completed[i]) / static_cast<double>(offered);
        }
    };

    /// One sweep over the ring producing every requested trailing window
    /// (ending at @p now). Buckets older than the largest span are skipped.
    [[nodiscard]] std::vector<window_view> windows(std::chrono::steady_clock::time_point now,
                                                   const std::vector<std::chrono::seconds> &spans) const;

    /// Ring capacity in seconds.
    [[nodiscard]] std::size_t capacity_seconds() const noexcept { return buckets_.size(); }

  private:
    /// Observations of one second that fell into one `latency_histogram`
    /// bucket: (bucket index, count). 32-bit counts cannot overflow — every
    /// record takes a mutex, so a second holds far fewer than 2^32 — which
    /// keeps a full list no larger than a dense array of 64-bit counts.
    using latency_count = std::pair<std::uint32_t, std::uint32_t>;

    /// One per-second bucket; `second` is the absolute steady-clock second
    /// it currently holds (-1 = never used).
    struct bucket {
        std::int64_t second{ -1 };
        per_class<std::uint64_t> completed{};
        per_class<std::uint64_t> shed{};
        per_class<std::uint64_t> failed{};
        per_class<std::uint64_t> deadline_misses{};
        /// Per class, ascending by bucket index; only nonzero counts.
        per_class<std::vector<latency_count>> latency{};
    };

    /// The bucket of @p second, cleared first if it held an older second;
    /// nullptr when a newer second already took it.
    [[nodiscard]] bucket *bucket_for(std::int64_t second);

    std::vector<bucket> buckets_;
};

// ---------------------------------------------------------------------------
// request traces + trace ring
// ---------------------------------------------------------------------------

/// One request's lifecycle record. Timestamps are steady-clock nanoseconds
/// relative to the owning flight recorder's construction (`to_ns()`); a zero
/// stamp means "stage never reached" (e.g. a shed request only carries
/// `t_admit_ns`).
struct request_trace {
    std::uint64_t id{ 0 };                      ///< engine-unique trace id (1-based)
    request_class cls{ request_class::interactive };
    predict_path path{ predict_path::reference };
    bool shed{ false };                         ///< rejected at admission (no lifecycle past t_admit)
    admission_decision shed_reason{ admission_decision::admitted };
    bool deadline_missed{ false };              ///< fulfilled after its deadline
    std::uint64_t batch_size{ 0 };              ///< size of the batch that served it
    double estimated_batch_seconds{ 0.0 };      ///< the engine's measured-rate estimate of that batch (0 = none yet)
    std::uint64_t t_admit_ns{ 0 };              ///< admission decision
    std::uint64_t t_enqueue_ns{ 0 };            ///< entered the class FIFO
    std::uint64_t t_seal_ns{ 0 };               ///< batch sealed (popped for draining)
    std::uint64_t t_dispatch_ns{ 0 };           ///< kernel dispatch started
    std::uint64_t t_complete_ns{ 0 };           ///< promise fulfilled
    // Wire-to-wire net stamps (0 for in-process requests): set by the net
    // plane for requests that arrived over TCP, converted into the owning
    // recorder's epoch so all eleven stamps share one timeline.
    std::uint64_t t_net_accepted_ns{ 0 };       ///< read event began being serviced
    std::uint64_t t_net_read_ns{ 0 };           ///< message bytes fully reassembled
    std::uint64_t t_net_decoded_ns{ 0 };        ///< request decoded (binary/JSON)
    std::uint64_t t_net_dispatch_ns{ 0 };       ///< handed to the model dispatcher
    std::uint64_t t_net_encoded_ns{ 0 };        ///< response bytes encoded
    std::uint64_t t_net_flushed_ns{ 0 };        ///< response handed to the socket

    /// All five lifecycle stamps present and monotone.
    [[nodiscard]] bool spans_complete() const noexcept {
        return !shed && t_admit_ns != 0 && t_admit_ns <= t_enqueue_ns && t_enqueue_ns <= t_seal_ns
            && t_seal_ns <= t_dispatch_ns && t_dispatch_ns <= t_complete_ns;
    }

    /// True for a wire-to-wire trace: the engine lifecycle is complete and
    /// all six net stamps are present and monotone around it (>= 9 stamps).
    [[nodiscard]] bool wire_complete() const noexcept {
        return spans_complete() && t_net_accepted_ns != 0 && t_net_accepted_ns <= t_net_read_ns
            && t_net_read_ns <= t_net_decoded_ns && t_net_decoded_ns <= t_net_dispatch_ns
            && t_net_dispatch_ns <= t_admit_ns && t_complete_ns <= t_net_encoded_ns
            && t_net_encoded_ns <= t_net_flushed_ns;
    }

    /// Per-stage durations in seconds (0 for unreached stages).
    [[nodiscard]] stage_seconds spans_seconds() const noexcept {
        const auto span = [](const std::uint64_t from, const std::uint64_t to) {
            return from != 0 && to >= from ? static_cast<double>(to - from) * 1e-9 : 0.0;
        };
        stage_seconds spans{};
        spans[stage_index(trace_stage::admission)] = span(t_admit_ns, t_enqueue_ns);
        spans[stage_index(trace_stage::queue_wait)] = span(t_enqueue_ns, t_seal_ns);
        spans[stage_index(trace_stage::dispatch)] = span(t_seal_ns, t_dispatch_ns);
        spans[stage_index(trace_stage::service)] = span(t_dispatch_ns, t_complete_ns);
        return spans;
    }
};

/**
 * @brief Per-request wire trace context shared between the net plane and the
 *        engine drain loop.
 *
 * The net plane captures its stamps as raw steady-clock time points (it has
 * no recorder epoch); the engine that serves the request converts everything
 * into its own recorder's epoch. Ownership: the net server allocates one
 * context per wire request and hands it to the engine with the request. The
 * request's completion callback writes the response and stamps
 * `encoded`/`flushed` on the settling thread; right after the callback
 * returned, the engine publishes the complete >= 9-stamp trace into its
 * per-class rings (traced requests only).
 */
struct wire_trace_context {
    /// Trace id: nonzero when supplied by the client (always traced) or
    /// assigned by the engine's recorder at admission.
    std::uint64_t trace_id{ 0 };
    /// True when the id came in over the wire (forces tracing through any
    /// sampling decision).
    bool client_supplied{ false };
    // net head stamps (steady clock, raw)
    std::chrono::steady_clock::time_point accepted{};
    std::chrono::steady_clock::time_point read_done{};
    std::chrono::steady_clock::time_point decoded{};
    std::chrono::steady_clock::time_point dispatched{};
    // net tail stamps (steady clock, raw) — set by the completion callback
    std::chrono::steady_clock::time_point encoded{};
    std::chrono::steady_clock::time_point flushed{};
};

/**
 * @brief Mutex-guarded ring buffer of `request_trace` records: once full,
 *        each publish overwrites the oldest record.
 *
 * A per-class trace ring has one writer (the engine's drain thread) and
 * readers only on dumps, so its mutex is uncontended on the request path;
 * the shed ring is written by the submitting threads that shed.
 */
class trace_ring {
  public:
    trace_ring() = default;
    trace_ring(const trace_ring &) = delete;
    trace_ring &operator=(const trace_ring &) = delete;

    /// (Re-)create the ring with @p capacity slots (rounded up to a power of
    /// two, >= 2). Not thread-safe; call before the ring is shared.
    void reset(std::size_t capacity);

    /// Publish @p trace into the next slot (overwrites the oldest).
    void publish(const request_trace &trace);

    /// Append every retained record to @p out, oldest first.
    void collect(std::vector<request_trace> &out) const;

    /// Total records ever published.
    [[nodiscard]] std::uint64_t published() const;

    /// Slot count.
    [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  private:
    mutable std::mutex mutex_;
    std::vector<request_trace> slots_;
    std::uint64_t head_{ 0 };  ///< records ever published; the next one goes to `head_ % capacity()`
};

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Label set of one sample: name/value pairs rendered as `{k="v",...}`.
using label_set = std::vector<std::pair<std::string, std::string>>;

/**
 * @brief Incremental builder of the Prometheus text exposition format.
 *
 * Samples added under the same metric name are grouped into one family
 * (single `# HELP` / `# TYPE` header even when a registry exposes several
 * models under distinct label sets); families render in first-registration
 * order. Label values are escaped per the exposition spec.
 */
class prometheus_builder {
  public:
    /// Add one counter sample (name should end in `_total` by convention).
    void add_counter(std::string_view name, std::string_view help, const label_set &labels, double value);

    /// Add one gauge sample.
    void add_gauge(std::string_view name, std::string_view help, const label_set &labels, double value);

    /// Add one histogram: the cumulative `le` bucket ladder (default edges
    /// from 10us to 10s plus `+Inf`), `_sum`, and `_count`.
    void add_histogram(std::string_view name, std::string_view help, const label_set &labels, const latency_histogram &hist);

    /// Render the full exposition text (trailing newline included).
    [[nodiscard]] std::string text() const;

  private:
    struct family {
        std::string name;
        std::string type;
        std::string help;
        std::vector<std::string> samples;
    };

    family &family_for(std::string_view name, std::string_view type, std::string_view help);
    void add_sample(family &fam, std::string_view name, const label_set &labels, double value);

    std::vector<family> families_;
};

/// Single-pass validity check over exposition text: every sample belongs to
/// a previously declared family (histogram `_bucket`/`_sum`/`_count`
/// suffixes resolve to their base family), no family is declared twice, and
/// no series (name + label set) repeats.
[[nodiscard]] bool exposition_valid(std::string_view text);

// ---------------------------------------------------------------------------
// build info + uptime
// ---------------------------------------------------------------------------

/// Version string reported by `plssvm_serve_build_info`.
inline constexpr std::string_view serve_version = "0.1.0";

/// Best compile-time ISA the serving kernels were built against.
[[nodiscard]] std::string_view compiled_isa() noexcept;

/// Seconds since the process's serving plane was first touched.
[[nodiscard]] double process_uptime_seconds() noexcept;

/// Emit `plssvm_serve_build_info{version,isa} 1` and
/// `plssvm_serve_uptime_seconds` into @p builder.
void collect_build_info(prometheus_builder &builder);

// ---------------------------------------------------------------------------
// flight recorder
// ---------------------------------------------------------------------------

/// Configuration of one engine's observability plane.
struct obs_config {
    /// Master switch: off disables trace sampling, the flight recorder, and
    /// violation dumps (histograms in `serve_metrics` always stay on — they
    /// are the percentile source of `stats()`).
    bool enabled{ true };
    /// Per-class trace sampling rate in [0, 1] (1 = every request). Applied
    /// at admission; a deadline-carrying request is always traced so every
    /// deadline miss ships with its trace. Internally quantized to a period
    /// (every round(1/rate)-th request).
    per_class<double> sampling{ 1.0, 1.0, 1.0 };
    /// Complete traces retained per class (rounded up to a power of two).
    std::size_t flight_recorder_capacity{ 64 };
    /// Shed events retained (rounded up to a power of two).
    std::size_t shed_ring_capacity{ 64 };
    /// Minimum spacing between automatic violation dumps (shed / deadline
    /// miss), so a shed storm does not render JSON per request.
    std::chrono::microseconds min_dump_interval{ 100000 };
};

/**
 * @brief Always-on flight recorder of one engine: per-class rings of the
 *        last N complete request traces plus a ring of shed events, dumped
 *        as JSON on shed, deadline miss (rate-limited), or explicit request.
 *
 * Hot-path cost when tracing is enabled: one atomic counter per admission
 * (sampling), one ring publish per sampled completion under the ring's
 * uncontended mutex. The dump path (rare) takes `dump_mutex_` only to swap
 * the rendered JSON string.
 */
class flight_recorder {
  public:
    explicit flight_recorder(const obs_config &config = {});

    flight_recorder(const flight_recorder &) = delete;
    flight_recorder &operator=(const flight_recorder &) = delete;

    /// The resolved configuration.
    [[nodiscard]] const obs_config &config() const noexcept { return config_; }

    /// Tracing master switch.
    [[nodiscard]] bool enabled() const noexcept { return config_.enabled; }

    /// Next engine-unique trace id (1-based).
    [[nodiscard]] std::uint64_t next_trace_id() noexcept { return 1 + id_.fetch_add(1, std::memory_order_relaxed); }

    /// Sampling decision for one admitted request. Deadline-carrying
    /// requests always trace; the rest honor the per-class period.
    [[nodiscard]] bool should_trace(request_class cls, bool has_deadline) noexcept;

    /// @p tp as nanoseconds since the recorder's epoch (construction time).
    [[nodiscard]] std::uint64_t to_ns(const std::chrono::steady_clock::time_point tp) const noexcept {
        return tp <= epoch_ ? 0 : static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch_).count());
    }

    /// Nanoseconds-since-epoch of "now".
    [[nodiscard]] std::uint64_t now_ns() const noexcept { return to_ns(std::chrono::steady_clock::now()); }

    /// Publish one completed request trace; a deadline miss triggers a
    /// rate-limited violation dump.
    void record_complete(const request_trace &trace);

    /// Record one shed decision (admission-stage-only trace) and trigger a
    /// rate-limited violation dump.
    void record_shed(request_class cls, admission_decision reason);

    /// Record one engine health transition (`from` -> `to`). Health
    /// transitions are rare and always operationally significant, so the
    /// dump is forced (not rate-limited like shed/deadline-miss dumps).
    void record_health_transition(std::string_view from, std::string_view to);

    /// Render every retained trace and shed event as JSON (explicit dump).
    [[nodiscard]] std::string dump_json(std::string_view reason) const;

    /// The JSON produced by the most recent automatic violation dump
    /// (empty string before the first violation).
    [[nodiscard]] std::string last_violation_dump() const;

    /// The JSON produced by the most recent health-transition dump (empty
    /// string before the first transition). Kept separate from
    /// `last_violation_dump()`: a health flip is derived from underlying
    /// violations and must not overwrite their root-cause evidence.
    [[nodiscard]] std::string last_health_dump() const;

    /// Retained complete traces of @p cls, oldest first.
    [[nodiscard]] std::vector<request_trace> traces(request_class cls) const;

    /// Retained shed events, oldest first.
    [[nodiscard]] std::vector<request_trace> shed_events() const;

    /// Completed traces published into the rings.
    [[nodiscard]] std::uint64_t traces_recorded() const noexcept { return traces_recorded_.load(std::memory_order_relaxed); }

    /// Shed events published.
    [[nodiscard]] std::uint64_t sheds_recorded() const noexcept { return sheds_recorded_.load(std::memory_order_relaxed); }

    /// Admitted requests skipped by sampling.
    [[nodiscard]] std::uint64_t sampled_out() const noexcept { return sampled_out_.load(std::memory_order_relaxed); }

    /// Automatic violation dumps rendered so far.
    [[nodiscard]] std::uint64_t violation_dumps() const noexcept { return violation_dumps_.load(std::memory_order_relaxed); }

    /// Forced dumps triggered by health transitions.
    [[nodiscard]] std::uint64_t health_dumps() const noexcept { return health_dumps_.load(std::memory_order_relaxed); }

    /// Emit the recorder's own counters into @p builder.
    void collect(prometheus_builder &builder, const label_set &labels) const;

  private:
    void maybe_violation_dump(std::string_view reason);

    obs_config config_;
    per_class<std::uint64_t> sample_period_{};  ///< 0 = never, 1 = always, n = every n-th
    std::chrono::steady_clock::time_point epoch_;
    std::atomic<std::uint64_t> id_{ 0 };
    per_class<std::atomic<std::uint64_t>> sample_counters_{};
    std::array<trace_ring, num_request_classes> rings_{};
    trace_ring shed_ring_{};
    std::atomic<std::uint64_t> traces_recorded_{ 0 };
    std::atomic<std::uint64_t> sheds_recorded_{ 0 };
    std::atomic<std::uint64_t> sampled_out_{ 0 };
    std::atomic<std::uint64_t> deadline_miss_traces_{ 0 };
    std::atomic<std::uint64_t> last_dump_ns_{ 0 };
    std::atomic<std::uint64_t> violation_dumps_{ 0 };
    std::atomic<std::uint64_t> health_dumps_{ 0 };
    mutable std::mutex dump_mutex_;
    std::string last_violation_dump_;
    std::string last_health_dump_;
};

}  // namespace obs

}  // namespace plssvm::serve

#endif  // PLSSVM_SERVE_OBS_HPP_
