/**
 * @file
 * @brief Per-engine serving statistics: latency percentiles, throughput,
 *        per-request-class QoS counters, and per-stage latency attribution.
 *
 * Every inference engine owns one `serve_metrics` instance. The batch/drain
 * paths record per-request latencies and per-batch kernel times; `snapshot()`
 * aggregates them into a `serve_stats` value and `report_to()` publishes the
 * aggregate through the library-wide `plssvm::detail::tracker` (the same
 * channel the training pipeline uses for its component timings).
 * `to_json()` renders a `serve_stats` value as a machine-readable JSON
 * snapshot string for scraping; `collect_serve_stats()` +
 * `serve_metrics::collect_histograms()` emit the same data in the Prometheus
 * text exposition format (see `obs.hpp`).
 *
 * QoS accounting is per request class: admissions and sheds (from the
 * admission controller), deadline misses, completed requests and batches,
 * per-class end-to-end percentiles, and per-stage latency breakdowns
 * (admission / queue_wait / dispatch / service) — the whole point of
 * admission control is that the interactive tail stays visible separately
 * from bulk traffic, and the stage split says *where* a blown tail spent
 * its time.
 *
 * Percentiles come from log-bucketed `obs::latency_histogram`s (bounded
 * memory, <= ~6% bucket error, epoch-stable): unlike the overwriting sample
 * rings they replace, two cumulative snapshots can be subtracted to get
 * exact per-window percentiles that never blend pre- and post-load-change
 * samples. All recorder state lives behind one mutex, so `snapshot()` is a
 * consistent point-in-time read.
 */

#ifndef PLSSVM_SERVE_SERVE_STATS_HPP_
#define PLSSVM_SERVE_SERVE_STATS_HPP_

#include "plssvm/detail/tracker.hpp"
#include "plssvm/serve/fault.hpp"
#include "plssvm/serve/obs.hpp"
#include "plssvm/serve/qos.hpp"
#include "plssvm/serve/slo.hpp"

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace plssvm::serve {

/// Latency aggregates of one lifecycle stage of one request class.
struct stage_latency_stats {
    double p50_seconds{ 0.0 };    ///< median stage duration
    double p99_seconds{ 0.0 };    ///< tail stage duration
    double p999_seconds{ 0.0 };   ///< extreme-tail stage duration
    double total_seconds{ 0.0 };  ///< summed stage time (attribution share)
    std::size_t count{ 0 };       ///< observations recorded
};

/// QoS aggregates of one request class.
struct class_serve_stats {
    std::size_t admitted{ 0 };           ///< requests past admission control
    std::size_t shed_rate_limited{ 0 };  ///< requests shed by the token bucket
    std::size_t shed_queue_full{ 0 };    ///< requests shed on queue depth
    std::size_t deadline_misses{ 0 };    ///< requests fulfilled after their deadline
    std::size_t completed{ 0 };          ///< requests fulfilled (async path)
    std::size_t batches{ 0 };            ///< batches drained for this class
    double mean_batch_size{ 0.0 };       ///< completed / batches
    double p50_latency_seconds{ 0.0 };   ///< median submit-to-fulfilment latency
    double p99_latency_seconds{ 0.0 };   ///< tail submit-to-fulfilment latency
    double p999_latency_seconds{ 0.0 };  ///< extreme-tail submit-to-fulfilment latency
    /// Per-stage latency breakdown (admission / queue_wait / dispatch /
    /// service), indexed by `obs::stage_index()`.
    std::array<stage_latency_stats, obs::num_trace_stages> stages{};
    // --- live batch cap (filled in by the engines from the batcher) --------
    std::size_t target_batch_size{ 0 };  ///< most requests of the class one batch takes
    /// Current retry-after hint a rate-limited shed of this class would
    /// carry (seconds until the class's token bucket accrues a token;
    /// 0 = rate-unlimited). Filled in by the engines from the admission
    /// controller at snapshot time.
    double retry_after_hint_seconds{ 0.0 };
};

/// Fault-tolerance aggregates of one engine (see `fault.hpp`).
struct fault_serve_stats {
    health_state health{ health_state::healthy };       ///< current engine health
    std::size_t health_transitions{ 0 };                ///< health state changes so far
    std::size_t quarantined_requests{ 0 };              ///< requests isolated by batch bisection
    std::size_t stall_failed_requests{ 0 };             ///< requests failed by the lane watchdog
    std::size_t shutdown_failed_requests{ 0 };          ///< requests failed at shutdown/teardown
    std::size_t batch_retries{ 0 };                     ///< transient-failure batch retries
    std::size_t batch_bisections{ 0 };                  ///< failing-batch splits performed
    std::size_t stall_restarts{ 0 };                    ///< watchdog-triggered lane restarts
    std::size_t breaker_trips{ 0 };                     ///< circuit-breaker open transitions (all paths)
    /// Current breaker state per dispatch path, indexed like `predict_path`.
    std::array<fault::breaker_state, 3> breaker_states{};
};

/// Aggregated serving statistics of one engine.
///
/// Latency percentiles are computed over *call* samples: the async submit
/// path records one sample per request (enqueue to fulfilment), the sync
/// batch path records one sample per `predict`/`decision_values` call (its
/// wall time — which *is* the end-to-end latency each point in that call
/// experienced). `total_requests` always counts points, so on sync-heavy
/// workloads there are fewer samples than requests by design.
struct serve_stats {
    std::size_t total_requests{ 0 };     ///< predict requests served (points, not batches)
    std::size_t total_batches{ 0 };      ///< batch kernel invocations
    double mean_batch_size{ 0.0 };       ///< total_requests / total_batches
    double p50_latency_seconds{ 0.0 };   ///< median call latency (see above)
    double p99_latency_seconds{ 0.0 };   ///< tail call latency
    double p999_latency_seconds{ 0.0 };  ///< extreme-tail call latency
    double max_latency_seconds{ 0.0 };   ///< worst recorded call latency
    double requests_per_second{ 0.0 };   ///< throughput over the recording window
    double batch_kernel_seconds{ 0.0 };  ///< wall time spent inside batch kernels
    std::size_t reference_batches{ 0 };     ///< batches routed to the per-point reference path
    std::size_t host_blocked_batches{ 0 };  ///< batches routed to the tiled host kernels
    std::size_t host_sparse_batches{ 0 };   ///< batches routed to the sparse CSR sweeps
    // --- estimate error (the engine's measured-rate estimate vs the batch) --
    std::size_t estimate_batches{ 0 };            ///< batches with an estimate recorded
    double estimate_median_rel_error{ 0.0 };      ///< median |est - measured| / measured
    double estimate_p99_rel_error{ 0.0 };         ///< tail relative estimate error
    // --- shared-executor and model-lifecycle counters (filled in by the
    // --- engines from their executor lane and snapshot handle) -------------
    std::size_t queue_depth{ 0 };        ///< tasks currently queued on the engine's lane
    std::size_t max_queue_depth{ 0 };    ///< high-water mark of the lane queue
    std::size_t steals{ 0 };             ///< lane tasks executed by a non-affine worker
    std::size_t executor_threads{ 0 };   ///< workers of the shared executor
    std::size_t reloads{ 0 };            ///< snapshot swaps since engine start
    std::uint64_t snapshot_version{ 0 }; ///< version of the currently served snapshot
    // --- QoS control plane (admission + batch caps) ------------------------
    per_class<class_serve_stats> classes{};  ///< per-request-class aggregates
    // --- fault-tolerance plane (breakers, watchdog, quarantine, health) ----
    fault_serve_stats fault{};               ///< fault/health aggregates
};

/// Render @p stats as a machine-readable JSON object (one line per field,
/// classes keyed by name) — the scrape format of `engine.stats_json()`.
[[nodiscard]] std::string to_json(const serve_stats &stats);

/// Emit every counter/gauge of @p stats into @p builder under @p labels
/// (the value half of the Prometheus exposition; the histogram half comes
/// from `serve_metrics::collect_histograms()`).
void collect_serve_stats(obs::prometheus_builder &builder, const serve_stats &stats, const obs::label_set &labels);

/// Trailing windows reported by the rolling time series (10 s / 1 m / 5 m).
[[nodiscard]] std::vector<std::chrono::seconds> serve_window_spans();

/// Render time-series window views as the `windows` JSON section of
/// `stats_json()` (per-window per-class rates + percentiles).
[[nodiscard]] std::string windows_json(const std::vector<obs::time_series_store::window_view> &views);

/// Emit the `plssvm_serve_window_*` Prometheus families (windowed rates,
/// availability, percentiles per class and window) into @p builder.
void collect_window_stats(obs::prometheus_builder &builder,
                          const std::vector<obs::time_series_store::window_view> &views,
                          const obs::label_set &labels);

/// Thread-safe recorder behind `serve_stats`.
class serve_metrics {
  public:
    /// Record one request's end-to-end latency (sync batch path: classless,
    /// engine-wide histogram only).
    void record_request_latency(const double seconds) {
        const std::lock_guard lock{ mutex_ };
        latency_.record(seconds);
        note_activity();
    }

    /// Record one async request's completed lifecycle under its class:
    /// end-to-end latency into the engine-wide and per-class histograms,
    /// each stage duration into the per-class stage histograms, and the
    /// rolling time series (bucketed at @p completed_at, which defaults to
    /// now — the drain loop passes the completion stamp it already took).
    void record_request_trace(const request_class cls, const obs::stage_seconds &stages, const double total_seconds, const bool deadline_missed,
                              const std::chrono::steady_clock::time_point completed_at = std::chrono::steady_clock::now()) {
        const std::lock_guard lock{ mutex_ };
        series_.record_complete(cls, completed_at, total_seconds, deadline_missed);
        latency_.record(total_seconds);
        class_state &state = classes_[class_index(cls)];
        state.latency.record(total_seconds);
        for (const obs::trace_stage stage : obs::all_trace_stages) {
            state.stages[obs::stage_index(stage)].record(stages[obs::stage_index(stage)]);
        }
        ++state.completed;
        if (deadline_missed) {
            ++state.deadline_misses;
        }
        note_activity();
    }

    /// Record one batch kernel invocation covering @p num_requests points.
    void record_batch(const std::size_t num_requests, const double kernel_seconds) {
        const std::lock_guard lock{ mutex_ };
        total_requests_ += num_requests;
        ++total_batches_;
        batch_kernel_seconds_ += kernel_seconds;
        note_activity();
    }

    /// Record the engine's estimate of one batch (its size times the
    /// measured seconds per request of its path) against the batch's
    /// measured execution time. An estimate of 0 — the path was not measured
    /// yet — records nothing.
    void record_batch_estimate(const double estimated_seconds, const double measured_seconds) {
        if (!(measured_seconds > 0.0) || !(estimated_seconds > 0.0)) {
            return;
        }
        const double rel_error = estimated_seconds > measured_seconds
            ? (estimated_seconds - measured_seconds) / measured_seconds
            : (measured_seconds - estimated_seconds) / measured_seconds;
        const std::lock_guard lock{ mutex_ };
        // relative error recorded as "seconds" — the histogram is unit-
        // agnostic (1.0 of error lands in the 1s bucket, resolution ~6%)
        estimate_rel_error_.record(rel_error);
        ++estimate_batches_;
    }

    /// Record that one drained batch belonged to @p cls (the per-class mean
    /// batch size divides the per-request `completed` count by this).
    void record_class_batch(const request_class cls) {
        const std::lock_guard lock{ mutex_ };
        ++classes_[class_index(cls)].batches;
    }

    /// Record one admission decision of the controller.
    void record_admission(const request_class cls, const admission_decision decision) {
        const std::lock_guard lock{ mutex_ };
        if (decision != admission_decision::admitted) {
            series_.record_shed(cls, std::chrono::steady_clock::now());
        }
        class_state &state = classes_[class_index(cls)];
        switch (decision) {
            case admission_decision::admitted:
                ++state.admitted;
                break;
            case admission_decision::shed_rate_limited:
                ++state.shed_rate_limited;
                break;
            case admission_decision::shed_queue_full:
                ++state.shed_queue_full;
                break;
        }
    }

    /// Record one completed snapshot swap (model reload).
    void record_reload() {
        const std::lock_guard lock{ mutex_ };
        ++reloads_;
    }

    /// Record one request of @p cls quarantined by batch bisection (a failed
    /// request from the time series / SLO availability point of view).
    void record_quarantine(const request_class cls) {
        const std::lock_guard lock{ mutex_ };
        series_.record_failure(cls, std::chrono::steady_clock::now());
        ++quarantined_requests_;
    }

    /// Record one transient-failure retry of a whole batch.
    void record_batch_retry() {
        const std::lock_guard lock{ mutex_ };
        ++batch_retries_;
    }

    /// Record one failing-batch bisection step.
    void record_batch_bisection() {
        const std::lock_guard lock{ mutex_ };
        ++batch_bisections_;
    }

    /// Record @p count requests of @p cls failed by the lane watchdog (stall).
    void record_stall_failures(const request_class cls, const std::size_t count) {
        const std::lock_guard lock{ mutex_ };
        series_.record_failure(cls, std::chrono::steady_clock::now(), count);
        stall_failed_requests_ += count;
    }

    /// Record @p count requests of @p cls failed out of band by the drain
    /// loop (its own bookkeeping failed): they count in the rolling windows
    /// and the SLO availability, which have no other source for them.
    void record_failures(const request_class cls, const std::size_t count) {
        const std::lock_guard lock{ mutex_ };
        series_.record_failure(cls, std::chrono::steady_clock::now(), count);
    }

    /// Record @p count requests failed at shutdown/teardown.
    void record_shutdown_failures(const std::size_t count) {
        const std::lock_guard lock{ mutex_ };
        shutdown_failed_requests_ += count;
    }

    /// Cumulative counters the health monitor diffs into per-window rates.
    struct fault_counter_sample {
        std::size_t admission_attempts{ 0 };  ///< admitted + shed decisions
        std::size_t shed{ 0 };                ///< shed decisions (both reasons)
        std::size_t completed{ 0 };           ///< async requests fulfilled
        std::size_t deadline_misses{ 0 };     ///< fulfilled after the deadline
        std::size_t quarantined{ 0 };         ///< quarantined by bisection
    };

    /// One consistent read of the health-relevant cumulative counters.
    [[nodiscard]] fault_counter_sample fault_counters() const {
        const std::lock_guard lock{ mutex_ };
        fault_counter_sample sample;
        for (const class_state &state : classes_) {
            const std::size_t shed = state.shed_rate_limited + state.shed_queue_full;
            sample.admission_attempts += state.admitted + shed;
            sample.shed += shed;
            sample.completed += state.completed;
            sample.deadline_misses += state.deadline_misses;
        }
        sample.quarantined = quarantined_requests_;
        return sample;
    }

    /// Record which execution path one batch was dispatched to.
    void record_path(const predict_path path) {
        const std::lock_guard lock{ mutex_ };
        switch (path) {
            case predict_path::reference:
                ++reference_batches_;
                break;
            case predict_path::host_blocked:
                ++host_blocked_batches_;
                break;
            case predict_path::host_sparse:
                ++host_sparse_batches_;
                break;
        }
    }

    /// Aggregate everything recorded so far. One consistent point-in-time
    /// read: counters and every percentile come from the same locked state.
    [[nodiscard]] serve_stats snapshot() const {
        serve_stats stats;
        const std::lock_guard lock{ mutex_ };
        stats.total_requests = total_requests_;
        stats.total_batches = total_batches_;
        stats.batch_kernel_seconds = batch_kernel_seconds_;
        stats.reference_batches = reference_batches_;
        stats.host_blocked_batches = host_blocked_batches_;
        stats.host_sparse_batches = host_sparse_batches_;
        stats.reloads = reloads_;
        stats.p50_latency_seconds = latency_.quantile(0.50);
        stats.p99_latency_seconds = latency_.quantile(0.99);
        stats.p999_latency_seconds = latency_.quantile(0.999);
        stats.max_latency_seconds = latency_.max_seconds();
        stats.estimate_batches = estimate_batches_;
        stats.estimate_median_rel_error = estimate_rel_error_.quantile(0.50);
        stats.estimate_p99_rel_error = estimate_rel_error_.quantile(0.99);
        stats.fault.quarantined_requests = quarantined_requests_;
        stats.fault.stall_failed_requests = stall_failed_requests_;
        stats.fault.shutdown_failed_requests = shutdown_failed_requests_;
        stats.fault.batch_retries = batch_retries_;
        stats.fault.batch_bisections = batch_bisections_;
        for (const request_class cls : all_request_classes) {
            const class_state &state = classes_[class_index(cls)];
            class_serve_stats &out = stats.classes[class_index(cls)];
            out.admitted = state.admitted;
            out.shed_rate_limited = state.shed_rate_limited;
            out.shed_queue_full = state.shed_queue_full;
            out.deadline_misses = state.deadline_misses;
            out.completed = state.completed;
            out.batches = state.batches;
            if (out.batches > 0) {
                out.mean_batch_size = static_cast<double>(out.completed) / static_cast<double>(out.batches);
            }
            out.p50_latency_seconds = state.latency.quantile(0.50);
            out.p99_latency_seconds = state.latency.quantile(0.99);
            out.p999_latency_seconds = state.latency.quantile(0.999);
            for (const obs::trace_stage stage : obs::all_trace_stages) {
                const obs::latency_histogram &hist = state.stages[obs::stage_index(stage)];
                stage_latency_stats &s = out.stages[obs::stage_index(stage)];
                s.p50_seconds = hist.quantile(0.50);
                s.p99_seconds = hist.quantile(0.99);
                s.p999_seconds = hist.quantile(0.999);
                s.total_seconds = hist.sum_seconds();
                s.count = static_cast<std::size_t>(hist.count());
            }
        }
        const double window = std::chrono::duration<double>(last_activity_ - first_activity_).count();
        if (total_requests_ > 0) {
            // zero-width window (single batch): fall back to kernel time
            const double denom = window > 0.0 ? window : batch_kernel_seconds_;
            stats.requests_per_second = denom > 0.0 ? static_cast<double>(total_requests_) / denom : 0.0;
        }
        if (stats.total_batches > 0) {
            stats.mean_batch_size = static_cast<double>(stats.total_requests) / static_cast<double>(stats.total_batches);
        }
        return stats;
    }

    /// Copy of the engine-wide end-to-end latency histogram (for merging
    /// across engines or window deltas via `delta_since`).
    [[nodiscard]] obs::latency_histogram latency_histogram_snapshot() const {
        const std::lock_guard lock{ mutex_ };
        return latency_;
    }

    /// Evaluate @p slo's burn rates over the rolling time series, with
    /// windows ending at @p now.
    [[nodiscard]] slo_report evaluate_slo(const slo_engine &slo, const std::chrono::steady_clock::time_point now) const {
        const std::lock_guard lock{ mutex_ };
        return slo.evaluate(series_, now);
    }

    /// The standard trailing windows (10 s / 1 m / 5 m) ending at @p now.
    [[nodiscard]] std::vector<obs::time_series_store::window_view> windows(
        const std::chrono::steady_clock::time_point now = std::chrono::steady_clock::now()) const {
        const std::lock_guard lock{ mutex_ };
        return series_.windows(now, serve_window_spans());
    }

    /// Emit the latency / stage / estimate-error histograms into @p builder
    /// (the histogram half of the Prometheus exposition).
    void collect_histograms(obs::prometheus_builder &builder, const obs::label_set &labels) const;

    /// Publish a snapshot into @p t: batch kernel time as a component timing,
    /// the latency/throughput aggregates as named metrics.
    void report_to(plssvm::detail::tracker &t, const std::string_view prefix = "serve") const {
        const serve_stats stats = snapshot();
        const std::string p{ prefix };
        t.add(p + "/batch_kernel", stats.batch_kernel_seconds);
        t.set_metric(p + "/total_requests", static_cast<double>(stats.total_requests));
        t.set_metric(p + "/total_batches", static_cast<double>(stats.total_batches));
        t.set_metric(p + "/mean_batch_size", stats.mean_batch_size);
        t.set_metric(p + "/p50_latency_s", stats.p50_latency_seconds);
        t.set_metric(p + "/p99_latency_s", stats.p99_latency_seconds);
        t.set_metric(p + "/p999_latency_s", stats.p999_latency_seconds);
        t.set_metric(p + "/max_latency_s", stats.max_latency_seconds);
        t.set_metric(p + "/requests_per_s", stats.requests_per_second);
        t.set_metric(p + "/reference_batches", static_cast<double>(stats.reference_batches));
        t.set_metric(p + "/host_blocked_batches", static_cast<double>(stats.host_blocked_batches));
        t.set_metric(p + "/host_sparse_batches", static_cast<double>(stats.host_sparse_batches));
        t.set_metric(p + "/reloads", static_cast<double>(stats.reloads));
        t.set_metric(p + "/estimate_median_rel_error", stats.estimate_median_rel_error);
        for (const request_class cls : all_request_classes) {
            const class_serve_stats &c = stats.classes[class_index(cls)];
            const std::string cp = p + "/" + std::string{ request_class_to_string(cls) };
            t.set_metric(cp + "_admitted", static_cast<double>(c.admitted));
            t.set_metric(cp + "_shed", static_cast<double>(c.shed_rate_limited + c.shed_queue_full));
            t.set_metric(cp + "_deadline_misses", static_cast<double>(c.deadline_misses));
            t.set_metric(cp + "_p99_latency_s", c.p99_latency_seconds);
        }
    }

  private:
    /// Per-class recorder state (latency + stage histograms, counters).
    struct class_state {
        obs::latency_histogram latency;
        std::array<obs::latency_histogram, obs::num_trace_stages> stages{};
        std::size_t admitted{ 0 };
        std::size_t shed_rate_limited{ 0 };
        std::size_t shed_queue_full{ 0 };
        std::size_t deadline_misses{ 0 };
        std::size_t completed{ 0 };
        std::size_t batches{ 0 };
    };

    void note_activity() {
        const auto now = std::chrono::steady_clock::now();
        if (first_activity_ == std::chrono::steady_clock::time_point{}) {
            first_activity_ = now;
        }
        last_activity_ = now;
    }

    mutable std::mutex mutex_;
    /// Rolling per-second buckets behind the windowed stats and the SLO.
    obs::time_series_store series_;
    obs::latency_histogram latency_;
    obs::latency_histogram estimate_rel_error_;
    std::size_t estimate_batches_{ 0 };
    per_class<class_state> classes_{};
    std::size_t total_requests_{ 0 };
    std::size_t total_batches_{ 0 };
    std::size_t reference_batches_{ 0 };
    std::size_t host_blocked_batches_{ 0 };
    std::size_t host_sparse_batches_{ 0 };
    std::size_t reloads_{ 0 };
    std::size_t quarantined_requests_{ 0 };
    std::size_t stall_failed_requests_{ 0 };
    std::size_t shutdown_failed_requests_{ 0 };
    std::size_t batch_retries_{ 0 };
    std::size_t batch_bisections_{ 0 };
    double batch_kernel_seconds_{ 0.0 };
    std::chrono::steady_clock::time_point first_activity_{};
    std::chrono::steady_clock::time_point last_activity_{};
};

}  // namespace plssvm::serve

#endif  // PLSSVM_SERVE_SERVE_STATS_HPP_
