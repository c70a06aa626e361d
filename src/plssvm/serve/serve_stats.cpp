#include "plssvm/serve/serve_stats.hpp"

#include "plssvm/serve/fault.hpp"
#include "plssvm/serve/obs.hpp"
#include "plssvm/serve/qos.hpp"

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace plssvm::serve {

namespace {

void append_field(std::string &out, const char *name, const std::size_t value, const bool trailing_comma = true) {
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer), "\"%s\": %zu%s", name, value, trailing_comma ? ", " : "");
    out += buffer;
}

void append_field(std::string &out, const char *name, const double value, const bool trailing_comma = true) {
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer), "\"%s\": %.6e%s", name, value, trailing_comma ? ", " : "");
    out += buffer;
}

}  // namespace

std::string to_json(const serve_stats &stats) {
    std::string json;
    json.reserve(4096);
    json += "{ ";
    append_field(json, "total_requests", stats.total_requests);
    append_field(json, "total_batches", stats.total_batches);
    append_field(json, "mean_batch_size", stats.mean_batch_size);
    append_field(json, "p50_latency_s", stats.p50_latency_seconds);
    append_field(json, "p99_latency_s", stats.p99_latency_seconds);
    append_field(json, "p999_latency_s", stats.p999_latency_seconds);
    append_field(json, "max_latency_s", stats.max_latency_seconds);
    append_field(json, "requests_per_s", stats.requests_per_second);
    append_field(json, "batch_kernel_s", stats.batch_kernel_seconds);
    json += "\"paths\": { ";
    append_field(json, "reference", stats.reference_batches);
    append_field(json, "host_blocked", stats.host_blocked_batches);
    append_field(json, "host_sparse", stats.host_sparse_batches, false);
    json += " }, ";
    json += "\"cost_model\": { ";
    append_field(json, "estimate_batches", stats.estimate_batches);
    append_field(json, "median_rel_error", stats.estimate_median_rel_error);
    append_field(json, "p99_rel_error", stats.estimate_p99_rel_error, false);
    json += " }, ";
    append_field(json, "queue_depth", stats.queue_depth);
    append_field(json, "max_queue_depth", stats.max_queue_depth);
    append_field(json, "steals", stats.steals);
    append_field(json, "executor_threads", stats.executor_threads);
    append_field(json, "reloads", stats.reloads);
    append_field(json, "snapshot_version", static_cast<std::size_t>(stats.snapshot_version));
    json += "\"fault\": { ";
    json += "\"health\": \"";
    json += health_state_to_string(stats.fault.health);
    json += "\", ";
    append_field(json, "health_transitions", stats.fault.health_transitions);
    append_field(json, "quarantined_requests", stats.fault.quarantined_requests);
    append_field(json, "stall_failed_requests", stats.fault.stall_failed_requests);
    append_field(json, "shutdown_failed_requests", stats.fault.shutdown_failed_requests);
    append_field(json, "batch_retries", stats.fault.batch_retries);
    append_field(json, "batch_bisections", stats.fault.batch_bisections);
    append_field(json, "stall_restarts", stats.fault.stall_restarts);
    append_field(json, "breaker_trips", stats.fault.breaker_trips);
    json += "\"breakers\": { ";
    constexpr std::array<predict_path, 3> paths{ predict_path::reference, predict_path::host_blocked,
                                                 predict_path::host_sparse };
    for (std::size_t p = 0; p < paths.size(); ++p) {
        json += "\"";
        json += predict_path_to_string(paths[p]);
        json += "\": \"";
        json += fault::breaker_state_to_string(stats.fault.breaker_states[p]);
        json += p + 1 < paths.size() ? "\", " : "\"";
    }
    json += " } }, ";
    json += "\"classes\": { ";
    for (const request_class cls : all_request_classes) {
        const class_serve_stats &c = stats.classes[class_index(cls)];
        json += "\"";
        json += request_class_to_string(cls);
        json += "\": { ";
        append_field(json, "admitted", c.admitted);
        append_field(json, "shed_rate_limited", c.shed_rate_limited);
        append_field(json, "shed_queue_full", c.shed_queue_full);
        append_field(json, "deadline_misses", c.deadline_misses);
        append_field(json, "completed", c.completed);
        append_field(json, "batches", c.batches);
        append_field(json, "mean_batch_size", c.mean_batch_size);
        append_field(json, "p50_latency_s", c.p50_latency_seconds);
        append_field(json, "p99_latency_s", c.p99_latency_seconds);
        append_field(json, "p999_latency_s", c.p999_latency_seconds);
        json += "\"stages\": { ";
        for (const obs::trace_stage stage : obs::all_trace_stages) {
            const stage_latency_stats &s = c.stages[obs::stage_index(stage)];
            json += "\"";
            json += obs::trace_stage_to_string(stage);
            json += "\": { ";
            append_field(json, "p50_s", s.p50_seconds);
            append_field(json, "p99_s", s.p99_seconds);
            append_field(json, "total_s", s.total_seconds);
            append_field(json, "count", s.count, false);
            json += stage == obs::all_trace_stages.back() ? " }" : " }, ";
        }
        json += " }, ";
        append_field(json, "target_batch_size", c.target_batch_size);
        append_field(json, "retry_after_hint_s", c.retry_after_hint_seconds, false);
        json += cls == all_request_classes.back() ? " }" : " }, ";
    }
    json += " } }";
    return json;
}

std::vector<std::chrono::seconds> serve_window_spans() {
    return { std::chrono::seconds{ 10 }, std::chrono::seconds{ 60 }, std::chrono::seconds{ 300 } };
}

std::string windows_json(const std::vector<obs::time_series_store::window_view> &views) {
    std::string json;
    json.reserve(1024);
    json += "{ ";
    for (std::size_t v = 0; v < views.size(); ++v) {
        const obs::time_series_store::window_view &view = views[v];
        json += "\"";
        json += std::to_string(view.window.count());
        json += "s\": { ";
        for (const request_class cls : all_request_classes) {
            const std::size_t i = class_index(cls);
            json += "\"";
            json += request_class_to_string(cls);
            json += "\": { ";
            append_field(json, "completed", static_cast<std::size_t>(view.completed[i]));
            append_field(json, "shed", static_cast<std::size_t>(view.shed[i]));
            append_field(json, "failed", static_cast<std::size_t>(view.failed[i]));
            append_field(json, "deadline_misses", static_cast<std::size_t>(view.deadline_misses[i]));
            append_field(json, "rps", view.rate(cls));
            append_field(json, "availability", view.availability(cls));
            append_field(json, "p50_latency_s", view.latency[i].quantile(0.50));
            append_field(json, "p99_latency_s", view.latency[i].quantile(0.99));
            append_field(json, "p999_latency_s", view.latency[i].quantile(0.999), false);
            json += cls == all_request_classes.back() ? " }" : " }, ";
        }
        json += v + 1 < views.size() ? " }, " : " }";
    }
    json += " }";
    return json;
}

void collect_window_stats(obs::prometheus_builder &builder,
                          const std::vector<obs::time_series_store::window_view> &views,
                          const obs::label_set &labels) {
    for (const obs::time_series_store::window_view &view : views) {
        const std::string window_label = std::to_string(view.window.count()) + "s";
        for (const request_class cls : all_request_classes) {
            const std::size_t i = class_index(cls);
            obs::label_set wl = labels;
            wl.emplace_back("class", std::string{ request_class_to_string(cls) });
            wl.emplace_back("window", window_label);
            builder.add_gauge("plssvm_serve_window_rps", "Completed requests per second over the trailing window", wl, view.rate(cls));
            builder.add_gauge("plssvm_serve_window_shed_rps", "Shed requests per second over the trailing window", wl,
                              view.window.count() > 0 ? static_cast<double>(view.shed[i]) / static_cast<double>(view.window.count()) : 0.0);
            builder.add_gauge("plssvm_serve_window_availability", "Fraction of offered requests answered over the trailing window (1 when idle)", wl, view.availability(cls));
            builder.add_gauge("plssvm_serve_window_p50_latency_seconds", "Median end-to-end latency over the trailing window", wl, view.latency[i].quantile(0.50));
            builder.add_gauge("plssvm_serve_window_p99_latency_seconds", "Tail end-to-end latency over the trailing window", wl, view.latency[i].quantile(0.99));
            builder.add_gauge("plssvm_serve_window_p999_latency_seconds", "Extreme-tail end-to-end latency over the trailing window", wl, view.latency[i].quantile(0.999));
        }
    }
}

void collect_serve_stats(obs::prometheus_builder &builder, const serve_stats &stats, const obs::label_set &labels) {
    const auto with = [&labels](const char *key, const std::string_view value) {
        obs::label_set extended = labels;
        extended.emplace_back(key, std::string{ value });
        return extended;
    };

    builder.add_counter("plssvm_serve_requests_total", "Prediction requests served (points, not batches)", labels, static_cast<double>(stats.total_requests));
    builder.add_counter("plssvm_serve_batches_total", "Batch kernel invocations", labels, static_cast<double>(stats.total_batches));
    builder.add_counter("plssvm_serve_batch_kernel_seconds_total", "Wall time spent inside batch kernels", labels, stats.batch_kernel_seconds);
    builder.add_gauge("plssvm_serve_mean_batch_size", "Requests per batch over the engine lifetime", labels, stats.mean_batch_size);
    builder.add_gauge("plssvm_serve_requests_per_second", "Throughput over the recording window", labels, stats.requests_per_second);
    builder.add_gauge("plssvm_serve_p50_latency_seconds", "Median end-to-end request latency", labels, stats.p50_latency_seconds);
    builder.add_gauge("plssvm_serve_p99_latency_seconds", "Tail end-to-end request latency", labels, stats.p99_latency_seconds);
    builder.add_gauge("plssvm_serve_p999_latency_seconds", "Extreme-tail end-to-end request latency", labels, stats.p999_latency_seconds);
    builder.add_counter("plssvm_serve_path_batches_total", "Batches per dispatch path", with("path", "reference"), static_cast<double>(stats.reference_batches));
    builder.add_counter("plssvm_serve_path_batches_total", "Batches per dispatch path", with("path", "host_blocked"), static_cast<double>(stats.host_blocked_batches));
    builder.add_counter("plssvm_serve_path_batches_total", "Batches per dispatch path", with("path", "host_sparse"), static_cast<double>(stats.host_sparse_batches));
    builder.add_counter("plssvm_serve_cost_estimate_batches_total", "Batches with a measured-rate latency estimate recorded", labels, static_cast<double>(stats.estimate_batches));
    builder.add_gauge("plssvm_serve_cost_estimate_median_rel_error", "Median relative error of the measured-rate batch latency estimate", labels, stats.estimate_median_rel_error);
    builder.add_gauge("plssvm_serve_queue_depth", "Tasks currently queued on the engine's executor lane", labels, static_cast<double>(stats.queue_depth));
    builder.add_gauge("plssvm_serve_max_queue_depth", "High-water mark of the lane queue", labels, static_cast<double>(stats.max_queue_depth));
    builder.add_counter("plssvm_serve_steals_total", "Lane tasks executed by a non-affine worker", labels, static_cast<double>(stats.steals));
    builder.add_gauge("plssvm_serve_executor_threads", "Workers of the shared executor", labels, static_cast<double>(stats.executor_threads));
    builder.add_counter("plssvm_serve_reloads_total", "Snapshot swaps since engine start", labels, static_cast<double>(stats.reloads));
    builder.add_gauge("plssvm_serve_snapshot_version", "Version of the currently served model snapshot", labels, static_cast<double>(stats.snapshot_version));
    builder.add_gauge("plssvm_serve_health", "Engine health state (0 = healthy, 1 = degraded, 2 = critical)", labels, static_cast<double>(static_cast<int>(stats.fault.health)));
    builder.add_counter("plssvm_serve_health_transitions_total", "Health state transitions", labels, static_cast<double>(stats.fault.health_transitions));
    builder.add_counter("plssvm_serve_quarantined_requests_total", "Requests isolated by batch bisection", labels, static_cast<double>(stats.fault.quarantined_requests));
    builder.add_counter("plssvm_serve_stall_failed_requests_total", "Requests failed by the lane watchdog", labels, static_cast<double>(stats.fault.stall_failed_requests));
    builder.add_counter("plssvm_serve_shutdown_failed_requests_total", "Requests failed at engine shutdown/teardown", labels, static_cast<double>(stats.fault.shutdown_failed_requests));
    builder.add_counter("plssvm_serve_batch_retries_total", "Transient-failure batch retries", labels, static_cast<double>(stats.fault.batch_retries));
    builder.add_counter("plssvm_serve_batch_bisections_total", "Failing-batch bisection steps", labels, static_cast<double>(stats.fault.batch_bisections));
    builder.add_counter("plssvm_serve_stall_restarts_total", "Watchdog-triggered lane restarts", labels, static_cast<double>(stats.fault.stall_restarts));
    builder.add_counter("plssvm_serve_breaker_trips_total", "Circuit-breaker open transitions across all paths", labels, static_cast<double>(stats.fault.breaker_trips));
    {
        constexpr std::array<predict_path, 3> paths{ predict_path::reference, predict_path::host_blocked,
                                                     predict_path::host_sparse };
        for (std::size_t p = 0; p < paths.size(); ++p) {
            builder.add_gauge("plssvm_serve_breaker_state", "Per-path circuit-breaker state (0 = closed, 1 = open, 2 = half_open)",
                              with("path", predict_path_to_string(paths[p])),
                              static_cast<double>(static_cast<int>(stats.fault.breaker_states[p])));
        }
    }
    for (const request_class cls : all_request_classes) {
        const class_serve_stats &c = stats.classes[class_index(cls)];
        const obs::label_set cl = with("class", request_class_to_string(cls));
        builder.add_counter("plssvm_serve_admitted_total", "Requests past admission control", cl, static_cast<double>(c.admitted));
        {
            obs::label_set shed = cl;
            shed.emplace_back("reason", "rate_limited");
            builder.add_counter("plssvm_serve_shed_total", "Requests rejected by admission control", shed, static_cast<double>(c.shed_rate_limited));
        }
        {
            obs::label_set shed = cl;
            shed.emplace_back("reason", "queue_full");
            builder.add_counter("plssvm_serve_shed_total", "Requests rejected by admission control", shed, static_cast<double>(c.shed_queue_full));
        }
        builder.add_counter("plssvm_serve_deadline_misses_total", "Requests fulfilled after their deadline", cl, static_cast<double>(c.deadline_misses));
        builder.add_counter("plssvm_serve_completed_total", "Requests fulfilled on the async path", cl, static_cast<double>(c.completed));
        builder.add_counter("plssvm_serve_class_batches_total", "Batches drained per request class", cl, static_cast<double>(c.batches));
        builder.add_gauge("plssvm_serve_target_batch_size", "Most requests of the class one batch takes", cl, static_cast<double>(c.target_batch_size));
        builder.add_gauge("plssvm_serve_retry_after_hint_seconds", "Retry-after hint a rate-limited shed of this class would carry", cl, c.retry_after_hint_seconds);
    }
}

void serve_metrics::collect_histograms(obs::prometheus_builder &builder, const obs::label_set &labels) const {
    // copy the histograms out under the lock, render outside it
    obs::latency_histogram latency;
    obs::latency_histogram estimate;
    per_class<obs::latency_histogram> class_latency{};
    per_class<std::array<obs::latency_histogram, obs::num_trace_stages>> class_stages{};
    {
        const std::lock_guard lock{ mutex_ };
        latency = latency_;
        estimate = estimate_rel_error_;
        for (const request_class cls : all_request_classes) {
            class_latency[class_index(cls)] = classes_[class_index(cls)].latency;
            class_stages[class_index(cls)] = classes_[class_index(cls)].stages;
        }
    }
    builder.add_histogram("plssvm_serve_latency_seconds", "End-to-end request latency", labels, latency);
    builder.add_histogram("plssvm_serve_cost_estimate_rel_error", "Relative error of the measured-rate batch latency estimate (unitless, bucketed as seconds)", labels, estimate);
    for (const request_class cls : all_request_classes) {
        obs::label_set cl = labels;
        cl.emplace_back("class", std::string{ request_class_to_string(cls) });
        builder.add_histogram("plssvm_serve_class_latency_seconds", "End-to-end request latency per class", cl, class_latency[class_index(cls)]);
        for (const obs::trace_stage stage : obs::all_trace_stages) {
            obs::label_set sl = cl;
            sl.emplace_back("stage", std::string{ obs::trace_stage_to_string(stage) });
            builder.add_histogram("plssvm_serve_stage_latency_seconds", "Lifecycle stage latency per class", sl, class_stages[class_index(cls)][obs::stage_index(stage)]);
        }
    }
}

}  // namespace plssvm::serve
