/**
 * @file
 * @brief The serving engine: binary models and one-vs-all ensembles over an
 *        immutable snapshot of one compiled model, executing on a shared
 *        `serve::executor` lane.
 *
 * One engine type serves both model kinds. A snapshot holds one
 * `compiled_model` (see `snapshot.hpp`): a binary model is its one-head case
 * labelled by `label_from_decision`, a one-vs-all ensemble has k oriented
 * heads scored by argmax, first class on ties — exactly
 * `ext::one_vs_all::predict`. Every batch is one call of the dispatched
 * execution path, which sweeps each stored support-vector panel once for all
 * heads: a pooled batch fans out to the executor once, whatever k is.
 *
 * The engine exposes the two serving entry points:
 *  - `predict(points)` / `decision_values(points)` / `decision_matrix(points)`:
 *    synchronous batch evaluation, partitioned across the engine's executor
 *    lane;
 *  - `submit(point, options, wire, done)`: asynchronous single-point
 *    requests, coalesced into batches by the `micro_batcher` and evaluated
 *    by a dedicated drain thread, which settles each request by calling its
 *    completion callback `done` exactly once — the net plane writes the
 *    response from there. `submit(point[, options]) -> std::future<label>`
 *    is the promise adapter over it. Requests carry a `request_class`
 *    (interactive / batch / background) and an optional deadline budget; a
 *    per-engine `admission_controller` sheds excess traffic fast (typed
 *    `request_shed_exception`, counted per class in `serve_stats`).
 *    Batching is natural: the drain thread takes whatever queued while it
 *    was busy, up to `max_batch_size` per class (less for a class whose
 *    deadline budget a full batch would overrun at the engine's measured
 *    rate), so a lone request runs at once.
 *
 * Every batch runs along the path `choose_path` picks from its shape. The
 * engine estimates a batch from its own clean batches: one running mean of
 * the seconds per request per path, reset by every reload. The estimate
 * feeds the deadline batch caps, the watchdog budget and the estimate-error
 * metric; until a path has been measured there is no estimate.
 *
 * Threads are NOT owned per engine: all engines of a process share one
 * `serve::executor` (`engine_config::exec`, defaulting to the process-wide
 * instance) and submit through a per-engine lane whose quota
 * (`engine_config::num_threads`) bounds how many workers the engine may
 * occupy at once — eight resident engines on a four-core host run on four
 * worker threads, not thirty-two.
 *
 * The engine compiles on that lane too. Its lane exists before its first
 * compile, and one helper (`fan_out`) fans out both a batch's row chunks
 * and a compile's feature ranges: the calling thread runs one task itself
 * and helps drain the lane while it waits. So a load — the engine
 * constructor, and every `registry.load` — splits a large linear collapse
 * over the lane's workers. A compile that already runs on an executor
 * worker stays inline: every `registry.reload` compiles on the registry's
 * quota-1 reload lane, one task at a time.
 *
 * Model state is NOT mutable in place: every batch evaluates against the
 * `engine_snapshot` current at its start, and `reload()` publishes a freshly
 * compiled snapshot with one atomic swap — in-flight batches finish on the
 * old snapshot, p99 stays flat, and no request ever observes a half-built
 * model. Snapshots optionally carry an `io::scaling` input transform applied
 * inside the batch path, so clients send raw features and the transform is
 * versioned with the model.
 *
 * Every engine records latency/throughput statistics (`stats()`, including
 * lane queue depth / steal counters and the snapshot version) and can
 * publish them through `plssvm::detail::tracker` (`report_to()`).
 */

#ifndef PLSSVM_SERVE_INFERENCE_ENGINE_HPP_
#define PLSSVM_SERVE_INFERENCE_ENGINE_HPP_

#include "plssvm/core/matrix.hpp"
#include "plssvm/core/model.hpp"
#include "plssvm/core/sparse_matrix.hpp"
#include "plssvm/detail/tracker.hpp"
#include "plssvm/exceptions.hpp"
#include "plssvm/ext/multiclass.hpp"
#include "plssvm/serve/admission.hpp"
#include "plssvm/serve/compiled_model.hpp"
#include "plssvm/serve/executor.hpp"
#include "plssvm/serve/fault.hpp"
#include "plssvm/serve/micro_batcher.hpp"
#include "plssvm/serve/obs.hpp"
#include "plssvm/serve/predict_dispatcher.hpp"
#include "plssvm/serve/qos.hpp"
#include "plssvm/serve/serve_stats.hpp"
#include "plssvm/serve/slo.hpp"
#include "plssvm/serve/snapshot.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace plssvm::serve {

/// Engine sizing and batching knobs.
struct engine_config {
    /// Lane quota on the shared executor: the most workers this engine may
    /// occupy concurrently; 0 means "up to the whole executor".
    std::size_t num_threads{ 0 };
    /// Most requests of one class the async path evaluates in one batch.
    std::size_t max_batch_size{ 64 };
    /// Model compile knobs (sparse SV-panel density threshold); applied by
    /// the engine constructor AND every `reload`, so a reload can move a
    /// model between the dense and sparse compiled forms.
    compile_options compile{};
    /// Shared executor to run on; nullptr = `executor::process_wide()`.
    executor *exec{ nullptr };
    /// QoS control plane: per-class admission limits (token bucket + queue
    /// depth shedding, default deadline budget) and the deadline batch cap.
    /// The defaults never shed and cap every class at `max_batch_size`.
    qos_config qos{};
    /// Observability plane: per-class trace sampling, flight-recorder
    /// capacities, violation-dump rate limit. Defaults to tracing every
    /// request (the stage histograms of `serve_stats` are always on).
    obs::obs_config obs{};
    /// Fault-tolerance plane: retry/backoff policy, per-path circuit
    /// breakers, lane watchdog (off by default), and an optional fault
    /// injector for tests and soak benches (see `fault.hpp`).
    fault::fault_config fault{};
    /// SLO plane: per-class latency/availability objectives evaluated as
    /// multi-window burn rates over the rolling time series (see `slo.hpp`).
    /// All objectives are disabled by default — no evaluation overhead.
    slo_config slo{};
};

/// Weight of the newest batch in the running mean of the measured seconds
/// per request of a path.
inline constexpr double measured_rate_weight = 0.125;

/// How many tasks a fan-out over @p lane runs at once from the calling
/// thread: the lane's concurrency, or 1 where fanning out could deadlock —
/// without an executor, or on one of its workers (e.g. an engine torn down
/// by the last-owner reload task drains its final batches there, and every
/// registry reload compiles there).
[[nodiscard]] inline std::size_t fan_out_width(const executor::lane &lane) {
    if (lane.owner() == nullptr || lane.owner()->on_worker_thread()) {
        return 1;
    }
    return std::max<std::size_t>(1, lane.max_concurrency());
}

/**
 * @brief Run `task(c)` for every c < @p num_tasks: tasks 1.. on @p lane,
 *        task 0 on the calling thread, which then helps drain the lane
 *        while it waits.
 *
 * Returns only once every task returned — the tasks hold the caller's
 * frame — and then rethrows the first error: task 0's (or a failed
 * enqueue's), else the lowest failed lane task's. Where `fan_out_width` is
 * 1, the tasks run in order on the calling thread. The one fan-out path of
 * the engine: its batches and its compiles use it.
 */
template <typename Task>
void fan_out(executor::lane &lane, const std::size_t num_tasks, Task &&task) {
    if (num_tasks <= 1 || fan_out_width(lane) == 1) {
        for (std::size_t c = 0; c < num_tasks; ++c) {
            task(c);
        }
        return;
    }
    std::vector<std::future<void>> pending;
    std::exception_ptr error;
    try {
        pending.reserve(num_tasks - 1);
        for (std::size_t c = 1; c < num_tasks; ++c) {
            pending.push_back(lane.enqueue([&task, c]() { task(c); }));
        }
        task(0);
    } catch (...) {
        error = std::current_exception();
    }
    for (std::future<void> &f : pending) {
        // help while waiting: drain our own lane instead of blocking, so the
        // fan-out completes even if every worker is busy (or busy tearing
        // this very engine down — the deadlock the executor tests pin down)
        while (f.wait_for(std::chrono::seconds{ 0 }) != std::future_status::ready && lane.try_run_one()) {
        }
        try {
            f.get();
        } catch (...) {
            if (error == nullptr) {
                error = std::current_exception();
            }
        }
    }
    if (error != nullptr) {
        std::rethrow_exception(error);
    }
}

/// Partition the rows of @p points across @p lane and run the serial range
/// kernel @p serial (`serial(points, begin, end, out + begin * row_stride)`)
/// per chunk, for dense (`aos_matrix`) and sparse (`csr_matrix`) batches
/// along every host execution path; @p out holds @p row_stride values per
/// row. Evaluation errors (e.g. a feature-count mismatch) surface once
/// every chunk returned.
template <typename T, typename Matrix, typename Serial>
void pooled_evaluate(executor::lane &lane, const Matrix &points, const std::size_t row_stride, T *out, Serial &&serial) {
    const std::size_t num_rows = points.num_rows();
    if (num_rows == 0) {
        return;
    }
    const std::size_t num_chunks = std::min(num_rows, fan_out_width(lane));
    const std::size_t chunk = (num_rows + num_chunks - 1) / num_chunks;
    fan_out(lane, (num_rows + chunk - 1) / chunk, [&serial, &points, out, chunk, num_rows, row_stride](const std::size_t c) {
        fault::hook_executor_task();  // no-op without a global injector
        const std::size_t begin = c * chunk;
        serial(points, begin, std::min(begin + chunk, num_rows), out + begin * row_stride);
    });
}

/// Partition @p points across @p lane and evaluate every head of @p cm into
/// @p out (rows x heads) through the canonical (blocked dense / CSR) serial
/// kernels.
template <typename T, typename Matrix>
void pooled_decision_values(const compiled_model<T> &cm, executor::lane &lane, const Matrix &points, T *out) {
    pooled_evaluate(lane, points, cm.num_heads(), out, [&cm](const Matrix &pts, const std::size_t begin, const std::size_t end, T *o) {
        cm.decision_values_into(pts, begin, end, o);
    });
}

/// Evaluate every head of @p cm over one dense batch into @p out (rows x
/// heads) along an already-chosen execution path: reference batches run
/// serially (they are tiny by construction), the blocked and sparse host
/// sweeps are partitioned across @p lane — one fan-out per batch.
template <typename T>
void decision_values_via_path(const compiled_model<T> &cm, const predict_path path, executor::lane &lane,
                              const aos_matrix<T> &points, T *out) {
    switch (path) {
        case predict_path::reference:
            cm.decision_values_reference_into(points, 0, points.num_rows(), out);
            break;
        case predict_path::host_blocked:
            pooled_decision_values(cm, lane, points, out);
            break;
        case predict_path::host_sparse:
            pooled_evaluate(lane, points, cm.num_heads(), out, [&cm](const aos_matrix<T> &pts, const std::size_t begin, const std::size_t end, T *o) {
                cm.decision_values_sparse_into(pts, begin, end, o);
            });
            break;
    }
}

template <typename T>
class inference_engine {
  public:
    using real_type = T;
    using snapshot_type = engine_snapshot<T>;
    using snapshot_ptr = std::shared_ptr<const snapshot_type>;

    /// Compile @p trained (with the config's `compile` options, so very
    /// sparse models get the sparse SV form) and start the engine. An
    /// optional @p input_scaling is applied server-side to every batch
    /// (raw-feature client contract).
    explicit inference_engine(const model<T> &trained, engine_config config = {}, scaling_ptr<T> input_scaling = nullptr) :
        inference_engine{ config, std::move(input_scaling), [&](const compile_runner &runner) { return compiled_model<T>{ trained, config.compile, runner }; } } {}

    /// Take ownership of an already-compiled model (binary or ensemble) and
    /// start the engine.
    explicit inference_engine(compiled_model<T> compiled, engine_config config = {}, scaling_ptr<T> input_scaling = nullptr) :
        inference_engine{ config, std::move(input_scaling), [&](const compile_runner &) { return std::move(compiled); } } {}

    /// Compile the one-vs-all @p ensemble (one head per class, each distinct
    /// SV panel stored once) and start the engine.
    explicit inference_engine(const ext::multiclass_model<T> &ensemble, engine_config config = {}, scaling_ptr<T> input_scaling = nullptr) :
        inference_engine{ config, std::move(input_scaling), [&](const compile_runner &runner) { return compiled_model<T>{ ensemble, config.compile, runner }; } } {}

    inference_engine(const inference_engine &) = delete;
    inference_engine &operator=(const inference_engine &) = delete;

    /// Stops accepting requests, drains everything pending, then detaches
    /// from the executor (joining only the engine's own drain/watchdog
    /// threads). Any request still queued after the drain threads exit (a
    /// watchdog-abandoned lane at teardown) is settled with a typed
    /// `engine_shutdown` error — no request is ever dropped unsettled.
    ~inference_engine() {
        batcher_.shutdown();
        supervisor_.stop();
        metrics_.record_shutdown_failures(batcher_.fail_pending());
    }

    /// The snapshot currently served (the caller's shared_ptr stays valid
    /// across reloads).
    [[nodiscard]] snapshot_ptr snapshot() const { return snapshot_.load(); }

    [[nodiscard]] const engine_config &config() const noexcept { return config_; }
    [[nodiscard]] executor &shared_executor() const noexcept { return *exec_; }
    [[nodiscard]] std::size_t num_features() const noexcept { return num_features_; }
    /// Whether the engine serves a one-vs-all ensemble (fixed for its lifetime).
    [[nodiscard]] bool ensemble() const noexcept { return ensemble_; }
    /// Heads of the served model: 1 for a binary model, k for a k-class ensemble.
    [[nodiscard]] std::size_t num_heads() const noexcept { return num_heads_; }
    /// The ensemble's class labels in head order (empty for a binary model).
    [[nodiscard]] std::vector<T> class_labels() const { return snapshot_.load()->compiled.class_labels(); }
    /// Effective parallelism: the lane quota clamped to the executor size.
    [[nodiscard]] std::size_t num_threads() const noexcept { return lane_.max_concurrency(); }
    /// Async requests accepted but not yet drained.
    [[nodiscard]] std::size_t pending_requests() const { return batcher_.pending(); }
    /// Version tag of the currently served snapshot (starts at 1).
    [[nodiscard]] std::uint64_t snapshot_version() const { return snapshot_.load()->version; }
    /// Running mean of the seconds per request of the async batches that ran
    /// @p path cleanly (no retry, no bisection) on the current snapshot; 0
    /// until such a batch has run.
    [[nodiscard]] double measured_seconds_per_request(const predict_path path) const noexcept {
        return seconds_per_request_[static_cast<std::size_t>(path)].load();
    }

    /**
     * @brief Zero-downtime model replacement: compile @p trained into a fresh
     *        snapshot and atomically swap it in.
     *
     * Serving continues on the old snapshot for the whole compile; batches
     * that already loaded the old snapshot finish on it (RCU grace period =
     * shared_ptr lifetime). The feature count must match — in-flight and
     * future `submit` points were validated against it.
     *
     * The engine's `compile` options apply here too, so a reload moves the
     * model between the dense and sparse compiled forms purely based on the
     * replacement's SV density — with zero downtime either way.
     *
     * @throws plssvm::invalid_data_exception if the engine serves an
     *         ensemble or the feature count differs (checked before the
     *         compile, so a doomed reload fails fast)
     */
    void reload(const model<T> &trained, scaling_ptr<T> input_scaling = nullptr) {
        check_replacement(false, 1, trained.num_features());
        install(compiled_model<T>{ trained, config_.compile, lane_runner() }, std::move(input_scaling));
    }

    /// Zero-downtime ensemble replacement (same contract as the binary
    /// overload).
    /// @throws plssvm::invalid_data_exception if the engine serves a binary
    ///         model or the class or feature count differs
    void reload(const ext::multiclass_model<T> &ensemble, scaling_ptr<T> input_scaling = nullptr) {
        const std::vector<model<T>> &heads = ensemble.binary_models();
        check_replacement(true, ensemble.num_classes(), heads.empty() ? 0 : heads.front().num_features());
        install(compiled_model<T>{ ensemble, config_.compile, lane_runner() }, std::move(input_scaling));
    }

    /// Swap in an already-compiled replacement of the same kind, head count
    /// and feature count.
    void install(compiled_model<T> fresh, scaling_ptr<T> input_scaling = nullptr) {
        check_replacement(fresh.ensemble(), fresh.num_heads(), fresh.num_features());
        publish(snapshot_type{ std::move(fresh), std::move(input_scaling) });
    }

    /// Synchronous batched decision values of a binary model through the
    /// dispatched execution path (host batches partitioned across the
    /// engine's lane). @p points are raw client features; a snapshot-attached
    /// scaling is applied here.
    /// @throws plssvm::invalid_parameter_exception for an ensemble (see
    ///         `decision_matrix`)
    [[nodiscard]] std::vector<T> decision_values(const aos_matrix<T> &points) {
        require_binary();
        aos_matrix<T> scores = scores_on(*snapshot_.load(), points);
        return std::move(scores.data());  // one column: the storage is the value vector
    }

    /**
     * @brief Synchronous batched decision values of a binary model over
     *        sparse CSR queries.
     *
     * Linear models take the O(nnz)-per-row sparse dot fast path of
     * `compiled_model` (the merge-join against the sparse `w` when the
     * sparse compiled form is active); non-linear sparse-compiled models run
     * the true CSR-query x CSR-SV row-pair sweep, dense-compiled ones
     * densify tiles internally and run the blocked kernels. `choose_path`
     * decides per batch between serial (`reference`, tiny batches) and the
     * pooled host paths (`host_blocked` / `host_sparse`) from the batch size
     * and the stored-entry density. A snapshot-attached scaling densifies
     * the batch (explicit zeros scale to non-zero values) and takes the
     * dense path.
     */
    [[nodiscard]] std::vector<T> decision_values(const csr_matrix<T> &points) {
        require_binary();
        const snapshot_ptr snap = snapshot_.load();
        const compiled_model<T> &compiled = snap->compiled;
        compiled.validate_features(points.num_cols());
        if (snap->input_scaling != nullptr) {
            // min-max scaling maps explicit zeros to non-zero values, so the
            // sparse fast paths cannot apply: take the dense batch path
            return decision_values(points.to_dense());
        }
        const std::size_t num_rows = points.num_rows();
        std::vector<T> values(num_rows);
        if (values.empty()) {
            return values;
        }
        const auto start = std::chrono::steady_clock::now();
        predict_shape shape = batch_shape(*snap, num_rows);
        shape.sparse_query = true;
        shape.query_nnz = points.num_nonzeros();
        predict_path path = choose_path(shape);
        if (path == predict_path::reference) {
            // too small to be worth the lane round trip: run on this thread
            compiled.decision_values_into(points, 0, num_rows, values.data());
        } else if (path == predict_path::host_sparse) {
            // the CSR serial kernel: the sparse merge-join/row-pair sweeps
            // (or the O(nnz) linear fast path) over lane-partitioned chunks
            pooled_decision_values(compiled, lane_, points, values.data());
        } else {
            // the batch is too dense for the sparse sweeps to win (or the
            // model has no sparse form): densify per fixed-size tile — never
            // the whole batch — and run the tiled kernels
            path = predict_path::host_blocked;
            pooled_evaluate(lane_, points, 1, values.data(),
                            [&compiled](const csr_matrix<T> &pts, const std::size_t begin, const std::size_t end, T *o) {
                                compiled.decision_values_densified_into(pts, begin, end, o);
                            });
        }
        record_sync_batch(num_rows, path, start);
        return values;
    }

    /// Per-head scores: entry (point, head) is head `head`'s decision value,
    /// oriented toward its class for an ensemble (one column for a binary
    /// model), all heads from one sweep. @p points are raw client features;
    /// a snapshot-attached scaling is applied here.
    [[nodiscard]] aos_matrix<T> decision_matrix(const aos_matrix<T> &points) {
        return scores_on(*snapshot_.load(), points);
    }

    /// Synchronous batched label prediction: `label_from_decision` for a
    /// binary model, the argmax over oriented scores for an ensemble. Scores
    /// and label mapping come from one snapshot, even if a reload lands
    /// mid-call.
    [[nodiscard]] std::vector<T> predict(const aos_matrix<T> &points) {
        const snapshot_ptr snap = snapshot_.load();
        return labels_of(*snap, scores_on(*snap, points));
    }

    /**
     * @brief Asynchronous single-point prediction: the future view of the
     *        callback-settled `submit` (a promise adapter).
     *
     * The point is raw client features; the drain thread applies the
     * then-current snapshot's scaling, so the response is always consistent
     * with exactly one snapshot even across reloads.
     *
     * @param options request class and optional deadline budget; defaults to
     *        an interactive request with the class's configured deadline
     * @return future resolving to the predicted label in the model's
     *         original label domain
     * @throws plssvm::invalid_data_exception if the feature count is wrong
     *         (checked eagerly so the error surfaces at the call site)
     * @throws plssvm::serve::request_shed_exception if admission control
     *         sheds the request (rate limit or class backlog full)
     */
    [[nodiscard]] std::future<T> submit(std::vector<T> point, const request_options &options = {}) {
        auto [done, future] = promise_completion<T>();
        submit(std::move(point), options, nullptr, std::move(done));
        return std::move(future);
    }

    /// Asynchronous single-point prediction from a sparse feature vector
    /// (CSR-style (index, value) entries); the future view of the
    /// callback-settled sparse `submit`.
    [[nodiscard]] std::future<T> submit(const std::vector<typename csr_matrix<T>::entry> &sparse_point, const request_options &options = {}) {
        auto [done, future] = promise_completion<T>();
        submit(sparse_point, options, nullptr, std::move(done));
        return std::move(future);
    }

    /**
     * @brief Asynchronous single-point prediction settled through @p done
     *        (the net plane's entry point).
     *
     * @p done is called exactly once with the label or a typed error, on the
     * thread that settles the request (the drain thread; the lane watchdog
     * or the thread destroying the engine on failure), never under an
     * engine lock — unless this call throws, in which case it is never
     * called. A client-supplied trace id (`wire->client_supplied`) forces
     * the request to be traced regardless of the per-class sampling period,
     * so an operator can always correlate one specific wire request end to
     * end; otherwise the usual sampling decision applies. For a traced
     * request with a @p wire context, the drain thread publishes the merged
     * >= 9-stamp trace right after @p done returned, reading the
     * `encoded`/`flushed` stamps @p done set while writing the response.
     *
     * @throws plssvm::invalid_data_exception if the feature count is wrong
     * @throws plssvm::serve::request_shed_exception if admission control
     *         sheds the request
     */
    void submit(std::vector<T> point, const request_options &options, std::shared_ptr<obs::wire_trace_context> wire, completion_callback<T> done) {
        compiled_model<T>::validate_feature_count(num_features_, point.size());
        const auto admitted = admit_or_shed(options.cls);
        const std::chrono::microseconds deadline = options.deadline.count() > 0 ? options.deadline : admission_.config(options.cls).deadline_budget;
        std::uint64_t trace_id = 0;
        if (wire != nullptr && wire->client_supplied) {
            trace_id = wire->trace_id != 0 ? wire->trace_id : recorder_.next_trace_id();
        } else if (recorder_.should_trace(options.cls, deadline.count() > 0)) {
            trace_id = recorder_.next_trace_id();
        }
        if (trace_id == 0) {
            wire = nullptr;  // unsampled: no wire trace to publish
        } else if (wire != nullptr) {
            wire->trace_id = trace_id;
        }
        batcher_.enqueue(std::move(point), std::move(done), options.cls, deadline, admitted, trace_id, std::move(wire));
    }

    /**
     * @brief Asynchronous single-point prediction from a sparse feature
     *        vector, settled through @p done.
     *
     * The point is densified at submit time — the micro-batcher assembles
     * dense batch matrices — so sparse clients skip sending explicit zeros
     * over the wire but share the batched execution paths (including
     * admission control, per-class accounting and wire tracing).
     * @throws plssvm::invalid_data_exception if any feature index is out of
     *         range for the model
     * @throws plssvm::serve::request_shed_exception if admission control
     *         sheds the request
     */
    void submit(const std::vector<typename csr_matrix<T>::entry> &sparse_point, const request_options &options,
                std::shared_ptr<obs::wire_trace_context> wire, completion_callback<T> done) {
        std::vector<T> dense(num_features_, T{ 0 });
        for (const auto &e : sparse_point) {
            if (e.index >= num_features_) {
                throw invalid_data_exception{ "Sparse feature index " + std::to_string(e.index) + " is out of range for a model with " + std::to_string(num_features_) + " features!" };
            }
            dense[e.index] = e.value;
        }
        submit(std::move(dense), options, std::move(wire), std::move(done));
    }

    /// Current latency/throughput aggregates, including the engine's lane
    /// counters on the shared executor, the served snapshot version, the
    /// live per-class QoS state (admission counters, batch caps) and the
    /// fault plane (health, breaker states/trips, stall restarts).
    [[nodiscard]] serve_stats stats() const {
        serve_stats stats = metrics_.snapshot();
        const lane_stats lane = lane_.stats();
        stats.queue_depth = lane.queue_depth;
        stats.max_queue_depth = lane.max_queue_depth;
        stats.steals = lane.stolen;
        stats.executor_threads = exec_->size();
        stats.snapshot_version = snapshot_.load()->version;
        const per_class<std::size_t> caps = batcher_.class_caps();
        for (const request_class cls : all_request_classes) {
            class_serve_stats &c = stats.classes[class_index(cls)];
            c.target_batch_size = caps[class_index(cls)];
            // static per-token spacing of the class's token bucket — the
            // steady retry-after a rate-limited client of this class should
            // expect
            const double rate = admission_.config(cls).rate_limit;
            c.retry_after_hint_seconds = rate > 0.0 ? 1.0 / rate : 0.0;
        }
        // the counter fields of `stats.fault` come from the metrics snapshot
        const auto now = std::chrono::steady_clock::now();
        {
            // `update_health()` records a transition and its dump under this
            // lock, so a scrape sees a transition only with its dump counted
            const std::lock_guard lock{ health_mutex_ };
            stats.fault.health = health_.state();
            stats.fault.health_transitions = health_.transitions();
        }
        stats.fault.stall_restarts = supervisor_.stall_restarts();
        stats.fault.breaker_trips = fault_plane_.ladder().trips();
        for (const predict_path path : { predict_path::reference, predict_path::host_blocked, predict_path::host_sparse }) {
            stats.fault.breaker_states[static_cast<std::size_t>(path)] = fault_plane_.ladder().state(path, now);
        }
        return stats;
    }

    /// Current engine health (healthy / degraded / critical), as maintained
    /// by the fault plane's health state machine. A transition is visible
    /// here only once its flight-recorder dump is recorded.
    [[nodiscard]] health_state health() const {
        const std::lock_guard lock{ health_mutex_ };
        return health_.state();
    }

    /// SLO evaluations the health monitor made so far: at most one per
    /// steady-clock second, however many batches drain in it.
    [[nodiscard]] std::size_t slo_evaluations() const {
        const std::lock_guard lock{ health_mutex_ };
        return slo_evaluations_;
    }

    /// The most recent SLO burn-rate evaluation (over the fast + slow
    /// trailing windows ending at @p now).
    [[nodiscard]] slo_report slo(const std::chrono::steady_clock::time_point now = std::chrono::steady_clock::now()) const {
        return metrics_.evaluate_slo(slo_, now);
    }

    /// `stats()` rendered as a machine-readable JSON snapshot string,
    /// including the rolling `windows` (10 s / 1 m / 5 m rates and
    /// percentiles) and `slo` (burn rates, alert states) sections.
    [[nodiscard]] std::string stats_json() const {
        std::string json = to_json(stats());
        std::string extra = ", \"windows\": ";
        extra += windows_json(metrics_.windows());
        extra += ", \"slo\": ";
        extra += to_json(slo());
        json.insert(json.size() - 1, extra);  // splice before the closing '}'
        return json;
    }

    /// Emit every metric family of this engine (counters/gauges, latency +
    /// stage histograms, windowed rates/percentiles, SLO alert states,
    /// flight-recorder counters) into @p builder under @p labels — the
    /// building block of `registry.metrics_text()`. Process-wide families
    /// (`plssvm_serve_build_info`, uptime) are NOT emitted here: they carry
    /// no per-engine labels, so the aggregating exposition adds them exactly
    /// once (see `obs::collect_build_info`).
    void collect_metrics(obs::prometheus_builder &builder, const obs::label_set &labels = {}) const {
        collect_serve_stats(builder, stats(), labels);
        collect_window_stats(builder, metrics_.windows(), labels);
        metrics_.collect_histograms(builder, labels);
        recorder_.collect(builder, labels);
        if (slo_.any_enabled()) {
            const slo_report report = slo();
            for (const request_class cls : all_request_classes) {
                obs::label_set cl = labels;
                cl.emplace_back("class", std::string{ request_class_to_string(cls) });
                builder.add_gauge("plssvm_serve_slo_state", "Per-class SLO burn-rate alert state (0 = ok, 1 = degraded, 2 = critical)",
                                  cl, static_cast<double>(static_cast<int>(report.classes[class_index(cls)].state)));
            }
        }
    }

    /// All engine metrics in the Prometheus text exposition format
    /// (including the process-wide build-info/uptime families — this is a
    /// complete standalone exposition).
    [[nodiscard]] std::string metrics_text() const {
        obs::prometheus_builder builder;
        collect_metrics(builder);
        obs::collect_build_info(builder);
        return builder.text();
    }

    /// The engine's flight recorder (retained lifecycle traces + shed events).
    [[nodiscard]] const obs::flight_recorder &recorder() const noexcept { return recorder_; }

    /// Explicit flight-recorder dump: every retained trace and shed event,
    /// rendered as JSON.
    [[nodiscard]] std::string dump_traces() const { return recorder_.dump_json("explicit"); }

    /// JSON of the most recent automatic violation dump (triggered by a shed
    /// or a deadline miss; empty string before the first violation).
    [[nodiscard]] std::string last_violation_dump() const { return recorder_.last_violation_dump(); }

    /// The flight-recorder dump forced by the most recent health transition.
    [[nodiscard]] std::string last_health_dump() const { return recorder_.last_health_dump(); }

    /// Publish the aggregates into @p t under @p prefix.
    void report_to(plssvm::detail::tracker &t, const std::string_view prefix = "serve") const {
        metrics_.report_to(t, prefix);
        const serve_stats stats = this->stats();
        const std::string p{ prefix };
        t.set_metric(p + "/queue_depth", static_cast<double>(stats.queue_depth));
        t.set_metric(p + "/max_queue_depth", static_cast<double>(stats.max_queue_depth));
        t.set_metric(p + "/steals", static_cast<double>(stats.steals));
        t.set_metric(p + "/executor_threads", static_cast<double>(stats.executor_threads));
        t.set_metric(p + "/snapshot_version", static_cast<double>(stats.snapshot_version));
    }

  private:
    /// Start serving the model @p compile builds with the engine's lane
    /// runner (published as version 1): the lane exists before the compile.
    template <typename Compile>
    inference_engine(const engine_config &config, scaling_ptr<T> input_scaling, Compile &&compile) :
        config_{ config },
        exec_{ config.exec != nullptr ? config.exec : &executor::process_wide() },
        lane_{ exec_->create_lane(lane_options{ .name = "engine", .quota = config.num_threads }) },
        snapshot_{ versioned(snapshot_type{ compile(lane_runner()), std::move(input_scaling) }, 1) },
        num_features_{ snapshot_.load()->compiled.num_features() },
        num_heads_{ snapshot_.load()->compiled.num_heads() },
        ensemble_{ snapshot_.load()->compiled.ensemble() },
        deadline_budgets_{ std::any_of(config.qos.classes.begin(), config.qos.classes.end(),
                                       [](const class_qos_config &c) { return c.deadline_budget.count() > 0; }) },
        admission_{ config.qos },
        batcher_{ config.max_batch_size },
        recorder_{ config.obs },
        fault_plane_{ config.fault },
        slo_{ config.slo } {
        update_batch_caps();
        supervisor_.start(
            config_.fault.watchdog,
            [this](const std::uint64_t generation) { drain_loop(generation); },
            [this](const std::size_t, const std::size_t failed_requests, const request_class cls) {
                metrics_.record_stall_failures(cls, failed_requests);
                update_health();
            });
    }

    /// The runner of this engine's compiles: feature ranges fan out over its
    /// lane (`fan_out`), except where `fan_out_width` is 1 — a reload on an
    /// executor worker, which every registry reload is, compiles inline.
    [[nodiscard]] compile_runner lane_runner() {
        return compile_runner{ fan_out_width(lane_), [this](const std::size_t n, const std::function<void(std::size_t)> &range) { fan_out(lane_, n, range); } };
    }

    [[nodiscard]] static snapshot_ptr versioned(snapshot_type snap, const std::uint64_t version) {
        snap.version = version;
        return std::make_shared<const snapshot_type>(std::move(snap));
    }

    /// @throws plssvm::invalid_data_exception if a replacement of the given
    ///         kind and shape cannot take over this engine's traffic
    void check_replacement(const bool ensemble, const std::size_t heads, const std::size_t features) const {
        if (ensemble != ensemble_) {
            throw invalid_data_exception{ std::string{ "Reload type mismatch: engine serves a " } + (ensemble_ ? "one-vs-all ensemble" : "binary model") + " but the replacement is a " + (ensemble ? "one-vs-all ensemble" : "binary model") + "!" };
        }
        if (heads != num_heads_) {
            throw invalid_data_exception{ "Reload class count mismatch: engine serves " + std::to_string(num_heads_) + " classes but the replacement has " + std::to_string(heads) + "!" };
        }
        if (features != num_features_) {
            throw invalid_data_exception{ "Reload feature count mismatch: engine serves " + std::to_string(num_features_) + " features but the replacement model has " + std::to_string(features) + "!" };
        }
    }

    /// Version assignment and publication under one lock: concurrent
    /// installs must not publish out of version order (a reader could
    /// otherwise see the version counter regress).
    /// The measured rates belong to the replaced snapshot, so they reset and
    /// the batch caps return to `max_batch_size` until the new one is
    /// measured.
    void publish(snapshot_type fresh) {
        const std::lock_guard lock{ install_mutex_ };
        snapshot_.store(versioned(std::move(fresh), ++last_version_));
        for (std::atomic<double> &rate : seconds_per_request_) {
            rate.store(0.0);
        }
        update_batch_caps();
        metrics_.record_reload();
    }

    /// Recompute the per-class batch caps from the measured estimate (at
    /// start, on every reload, and after every clean batch while some class
    /// has a deadline budget).
    void update_batch_caps() {
        batcher_.set_class_caps(class_batch_caps(config_.qos, config_.max_batch_size,
                                                 [this](const std::size_t batch_size) { return estimated_batch_seconds(batch_size); }));
    }

    void require_binary() const {
        if (ensemble_) {
            throw invalid_parameter_exception{ "decision_values serves binary models; use decision_matrix for a one-vs-all ensemble!" };
        }
    }

    /// The dispatch shape of one dense batch: the stored panels' size and
    /// stored entries (the sparse path is on offer when the model compiled
    /// the sparse form).
    [[nodiscard]] static predict_shape batch_shape(const snapshot_type &snap, const std::size_t batch_size) {
        const compiled_model<T> &cm = snap.compiled;
        return predict_shape{ batch_size, cm.num_support_vectors(), cm.num_features(), cm.params().kernel, cm.sparse_sv() ? cm.sv_nnz() : 0 };
    }

    /// Oriented per-head scores of @p points along @p path into @p scores
    /// (one column per head): one call of the path, which the caller chose
    /// for this very snapshot.
    void score_along(const snapshot_type &snap, const predict_path path, const aos_matrix<T> &points, aos_matrix<T> &scores) {
        decision_values_via_path(snap.compiled, path, lane_, points, scores.data().data());
    }

    /// Labels of every row of @p scores.
    [[nodiscard]] static std::vector<T> labels_of(const snapshot_type &snap, const aos_matrix<T> &scores) {
        std::vector<T> labels(scores.num_rows());
        for (std::size_t p = 0; p < labels.size(); ++p) {
            labels[p] = snap.compiled.label(scores.row_data(p));
        }
        return labels;
    }

    /// Shared body of the synchronous dense entry points: score the whole
    /// batch against the one snapshot the caller loaded, along the
    /// dispatched path.
    [[nodiscard]] aos_matrix<T> scores_on(const snapshot_type &snap, const aos_matrix<T> &points) {
        snap.compiled.validate_features(points.num_cols());
        aos_matrix<T> scores{ points.num_rows(), snap.compiled.num_heads() };
        if (points.num_rows() == 0) {
            return scores;
        }
        const auto start = std::chrono::steady_clock::now();
        const predict_path path = choose_path(batch_shape(snap, points.num_rows()));
        if (snap.input_scaling != nullptr) {
            aos_matrix<T> scaled = points;  // never mutate the caller's batch
            snap.input_scaling->transform(scaled);
            score_along(snap, path, scaled, scores);
        } else {
            score_along(snap, path, points, scores);
        }
        record_sync_batch(points.num_rows(), path, start);
        return scores;
    }

    void record_sync_batch(const std::size_t num_points, const predict_path path, const std::chrono::steady_clock::time_point start) {
        const double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        metrics_.record_batch(num_points, elapsed);
        metrics_.record_path(path);
        metrics_.record_request_latency(elapsed);
    }

    /// Admission gate of the async submit path: consult the controller,
    /// record the decision (metrics counter + flight-recorder shed event),
    /// and fail the shed request fast with the typed error.
    /// @return the admission instant — trace stamp 1 of the admitted request
    [[nodiscard]] std::chrono::steady_clock::time_point admit_or_shed(const request_class cls) {
        const auto now = std::chrono::steady_clock::now();
        const admission_decision decision = admission_.try_admit(cls, batcher_.pending(cls), now);
        metrics_.record_admission(cls, decision);
        if (decision != admission_decision::admitted) {
            recorder_.record_shed(cls, decision);
            // rate-limited sheds carry a structured retry-after hint from the
            // token bucket's refill rate; backlog sheds clear on drain
            // progress, not on a predictable schedule, so they carry none
            const std::chrono::microseconds retry_after = decision == admission_decision::shed_rate_limited
                                                              ? admission_.retry_after(cls, now)
                                                              : std::chrono::microseconds{ 0 };
            throw request_shed_exception{ cls, decision, retry_after };
        }
        return now;
    }

    /**
     * @brief Consumer loop of the drain thread: pull coalesced
     *        class-homogeneous batches, assemble the batch matrix, evaluate
     *        with retry/bisection under the fault plane, settle every request
     *        exactly once through its completion callback (value or typed
     *        error), and record per-class metrics and lifecycle traces.
     *
     * Failure isolation: an evaluation attempt covers a contiguous request
     * range and may throw (organically or via an injected fault). The full
     * batch is retried up to `retry_config::max_attempts` with jittered
     * exponential backoff; if it still fails, the range is bisected — each
     * half evaluated without further whole-range retries — until the
     * poisoned request is isolated at range size 1 and quarantined with a
     * typed `request_failed_exception` (`fault::quarantine_error`). Every
     * other request of the batch completes normally. Each attempt records
     * success/failure into the per-path circuit breakers, and each attempt
     * re-chooses its path among the non-tripped ones, so a persistently
     * failing path demotes traffic down the ladder mid-batch. A batch whose
     * one attempt succeeded (no retry, no bisection) folds its seconds per
     * request into the running mean of its path before its requests settle.
     *
     * Watchdog protocol: before evaluating, the batch's completion
     * callbacks are wrapped in a settle-once `fault::inflight_batch` and
     * published to the supervisor with a deadline (when the watchdog is
     * enabled). A stalled evaluation leads the watchdog to fail the
     * unsettled requests and bump the lane generation; this loop re-checks
     * `supervisor_.generation()` at every loop head and after every batch,
     * exiting promptly once abandoned. All settles funnel through the
     * inflight wrapper, so the racing drain thread and watchdog can never
     * settle a request twice, and every callback runs after the wrapper's
     * mutex is released.
     */
    void drain_loop(const std::uint64_t generation) {
        while (supervisor_.generation() == generation) {
            typename micro_batcher<T>::class_batch batch = batcher_.next_batch();
            if (batch.empty()) {
                return;  // shut down and drained
            }
            const std::size_t batch_size = batch.size();
            // wrap the callbacks settle-once *before* any fallible work: from
            // here on every exit path settles every slot exactly once (if the
            // wrapping itself fails, each callback still sits either in its
            // request or in `callbacks`)
            std::shared_ptr<fault::inflight_batch<T>> inflight;
            std::vector<completion_callback<T>> callbacks;
            try {
                callbacks.reserve(batch_size);
                for (typename micro_batcher<T>::request &req : batch.requests) {
                    callbacks.push_back(std::move(req.done));
                }
                inflight = std::make_shared<fault::inflight_batch<T>>(std::move(callbacks), batch.cls);
            } catch (...) {
                const std::exception_ptr cause = std::current_exception();
                std::size_t failed = 0;
                const auto fail = [&](completion_callback<T> &done) {
                    if (done) {
                        ++failed;
                        std::exchange(done, nullptr)(T{}, std::make_exception_ptr(request_failed_exception{
                                                              fault::classify_failure(cause), batch.cls, fault::failure_cause(cause) }));
                    }
                };
                for (completion_callback<T> &done : callbacks) {
                    fail(done);
                }
                for (typename micro_batcher<T>::request &req : batch.requests) {
                    fail(req.done);
                }
                metrics_.record_failures(batch.cls, failed);
                continue;
            }
            try {
                const double estimated_seconds = estimated_batch_seconds(batch_size);
                const fault::watchdog_config &wd = fault_plane_.config().watchdog;
                if (wd.stall_timeout.count() > 0) {
                    const auto estimate_budget = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::duration<double>(wd.estimate_factor * estimated_seconds));
                    supervisor_.publish(inflight, std::chrono::steady_clock::now() + std::max(wd.stall_timeout, estimate_budget), generation);
                }

                std::vector<T> labels(batch_size);
                std::vector<std::exception_ptr> errors(batch_size);
                predict_path batch_path = predict_path::reference;
                std::uint64_t batch_version = 0;  // snapshot the last successful attempt ran on
                bool clean = true;                // no attempt failed: no retry, no bisection

                // one evaluation attempt series over requests [begin, end):
                // retry-with-backoff while allowed, each attempt on a freshly
                // chosen (breaker-masked) path; returns the final error or null
                const auto eval_range = [&](const std::size_t begin, const std::size_t end, const bool allow_retry) -> std::exception_ptr {
                    const fault::retry_config &rc = fault_plane_.config().retry;
                    const std::size_t max_attempts = allow_retry ? std::max<std::size_t>(1, rc.max_attempts) : 1;
                    std::size_t attempt = 0;
                    while (true) {
                        predict_path path = predict_path::reference;
                        bool chosen = false;
                        try {
                            fault::hook_dispatch(fault_plane_.inject());
                            // one snapshot for the whole attempt: model,
                            // labels and scaling always belong together
                            const snapshot_ptr snap = snapshot_.load();
                            path = choose_path(batch_shape(*snap, end - begin), fault_plane_.ladder().allowed(std::chrono::steady_clock::now()));
                            chosen = true;
                            fault::hook_allocation(fault_plane_.inject());
                            // fresh sub-matrix per attempt: the snapshot's
                            // input scaling is applied to it in place
                            aos_matrix<T> points{ end - begin, num_features_ };
                            for (std::size_t i = begin; i < end; ++i) {
                                std::copy(batch.requests[i].point.begin(), batch.requests[i].point.end(), points.row_data(i - begin));
                            }
                            const fault::kernel_hook_result injected = fault::hook_batch_kernel(
                                fault_plane_.inject(), path, static_cast<std::ptrdiff_t>(begin), static_cast<std::ptrdiff_t>(end));
                            if (snap->input_scaling != nullptr) {
                                snap->input_scaling->transform(points);
                            }
                            aos_matrix<T> scores{ end - begin, snap->compiled.num_heads() };
                            score_along(*snap, path, points, scores);
                            std::vector<T> values = labels_of(*snap, scores);
                            if (injected.wrong_result && !values.empty()) {
                                values.front() = -values.front() + T{ 1 };  // deterministic corruption
                            }
                            std::copy(values.begin(), values.end(), labels.begin() + static_cast<std::ptrdiff_t>(begin));
                            fault_plane_.ladder().record(path, true, std::chrono::steady_clock::now());
                            batch_path = path;
                            batch_version = snap->version;
                            return nullptr;
                        } catch (...) {
                            clean = false;
                            if (chosen) {
                                fault_plane_.ladder().record(path, false, std::chrono::steady_clock::now());
                            }
                            ++attempt;
                            if (attempt >= max_attempts) {
                                return std::current_exception();
                            }
                            metrics_.record_batch_retry();
                            std::this_thread::sleep_for(fault_plane_.backoff(attempt));
                        }
                    }
                };

                // bisection: a range that exhausts its retries splits in half
                // (halves evaluated attempt-once — the transient budget is
                // spent) until the poisoned request is isolated and quarantined
                const auto resolve = [&](const auto &self, const std::size_t begin, const std::size_t end, const bool allow_retry) -> void {
                    const std::exception_ptr error = eval_range(begin, end, allow_retry);
                    if (error == nullptr) {
                        return;
                    }
                    if (end - begin == 1) {
                        errors[begin] = fault::quarantine_error(error, batch.cls);
                        metrics_.record_quarantine(batch.cls);
                        return;
                    }
                    metrics_.record_batch_bisection();
                    const std::size_t mid = begin + (end - begin) / 2;
                    self(self, begin, mid, false);
                    self(self, mid, end, false);
                };

                const auto dispatch_start = std::chrono::steady_clock::now();
                resolve(resolve, 0, batch_size, true);
                const auto end = std::chrono::steady_clock::now();
                supervisor_.clear(generation);
                const double service_seconds = std::chrono::duration<double>(end - dispatch_start).count();
                metrics_.record_batch(batch_size, service_seconds);
                metrics_.record_class_batch(batch.cls);
                metrics_.record_path(batch_path);
                metrics_.record_batch_estimate(estimated_seconds, service_seconds);
                const bool abandoned = inflight->abandoned();
                if (clean && !abandoned) {
                    record_measured_rate(batch_path, batch_version, service_seconds / static_cast<double>(batch_size));
                }
                for (std::size_t i = 0; i < batch_size; ++i) {
                    typename micro_batcher<T>::request &req = batch.requests[i];
                    if (errors[i] != nullptr) {
                        inflight->set_exception(i, std::move(errors[i]));
                        continue;
                    }
                    if (abandoned) {
                        // the watchdog failed this batch mid-evaluation: don't
                        // record completions for requests it already settled
                        // with a stall error (a late set_value is a no-op)
                        inflight->set_value(i, labels[i]);
                        continue;
                    }
                    const bool deadline_missed = req.deadline != no_deadline && end > req.deadline;
                    obs::stage_seconds stages{};
                    stages[obs::stage_index(obs::trace_stage::admission)] = std::chrono::duration<double>(req.enqueued - req.admitted).count();
                    stages[obs::stage_index(obs::trace_stage::queue_wait)] = std::chrono::duration<double>(batch.sealed - req.enqueued).count();
                    stages[obs::stage_index(obs::trace_stage::dispatch)] = std::chrono::duration<double>(dispatch_start - batch.sealed).count();
                    stages[obs::stage_index(obs::trace_stage::service)] = service_seconds;
                    metrics_.record_request_trace(batch.cls, stages, std::chrono::duration<double>(end - req.admitted).count(), deadline_missed);
                    obs::request_trace trace{};
                    if (req.traced) {
                        trace.id = req.trace_id;
                        trace.cls = batch.cls;
                        trace.path = batch_path;
                        trace.deadline_missed = deadline_missed;
                        trace.batch_size = batch_size;
                        trace.estimated_batch_seconds = estimated_seconds;
                        trace.t_admit_ns = recorder_.to_ns(req.admitted);
                        trace.t_enqueue_ns = recorder_.to_ns(req.enqueued);
                        trace.t_seal_ns = recorder_.to_ns(batch.sealed);
                        trace.t_dispatch_ns = recorder_.to_ns(dispatch_start);
                        trace.t_complete_ns = recorder_.to_ns(end);
                        if (req.wire == nullptr) {
                            recorder_.record_complete(trace);
                        }
                    }
                    // settle LAST: a caller woken by the callback must already
                    // see this request in the metrics (tests and scrapers read
                    // stats() right after get() returns)
                    if (inflight->set_value(i, labels[i]) && req.traced && req.wire != nullptr) {
                        // wire-traced: the callback wrote the response and
                        // stamped its tail, so the merged trace is complete
                        const obs::wire_trace_context &wire = *req.wire;
                        trace.t_net_accepted_ns = recorder_.to_ns(wire.accepted);
                        trace.t_net_read_ns = recorder_.to_ns(wire.read_done);
                        trace.t_net_decoded_ns = recorder_.to_ns(wire.decoded);
                        trace.t_net_dispatch_ns = recorder_.to_ns(wire.dispatched);
                        trace.t_net_encoded_ns = recorder_.to_ns(wire.encoded);
                        trace.t_net_flushed_ns = recorder_.to_ns(wire.flushed);
                        recorder_.record_complete(trace);
                    }
                }
            } catch (...) {
                // out-of-band failure (e.g. allocation of the bookkeeping
                // vectors): settle whatever is still pending, typed by cause
                supervisor_.clear(generation);
                const std::exception_ptr cause = std::current_exception();
                metrics_.record_failures(batch.cls, inflight->fail_unsettled(fault::classify_failure(cause), fault::failure_cause(cause)));
            }
            if (supervisor_.generation() != generation) {
                return;  // abandoned by the watchdog mid-batch: a fresh lane took over
            }
            update_health();
        }
    }

    /// Re-evaluate the health state machine from the live breaker states and
    /// the cumulative serving counters; record the transition (flight
    /// recorder dump) when the state changes. Called after every drained
    /// batch and on every stall restart; serialized by `health_mutex_`, so
    /// the monitor diffs counters sampled in order. The SLO report is
    /// re-evaluated at most once per second (`slo_evaluations()`).
    void update_health() {
        const std::lock_guard lock{ health_mutex_ };
        const auto now = std::chrono::steady_clock::now();
        fault::health_inputs inputs;
        for (const predict_path path : { predict_path::host_blocked, predict_path::host_sparse }) {
            const fault::breaker_state state = fault_plane_.ladder().state(path, now);
            inputs.breaker_open = inputs.breaker_open || state == fault::breaker_state::open;
            inputs.breaker_half_open = inputs.breaker_half_open || state == fault::breaker_state::half_open;
        }
        const std::size_t stalls = supervisor_.stall_restarts();
        inputs.stall_restarted = stalls > std::exchange(last_stall_seen_, stalls);
        const serve_metrics::fault_counter_sample sample = metrics_.fault_counters();
        inputs.admission_attempts = sample.admission_attempts;
        inputs.shed = sample.shed;
        inputs.completed = sample.completed;
        inputs.deadline_misses = sample.deadline_misses;
        inputs.quarantined = sample.quarantined;
        int slo_worst = 0;
        if (slo_.any_enabled()) {
            // the windows roll once per steady-clock second: evaluate the
            // burn rates when `now` enters a new second, not per batch
            const std::int64_t second = std::chrono::duration_cast<std::chrono::seconds>(now.time_since_epoch()).count();
            if (slo_evaluations_ == 0 || second != slo_second_) {
                slo_report_ = metrics_.evaluate_slo(slo_, now);
                slo_second_ = second;
                ++slo_evaluations_;
            }
            inputs.slo_degraded = slo_report_.worst == slo_alert_state::degraded;
            inputs.slo_critical = slo_report_.worst == slo_alert_state::critical;
            slo_worst = static_cast<int>(slo_report_.worst);
        }
        const fault::health_transition transition = health_.observe(inputs);
        if (transition.changed) {
            recorder_.record_health_transition(health_state_to_string(transition.from), health_state_to_string(transition.to));
        }
        const int slo_prev = std::exchange(last_slo_worst_, slo_worst);
        if (slo_worst > slo_prev && !transition.changed) {
            // an SLO burn escalation always forces evidence retention, even
            // when the health state was already pinned by another signal
            recorder_.record_health_transition(
                slo_alert_state_to_string(static_cast<slo_alert_state>(slo_prev)),
                slo_alert_state_to_string(static_cast<slo_alert_state>(slo_worst)));
        }
    }

    /// Measured estimate of one batch of @p batch_size against the current
    /// snapshot: the batch size times the measured seconds per request of
    /// the path `choose_path` picks for it (deadline batch caps, watchdog
    /// budget, estimate-error metric and trace attribution). 0 — no
    /// estimate — until that path has run a clean batch.
    [[nodiscard]] double estimated_batch_seconds(const std::size_t batch_size) const {
        const predict_path path = choose_path(batch_shape(*snapshot_.load(), batch_size));
        return static_cast<double>(batch_size) * measured_seconds_per_request(path);
    }

    /// Fold the seconds per request of one clean batch on @p path into the
    /// path's running mean, unless a reload replaced the snapshot
    /// (@p version) the batch ran on; then re-derive the batch caps if some
    /// class has a deadline budget. Called by the drain thread only.
    void record_measured_rate(const predict_path path, const std::uint64_t version, const double seconds) {
        if (snapshot_.load()->version != version) {
            return;
        }
        std::atomic<double> &rate = seconds_per_request_[static_cast<std::size_t>(path)];
        const double mean = rate.load();
        rate.store(mean > 0.0 ? mean + measured_rate_weight * (seconds - mean) : seconds);
        if (deadline_budgets_) {
            update_batch_caps();
        }
    }

    engine_config config_;
    executor *exec_;
    executor::lane lane_;
    snapshot_handle<snapshot_type> snapshot_;
    std::size_t num_features_;
    std::size_t num_heads_;
    bool ensemble_;
    std::mutex install_mutex_;         ///< serializes version bump + publication
    std::uint64_t last_version_{ 1 };  ///< guarded by install_mutex_
    /// Measured seconds per request of each path on the current snapshot,
    /// indexed by `predict_path` (0 = not measured yet).
    std::array<std::atomic<double>, 3> seconds_per_request_{};
    bool deadline_budgets_;            ///< some class has a deadline budget: caps follow the measured rate
    admission_controller admission_;   ///< QoS admission gate of the submit paths
    micro_batcher<T> batcher_;
    serve_metrics metrics_;
    obs::flight_recorder recorder_;             ///< lifecycle traces + violation dumps
    mutable fault::fault_plane fault_plane_;    ///< breakers/backoff (mutable: `state()` advances open -> half-open on reads)
    slo_engine slo_;                            ///< multi-window burn-rate evaluator
    mutable std::mutex health_mutex_;           ///< held by `update_health()` and `health()`
    fault::health_monitor health_;              ///< engine health state machine
    std::size_t last_stall_seen_{ 0 };          ///< stall count at the last health observation (guarded by `health_mutex_`)
    int last_slo_worst_{ 0 };                   ///< SLO alert severity at the last health observation (guarded by `health_mutex_`)
    slo_report slo_report_{};                   ///< SLO evaluation the health monitor reads (guarded by `health_mutex_`)
    std::int64_t slo_second_{ 0 };              ///< steady-clock second `slo_report_` was taken in (guarded by `health_mutex_`)
    std::size_t slo_evaluations_{ 0 };          ///< SLO evaluations `update_health()` made (guarded by `health_mutex_`)
    fault::drain_supervisor<T> supervisor_;     ///< declared last: its threads use every other member
};

}  // namespace plssvm::serve

#endif  // PLSSVM_SERVE_INFERENCE_ENGINE_HPP_
