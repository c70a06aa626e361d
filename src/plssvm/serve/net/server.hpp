/**
 * @file
 * @brief Epoll-based network front-end of the serving subsystem.
 *
 * Thread structure:
 *  - one **acceptor** thread owns the listening socket and distributes
 *    accepted connections round-robin across the event loops;
 *  - N **event** threads each own a private epoll instance (edge-triggered)
 *    and perform all reads, request decoding, and engine submission — a
 *    connection belongs to exactly one event thread, so no read path ever
 *    needs a lock.
 *
 * No thread waits for a response. Every predict request is submitted with a
 * completion callback, and the thread that settles the request (the
 * engine's drain thread; its watchdog or the thread tearing it down on
 * failure) serializes the response and writes it on the connection — under
 * the connection's out-mutex, with the `EPOLLOUT` path of the owning event
 * thread taking over a tail the socket buffer did not accept. A ready
 * response is therefore never queued behind one that is not.
 *
 * Requests flow straight into the existing
 * `model_registry`/`inference_engine` micro-batcher, which coalesces points
 * *across* client connections — concurrent sockets feed one batch.
 * `request_shed_exception` maps to a `RETRY_AFTER` wire response carrying
 * the token-bucket backoff hint, and the registry's worst-engine
 * `health_state` backs the JSON-mode readiness probe (`ready` iff not
 * critical).
 */

#ifndef PLSSVM_SERVE_NET_SERVER_HPP_
#define PLSSVM_SERVE_NET_SERVER_HPP_

#include "plssvm/exceptions.hpp"             // plssvm::exception
#include "plssvm/serve/fault.hpp"            // plssvm::serve::health_state, completion_callback
#include "plssvm/serve/model_registry.hpp"   // plssvm::serve::model_registry
#include "plssvm/serve/net/connection.hpp"   // plssvm::serve::net::connection
#include "plssvm/serve/net/framing.hpp"      // framing constants
#include "plssvm/serve/net/protocol.hpp"     // net_request, net_response
#include "plssvm/serve/obs.hpp"              // plssvm::serve::obs::prometheus_builder, latency_histogram
#include "plssvm/serve/qos.hpp"              // plssvm::serve::request_options

#include <atomic>              // std::atomic
#include <chrono>              // std::chrono::steady_clock
#include <condition_variable>  // std::condition_variable
#include <cstdint>             // std::uint16_t, std::uint64_t
#include <exception>           // std::exception_ptr
#include <future>              // std::future
#include <map>                 // std::map
#include <memory>              // std::shared_ptr, std::unique_ptr
#include <mutex>               // std::mutex
#include <string>              // std::string
#include <thread>              // std::thread
#include <type_traits>         // std::is_same_v
#include <utility>             // std::move
#include <vector>              // std::vector

namespace plssvm::serve::net {

/// Thrown by a dispatcher when the requested model is not resident; the
/// server maps it to a `not_found` wire response.
class model_not_found_error : public exception {
  public:
    explicit model_not_found_error(const std::string &name) :
        exception{ "no model named \"" + name + "\" is resident" } {}
};

/// Tuning knobs of one `net_server`.
struct net_server_config {
    /// IPv4 address to bind (loopback by default — this is a backend port).
    std::string bind_address{ "127.0.0.1" };
    /// TCP port; 0 binds an ephemeral port (read it back via `port()`).
    std::uint16_t port{ 0 };
    /// Event (read/decode/submit) threads, each with a private epoll set.
    std::size_t event_threads{ 1 };
    /// Per-message size bound (binary frame payload or one JSON line).
    std::size_t max_frame_bytes{ default_max_frame_bytes };
    /// Accept cap: connections beyond this are closed immediately.
    std::size_t max_connections{ 1024 };
    /// `listen(2)` backlog.
    int listen_backlog{ 128 };
    /// Stamp wire-to-wire trace contexts onto predict requests (accepted /
    /// read / decoded / dispatched / encoded / flushed, merged with the
    /// engine lifecycle stamps). Sampling still happens per engine; turning
    /// this off removes even the per-request context allocation.
    bool wire_tracing{ true };
    /// Distinct remote peers tracked individually; further peers aggregate
    /// under the label `other` so a scan cannot grow the map unbounded.
    std::size_t max_tracked_peers{ 64 };
};

/**
 * @brief Type-erased bridge between the wire layer and the model store, so
 *        `net_server` needs no template parameter and tests can substitute
 *        a stub dispatcher.
 */
class model_dispatcher {
  public:
    /// Settles one submitted request (see `completion_callback`).
    using completion = completion_callback<double>;

    virtual ~model_dispatcher() = default;

    /**
     * @brief Submit one predict request into the async serving path.
     *
     * @p done is called exactly once with the label or the error the
     * request was settled with, on the thread that settles it — unless this
     * call throws (`model_not_found_error`, `request_shed_exception`,
     * `invalid_data_exception`), in which case it is never called. @p wire
     * (may be null) carries the net-stage stamps into the engine, which
     * publishes the merged trace right after @p done returned.
     */
    virtual void submit(const net_request &req, std::shared_ptr<obs::wire_trace_context> wire, completion done) = 0;

    /// The future view of `submit` (a promise adapter): the in-process entry
    /// point of tests and benches.
    [[nodiscard]] std::future<double> submit(const net_request &req) {
        auto [done, future] = promise_completion<double>();
        submit(req, nullptr, std::move(done));
        return std::move(future);
    }

    /// Worst-engine health (backs the readiness probe).
    [[nodiscard]] virtual health_state health() const = 0;

    /// Model-store JSON stats (embedded in the `stats` op response).
    [[nodiscard]] virtual std::string stats_json() const = 0;

    /// Emit the model store's metric families into @p builder (the server
    /// adds its own and the process-wide ones to the same builder).
    virtual void collect_metrics(obs::prometheus_builder &builder) const = 0;

    /// Retained wire-to-wire traces of the model store (backs the `trace`
    /// wire op). Stub dispatchers inherit an empty object.
    [[nodiscard]] virtual std::string trace_json() const { return "{}"; }
};

/// `model_dispatcher` over a `model_registry<T>`: one registry lookup per
/// request, binary models and one-vs-all ensembles alike.
template <typename T>
class registry_dispatcher final : public model_dispatcher {
  public:
    explicit registry_dispatcher(model_registry<T> &registry) :
        registry_{ registry } {}

    using model_dispatcher::submit;

    /// Dense or sparse submit into the engine `find` hands out. The engine
    /// applies its own sampling decision to @p wire and publishes the trace
    /// itself, so nothing here refers back to the engine once the request
    /// is queued.
    void submit(const net_request &req, std::shared_ptr<obs::wire_trace_context> wire, completion done) override {
        const std::shared_ptr<inference_engine<T>> engine = registry_.find(req.model);
        if (engine == nullptr) {
            throw model_not_found_error{ req.model };
        }
        const request_options options{ req.cls, req.deadline };
        if (req.sparse) {
            std::vector<typename csr_matrix<T>::entry> entries;
            entries.reserve(req.sparse_entries.size());
            for (const auto &[index, value] : req.sparse_entries) {
                entries.push_back(typename csr_matrix<T>::entry{ index, static_cast<T>(value) });
            }
            engine->submit(entries, options, std::move(wire), adapt(std::move(done)));
            return;
        }
        engine->submit(std::vector<T>(req.dense.begin(), req.dense.end()), options, std::move(wire), adapt(std::move(done)));
    }

    [[nodiscard]] health_state health() const override { return registry_.health(); }

    [[nodiscard]] std::string stats_json() const override { return registry_.stats_json(); }

    void collect_metrics(obs::prometheus_builder &builder) const override { registry_.collect_metrics(builder); }

    [[nodiscard]] std::string trace_json() const override { return registry_.trace_json(); }

  private:
    /// Adapt the dispatcher's `double` callback to the engine's label type.
    [[nodiscard]] static completion_callback<T> adapt(completion done) {
        if constexpr (std::is_same_v<T, double>) {
            return done;
        } else {
            return [done = std::move(done)](const T label, std::exception_ptr error) { done(static_cast<double>(label), std::move(error)); };
        }
    }

    model_registry<T> &registry_;
};

/// Monotonic counter snapshot of one server (see `net_server::counters()`).
struct net_counters {
    std::uint64_t connections_accepted{ 0 };
    std::uint64_t connections_closed{ 0 };
    std::uint64_t connections_open{ 0 };
    std::uint64_t connections_rejected{ 0 };
    std::uint64_t bytes_in{ 0 };
    std::uint64_t bytes_out{ 0 };
    std::uint64_t frames_in{ 0 };
    std::uint64_t lines_in{ 0 };
    std::uint64_t requests_total{ 0 };
    std::uint64_t ops_total{ 0 };
    std::uint64_t responses_ok{ 0 };
    std::uint64_t responses_retry_after{ 0 };
    std::uint64_t responses_failed{ 0 };
    std::uint64_t responses_bad_request{ 0 };
    std::uint64_t responses_not_found{ 0 };
    std::uint64_t malformed_total{ 0 };
    std::uint64_t oversized_total{ 0 };
    std::uint64_t bad_magic_total{ 0 };
};

/**
 * @brief The epoll server. Starts its threads in the constructor, stops and
 *        joins them in `stop()`/the destructor. `stop()` returns only after
 *        every accepted request's completion callback has run, so destroying
 *        the server right after it, before the registry, is always safe.
 */
class net_server {
    friend class connection;

  public:
    net_server(net_server_config config, std::shared_ptr<model_dispatcher> dispatcher);

    net_server(const net_server &) = delete;
    net_server &operator=(const net_server &) = delete;

    ~net_server();

    /// Stop accepting, close every connection, join all threads, and wait
    /// until every accepted request's completion callback has run.
    /// Idempotent.
    void stop();

    /// The bound TCP port (resolves port 0 to the kernel-assigned one).
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    /// Readiness: serving is possible unless the model store is critical.
    /// A draining server reports not-ready so load balancers stop routing
    /// to it while inflight requests settle.
    [[nodiscard]] bool ready() const {
        return !draining_.load(std::memory_order_acquire) && dispatcher_->health() != health_state::critical;
    }

    /// Enter graceful drain: new connections are rejected at accept,
    /// readiness flips to not-ready, but established connections and
    /// inflight requests keep being served. Poll `inflight()` for zero (and
    /// then `stop()`) to settle a SIGTERM cleanly. Idempotent.
    void begin_drain() { draining_.store(true, std::memory_order_release); }

    [[nodiscard]] bool draining() const noexcept { return draining_.load(std::memory_order_acquire); }

    /// Predict requests submitted to an engine whose response has not been
    /// written back yet.
    [[nodiscard]] std::uint64_t inflight() const noexcept { return inflight_.load(std::memory_order_acquire); }

    [[nodiscard]] net_counters counters() const;

    /// Net-plane JSON stats: connection/traffic/request counters, stage
    /// latency quantiles, and per-connection counters. Single line.
    [[nodiscard]] std::string stats_json() const;

    /// Append the net-plane samples (prefix `plssvm_serve_net_`).
    void collect_metrics(obs::prometheus_builder &builder) const;

    /// One exposition of the model store's families, the net-plane samples
    /// and the process-wide build info, all filled into one builder.
    [[nodiscard]] std::string metrics_text() const;

  private:
    struct event_loop;

    void accept_loop();
    void event_loop_run(event_loop &loop);

    void adopt_pending(event_loop &loop);
    void handle_readable(event_loop &loop, const std::shared_ptr<connection> &conn);
    void handle_writable(const std::shared_ptr<connection> &conn);
    void handle_message(const std::shared_ptr<connection> &conn, const std::string &msg, bool is_json,
                        std::chrono::steady_clock::time_point accepted, std::chrono::steady_clock::time_point read_done);
    void handle_op(const std::shared_ptr<connection> &conn, const net_request &req);
    void respond(const std::shared_ptr<connection> &conn, frame_decoder::wire_mode mode, const net_response &resp,
                 std::chrono::steady_clock::time_point received, const std::shared_ptr<obs::wire_trace_context> &wire = nullptr);
    /// Completion callback body of one predict request: encode the outcome,
    /// write it on @p conn, then count the request as settled.
    void complete(const std::shared_ptr<connection> &conn, std::uint64_t id, frame_decoder::wire_mode mode,
                  std::chrono::steady_clock::time_point received, const std::shared_ptr<obs::wire_trace_context> &wire,
                  double label, std::exception_ptr error) noexcept;
    /// Count one accepted request as settled; wakes `stop()` at zero.
    void settled();
    void close_connection(event_loop &loop, const std::shared_ptr<connection> &conn);

    /// Shared accounting record of @p address, creating it on first contact;
    /// past `max_tracked_peers` distinct peers everything lands on the
    /// `other` overflow record.
    [[nodiscard]] std::shared_ptr<peer_stats> peer_for(const std::string &address);

    net_server_config config_;
    std::shared_ptr<model_dispatcher> dispatcher_;

    int listen_fd_{ -1 };
    int accept_wake_fd_{ -1 };
    std::uint16_t port_{ 0 };
    std::atomic<bool> stopping_{ false };
    std::atomic<bool> draining_{ false };
    /// Accepted predict requests whose callback has not run yet; counted
    /// down under `inflight_mutex_` so `stop()` can wait for zero.
    std::atomic<std::uint64_t> inflight_{ 0 };
    std::mutex inflight_mutex_;
    std::condition_variable inflight_cv_;
    std::atomic<std::uint64_t> next_connection_id_{ 0 };
    std::size_t next_loop_{ 0 };

    std::vector<std::unique_ptr<event_loop>> loops_;
    std::thread acceptor_;

    // counters (relaxed atomics; snapshot via `counters()`)
    std::atomic<std::uint64_t> accepted_{ 0 };
    std::atomic<std::uint64_t> closed_{ 0 };
    std::atomic<std::uint64_t> open_{ 0 };
    std::atomic<std::uint64_t> rejected_{ 0 };
    std::atomic<std::uint64_t> bytes_in_{ 0 };
    std::atomic<std::uint64_t> bytes_out_{ 0 };
    std::atomic<std::uint64_t> frames_in_{ 0 };
    std::atomic<std::uint64_t> lines_in_{ 0 };
    std::atomic<std::uint64_t> requests_{ 0 };
    std::atomic<std::uint64_t> ops_{ 0 };
    std::atomic<std::uint64_t> responses_ok_{ 0 };
    std::atomic<std::uint64_t> responses_retry_after_{ 0 };
    std::atomic<std::uint64_t> responses_failed_{ 0 };
    std::atomic<std::uint64_t> responses_bad_request_{ 0 };
    std::atomic<std::uint64_t> responses_not_found_{ 0 };
    std::atomic<std::uint64_t> malformed_{ 0 };
    std::atomic<std::uint64_t> oversized_{ 0 };
    std::atomic<std::uint64_t> bad_magic_{ 0 };

    // net-stage latency: request decoded -> response serialized (e2e), and
    // the synchronous decode+submit slice on the event thread (handle)
    mutable std::mutex hist_mutex_;
    obs::latency_histogram e2e_hist_;
    obs::latency_histogram handle_hist_;

    // per-peer accounting (keyed by remote IP; retained past disconnects)
    mutable std::mutex peers_mutex_;
    std::map<std::string, std::shared_ptr<peer_stats>> peers_;
};

}  // namespace plssvm::serve::net

#endif  // PLSSVM_SERVE_NET_SERVER_HPP_
