/**
 * @file
 * @brief Serving phase: the fitted model in a `model_registry` behind
 *        `net::net_server` on loopback, driven by an open-loop generator
 *        and a lone-request client.
 *
 * Generator: one thread per connection, at most `nproc` of each. Every
 * thread sends pre-encoded binary frames on an absolute schedule and reads
 * responses in between (ppoll until the next due time), so no extra reader
 * threads exist. Latency is timed from each request's due send time; a
 * failed, refused, lost or wrong response is a miss (infinite latency).
 *
 * Every step runs as `step_attempts` attempts. The untraced run alternates
 * heavy attempts, which check the answers under load, with lone-request
 * attempts (one request in flight), reported by their latency and blocking
 * waits per request; the traced run adds the CPU time per request at the
 * light and heavy rates, the open-loop latencies, the max-rate ladder, the
 * in-process dispatcher pass, kernel sweeps and counter deltas.
 */

#include "harness.hpp"

#include "plssvm/serve/compiled_model.hpp"
#include "plssvm/serve/model_registry.hpp"
#include "plssvm/serve/net/framing.hpp"
#include "plssvm/serve/net/protocol.hpp"
#include "plssvm/serve/net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <thread>

namespace perfbench {

namespace {

namespace serve = plssvm::serve;
namespace net = plssvm::serve::net;

constexpr const char *model_name = "bench";

/// Decision values closer than this to a tie (zero for a binary model, the
/// runner-up head for one-vs-all) may be resolved either way by the
/// tolerance-equal execution paths the engine chooses between, so both
/// labels are accepted there.
constexpr double tie_tolerance = 1e-9;

/// Offset of the u64 request id in an encoded request frame (right after
/// the frame header); the generator patches it per send.
constexpr std::size_t id_offset = net::frame_header_bytes;

/// The generator opens one connection, served by one thread, per core, and
/// at most this many.
constexpr std::size_t max_connections = 4;

/// Share of the run spent on an unrecorded warm-up step at the light rate.
constexpr double warmup_share = 0.05;

/// A step is invalid (the generator fell behind) when the median lateness
/// of the sends in its last fifth exceeds this.
constexpr double lag_limit_s = 1e-3;

/// How long a step waits for the responses of its last sends.
constexpr double drain_s = 2.0;

/// Attempts of every fixed-rate step (see `median_step`); they share the
/// step's time.
constexpr std::size_t step_attempts = 5;

/// The queries of the wire passes with their reference labels.
struct query_pool {
    std::vector<net::net_request> requests;
    std::vector<std::string> frames;             ///< encoded request frame per query
    std::vector<std::vector<double>> accepted;   ///< labels accepted per query
    std::size_t dim{ 0 };

    [[nodiscard]] bool ok(const std::size_t q, const double label) const {
        return std::find(accepted[q].begin(), accepted[q].end(), label) != accepted[q].end();
    }
};

[[nodiscard]] query_pool make_pool(const trained_state &state, run_report &report) {
    const plssvm::aos_matrix<double> &points = state.test->points();
    const std::size_t n = points.num_rows();
    query_pool pool;
    pool.dim = points.num_cols();
    pool.accepted.resize(n);

    if (state.binary) {
        const serve::compiled_model<double> compiled{ *state.binary };
        const std::vector<double> values = compiled.decision_values(points);
        for (std::size_t q = 0; q < n; ++q) {
            pool.accepted[q].push_back(compiled.label_from_decision(values[q]));
            if (std::abs(values[q]) <= tie_tolerance) {
                pool.accepted[q].push_back(compiled.label_from_decision(-values[q]));
            }
        }
    } else {
        // reference: argmax over the per-head compiled decision values,
        // oriented toward each head's class like one_vs_all::predict
        const auto &ensemble = *state.ensemble;
        std::vector<std::vector<double>> scores;
        for (const auto &head : ensemble.binary_models()) {
            const serve::compiled_model<double> compiled{ head };
            std::vector<double> values = compiled.decision_values(points);
            const double orientation = head.positive_label() > 0.0 ? 1.0 : -1.0;
            for (double &v : values) {
                v *= orientation;
            }
            scores.push_back(std::move(values));
        }
        const plssvm::ext::one_vs_all<double> ova{ plssvm::backend_type::openmp, ensemble.binary_models().front().params() };
        const std::vector<double> predicted = ova.predict(ensemble, *state.test);
        std::size_t disagreements = 0;
        for (std::size_t q = 0; q < n; ++q) {
            std::size_t best = 0;
            for (std::size_t c = 1; c < scores.size(); ++c) {
                best = scores[c][q] > scores[best][q] ? c : best;
            }
            for (std::size_t c = 0; c < scores.size(); ++c) {
                if (c == best || scores[best][q] - scores[c][q] <= tie_tolerance) {
                    pool.accepted[q].push_back(ensemble.class_labels()[c]);
                }
            }
            disagreements += pool.ok(q, predicted[q]) ? 0 : 1;
        }
        // the compiled reference must agree with the library's own predict
        report.record(disagreements == 0, disagreements != 0);
        if (disagreements != 0) {
            std::fprintf(stderr, "compiled one-vs-all reference disagrees with one_vs_all::predict on %zu queries\n", disagreements);
        }
    }

    for (std::size_t q = 0; q < n; ++q) {
        net::net_request req;
        req.model = model_name;
        req.dense.assign(points.row_data(q), points.row_data(q) + pool.dim);
        pool.frames.push_back(net::encode_frame(net::frame_type::request, net::encode_request_binary(req)));
        pool.requests.push_back(std::move(req));
    }
    return pool;
}

void patch_id(std::string &frame, const std::uint64_t id) {
    for (std::size_t b = 0; b < 8; ++b) {
        frame[id_offset + b] = static_cast<char>(static_cast<std::uint8_t>(id >> (8 * b)));
    }
}

[[nodiscard]] int connect_loopback(const std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        throw std::runtime_error{ "socket() failed" };
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        throw std::runtime_error{ "connect() to the loopback server failed" };
    }
    const int one = 1;
    (void) ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // bounds the blocking reads of the set-up probe and the lone-request
    // step; the fixed-rate steps poll
    const timeval receive_timeout{ 10, 0 };
    (void) ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &receive_timeout, sizeof(receive_timeout));
    return fd;
}

[[nodiscard]] bool write_all(const int fd, const std::string &data) {
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

[[nodiscard]] timespec to_timespec(const clock_type::duration d) {
    const auto ns = std::max<std::int64_t>(0, std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
    return timespec{ static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000) };
}

/// One client connection with its incremental response decoder.
struct client_connection {
    int fd{ -1 };
    net::frame_decoder decoder;
};

/// The registry + server + connections of the serving phase.
class serving_stack {
  public:
    serving_stack(const trained_state &state, const std::size_t connections) :
        state_{ state },
        registry_{ 4 } {
        load();
        dispatcher_ = std::make_shared<net::registry_dispatcher<double>>(registry_);
        server_ = std::make_unique<net::net_server>(net::net_server_config{}, dispatcher_);
        conns_.resize(connections);
        for (client_connection &c : conns_) {
            c.fd = connect_loopback(server_->port());
        }
    }

    serving_stack(const serving_stack &) = delete;
    serving_stack &operator=(const serving_stack &) = delete;

    ~serving_stack() {
        for (const client_connection &c : conns_) {
            ::close(c.fd);
        }
        server_->stop();
    }

    /// (Re)load the model under a fresh engine, so per-step engine stats
    /// start from zero.
    void load() {
        (void) registry_.evict(model_name);
        if (state_.binary) {
            (void) registry_.load(model_name, *state_.binary);
        } else {
            (void) registry_.load(model_name, *state_.ensemble);
        }
    }

    /// Zero-downtime reload of the same model; returns once it is live.
    void reload() {
        if (state_.binary) {
            registry_.reload(model_name, *state_.binary).get();
        } else {
            registry_.reload(model_name, *state_.ensemble).get();
        }
    }

    [[nodiscard]] serve::serve_stats engine_stats() {
        if (state_.binary) {
            return registry_.find(model_name)->stats();
        }
        return registry_.find_multiclass(model_name)->stats();
    }

    [[nodiscard]] net::net_server &server() { return *server_; }
    [[nodiscard]] net::registry_dispatcher<double> &dispatcher() { return *dispatcher_; }
    [[nodiscard]] std::vector<client_connection> &connections() { return conns_; }

  private:
    const trained_state &state_;
    serve::model_registry<double> registry_;
    std::shared_ptr<net::registry_dispatcher<double>> dispatcher_;
    std::unique_ptr<net::net_server> server_;
    std::vector<client_connection> conns_;
};

/// Fixed-rate step settings.
struct step_plan {
    double rps{ 0.0 };
    double seconds{ 0.0 };
    double reload_every_s{ 0.0 };  ///< 0 = no reloads during the step
};

/// Per-connection outcome of one step.
struct conn_outcome {
    std::vector<double> latency;  ///< seconds from due time, `miss` for misses
    std::vector<double> due_s;    ///< due time relative to the step start
    std::vector<double> lag;      ///< seconds the send left after its due time
    std::size_t wrong{ 0 };
};

[[nodiscard]] step_result summarize(const std::vector<conn_outcome> &outs, const step_plan &plan) {
    struct sample {
        double due;
        double latency;
        double lag;
    };
    std::vector<sample> samples;
    step_result r;
    r.offered_rps = plan.rps;
    for (const conn_outcome &o : outs) {
        for (std::size_t i = 0; i < o.latency.size(); ++i) {
            samples.push_back(sample{ o.due_s[i], o.latency[i], o.lag[i] });
        }
        r.wrong += o.wrong;
    }
    std::sort(samples.begin(), samples.end(), [](const sample &a, const sample &b) { return a.due < b.due; });

    // the last fifth of the schedule shows a growing backlog, and a generator
    // that fell behind (its lateness accumulates; one late wake-up does not
    // move the median)
    std::vector<double> latency;
    std::vector<double> lag;
    std::vector<double> tail;
    std::vector<double> tail_lag;
    for (const sample &s : samples) {
        latency.push_back(s.latency);
        lag.push_back(s.lag);
        if (s.due >= 0.8 * plan.seconds) {
            tail.push_back(s.latency);
            tail_lag.push_back(s.lag);
        }
        r.ok += s.latency != miss ? 1 : 0;
    }
    r.sent = samples.size();
    r.misses = r.sent - r.ok;
    r.achieved_rps = static_cast<double>(r.ok) / plan.seconds;
    r.p50_s = percentile(latency, 0.5);
    r.p99_s = percentile(latency, 0.99);
    r.tail_p50_s = tail.empty() ? r.p50_s : median(tail);
    r.lag_p99_s = lag.empty() ? 0.0 : percentile(lag, 0.99);
    r.generator_valid = tail_lag.empty() || median(tail_lag) <= lag_limit_s;
    return r;
}

/// A step with what the traced run reads beside it.
struct observed_step {
    step_result step;
    serve::serve_stats stats;      ///< engine stats after the step
    std::uint64_t requests{ 0 };   ///< net_server requests over the step
    std::uint64_t bytes{ 0 };      ///< net_server bytes in + out over the step
    double submit_p50_s{ 0.0 };    ///< in-process pass: registry_dispatcher::submit span
    double future_p50_s{ 0.0 };    ///< in-process pass: submit return to future ready
};

/// Every request of a step is one operation: a miss fails it, and a wrong
/// label also marks the run's output incorrect.
void record_step(const step_result &r, run_report &report) {
    for (std::size_t i = 0; i < r.sent; ++i) {
        report.record(i >= r.misses, i < r.wrong);
    }
}

/// Run @p body(c, due, n) on one thread per connection over a shared
/// absolute schedule; the calling thread paces the reloads meanwhile.
template <typename Body>
std::vector<conn_outcome> run_schedule(serving_stack &stack, const step_plan &plan, const std::size_t connections,
                                       std::vector<double> &reload_s, run_report &report, const Body &body) {
    const double interval = static_cast<double>(connections) / plan.rps;
    const auto per_conn = static_cast<std::size_t>(plan.seconds / interval);
    const auto start = clock_type::now() + std::chrono::milliseconds{ 20 };
    std::vector<conn_outcome> outs(connections);
    std::vector<std::thread> threads;
    std::atomic<std::size_t> running{ connections };
    for (std::size_t c = 0; c < connections; ++c) {
        threads.emplace_back([&, c]() {
            std::vector<clock_type::time_point> due(per_conn);
            conn_outcome &out = outs[c];
            out.due_s.resize(per_conn);
            for (std::size_t i = 0; i < per_conn; ++i) {
                out.due_s[i] = interval * (static_cast<double>(i) + static_cast<double>(c) / static_cast<double>(connections));
                due[i] = start + std::chrono::duration_cast<clock_type::duration>(std::chrono::duration<double>{ out.due_s[i] });
            }
            out.latency.assign(per_conn, miss);
            out.lag.assign(per_conn, 0.0);
            body(c, due, out);
            running.fetch_sub(1);
        });
    }
    if (plan.reload_every_s > 0.0) {
        auto next = start + std::chrono::duration_cast<clock_type::duration>(std::chrono::duration<double>{ plan.reload_every_s });
        while (running.load() > 0) {
            std::this_thread::sleep_until(std::min(next, clock_type::now() + std::chrono::milliseconds{ 5 }));
            if (clock_type::now() < next) {
                continue;
            }
            const auto t0 = clock_type::now();
            try {
                stack.reload();
                reload_s.push_back(seconds_between(t0, clock_type::now()));
                report.record(true);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "reload failed: %s\n", e.what());
                report.record(false);
            }
            next += std::chrono::duration_cast<clock_type::duration>(std::chrono::duration<double>{ plan.reload_every_s });
        }
    }
    for (std::thread &t : threads) {
        t.join();
    }
    return outs;
}

/// Wire step: frames out on schedule, responses decoded in between.
step_result wire_step(serving_stack &stack, const query_pool &pool, const step_plan &plan, const std::uint64_t step_id,
                      std::vector<double> &reload_s, run_report &report, span_recorder *rec = nullptr) {
    const std::size_t connections = stack.connections().size();
    const double cpu_start = process_cpu_seconds();
    const auto outs = run_schedule(stack, plan, connections, reload_s, report, [&](const std::size_t c, const std::vector<clock_type::time_point> &due, conn_outcome &out) {
        client_connection &conn = stack.connections()[c];
        const std::size_t n = due.size();
        const auto drain_deadline = (n == 0 ? clock_type::now() : due.back()) + std::chrono::duration_cast<clock_type::duration>(std::chrono::duration<double>{ drain_s });
        const auto query = [&](const std::size_t i) { return (i * connections + c) % pool.frames.size(); };
        std::vector<bool> answered(n, false);
        std::size_t next = 0;
        std::size_t num_answered = 0;
        std::string frame;
        std::string payload;
        char buf[1 << 16];
        while (num_answered < n) {
            const auto now = clock_type::now();
            if (next < n && now >= due[next]) {
                frame = pool.frames[query(next)];
                patch_id(frame, (step_id << 40) | (static_cast<std::uint64_t>(c) << 32) | next);
                out.lag[next] = seconds_between(due[next], now);
                if (!write_all(conn.fd, frame)) {
                    break;
                }
                ++next;
                continue;
            }
            if (next >= n && now >= drain_deadline) {
                break;
            }
            pollfd pfd{ conn.fd, POLLIN, 0 };
            const timespec timeout = to_timespec((next < n ? due[next] : drain_deadline) - now);
            if (::ppoll(&pfd, 1, &timeout, nullptr) <= 0) {
                continue;
            }
            const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
            if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
                break;
            }
            if (got < 0) {
                continue;
            }
            const auto received = clock_type::now();
            conn.decoder.append(buf, static_cast<std::size_t>(got));
            while (conn.decoder.next(payload) == net::frame_decoder::status::frame) {
                net::net_response resp;
                if (net::decode_response_binary(payload, resp).has_value() || (resp.id >> 40) != step_id) {
                    continue;  // undecodable, or a straggler of an earlier step
                }
                const std::size_t i = resp.id & 0xFFFFFFFFu;
                if (((resp.id >> 32) & 0xFFu) != c || i >= n || answered[i]) {
                    continue;
                }
                answered[i] = true;
                ++num_answered;
                if (resp.status != net::response_status::ok) {
                    continue;  // failed or refused: stays a miss
                }
                if (!pool.ok(query(i), resp.value)) {
                    ++out.wrong;
                    continue;
                }
                out.latency[i] = seconds_between(due[i], received);
                if (rec != nullptr) {
                    rec->add("wire.request", rec->at(due[i]), rec->at(received), -1, resp.id);
                }
            }
        }
    });
    step_result r = summarize(outs, plan);
    r.cpu_s_per_req = r.sent > 0 ? (process_cpu_seconds() - cpu_start) / static_cast<double>(r.sent) : 0.0;
    record_step(r, report);
    return r;
}

/// Lone-request step: the calling thread sends a request on the first
/// connection and the next one as soon as the answer is in, for @p seconds,
/// so every request passes each stage of the serving stack alone. Its
/// latency (timed from the send) and its blocking waits (voluntary context
/// switches of the process, each ended by a wake-up) then follow from the
/// stack's batching delay and thread hand-offs, not from how requests
/// overlap, which under open-loop load shifts with how busy the host is.
/// Returns the step with the switches per request sent.
std::pair<step_result, double> lone_step(serving_stack &stack, const query_pool &pool, const double seconds, const std::uint64_t step_id, run_report &report) {
    client_connection &conn = stack.connections().front();
    std::vector<conn_outcome> outs(1);
    conn_outcome &out = outs.front();
    std::string frame;
    std::string payload;
    char buf[1 << 16];
    const long switches_before = process_voluntary_switches();
    const auto start = clock_type::now();
    const auto stop = start + std::chrono::duration_cast<clock_type::duration>(std::chrono::duration<double>{ seconds });
    for (std::size_t i = 0; clock_type::now() < stop; ++i) {
        const std::size_t q = i % pool.frames.size();
        const std::uint64_t id = (step_id << 40) | i;
        frame = pool.frames[q];
        patch_id(frame, id);
        const auto sent = clock_type::now();
        out.due_s.push_back(seconds_between(start, sent));
        out.lag.push_back(0.0);
        out.latency.push_back(miss);
        if (!write_all(conn.fd, frame)) {
            break;
        }
        // blocking reads, bounded by the connection's receive timeout
        bool answered = false;
        while (!answered) {
            const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), 0);
            if (got < 0 && errno == EINTR) {
                continue;
            }
            if (got <= 0) {
                break;
            }
            conn.decoder.append(buf, static_cast<std::size_t>(got));
            while (conn.decoder.next(payload) == net::frame_decoder::status::frame) {
                net::net_response resp;
                if (net::decode_response_binary(payload, resp).has_value() || resp.id != id) {
                    continue;  // undecodable, or a straggler of an earlier step
                }
                answered = true;
                if (resp.status != net::response_status::ok) {
                    continue;  // failed or refused: stays a miss
                }
                if (!pool.ok(q, resp.value)) {
                    ++out.wrong;
                    continue;
                }
                out.latency.back() = seconds_between(sent, clock_type::now());
            }
        }
        if (!answered) {
            break;
        }
    }
    const long switches = process_voluntary_switches() - switches_before;
    const step_result r = summarize(outs, step_plan{ 0.0, seconds, 0.0 });
    record_step(r, report);
    return { r, r.sent > 0 ? static_cast<double>(switches) / static_cast<double>(r.sent) : 0.0 };
}

/// In-process step: the same schedule through `registry_dispatcher::submit`,
/// one request span per call with the submit and future spans as children.
step_result inproc_step(serving_stack &stack, const query_pool &pool, const step_plan &plan, span_recorder &rec,
                        std::vector<double> &reload_s, run_report &report) {
    const std::size_t connections = stack.connections().size();
    const auto outs = run_schedule(stack, plan, connections, reload_s, report, [&](const std::size_t c, const std::vector<clock_type::time_point> &due, conn_outcome &out) {
        struct pending {
            std::future<double> future;
            std::size_t index{ 0 };
            clock_type::time_point submit_begin;
            clock_type::time_point submit_end;
        };
        const std::size_t n = due.size();
        const auto drain_deadline = (n == 0 ? clock_type::now() : due.back()) + std::chrono::duration_cast<clock_type::duration>(std::chrono::duration<double>{ drain_s });
        const auto query = [&](const std::size_t i) { return (i * connections + c) % pool.requests.size(); };
        std::deque<pending> inflight;
        std::size_t next = 0;
        std::size_t settled = 0;
        while (settled < n) {
            const auto now = clock_type::now();
            if (next < n && now >= due[next]) {
                out.lag[next] = seconds_between(due[next], now);
                pending p;
                p.index = next;
                p.submit_begin = now;
                try {
                    p.future = stack.dispatcher().submit(pool.requests[query(next)]);
                } catch (const std::exception &) {
                    ++settled;  // refused at submit: a miss
                    ++next;
                    continue;
                }
                p.submit_end = clock_type::now();
                inflight.push_back(std::move(p));
                ++next;
                continue;
            }
            const auto wake = next < n ? due[next] : drain_deadline;
            if (next >= n && now >= drain_deadline) {
                break;
            }
            if (inflight.empty()) {
                std::this_thread::sleep_until(wake);
                continue;
            }
            if (inflight.front().future.wait_until(wake) != std::future_status::ready) {
                continue;
            }
            const auto done = clock_type::now();
            pending p = std::move(inflight.front());
            inflight.pop_front();
            ++settled;
            double label = 0.0;
            try {
                label = p.future.get();
            } catch (const std::exception &) {
                continue;  // failed: stays a miss
            }
            if (!pool.ok(query(p.index), label)) {
                ++out.wrong;
                continue;
            }
            out.latency[p.index] = seconds_between(due[p.index], done);
            const std::uint64_t id = (static_cast<std::uint64_t>(c) << 32) | p.index;
            const long parent = rec.add("inproc.request", rec.at(p.submit_begin), rec.at(done), -1, id);
            rec.add("registry.submit", rec.at(p.submit_begin), rec.at(p.submit_end), parent, id);
            rec.add("engine.future", rec.at(p.submit_end), rec.at(done), parent, id);
        }
    });
    const step_result r = summarize(outs, plan);
    record_step(r, report);
    return r;
}

/// Registry load + server start + first OK response, on a fresh stack.
[[nodiscard]] double setup_once(const trained_state &state, const query_pool &pool, run_report &report) {
    const auto t0 = clock_type::now();
    serving_stack stack{ state, 1 };
    client_connection &conn = stack.connections().front();
    std::string frame = pool.frames.front();
    patch_id(frame, 1);
    bool ok = write_all(conn.fd, frame);
    std::string payload;
    char buf[4096];
    while (ok) {
        const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (got <= 0) {
            ok = false;
            break;
        }
        conn.decoder.append(buf, static_cast<std::size_t>(got));
        if (conn.decoder.next(payload) == net::frame_decoder::status::frame) {
            net::net_response resp;
            ok = !net::decode_response_binary(payload, resp).has_value() && resp.status == net::response_status::ok;
            break;
        }
    }
    const double seconds = seconds_between(t0, clock_type::now());
    report.record(ok);
    return seconds;
}

/// Points per second of a direct single-thread `decision_values_into`
/// sweep over every head at batch size @p batch.
[[nodiscard]] double kernel_sweep_pps(const trained_state &state, const query_pool &pool, const std::size_t batch) {
    std::vector<serve::compiled_model<double>> heads;
    if (state.binary) {
        heads.emplace_back(*state.binary);
    } else {
        for (const auto &m : state.ensemble->binary_models()) {
            heads.emplace_back(m);
        }
    }
    plssvm::aos_matrix<double> points{ batch, pool.dim };
    for (std::size_t p = 0; p < batch; ++p) {
        const auto &src = pool.requests[p % pool.requests.size()].dense;
        std::copy(src.begin(), src.end(), points.row_data(p));
    }
    std::vector<double> out(batch);
    std::size_t swept = 0;
    const auto t0 = clock_type::now();
    double elapsed = 0.0;
    while (elapsed < 0.3) {
        for (const auto &head : heads) {
            head.decision_values_into(points, 0, batch, out.data());
        }
        swept += batch;
        elapsed = seconds_between(t0, clock_type::now());
    }
    return static_cast<double>(swept) / elapsed;
}

/// Median wall time of one full codec round trip of a query (client
/// encode, server frame decode + request decode, server response encode,
/// client frame decode + response decode), over the whole pool.
[[nodiscard]] double codec_round_trip_s(const query_pool &pool, span_recorder &rec) {
    for (std::size_t q = 0; q < pool.requests.size(); ++q) {
        const double start = rec.now();
        net::net_request req = pool.requests[q];
        req.id = q;
        const std::string frame = net::encode_frame(net::frame_type::request, net::encode_request_binary(req));
        net::frame_decoder server_side;
        server_side.append(frame.data(), frame.size());
        std::string payload;
        net::net_request decoded;
        if (server_side.next(payload) != net::frame_decoder::status::frame || net::decode_request_binary(payload, decoded).has_value()) {
            throw std::runtime_error{ "codec round trip failed to decode a request" };
        }
        net::net_response resp;
        resp.id = decoded.id;
        resp.value = pool.accepted[q].front();
        const std::string reply = net::encode_frame(net::frame_type::response, net::encode_response_binary(resp));
        net::frame_decoder client_side;
        client_side.append(reply.data(), reply.size());
        net::net_response back;
        if (client_side.next(payload) != net::frame_decoder::status::frame || net::decode_response_binary(payload, back).has_value() || back.id != q) {
            throw std::runtime_error{ "codec round trip failed to decode a response" };
        }
        rec.add("net.codec", start, rec.now(), -1, q);
    }
    return median(rec.durations("net.codec"));
}

/// Computed work of one request: a compiled linear head is collapsed into
/// its normal vector, a d-feature dot product (2 * d flops) per head.
[[nodiscard]] double computed_flops_per_request(const trained_state &state, const std::size_t dim) {
    const double heads = state.binary ? 1.0 : static_cast<double>(state.ensemble->num_classes());
    return heads * 2.0 * static_cast<double>(dim);
}

void print_step(const char *name, const step_result &r) {
    std::fprintf(stderr, "  %-8s offered %8.0f req/s  ok %7zu/%-7zu  p50 %8.3f ms  p99 %8.3f ms  tail p50 %8.3f ms  lag p99 %6.3f ms  cpu %7.2f us/req%s\n",
                 name, r.offered_rps, r.ok, r.sent, 1e3 * r.p50_s, 1e3 * r.p99_s, 1e3 * r.tail_p50_s, 1e3 * r.lag_p99_s, 1e6 * r.cpu_s_per_req,
                 r.generator_valid ? "" : "  [generator fell behind: step invalid]");
    if (r.sent < min_p99_samples) {
        std::fprintf(stderr, "  %-8s only %zu samples: fewer than 10 beyond p99\n", name, r.sent);
    }
}

/// Reloads a step schedules under load.
[[nodiscard]] double scheduled_reload_count(const step_plan &plan) {
    return plan.reload_every_s > 0.0 ? std::floor(plan.seconds / plan.reload_every_s) : 0.0;
}

/// A finite stand-in for an infinite percentile (more than 1 % misses): the
/// drain timeout, the longest latency a step can observe.
[[nodiscard]] double finite_ms(const double seconds, const step_plan &plan) {
    return 1e3 * (seconds == miss ? drain_s + plan.seconds : seconds);
}

}  // namespace

void run_serving(const options &opts, const trained_state &state, span_recorder *rec, run_report &report) {
    const std::size_t connections = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, max_connections);
    const double run_s = opts.num("seconds");
    const query_pool pool = make_pool(state, report);
    const auto plan = [&](const double rps, const double share) {
        return step_plan{ rps, share * run_s, 1e-3 * opts.num("reload_every_ms") };
    };
    const double limit_s = 1e-3 * opts.num("limit_ms");
    const bool wire_focus = opts.str("focus") == "wire";
    std::vector<double> reload_s;

    if (rec == nullptr && wire_focus) {
        std::vector<double> setup_s;
        for (std::size_t r = 0; r < opts.count("setup_reps"); ++r) {
            setup_s.push_back(setup_once(state, pool, report));
        }
        report.set("setup_s", median(setup_s), "s");
    }

    serving_stack stack{ state, connections };
    std::uint64_t step_id = 0;
    const step_plan warmup_plan = plan(opts.num("light_rps"), warmup_share);
    (void) wire_step(stack, pool, warmup_plan, ++step_id, reload_s, report);
    if (rec == nullptr) {
        // peak memory through training, set-up and a served step; the
        // measured steps below queue more or fewer requests as the host
        // slows them, and the high-water mark would follow
        report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    }

    // one wire step with the counters read beside it; the traced run gives
    // every step a freshly loaded engine, so the engine stats read after it
    // cover exactly that step
    const auto wire = [&](const char *name, const step_plan &p, span_recorder *spans = nullptr) {
        if (rec != nullptr) {
            stack.load();
        }
        observed_step o;
        const net::net_counters before = stack.server().counters();
        o.step = wire_step(stack, pool, p, ++step_id, reload_s, report, spans);
        const net::net_counters after = stack.server().counters();
        o.stats = stack.engine_stats();
        o.requests = after.requests_total - before.requests_total;
        o.bytes = (after.bytes_in - before.bytes_in) + (after.bytes_out - before.bytes_out);
        print_step(name, o.step);
        return o;
    };
    const step_plan light_plan = plan(opts.num("light_rps"), opts.num("light_share"));
    const step_plan heavy_plan = plan(opts.num("heavy_rps"), opts.num("heavy_share"));

    const auto attempt_of = [](step_plan p) {
        p.seconds /= static_cast<double>(step_attempts);
        return p;
    };

    if (rec == nullptr) {
        // heavy and lone-request attempts alternate, so a disturbance of the
        // host lasting a few seconds meets some attempts of both rather than
        // all attempts of one; the heavy attempts check every answer under
        // load (and under reloads, where the workload has them)
        const step_plan lone_plan = plan(0.0, opts.num("lone_share"));
        std::vector<step_result> lone_attempts;
        std::vector<double> wakeups;
        for (std::size_t a = 0; a < step_attempts; ++a) {
            (void) wire("heavy", attempt_of(heavy_plan));
            const auto [lone, per_req] = lone_step(stack, pool, attempt_of(lone_plan).seconds, ++step_id, report);
            std::fprintf(stderr, "  lone     ok %7zu/%-7zu  p50 %8.3f ms  p99 %8.3f ms  %.3f wake-ups per request\n", lone.ok, lone.sent, 1e3 * lone.p50_s, 1e3 * lone.p99_s, per_req);
            lone_attempts.push_back(lone);
            wakeups.push_back(per_req);
        }
        report.set("p50_ms.lone", finite_ms(median_step(lone_attempts).p50_s, lone_plan), "ms");
        report.set("wakeups_per_req.lone", median(wakeups), "count");
        return;
    }

    // ---- traced run: in rounds, the untraced and the traced wire step at the
    // ---- light rate, the in-process pass at the light rate and the heavy
    // ---- step, each attempt on a fresh engine with counters read as deltas
    // ---- over it; each kind is read from its attempt with the median p50
    const auto inproc = [&](const step_plan &p) {
        stack.load();
        observed_step o;
        const std::size_t mark = rec->size();
        o.step = inproc_step(stack, pool, p, *rec, reload_s, report);
        o.submit_p50_s = median(rec->durations("registry.submit", mark));
        o.future_p50_s = median(rec->durations("engine.future", mark));
        print_step("inproc", o.step);
        return o;
    };
    const auto representative = [](std::vector<observed_step> attempts) {
        std::sort(attempts.begin(), attempts.end(), [](const observed_step &a, const observed_step &b) { return a.step.p50_s < b.step.p50_s; });
        return attempts[attempts.size() / 2];
    };
    std::vector<observed_step> plain_attempts;
    std::vector<observed_step> light_attempts;
    std::vector<observed_step> inproc_attempts;
    std::vector<observed_step> heavy_attempts;
    for (std::size_t a = 0; a < step_attempts; ++a) {
        plain_attempts.push_back(wire("light", attempt_of(light_plan)));
        light_attempts.push_back(wire("light+tr", attempt_of(light_plan), rec));
        inproc_attempts.push_back(inproc(attempt_of(light_plan)));
        heavy_attempts.push_back(wire("heavy", attempt_of(heavy_plan)));
    }
    const observed_step light_plain = representative(plain_attempts);
    const observed_step light_obs = representative(light_attempts);
    const observed_step inproc_obs = representative(inproc_attempts);
    const observed_step heavy_obs = representative(heavy_attempts);
    const step_result &light = light_obs.step;
    const serve::serve_stats &light_stats = light_obs.stats;
    const serve::serve_stats &heavy_stats = heavy_obs.stats;
    const auto steps_of = [](const std::vector<observed_step> &attempts) {
        std::vector<step_result> steps;
        for (const observed_step &o : attempts) {
            steps.push_back(o.step);
        }
        return median_step(steps);
    };

    // reloads scheduled under load over the warm-up and every round
    const double scheduled_reloads = scheduled_reload_count(warmup_plan)
                                     + static_cast<double>(step_attempts) * (3.0 * scheduled_reload_count(attempt_of(light_plan)) + scheduled_reload_count(attempt_of(heavy_plan)));
    const bool reloads_under_load = scheduled_reloads > 0.0;
    const bool reloads_kept_cadence = static_cast<double>(reload_s.size()) >= 0.9 * scheduled_reloads;

    // the max-rate ladder; its walk starts at the highest rung at or below
    // the heavy rate when the heavy step passes the rung rule (latency only
    // grows with load, so the rungs below it pass too), else at the bottom
    const step_result heavy_median = steps_of(heavy_attempts);
    const std::vector<double> ladder = opts.list("ladder");
    std::size_t first = 0;
    if (rung_passes(heavy_median, limit_s)) {
        while (first + 1 < ladder.size() && ladder[first + 1] <= heavy_plan.rps) {
            ++first;
        }
    }
    std::vector<step_result> rungs;
    for (std::size_t i = first; i < ladder.size(); ++i) {
        std::vector<step_result> attempts;
        for (std::size_t a = 0; a < step_attempts; ++a) {
            attempts.push_back(wire("rung", attempt_of(plan(ladder[i], opts.num("rung_share")))).step);
        }
        rungs.push_back(median_step(attempts));
        if (!rung_passes(rungs.back(), limit_s)) {
            break;
        }
    }
    const int best = highest_passing_rung(rungs, limit_s);
    double max_rps = 0.0;
    if (best >= 0) {
        max_rps = rungs[static_cast<std::size_t>(best)].achieved_rps;
    } else {
        // below the lowest rung run: its achieved rate, scaled down by how
        // far its p99 overshoots the limit
        const step_result &low = rungs.front();
        std::fprintf(stderr, "the lowest ladder rung run misses the %.1f ms limit\n", 1e3 * limit_s);
        max_rps = low.achieved_rps * std::min(1.0, limit_s / std::max(low.p99_s, low.tail_p50_s));
    }
    if (!reloads_under_load) {
        // no reloads under load on this workload: time a few idle ones
        for (int r = 0; r < 5; ++r) {
            const auto t0 = clock_type::now();
            stack.reload();
            reload_s.push_back(seconds_between(t0, clock_type::now()));
            report.record(true);
        }
    }

    const auto &light_cls = light_stats.classes[serve::class_index(serve::request_class::interactive)];
    const auto &heavy_cls = heavy_stats.classes[serve::class_index(serve::request_class::interactive)];
    const auto stage_p50 = [&](const serve::class_serve_stats &cls, const serve::obs::trace_stage stage) {
        return cls.stages[serve::obs::stage_index(stage)].p50_seconds;
    };
    const double queue_wait = stage_p50(light_cls, serve::obs::trace_stage::queue_wait);
    const double service = stage_p50(light_cls, serve::obs::trace_stage::service);
    const double transport = light.p50_s - inproc_obs.step.p50_s;
    const std::size_t heavy_batch = static_cast<std::size_t>(std::max(1.0, std::round(heavy_cls.mean_batch_size)));
    const double pps = kernel_sweep_pps(state, pool, heavy_batch);
    const double shed = static_cast<double>(light_cls.shed_queue_full + light_cls.shed_rate_limited + heavy_cls.shed_queue_full + heavy_cls.shed_rate_limited);

    report.set("net.codec_us", 1e6 * codec_round_trip_s(pool, *rec), "us");
    report.set("net.transport_ms", 1e3 * transport, "ms");
    report.set("net.bytes_per_req", light_obs.requests > 0 ? static_cast<double>(light_obs.bytes) / static_cast<double>(light_obs.requests) : 0.0, "B");
    report.set("registry.submit_us", 1e6 * inproc_obs.submit_p50_s, "us");
    report.set("registry.reload_ms", 1e3 * median(reload_s), "ms");
    report.set("registry.reload_max_ms", 1e3 * *std::max_element(reload_s.begin(), reload_s.end()), "ms");
    report.set("engine.future_ms", 1e3 * inproc_obs.future_p50_s, "ms");
    report.set("engine.queue_wait_ms", 1e3 * queue_wait, "ms");
    report.set("engine.service_ms", 1e3 * service, "ms");
    report.set("engine.mean_batch", light_cls.mean_batch_size, "requests");
    report.set("engine.mean_batch_heavy", heavy_cls.mean_batch_size, "requests");
    report.set("admission.shed", shed, "count");
    report.set("kernel.pps", pps, "points/s");
    report.set("kernel.gflops", pps * computed_flops_per_request(state, pool.dim) / 1e9, "GFLOP/s");
    report.set("dispatch.blocked_share", light_stats.total_batches > 0 ? static_cast<double>(light_stats.host_blocked_batches) / static_cast<double>(light_stats.total_batches) : 0.0, "fraction");
    report.set("executor.max_queue_depth", static_cast<double>(heavy_stats.max_queue_depth), "tasks");
    report.set("executor.steals", static_cast<double>(heavy_stats.steals), "tasks");
    report.set("cpu_us_per_req.light", 1e6 * steps_of(plain_attempts).cpu_s_per_req, "us");
    report.set("cpu_us_per_req.heavy", 1e6 * heavy_median.cpu_s_per_req, "us");
    report.set("p50_ms.light", finite_ms(steps_of(plain_attempts).p50_s, light_plan), "ms");
    report.set("p99_ms.light", finite_ms(steps_of(plain_attempts).p99_s, light_plan), "ms");
    report.set("p50_ms.heavy", finite_ms(heavy_median.p50_s, heavy_plan), "ms");
    report.set("p99_ms.heavy", finite_ms(heavy_median.p99_s, heavy_plan), "ms");
    report.set("max_rps", max_rps, "req/s");
    report.set("loadgen.lag_p99_ms",
               1e3 * std::max({ steps_of(plain_attempts).lag_p99_s, steps_of(light_attempts).lag_p99_s, steps_of(inproc_attempts).lag_p99_s, steps_of(heavy_attempts).lag_p99_s }), "ms");
    if (wire_focus) {
        report.set("trace.overhead_frac", light.p50_s / light_plain.step.p50_s - 1.0, "fraction");
    }
    // the trace backs the workload's reason: serving a collapsed binary
    // linear model, the wire and the batcher, not the kernel, set the
    // latency; serving the one-vs-all ensemble, the engine's own batch work,
    // not the kernel, sets the service stage; a reloading workload's reloads
    // ran under load at their cadence; a training workload's fit is its
    // q_operator applies
    const double kernel_batch_s = light_cls.mean_batch_size / pps;
    bool holds = state.binary ? queue_wait + transport >= 10.0 * service : kernel_batch_s <= 0.5 * service;
    if (!wire_focus) {
        holds = holds && report.metrics.at("openmp.q_apply_share").first >= 0.9;
    }
    if (reloads_under_load) {
        holds = holds && reloads_kept_cadence;
    }
    report.set("reason.holds", holds ? 1.0 : 0.0, "bool");
}

}  // namespace perfbench
