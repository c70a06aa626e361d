#include "plssvm/serve/net/server.hpp"

#include "plssvm/exceptions.hpp"        // plssvm::invalid_data_exception
#include "plssvm/serve/admission.hpp"   // plssvm::serve::request_shed_exception
#include "plssvm/serve/fault.hpp"       // plssvm::serve::request_failed_exception

#include <arpa/inet.h>     // inet_pton
#include <netinet/in.h>    // sockaddr_in
#include <netinet/tcp.h>   // TCP_NODELAY
#include <sys/epoll.h>     // epoll_*
#include <sys/eventfd.h>   // eventfd
#include <sys/socket.h>    // socket, bind, listen, accept4
#include <unistd.h>        // read, write, close

#include <cerrno>         // errno
#include <cstdio>         // std::snprintf
#include <cstring>        // std::strerror
#include <stdexcept>      // std::runtime_error
#include <unordered_map>  // std::unordered_map

namespace plssvm::serve::net {

namespace {

[[noreturn]] void throw_errno(const std::string &what) {
    throw std::runtime_error{ "plssvm::serve::net: " + what + ": " + std::strerror(errno) };
}

void wake(const int event_fd) {
    const std::uint64_t one = 1;
    // a full eventfd counter still wakes the reader; the result is irrelevant
    [[maybe_unused]] const ssize_t n = ::write(event_fd, &one, sizeof(one));
}

void drain_eventfd(const int event_fd) {
    std::uint64_t value{};
    [[maybe_unused]] const ssize_t n = ::read(event_fd, &value, sizeof(value));
}

[[nodiscard]] double seconds_since(const std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

// ---------------------------------------------------------------------------
// connection
// ---------------------------------------------------------------------------

connection::~connection() {
    if (fd_ >= 0) {
        ::close(fd_);
    }
}

void connection::enqueue_output(const std::string &bytes, net_server &server) {
    const std::lock_guard lock{ out_mutex_ };
    if (closed_.load(std::memory_order_acquire)) {
        return;
    }
    outbound_.append(bytes);
    flush_locked(server);
}

void connection::flush_locked(net_server &server) {
    while (out_sent_ < outbound_.size()) {
        const ssize_t n = ::write(fd_, outbound_.data() + out_sent_, outbound_.size() - out_sent_);
        if (n > 0) {
            out_sent_ += static_cast<std::size_t>(n);
            bytes_out_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
            server.bytes_out_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
            if (peer_ != nullptr) {
                peer_->bytes_out.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
            }
            continue;
        }
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            // socket buffer is full: hand the tail to the event loop
            if (!want_write_ && epoll_fd_ >= 0) {
                epoll_event ev{};
                ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
                ev.data.fd = fd_;
                if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd_, &ev) == 0) {
                    want_write_ = true;
                }
            }
            return;
        }
        // peer is gone (EPIPE/ECONNRESET/...): stop writing, the event loop
        // observes the error/EPOLLHUP and reaps the connection
        closed_.store(true, std::memory_order_release);
        return;
    }
    // fully drained
    outbound_.clear();
    out_sent_ = 0;
    if (want_write_ && epoll_fd_ >= 0) {
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
        ev.data.fd = fd_;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd_, &ev) == 0) {
            want_write_ = false;
        }
    }
}

// ---------------------------------------------------------------------------
// net_server
// ---------------------------------------------------------------------------

struct net_server::event_loop {
    int epoll_fd{ -1 };
    int wake_fd{ -1 };
    std::thread thread;
    std::mutex mutex;  ///< guards `pending` and `conns` (stats readers walk `conns`)
    std::vector<std::shared_ptr<connection>> pending;
    std::unordered_map<int, std::shared_ptr<connection>> conns;
};

net_server::net_server(net_server_config config, std::shared_ptr<model_dispatcher> dispatcher) :
    config_{ std::move(config) },
    dispatcher_{ std::move(dispatcher) } {
    if (dispatcher_ == nullptr) {
        throw std::runtime_error{ "plssvm::serve::net: a net_server needs a dispatcher" };
    }
    if (config_.event_threads == 0) {
        config_.event_threads = 1;
    }

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
        throw_errno("socket");
    }
    const int enable = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
        ::close(listen_fd_);
        throw std::runtime_error{ "plssvm::serve::net: invalid bind address \"" + config_.bind_address + "\"" };
    }
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr *>(&addr), sizeof(addr)) != 0) {
        const int saved = errno;
        ::close(listen_fd_);
        errno = saved;
        throw_errno("bind " + config_.bind_address + ":" + std::to_string(config_.port));
    }
    if (::listen(listen_fd_, config_.listen_backlog) != 0) {
        const int saved = errno;
        ::close(listen_fd_);
        errno = saved;
        throw_errno("listen");
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr *>(&bound), &bound_len) != 0) {
        const int saved = errno;
        ::close(listen_fd_);
        errno = saved;
        throw_errno("getsockname");
    }
    port_ = ntohs(bound.sin_port);

    accept_wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (accept_wake_fd_ < 0) {
        ::close(listen_fd_);
        throw_errno("eventfd");
    }

    loops_.reserve(config_.event_threads);
    for (std::size_t i = 0; i < config_.event_threads; ++i) {
        auto loop = std::make_unique<event_loop>();
        loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
        loop->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
        if (loop->epoll_fd < 0 || loop->wake_fd < 0) {
            throw_errno("epoll_create1/eventfd");
        }
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = loop->wake_fd;
        if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev) != 0) {
            throw_errno("epoll_ctl(wake)");
        }
        loops_.push_back(std::move(loop));
    }
    for (auto &loop : loops_) {
        loop->thread = std::thread{ [this, raw = loop.get()] { event_loop_run(*raw); } };
    }
    acceptor_ = std::thread{ [this] { accept_loop(); } };
}

net_server::~net_server() { stop(); }

void net_server::stop() {
    if (stopping_.exchange(true)) {
        return;
    }
    // 1. stop accepting
    wake(accept_wake_fd_);
    if (acceptor_.joinable()) {
        acceptor_.join();
    }
    ::close(listen_fd_);
    ::close(accept_wake_fd_);

    // 2. stop the event loops and drop every connection
    for (auto &loop : loops_) {
        wake(loop->wake_fd);
    }
    for (auto &loop : loops_) {
        if (loop->thread.joinable()) {
            loop->thread.join();
        }
        std::lock_guard lock{ loop->mutex };
        for (auto &[fd, conn] : loop->conns) {
            // under the out-mutex: a callback writing right now finishes
            // before the epoll set it may arm is closed below
            const std::lock_guard out{ conn->out_mutex_ };
            conn->closed_.store(true, std::memory_order_release);
        }
        loop->conns.clear();
        loop->pending.clear();
        ::close(loop->epoll_fd);
        ::close(loop->wake_fd);
    }

    // 3. wait until every accepted request's callback has run (their
    //    responses hit closed connections and are dropped); a callback
    //    touches the server last under `inflight_mutex_`, so the server may
    //    be destroyed as soon as this returns
    std::unique_lock lock{ inflight_mutex_ };
    inflight_cv_.wait(lock, [this] { return inflight_.load(std::memory_order_acquire) == 0; });
}

// ---------------------------------------------------------------------------
// accept path
// ---------------------------------------------------------------------------

void net_server::accept_loop() {
    const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    epoll_event reg{};
    reg.events = EPOLLIN;
    reg.data.fd = listen_fd_;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd_, &reg);
    reg.data.fd = accept_wake_fd_;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, accept_wake_fd_, &reg);

    while (!stopping_.load(std::memory_order_acquire)) {
        epoll_event events[8];
        const int n = ::epoll_wait(epoll_fd, events, 8, -1);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            break;
        }
        for (int i = 0; i < n; ++i) {
            if (events[i].data.fd == accept_wake_fd_) {
                drain_eventfd(accept_wake_fd_);
                continue;
            }
            // accept until EAGAIN (the listening socket is level-triggered
            // here, but draining keeps the backlog short under bursts)
            while (true) {
                sockaddr_in peer_addr{};
                socklen_t peer_len = sizeof(peer_addr);
                const int fd = ::accept4(listen_fd_, reinterpret_cast<sockaddr *>(&peer_addr), &peer_len,
                                         SOCK_NONBLOCK | SOCK_CLOEXEC);
                if (fd < 0) {
                    if (errno == EINTR) {
                        continue;
                    }
                    break;  // EAGAIN or transient accept error
                }
                if (draining_.load(std::memory_order_acquire)
                    || open_.load(std::memory_order_relaxed) >= config_.max_connections) {
                    rejected_.fetch_add(1, std::memory_order_relaxed);
                    ::close(fd);
                    continue;
                }
                const int nodelay = 1;
                ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));

                char address[INET_ADDRSTRLEN] = "unknown";
                if (peer_addr.sin_family == AF_INET) {
                    ::inet_ntop(AF_INET, &peer_addr.sin_addr, address, sizeof(address));
                }

                auto conn = std::make_shared<connection>(fd, next_connection_id_.fetch_add(1, std::memory_order_relaxed) + 1,
                                                         config_.max_frame_bytes);
                conn->peer_ = peer_for(address);
                conn->peer_->connections.fetch_add(1, std::memory_order_relaxed);
                accepted_.fetch_add(1, std::memory_order_relaxed);
                open_.fetch_add(1, std::memory_order_relaxed);

                event_loop &loop = *loops_[next_loop_++ % loops_.size()];
                conn->epoll_fd_ = loop.epoll_fd;
                {
                    std::lock_guard lock{ loop.mutex };
                    loop.pending.push_back(std::move(conn));
                }
                wake(loop.wake_fd);
            }
        }
    }
    ::close(epoll_fd);
}

// ---------------------------------------------------------------------------
// event loops
// ---------------------------------------------------------------------------

void net_server::adopt_pending(event_loop &loop) {
    std::vector<std::shared_ptr<connection>> pending;
    {
        std::lock_guard lock{ loop.mutex };
        pending.swap(loop.pending);
    }
    for (auto &conn : pending) {
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
        ev.data.fd = conn->fd_;
        if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, conn->fd_, &ev) != 0) {
            conn->closed_.store(true, std::memory_order_release);
            closed_.fetch_add(1, std::memory_order_relaxed);
            open_.fetch_sub(1, std::memory_order_relaxed);
            continue;
        }
        const int fd = conn->fd_;
        std::lock_guard lock{ loop.mutex };
        loop.conns.emplace(fd, std::move(conn));
    }
}

void net_server::event_loop_run(event_loop &loop) {
    while (!stopping_.load(std::memory_order_acquire)) {
        epoll_event events[64];
        const int n = ::epoll_wait(loop.epoll_fd, events, 64, -1);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            break;
        }
        for (int i = 0; i < n; ++i) {
            if (events[i].data.fd == loop.wake_fd) {
                drain_eventfd(loop.wake_fd);
                if (stopping_.load(std::memory_order_acquire)) {
                    return;
                }
                adopt_pending(loop);
                continue;
            }
            std::shared_ptr<connection> conn;
            {
                std::lock_guard lock{ loop.mutex };
                if (const auto it = loop.conns.find(events[i].data.fd); it != loop.conns.end()) {
                    conn = it->second;
                }
            }
            if (conn == nullptr) {
                continue;  // already reaped this round
            }
            if (events[i].events & (EPOLLHUP | EPOLLERR)) {
                close_connection(loop, conn);
                continue;
            }
            if (events[i].events & EPOLLOUT) {
                handle_writable(conn);
            }
            if (events[i].events & (EPOLLIN | EPOLLRDHUP)) {
                handle_readable(loop, conn);
            }
        }
    }
}

void net_server::handle_writable(const std::shared_ptr<connection> &conn) {
    const std::lock_guard lock{ conn->out_mutex_ };
    if (!conn->closed_.load(std::memory_order_acquire)) {
        conn->flush_locked(*this);
    }
}

void net_server::handle_readable(event_loop &loop, const std::shared_ptr<connection> &conn) {
    // first net stamp of every message surfaced by this read cycle: the
    // moment the event thread started servicing the socket
    const auto accepted = std::chrono::steady_clock::now();
    bool eof = false;
    char buf[16384];
    while (true) {
        const ssize_t n = ::read(conn->fd_, buf, sizeof(buf));
        if (n > 0) {
            conn->decoder_.append(buf, static_cast<std::size_t>(n));
            conn->bytes_in_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
            bytes_in_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
            if (conn->peer_ != nullptr) {
                conn->peer_->bytes_in.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
            }
            continue;
        }
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
        }
        eof = true;  // orderly EOF or hard error: reap after draining the buffer
        break;
    }

    std::string msg;
    while (!conn->closed_.load(std::memory_order_acquire)) {
        const frame_decoder::status st = conn->decoder_.next(msg);
        if (st == frame_decoder::status::need_more) {
            break;
        }
        if (st == frame_decoder::status::frame || st == frame_decoder::status::line) {
            if (st == frame_decoder::status::frame) {
                frames_in_.fetch_add(1, std::memory_order_relaxed);
            } else {
                lines_in_.fetch_add(1, std::memory_order_relaxed);
            }
            handle_message(conn, msg, st == frame_decoder::status::line, accepted, std::chrono::steady_clock::now());
            continue;
        }
        // protocol error: answer once (when the mode is known), then close
        if (st == frame_decoder::status::oversized) {
            oversized_.fetch_add(1, std::memory_order_relaxed);
            net_response resp{};
            resp.status = response_status::bad_request;
            resp.error = "message exceeds the " + std::to_string(config_.max_frame_bytes) + " byte frame limit";
            respond(conn, conn->decoder_.mode(), resp, std::chrono::steady_clock::now());
        } else {
            bad_magic_.fetch_add(1, std::memory_order_relaxed);
        }
        close_connection(loop, conn);
        return;
    }
    if (eof && !conn->closed_.load(std::memory_order_acquire)) {
        close_connection(loop, conn);
    }
}

void net_server::handle_message(const std::shared_ptr<connection> &conn, const std::string &msg, const bool is_json,
                                const std::chrono::steady_clock::time_point accepted,
                                const std::chrono::steady_clock::time_point read_done) {
    const auto received = read_done;
    const frame_decoder::wire_mode mode = is_json ? frame_decoder::wire_mode::json_lines : frame_decoder::wire_mode::binary;

    net_request req;
    const std::optional<std::string> error = is_json ? parse_request_json(msg, req) : decode_request_binary(msg, req);
    if (error.has_value()) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        net_response resp{};
        resp.id = req.id;
        resp.status = response_status::bad_request;
        resp.error = *error;
        respond(conn, mode, resp, received);
        return;
    }

    if (req.op != request_op::predict) {
        ops_.fetch_add(1, std::memory_order_relaxed);
        handle_op(conn, req);
        return;
    }

    requests_.fetch_add(1, std::memory_order_relaxed);
    conn->requests_.fetch_add(1, std::memory_order_relaxed);
    if (conn->peer_ != nullptr) {
        conn->peer_->requests.fetch_add(1, std::memory_order_relaxed);
    }
    // counted before the submit: the callback may run on the drain thread
    // before `submit` returns here
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    net_response resp{};
    resp.id = req.id;
    bool submitted = false;
    try {
        std::shared_ptr<obs::wire_trace_context> wire;
        if (config_.wire_tracing) {
            // stamp the net head stages; the engine merges them with its own
            // lifecycle stamps if its sampling decision (or a client-supplied
            // trace id) selects the request
            wire = std::make_shared<obs::wire_trace_context>();
            wire->trace_id = req.trace_id;
            wire->client_supplied = req.trace_id != 0;
            wire->accepted = accepted;
            wire->read_done = read_done;
            // one stamp for decode + dispatch: they are adjacent on this
            // thread and a second clock read would only measure the clock
            const auto decoded = std::chrono::steady_clock::now();
            wire->decoded = decoded;
            wire->dispatched = decoded;
        }
        dispatcher_->submit(req, wire, [this, conn, id = req.id, mode, received, wire](const double label, std::exception_ptr error) {
            complete(conn, id, mode, received, wire, label, std::move(error));
        });
        submitted = true;
    } catch (const request_shed_exception &e) {
        resp.status = response_status::retry_after;
        resp.retry_after_us = static_cast<std::uint64_t>(e.retry_after().count());
        resp.error = e.what();
    } catch (const model_not_found_error &e) {
        resp.status = response_status::not_found;
        resp.error = e.what();
    } catch (const invalid_data_exception &e) {
        resp.status = response_status::bad_request;
        resp.error = e.what();
    } catch (const std::exception &e) {
        resp.status = response_status::failed;
        resp.error = e.what();
    }
    if (submitted) {
        const std::lock_guard lock{ hist_mutex_ };
        handle_hist_.record(seconds_since(received));
        return;
    }
    // refused at submit: the callback never runs, so answer and settle here
    respond(conn, mode, resp, received);
    settled();
}

void net_server::handle_op(const std::shared_ptr<connection> &conn, const net_request &req) {
    std::string line;
    switch (req.op) {
        case request_op::ready: {
            const health_state health = dispatcher_->health();
            line = std::string{ "{\"status\": \"ok\", \"ready\": " } + (ready() ? "true" : "false")
                   + ", \"health\": \"" + std::string{ health_state_to_string(health) } + "\"}";
            break;
        }
        case request_op::live:
            line = "{\"status\": \"ok\", \"live\": true}";
            break;
        case request_op::stats:
            line = "{\"status\": \"ok\", \"net\": " + stats_json() + ", \"registry\": " + dispatcher_->stats_json() + "}";
            break;
        case request_op::metrics:
            line = "{\"status\": \"ok\", \"metrics\": \"" + json_escape(metrics_text()) + "\"}";
            break;
        case request_op::trace:
            line = "{\"status\": \"ok\", \"traces\": " + dispatcher_->trace_json() + "}";
            break;
        default:
            return;
    }
    line += '\n';
    conn->enqueue_output(line, *this);
    conn->responses_.fetch_add(1, std::memory_order_relaxed);
}

void net_server::respond(const std::shared_ptr<connection> &conn, const frame_decoder::wire_mode mode, const net_response &resp,
                         const std::chrono::steady_clock::time_point received,
                         const std::shared_ptr<obs::wire_trace_context> &wire_ctx) {
    switch (resp.status) {
        case response_status::ok:
            responses_ok_.fetch_add(1, std::memory_order_relaxed);
            break;
        case response_status::retry_after:
            responses_retry_after_.fetch_add(1, std::memory_order_relaxed);
            break;
        case response_status::failed:
            responses_failed_.fetch_add(1, std::memory_order_relaxed);
            break;
        case response_status::bad_request:
            responses_bad_request_.fetch_add(1, std::memory_order_relaxed);
            break;
        case response_status::not_found:
            responses_not_found_.fetch_add(1, std::memory_order_relaxed);
            break;
    }
    std::string wire;
    if (mode == frame_decoder::wire_mode::json_lines) {
        wire = encode_response_json(resp);
        wire += '\n';
    } else {
        wire = encode_frame(frame_type::response, encode_response_binary(resp));
    }
    if (wire_ctx != nullptr) {
        wire_ctx->encoded = std::chrono::steady_clock::now();
    }
    conn->enqueue_output(wire, *this);
    conn->responses_.fetch_add(1, std::memory_order_relaxed);
    if (wire_ctx != nullptr) {
        // last stamp of the wire-to-wire trace: the response bytes left (or
        // were handed to the kernel to leave) the process; the engine
        // publishes the trace once the completion callback returned
        wire_ctx->flushed = std::chrono::steady_clock::now();
    }
    const double e2e = seconds_since(received);
    {
        const std::lock_guard lock{ hist_mutex_ };
        e2e_hist_.record(e2e);
    }
    if (conn->peer_ != nullptr) {
        if (resp.status == response_status::retry_after) {
            conn->peer_->sheds.fetch_add(1, std::memory_order_relaxed);
        }
        const std::lock_guard lock{ conn->peer_->hist_mutex };
        conn->peer_->e2e.record(e2e);
    }
}

void net_server::close_connection(event_loop &loop, const std::shared_ptr<connection> &conn) {
    {
        const std::lock_guard lock{ conn->out_mutex_ };
        if (conn->closed_.exchange(true, std::memory_order_acq_rel)) {
            // lost the race with stop()/a write error — the map entry (if
            // any) still needs reaping below
        }
    }
    ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, conn->fd_, nullptr);
    bool erased = false;
    {
        std::lock_guard lock{ loop.mutex };
        erased = loop.conns.erase(conn->fd_) > 0;
    }
    if (erased) {
        closed_.fetch_add(1, std::memory_order_relaxed);
        open_.fetch_sub(1, std::memory_order_relaxed);
    }
}

// ---------------------------------------------------------------------------
// completion
// ---------------------------------------------------------------------------

void net_server::complete(const std::shared_ptr<connection> &conn, const std::uint64_t id, const frame_decoder::wire_mode mode,
                          const std::chrono::steady_clock::time_point received,
                          const std::shared_ptr<obs::wire_trace_context> &wire, const double label,
                          std::exception_ptr error) noexcept {
    try {
        net_response resp{};
        resp.id = id;
        if (error == nullptr) {
            resp.value = label;
            resp.status = response_status::ok;
        } else {
            // request_failed_exception or whatever else the fault plane
            // settled the request with
            resp.status = response_status::failed;
            try {
                std::rethrow_exception(std::move(error));
            } catch (const std::exception &e) {
                resp.error = e.what();
            } catch (...) {
                resp.error = "unknown error";
            }
        }
        respond(conn, mode, resp, received, wire);
    } catch (...) {
        // encoding the response failed (allocation): the response is lost,
        // but the request still counts as settled so stop() cannot hang
    }
    settled();
}

void net_server::settled() {
    const std::lock_guard lock{ inflight_mutex_ };
    if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        inflight_cv_.notify_all();
    }
}

// ---------------------------------------------------------------------------
// stats / metrics
// ---------------------------------------------------------------------------

std::shared_ptr<peer_stats> net_server::peer_for(const std::string &address) {
    const std::lock_guard lock{ peers_mutex_ };
    if (const auto it = peers_.find(address); it != peers_.end()) {
        return it->second;
    }
    // cap the tracked-peer cardinality: past the cap everything shares one
    // overflow record, so a port scan cannot grow the map (or the metric
    // label space) unbounded
    const std::string key = peers_.size() < config_.max_tracked_peers ? address : std::string{ "other" };
    auto &slot = peers_[key];
    if (slot == nullptr) {
        slot = std::make_shared<peer_stats>();
        slot->peer = key;
    }
    return slot;
}

net_counters net_server::counters() const {
    net_counters c;
    c.connections_accepted = accepted_.load(std::memory_order_relaxed);
    c.connections_closed = closed_.load(std::memory_order_relaxed);
    c.connections_open = open_.load(std::memory_order_relaxed);
    c.connections_rejected = rejected_.load(std::memory_order_relaxed);
    c.bytes_in = bytes_in_.load(std::memory_order_relaxed);
    c.bytes_out = bytes_out_.load(std::memory_order_relaxed);
    c.frames_in = frames_in_.load(std::memory_order_relaxed);
    c.lines_in = lines_in_.load(std::memory_order_relaxed);
    c.requests_total = requests_.load(std::memory_order_relaxed);
    c.ops_total = ops_.load(std::memory_order_relaxed);
    c.responses_ok = responses_ok_.load(std::memory_order_relaxed);
    c.responses_retry_after = responses_retry_after_.load(std::memory_order_relaxed);
    c.responses_failed = responses_failed_.load(std::memory_order_relaxed);
    c.responses_bad_request = responses_bad_request_.load(std::memory_order_relaxed);
    c.responses_not_found = responses_not_found_.load(std::memory_order_relaxed);
    c.malformed_total = malformed_.load(std::memory_order_relaxed);
    c.oversized_total = oversized_.load(std::memory_order_relaxed);
    c.bad_magic_total = bad_magic_.load(std::memory_order_relaxed);
    return c;
}

std::string net_server::stats_json() const {
    const net_counters c = counters();
    double e2e_p50{};
    double e2e_p99{};
    double handle_p50{};
    double handle_p99{};
    {
        const std::lock_guard lock{ hist_mutex_ };
        e2e_p50 = e2e_hist_.quantile(0.50);
        e2e_p99 = e2e_hist_.quantile(0.99);
        handle_p50 = handle_hist_.quantile(0.50);
        handle_p99 = handle_hist_.quantile(0.99);
    }
    char buf[512];
    std::string json = "{\"listen_port\": " + std::to_string(port_);
    json += ", \"draining\": ";
    json += draining() ? "true" : "false";
    json += ", \"inflight\": " + std::to_string(inflight());
    std::snprintf(buf, sizeof(buf),
                  ", \"connections\": {\"accepted\": %llu, \"open\": %llu, \"closed\": %llu, \"rejected\": %llu}",
                  static_cast<unsigned long long>(c.connections_accepted), static_cast<unsigned long long>(c.connections_open),
                  static_cast<unsigned long long>(c.connections_closed), static_cast<unsigned long long>(c.connections_rejected));
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  ", \"traffic\": {\"bytes_in\": %llu, \"bytes_out\": %llu, \"frames_in\": %llu, \"lines_in\": %llu}",
                  static_cast<unsigned long long>(c.bytes_in), static_cast<unsigned long long>(c.bytes_out),
                  static_cast<unsigned long long>(c.frames_in), static_cast<unsigned long long>(c.lines_in));
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  ", \"requests\": {\"total\": %llu, \"ops\": %llu, \"ok\": %llu, \"retry_after\": %llu, \"failed\": %llu, "
                  "\"bad_request\": %llu, \"not_found\": %llu, \"malformed\": %llu, \"oversized\": %llu, \"bad_magic\": %llu}",
                  static_cast<unsigned long long>(c.requests_total), static_cast<unsigned long long>(c.ops_total),
                  static_cast<unsigned long long>(c.responses_ok), static_cast<unsigned long long>(c.responses_retry_after),
                  static_cast<unsigned long long>(c.responses_failed), static_cast<unsigned long long>(c.responses_bad_request),
                  static_cast<unsigned long long>(c.responses_not_found), static_cast<unsigned long long>(c.malformed_total),
                  static_cast<unsigned long long>(c.oversized_total), static_cast<unsigned long long>(c.bad_magic_total));
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  ", \"latency_us\": {\"e2e_p50\": %.1f, \"e2e_p99\": %.1f, \"handle_p50\": %.1f, \"handle_p99\": %.1f}",
                  e2e_p50 * 1e6, e2e_p99 * 1e6, handle_p50 * 1e6, handle_p99 * 1e6);
    json += buf;
    json += ", \"per_connection\": [";
    bool first = true;
    for (const auto &loop : loops_) {
        std::lock_guard lock{ loop->mutex };
        for (const auto &[fd, conn] : loop->conns) {
            std::snprintf(buf, sizeof(buf),
                          "%s{\"id\": %llu, \"requests\": %llu, \"responses\": %llu, \"bytes_in\": %llu, \"bytes_out\": %llu}",
                          first ? "" : ", ", static_cast<unsigned long long>(conn->id()),
                          static_cast<unsigned long long>(conn->requests_.load(std::memory_order_relaxed)),
                          static_cast<unsigned long long>(conn->responses_.load(std::memory_order_relaxed)),
                          static_cast<unsigned long long>(conn->bytes_in_.load(std::memory_order_relaxed)),
                          static_cast<unsigned long long>(conn->bytes_out_.load(std::memory_order_relaxed)));
            json += buf;
            first = false;
        }
    }
    json += "], \"per_peer\": [";
    std::vector<std::shared_ptr<peer_stats>> peers;
    {
        const std::lock_guard lock{ peers_mutex_ };
        peers.reserve(peers_.size());
        for (const auto &[address, stats] : peers_) {
            peers.push_back(stats);
        }
    }
    first = true;
    for (const auto &peer : peers) {
        double p99{};
        {
            const std::lock_guard lock{ peer->hist_mutex };
            p99 = peer->e2e.quantile(0.99);
        }
        json += first ? "" : ", ";
        first = false;
        json += "{\"peer\": \"" + json_escape(peer->peer) + "\"";
        std::snprintf(buf, sizeof(buf),
                      ", \"connections\": %llu, \"requests\": %llu, \"sheds\": %llu, \"bytes_in\": %llu, \"bytes_out\": %llu, "
                      "\"e2e_p99_us\": %.1f}",
                      static_cast<unsigned long long>(peer->connections.load(std::memory_order_relaxed)),
                      static_cast<unsigned long long>(peer->requests.load(std::memory_order_relaxed)),
                      static_cast<unsigned long long>(peer->sheds.load(std::memory_order_relaxed)),
                      static_cast<unsigned long long>(peer->bytes_in.load(std::memory_order_relaxed)),
                      static_cast<unsigned long long>(peer->bytes_out.load(std::memory_order_relaxed)), p99 * 1e6);
        json += buf;
    }
    json += "]}";
    return json;
}

void net_server::collect_metrics(obs::prometheus_builder &builder) const {
    const net_counters c = counters();
    const obs::label_set no_labels{};
    builder.add_counter("plssvm_serve_net_connections_accepted_total", "Accepted client connections.", no_labels,
                        static_cast<double>(c.connections_accepted));
    builder.add_counter("plssvm_serve_net_connections_closed_total", "Closed client connections.", no_labels,
                        static_cast<double>(c.connections_closed));
    builder.add_counter("plssvm_serve_net_connections_rejected_total", "Connections rejected at the accept cap.", no_labels,
                        static_cast<double>(c.connections_rejected));
    builder.add_gauge("plssvm_serve_net_connections_open", "Currently open client connections.", no_labels,
                      static_cast<double>(c.connections_open));
    builder.add_counter("plssvm_serve_net_bytes_in_total", "Bytes read from clients.", no_labels, static_cast<double>(c.bytes_in));
    builder.add_counter("plssvm_serve_net_bytes_out_total", "Bytes written to clients.", no_labels, static_cast<double>(c.bytes_out));
    builder.add_counter("plssvm_serve_net_requests_total", "Decoded predict requests.", no_labels,
                        static_cast<double>(c.requests_total));
    builder.add_counter("plssvm_serve_net_ops_total", "Decoded probe/scrape ops.", no_labels, static_cast<double>(c.ops_total));
    builder.add_counter("plssvm_serve_net_responses_total", "Responses by status.", { { "status", "ok" } },
                        static_cast<double>(c.responses_ok));
    builder.add_counter("plssvm_serve_net_responses_total", "Responses by status.", { { "status", "retry_after" } },
                        static_cast<double>(c.responses_retry_after));
    builder.add_counter("plssvm_serve_net_responses_total", "Responses by status.", { { "status", "failed" } },
                        static_cast<double>(c.responses_failed));
    builder.add_counter("plssvm_serve_net_responses_total", "Responses by status.", { { "status", "bad_request" } },
                        static_cast<double>(c.responses_bad_request));
    builder.add_counter("plssvm_serve_net_responses_total", "Responses by status.", { { "status", "not_found" } },
                        static_cast<double>(c.responses_not_found));
    builder.add_counter("plssvm_serve_net_protocol_errors_total", "Protocol errors by kind.", { { "kind", "malformed" } },
                        static_cast<double>(c.malformed_total));
    builder.add_counter("plssvm_serve_net_protocol_errors_total", "Protocol errors by kind.", { { "kind", "oversized" } },
                        static_cast<double>(c.oversized_total));
    builder.add_counter("plssvm_serve_net_protocol_errors_total", "Protocol errors by kind.", { { "kind", "bad_magic" } },
                        static_cast<double>(c.bad_magic_total));
    builder.add_gauge("plssvm_serve_net_ready", "Readiness (1 = not draining and model store below critical).", no_labels,
                      ready() ? 1.0 : 0.0);
    builder.add_gauge("plssvm_serve_net_draining", "Graceful drain in progress (1 = rejecting new connections).", no_labels,
                      draining() ? 1.0 : 0.0);
    builder.add_gauge("plssvm_serve_net_inflight_requests", "Predict requests submitted but not yet answered.", no_labels,
                      static_cast<double>(inflight()));
    {
        const std::lock_guard lock{ hist_mutex_ };
        builder.add_histogram("plssvm_serve_net_request_seconds", "Request decoded to response serialized.", no_labels, e2e_hist_);
        builder.add_histogram("plssvm_serve_net_handle_seconds", "Synchronous decode+submit slice on the event thread.", no_labels,
                              handle_hist_);
    }
    // per-peer accounting (bounded label space: see max_tracked_peers)
    std::vector<std::shared_ptr<peer_stats>> peers;
    {
        const std::lock_guard lock{ peers_mutex_ };
        peers.reserve(peers_.size());
        for (const auto &[address, stats] : peers_) {
            peers.push_back(stats);
        }
    }
    for (const auto &peer : peers) {
        const obs::label_set labels{ { "peer", peer->peer } };
        builder.add_counter("plssvm_serve_net_peer_connections_total", "Connections accepted from a peer.", labels,
                            static_cast<double>(peer->connections.load(std::memory_order_relaxed)));
        builder.add_counter("plssvm_serve_net_peer_requests_total", "Predict requests decoded from a peer.", labels,
                            static_cast<double>(peer->requests.load(std::memory_order_relaxed)));
        builder.add_counter("plssvm_serve_net_peer_sheds_total", "Requests of a peer answered retry_after.", labels,
                            static_cast<double>(peer->sheds.load(std::memory_order_relaxed)));
        builder.add_counter("plssvm_serve_net_peer_bytes_in_total", "Bytes read from a peer.", labels,
                            static_cast<double>(peer->bytes_in.load(std::memory_order_relaxed)));
        builder.add_counter("plssvm_serve_net_peer_bytes_out_total", "Bytes written to a peer.", labels,
                            static_cast<double>(peer->bytes_out.load(std::memory_order_relaxed)));
        double p99{};
        {
            const std::lock_guard lock{ peer->hist_mutex };
            p99 = peer->e2e.quantile(0.99);
        }
        builder.add_gauge("plssvm_serve_net_peer_e2e_p99_seconds", "Per-peer end-to-end p99 latency.", labels, p99);
    }
}

std::string net_server::metrics_text() const {
    obs::prometheus_builder builder;
    dispatcher_->collect_metrics(builder);
    collect_metrics(builder);
    obs::collect_build_info(builder);
    return builder.text();
}

}  // namespace plssvm::serve::net
