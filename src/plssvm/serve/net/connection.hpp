/**
 * @file
 * @brief One accepted client connection of the network serving plane.
 *
 * A connection is owned by exactly one event thread (its epoll instance),
 * which performs all reads and lifecycle transitions. Writes are shared:
 * the thread that settles a request (its completion callback) serializes
 * the response and flushes it directly under `out_mutex_` (lowest latency
 * when the socket buffer has room), falling back to arming `EPOLLOUT` on
 * the owning event loop when the kernel buffer is full. The file descriptor
 * stays open until the last reference drops — completion callbacks hold a
 * `shared_ptr`, so a response racing a close can never write into a
 * recycled descriptor; it just hits the `closed_` flag and is dropped.
 */

#ifndef PLSSVM_SERVE_NET_CONNECTION_HPP_
#define PLSSVM_SERVE_NET_CONNECTION_HPP_

#include "plssvm/serve/net/framing.hpp"  // frame_decoder
#include "plssvm/serve/obs.hpp"          // plssvm::serve::obs::latency_histogram

#include <atomic>   // std::atomic
#include <cstddef>  // std::size_t
#include <cstdint>  // std::uint64_t
#include <memory>   // std::shared_ptr
#include <mutex>    // std::mutex
#include <string>   // std::string

namespace plssvm::serve::net {

class net_server;

/// Accumulated accounting of one remote peer (keyed by client IP). Shared by
/// every connection from that peer and retained by the server past the
/// connections' lifetimes, so per-client budgets survive reconnect churn.
/// Counters are relaxed atomics; the end-to-end latency histogram takes its
/// own mutex (recorded once per response, off the read path).
struct peer_stats {
    std::string peer;  ///< remote address ("other" = overflow aggregate past the tracked-peer cap)
    std::atomic<std::uint64_t> connections{ 0 };
    std::atomic<std::uint64_t> requests{ 0 };
    std::atomic<std::uint64_t> sheds{ 0 };
    std::atomic<std::uint64_t> bytes_in{ 0 };
    std::atomic<std::uint64_t> bytes_out{ 0 };
    mutable std::mutex hist_mutex;
    obs::latency_histogram e2e;
};

class connection {
    friend class net_server;

  public:
    connection(int fd, std::uint64_t id, std::size_t max_frame_bytes) :
        fd_{ fd },
        id_{ id },
        decoder_{ max_frame_bytes } {}

    connection(const connection &) = delete;
    connection &operator=(const connection &) = delete;

    /// Closes the socket. Runs when the last owner (event loop map or the
    /// completion callback of an in-flight request) releases the connection.
    ~connection();

    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
    [[nodiscard]] frame_decoder::wire_mode mode() const noexcept { return decoder_.mode(); }
    [[nodiscard]] bool closed() const noexcept { return closed_.load(std::memory_order_acquire); }

  private:
    /// Append @p bytes to the outbound buffer and flush as much as the
    /// socket accepts; arms `EPOLLOUT` on the owner loop for the rest.
    /// Callable from any thread; a no-op once the connection is closed.
    void enqueue_output(const std::string &bytes, net_server &server);

    /// Flush the pending outbound bytes (requires `out_mutex_` held).
    void flush_locked(net_server &server);

    int fd_;
    std::uint64_t id_;
    frame_decoder decoder_;
    int epoll_fd_{ -1 };  ///< owner event loop's epoll instance (for EPOLLOUT arming)

    std::mutex out_mutex_;
    std::string outbound_;
    std::size_t out_sent_{ 0 };
    bool want_write_{ false };

    std::atomic<bool> closed_{ false };

    // per-connection counters surfaced in `net_server::stats_json()`
    std::atomic<std::uint64_t> requests_{ 0 };
    std::atomic<std::uint64_t> responses_{ 0 };
    std::atomic<std::uint64_t> bytes_in_{ 0 };
    std::atomic<std::uint64_t> bytes_out_{ 0 };

    /// Shared accounting record of this connection's remote peer (attached
    /// by the acceptor; never null once adopted by an event loop).
    std::shared_ptr<peer_stats> peer_;
};

}  // namespace plssvm::serve::net

#endif  // PLSSVM_SERVE_NET_CONNECTION_HPP_
