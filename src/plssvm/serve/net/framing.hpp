/**
 * @file
 * @brief Wire framing of the network serving plane.
 *
 * Two wire modes share one listening port and are auto-detected per
 * connection from its very first byte:
 *
 *  - **Binary framing** (first byte `0xBF`): every message is one frame
 *    `[magic u8 = 0xBF][type u8][payload_len u32 LE][payload]`. Frames are
 *    length-prefixed so the decoder never scans payload bytes, and a
 *    configurable `max_frame_bytes` bounds memory per connection (oversized
 *    frames are rejected before the payload is buffered).
 *  - **JSON lines** (first byte `{`): newline-delimited JSON objects, one
 *    request/response per line — `printf`-able from `nc` or
 *    `curl telnet://`. The same size bound applies to a single line.
 *
 * The `frame_decoder` is incremental: the event loop appends whatever
 * `read()` returned (torn frames, multiple frames per read, a frame split
 * across dozens of reads) and pulls zero or more complete messages out.
 */

#ifndef PLSSVM_SERVE_NET_FRAMING_HPP_
#define PLSSVM_SERVE_NET_FRAMING_HPP_

#include <cstddef>  // std::size_t
#include <cstdint>  // std::uint8_t, std::uint16_t, std::uint32_t, std::uint64_t
#include <string>   // std::string

namespace plssvm::serve::net {

/// First byte of every binary frame; also the mode-detection byte (`{`
/// selects the JSON-lines mode instead).
inline constexpr std::uint8_t frame_magic = 0xBF;

/// Frame header: magic + type + u32 little-endian payload length.
inline constexpr std::size_t frame_header_bytes = 6;

/// Default per-message size bound (payload of one frame / one JSON line).
inline constexpr std::size_t default_max_frame_bytes = 1u << 20;

/// Message kind carried in the binary frame header.
enum class frame_type : std::uint8_t {
    request = 1,
    response = 2,
};

/// Little-endian append-only serializer used by both wire directions.
class wire_writer {
  public:
    /// Reserve room for @p bytes in total, so a writer told its message's
    /// exact size allocates once and carries no spare capacity.
    void reserve(const std::size_t bytes) { buf_.reserve(bytes); }

    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

    void u16(std::uint16_t v) {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }

    void u32(std::uint32_t v) {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }

    void u64(std::uint64_t v) {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    void f64(double v);

    void bytes(const void *data, std::size_t n) { buf_.append(static_cast<const char *>(data), n); }

    /// Length-prefixed string: u16 length + raw bytes (length is truncated
    /// to 65535 — model names and error strings are short).
    void str16(const std::string &s);

    /// Bytes `str16(s)` appends.
    [[nodiscard]] static std::size_t str16_bytes(const std::string &s) noexcept { return 2 + (s.size() < 65535 ? s.size() : 65535); }

    [[nodiscard]] const std::string &data() const noexcept { return buf_; }
    [[nodiscard]] std::string take() noexcept { return std::move(buf_); }

  private:
    std::string buf_;
};

/// Bounds-checked little-endian cursor over one received payload. Every
/// read past the end sets the sticky `fail()` flag and returns zero values,
/// so decoders can read a full fixed layout and check once at the end.
class wire_reader {
  public:
    wire_reader(const char *data, std::size_t size) :
        data_{ data },
        size_{ size } {}

    [[nodiscard]] std::uint8_t u8();
    [[nodiscard]] std::uint16_t u16();
    [[nodiscard]] std::uint32_t u32();
    [[nodiscard]] std::uint64_t u64();
    [[nodiscard]] double f64();
    [[nodiscard]] std::string str16();

    /// True once any read ran past the end of the payload.
    [[nodiscard]] bool fail() const noexcept { return fail_; }
    /// Bytes not yet consumed.
    [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
    /// True when the payload was consumed exactly and no read failed.
    [[nodiscard]] bool complete() const noexcept { return !fail_ && pos_ == size_; }

  private:
    [[nodiscard]] bool take(std::size_t n) noexcept;

    const char *data_;
    std::size_t size_;
    std::size_t pos_{ 0 };
    bool fail_{ false };
};

/// Serialize one binary frame (header + payload).
[[nodiscard]] std::string encode_frame(frame_type type, const std::string &payload);

/**
 * @brief Incremental per-connection stream decoder.
 *
 * Feed raw socket bytes with `append()`, then call `next()` until it
 * returns `need_more`. The wire mode latches on the first byte ever seen:
 * `0xBF` selects binary framing, `{` selects JSON lines, anything else is
 * a protocol error (`bad_magic`).
 */
class frame_decoder {
  public:
    enum class wire_mode : std::uint8_t {
        unknown = 0,  ///< no byte seen yet
        binary = 1,
        json_lines = 2,
    };

    enum class status : std::uint8_t {
        need_more = 0,  ///< no complete message buffered
        frame = 1,      ///< `out` holds one binary frame payload
        line = 2,       ///< `out` holds one JSON line (newline stripped)
        oversized = 3,  ///< frame/line exceeds `max_frame_bytes` (fatal)
        bad_magic = 4,  ///< first byte of a frame is neither 0xBF nor `{` (fatal)
    };

    explicit frame_decoder(std::size_t max_frame_bytes = default_max_frame_bytes) :
        max_frame_bytes_{ max_frame_bytes } {}

    /// Append @p n raw bytes read from the socket.
    void append(const char *data, std::size_t n);

    /**
     * @brief Extract the next complete message into @p out.
     *
     * `frame`/`line` results may repeat (one `append()` can complete several
     * messages); `oversized` and `bad_magic` are sticky protocol errors —
     * the caller must close the connection.
     */
    [[nodiscard]] status next(std::string &out);

    [[nodiscard]] wire_mode mode() const noexcept { return mode_; }
    /// Bytes currently buffered but not yet consumed.
    [[nodiscard]] std::size_t buffered() const noexcept { return buffer_.size() - consumed_; }

  private:
    void compact();

    std::size_t max_frame_bytes_;
    wire_mode mode_{ wire_mode::unknown };
    bool broken_{ false };
    std::string buffer_;
    std::size_t consumed_{ 0 };
};

}  // namespace plssvm::serve::net

#endif  // PLSSVM_SERVE_NET_FRAMING_HPP_
