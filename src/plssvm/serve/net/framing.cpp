#include "plssvm/serve/net/framing.hpp"

#include <cstring>  // std::memcpy

namespace plssvm::serve::net {

void wire_writer::f64(const double v) {
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    std::uint64_t bits{};
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void wire_writer::str16(const std::string &s) {
    const std::size_t n = str16_bytes(s) - 2;
    u16(static_cast<std::uint16_t>(n));
    bytes(s.data(), n);
}

bool wire_reader::take(const std::size_t n) noexcept {
    if (fail_ || size_ - pos_ < n) {
        fail_ = true;
        return false;
    }
    return true;
}

std::uint8_t wire_reader::u8() {
    if (!take(1)) {
        return 0;
    }
    return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint16_t wire_reader::u16() {
    const std::uint16_t lo = u8();
    const std::uint16_t hi = u8();
    return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t wire_reader::u32() {
    const std::uint32_t lo = u16();
    const std::uint32_t hi = u16();
    return lo | (hi << 16);
}

std::uint64_t wire_reader::u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
}

double wire_reader::f64() {
    const std::uint64_t bits = u64();
    if (fail_) {
        return 0.0;
    }
    double v{};
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string wire_reader::str16() {
    const std::uint16_t n = u16();
    if (!take(n)) {
        return {};
    }
    std::string s{ data_ + pos_, n };
    pos_ += n;
    return s;
}

std::string encode_frame(const frame_type type, const std::string &payload) {
    wire_writer w;
    w.reserve(frame_header_bytes + payload.size());
    w.u8(frame_magic);
    w.u8(static_cast<std::uint8_t>(type));
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.bytes(payload.data(), payload.size());
    return w.take();
}

void frame_decoder::append(const char *data, const std::size_t n) {
    if (broken_) {
        return;  // connection is being torn down — don't grow the buffer
    }
    buffer_.append(data, n);
}

void frame_decoder::compact() {
    // reclaim consumed prefix bytes once they dominate the buffer, so a
    // long-lived connection doesn't retain every frame it ever received
    if (consumed_ > 4096 && consumed_ * 2 >= buffer_.size()) {
        buffer_.erase(0, consumed_);
        consumed_ = 0;
    }
}

frame_decoder::status frame_decoder::next(std::string &out) {
    if (broken_) {
        return status::bad_magic;
    }
    if (consumed_ == buffer_.size()) {
        compact();
        return status::need_more;
    }
    if (mode_ == wire_mode::unknown) {
        const auto first = static_cast<std::uint8_t>(buffer_[consumed_]);
        if (first == frame_magic) {
            mode_ = wire_mode::binary;
        } else if (first == '{') {
            mode_ = wire_mode::json_lines;
        } else {
            broken_ = true;
            return status::bad_magic;
        }
    }

    if (mode_ == wire_mode::binary) {
        const std::size_t avail = buffer_.size() - consumed_;
        if (avail < frame_header_bytes) {
            compact();
            return status::need_more;
        }
        const char *hdr = buffer_.data() + consumed_;
        if (static_cast<std::uint8_t>(hdr[0]) != frame_magic) {
            broken_ = true;
            return status::bad_magic;
        }
        wire_reader r{ hdr + 2, 4 };
        const std::uint32_t len = r.u32();
        if (len > max_frame_bytes_) {
            broken_ = true;
            return status::oversized;
        }
        if (avail < frame_header_bytes + len) {
            compact();
            return status::need_more;
        }
        out.assign(hdr + frame_header_bytes, len);
        consumed_ += frame_header_bytes + len;
        return status::frame;
    }

    // JSON-lines mode: one message per '\n'; tolerate CRLF
    const std::size_t nl = buffer_.find('\n', consumed_);
    if (nl == std::string::npos) {
        if (buffer_.size() - consumed_ > max_frame_bytes_) {
            broken_ = true;
            return status::oversized;
        }
        compact();
        return status::need_more;
    }
    std::size_t len = nl - consumed_;
    if (len > max_frame_bytes_) {
        broken_ = true;
        return status::oversized;
    }
    out.assign(buffer_.data() + consumed_, len);
    if (!out.empty() && out.back() == '\r') {
        out.pop_back();
    }
    consumed_ = nl + 1;
    return status::line;
}

}  // namespace plssvm::serve::net
