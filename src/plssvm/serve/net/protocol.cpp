#include "plssvm/serve/net/protocol.hpp"

#include <cctype>   // std::isdigit
#include <cmath>    // std::isfinite
#include <cstdio>   // std::snprintf
#include <cstdlib>  // std::strtod
#include <string>   // std::string, std::stoul

namespace plssvm::serve::net {

namespace {

constexpr std::uint8_t flag_sparse = 0x01;
constexpr std::uint8_t flag_deadline = 0x02;
constexpr std::uint8_t flag_trace = 0x04;

// hard cap on entries a single request may carry, whatever its payload size
// (the decoder also bounds a claimed count by the bytes actually carried)
constexpr std::uint32_t max_request_entries = 1u << 22;

[[nodiscard]] std::string format_double(const double v) {
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

}  // namespace

std::string json_escape(const std::string_view s) {
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
            case '"':
                out += "\\\"";
                break;
            case '\\':
                out += "\\\\";
                break;
            case '\n':
                out += "\\n";
                break;
            case '\r':
                out += "\\r";
                break;
            case '\t':
                out += "\\t";
                break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string encode_request_binary(const net_request &req) {
    std::uint8_t flags = 0;
    if (req.sparse) {
        flags |= flag_sparse;
    }
    if (req.deadline.count() > 0) {
        flags |= flag_deadline;
    }
    if (req.trace_id != 0) {
        flags |= flag_trace;
    }
    // id, flags, class, model, [deadline], [trace id], entry count, entries
    const std::size_t entries = req.sparse ? req.sparse_entries.size() * (sizeof(std::uint32_t) + sizeof(double))
                                           : req.dense.size() * sizeof(double);
    wire_writer w;
    w.reserve(sizeof(std::uint64_t) + 2 + wire_writer::str16_bytes(req.model) + ((flags & flag_deadline) ? sizeof(std::uint32_t) : 0)
              + ((flags & flag_trace) ? sizeof(std::uint64_t) : 0) + sizeof(std::uint32_t) + entries);
    w.u64(req.id);
    w.u8(flags);
    w.u8(static_cast<std::uint8_t>(req.cls));
    w.str16(req.model);
    if (flags & flag_deadline) {
        w.u32(static_cast<std::uint32_t>(req.deadline.count()));
    }
    if (flags & flag_trace) {
        w.u64(req.trace_id);
    }
    if (req.sparse) {
        w.u32(static_cast<std::uint32_t>(req.sparse_entries.size()));
        for (const auto &[index, value] : req.sparse_entries) {
            w.u32(index);
            w.f64(value);
        }
    } else {
        w.u32(static_cast<std::uint32_t>(req.dense.size()));
        for (const double v : req.dense) {
            w.f64(v);
        }
    }
    return w.take();
}

std::optional<std::string> decode_request_binary(const std::string &payload, net_request &out) {
    wire_reader r{ payload.data(), payload.size() };
    out = net_request{};
    out.op = request_op::predict;
    out.id = r.u64();
    const std::uint8_t flags = r.u8();
    const std::uint8_t cls = r.u8();
    out.model = r.str16();
    if (cls >= num_request_classes) {
        return "unknown request class " + std::to_string(cls);
    }
    out.cls = static_cast<request_class>(cls);
    if (flags & flag_deadline) {
        out.deadline = std::chrono::microseconds{ r.u32() };
    }
    if (flags & flag_trace) {
        out.trace_id = r.u64();
        if (out.trace_id == 0) {
            return std::string{ "trace flag set but trace id is zero" };
        }
    }
    out.sparse = (flags & flag_sparse) != 0;
    const std::uint32_t count = r.u32();
    if (r.fail()) {
        return std::string{ "truncated request header" };
    }
    if (count > max_request_entries) {
        return "request claims " + std::to_string(count) + " entries (limit " + std::to_string(max_request_entries) + ")";
    }
    // the claimed entries must fit the bytes left before anything is
    // reserved: a short frame cannot make the decoder allocate for a count
    // it never carries
    const std::size_t entry_bytes = out.sparse ? sizeof(std::uint32_t) + sizeof(double) : sizeof(double);
    if (count > r.remaining() / entry_bytes) {
        return "request claims " + std::to_string(count) + " entries but carries " + std::to_string(r.remaining()) + " payload bytes";
    }
    if (out.sparse) {
        out.sparse_entries.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint32_t index = r.u32();
            const double value = r.f64();
            out.sparse_entries.emplace_back(index, value);
        }
    } else {
        out.dense.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
            out.dense.push_back(r.f64());
        }
    }
    if (!r.complete()) {
        return std::string{ r.fail() ? "truncated feature payload" : "trailing bytes after feature payload" };
    }
    return std::nullopt;
}

std::string encode_response_binary(const net_response &resp) {
    wire_writer w;
    // id, status, then the value, the retry-after hint or the error string
    const std::size_t body = resp.status == response_status::ok || resp.status == response_status::retry_after
                                 ? sizeof(std::uint64_t)
                                 : wire_writer::str16_bytes(resp.error);
    w.reserve(sizeof(std::uint64_t) + 1 + body);
    w.u64(resp.id);
    w.u8(static_cast<std::uint8_t>(resp.status));
    switch (resp.status) {
        case response_status::ok:
            w.f64(resp.value);
            break;
        case response_status::retry_after:
            w.u64(resp.retry_after_us);
            break;
        default:
            w.str16(resp.error);
    }
    return w.take();
}

std::optional<std::string> decode_response_binary(const std::string &payload, net_response &out) {
    wire_reader r{ payload.data(), payload.size() };
    out = net_response{};
    out.id = r.u64();
    const std::uint8_t status = r.u8();
    if (status > static_cast<std::uint8_t>(response_status::not_found)) {
        return "unknown response status " + std::to_string(status);
    }
    out.status = static_cast<response_status>(status);
    switch (out.status) {
        case response_status::ok:
            out.value = r.f64();
            break;
        case response_status::retry_after:
            out.retry_after_us = r.u64();
            break;
        default:
            out.error = r.str16();
    }
    if (!r.complete()) {
        return std::string{ "truncated or overlong response payload" };
    }
    return std::nullopt;
}

// ---------------------------------------------------------------------------
// minimal JSON parser (objects, arrays, strings, numbers, bool, null) — just
// enough for one request line; no external dependency, bounded depth
// ---------------------------------------------------------------------------

namespace {

struct json_value {
    enum class kind : std::uint8_t { null, boolean, number, string, array, object };

    kind k{ kind::null };
    bool b{ false };
    double num{ 0.0 };
    std::string str;
    std::vector<json_value> arr;
    std::vector<std::pair<std::string, json_value>> obj;

    [[nodiscard]] const json_value *get(const std::string_view key) const {
        if (k != kind::object) {
            return nullptr;
        }
        for (const auto &[name, value] : obj) {
            if (name == key) {
                return &value;
            }
        }
        return nullptr;
    }
};

class json_parser {
  public:
    json_parser(const char *data, const std::size_t size) :
        p_{ data },
        end_{ data + size } {}

    [[nodiscard]] bool parse(json_value &out) {
        skip_ws();
        if (!parse_value(out, 0)) {
            return false;
        }
        skip_ws();
        return p_ == end_;  // no trailing garbage
    }

    [[nodiscard]] const std::string &error() const noexcept { return error_; }

  private:
    static constexpr int max_depth = 32;

    void skip_ws() {
        while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\r' || *p_ == '\n')) {
            ++p_;
        }
    }

    bool fail(const std::string &msg) {
        if (error_.empty()) {
            error_ = msg;
        }
        return false;
    }

    bool parse_value(json_value &out, const int depth) {
        if (depth > max_depth) {
            return fail("nesting too deep");
        }
        if (p_ == end_) {
            return fail("unexpected end of input");
        }
        switch (*p_) {
            case '{':
                return parse_object(out, depth);
            case '[':
                return parse_array(out, depth);
            case '"':
                out.k = json_value::kind::string;
                return parse_string(out.str);
            case 't':
                if (end_ - p_ >= 4 && std::string_view{ p_, 4 } == "true") {
                    out.k = json_value::kind::boolean;
                    out.b = true;
                    p_ += 4;
                    return true;
                }
                return fail("invalid literal");
            case 'f':
                if (end_ - p_ >= 5 && std::string_view{ p_, 5 } == "false") {
                    out.k = json_value::kind::boolean;
                    out.b = false;
                    p_ += 5;
                    return true;
                }
                return fail("invalid literal");
            case 'n':
                if (end_ - p_ >= 4 && std::string_view{ p_, 4 } == "null") {
                    out.k = json_value::kind::null;
                    p_ += 4;
                    return true;
                }
                return fail("invalid literal");
            default:
                return parse_number(out);
        }
    }

    bool parse_object(json_value &out, const int depth) {
        out.k = json_value::kind::object;
        ++p_;  // '{'
        skip_ws();
        if (p_ != end_ && *p_ == '}') {
            ++p_;
            return true;
        }
        while (true) {
            skip_ws();
            if (p_ == end_ || *p_ != '"') {
                return fail("expected object key");
            }
            std::string key;
            if (!parse_string(key)) {
                return false;
            }
            skip_ws();
            if (p_ == end_ || *p_ != ':') {
                return fail("expected ':'");
            }
            ++p_;
            skip_ws();
            json_value value;
            if (!parse_value(value, depth + 1)) {
                return false;
            }
            out.obj.emplace_back(std::move(key), std::move(value));
            skip_ws();
            if (p_ == end_) {
                return fail("unterminated object");
            }
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == '}') {
                ++p_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool parse_array(json_value &out, const int depth) {
        out.k = json_value::kind::array;
        ++p_;  // '['
        skip_ws();
        if (p_ != end_ && *p_ == ']') {
            ++p_;
            return true;
        }
        while (true) {
            skip_ws();
            json_value value;
            if (!parse_value(value, depth + 1)) {
                return false;
            }
            out.arr.push_back(std::move(value));
            skip_ws();
            if (p_ == end_) {
                return fail("unterminated array");
            }
            if (*p_ == ',') {
                ++p_;
                continue;
            }
            if (*p_ == ']') {
                ++p_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool parse_string(std::string &out) {
        ++p_;  // opening quote
        out.clear();
        while (p_ != end_) {
            const char c = *p_++;
            if (c == '"') {
                return true;
            }
            if (c == '\\') {
                if (p_ == end_) {
                    break;
                }
                const char esc = *p_++;
                switch (esc) {
                    case '"':
                        out += '"';
                        break;
                    case '\\':
                        out += '\\';
                        break;
                    case '/':
                        out += '/';
                        break;
                    case 'n':
                        out += '\n';
                        break;
                    case 't':
                        out += '\t';
                        break;
                    case 'r':
                        out += '\r';
                        break;
                    case 'b':
                        out += '\b';
                        break;
                    case 'f':
                        out += '\f';
                        break;
                    case 'u': {
                        if (end_ - p_ < 4) {
                            return fail("truncated \\u escape");
                        }
                        unsigned code = 0;
                        for (int i = 0; i < 4; ++i) {
                            const char h = *p_++;
                            code <<= 4;
                            if (h >= '0' && h <= '9') {
                                code |= static_cast<unsigned>(h - '0');
                            } else if (h >= 'a' && h <= 'f') {
                                code |= static_cast<unsigned>(h - 'a' + 10);
                            } else if (h >= 'A' && h <= 'F') {
                                code |= static_cast<unsigned>(h - 'A' + 10);
                            } else {
                                return fail("invalid \\u escape");
                            }
                        }
                        // ASCII only; anything above is replaced — model
                        // names and ops are ASCII, this is not a full
                        // UTF-16 surrogate decoder
                        out += code < 0x80 ? static_cast<char>(code) : '?';
                        break;
                    }
                    default:
                        return fail("invalid escape");
                }
                continue;
            }
            out += c;
        }
        return fail("unterminated string");
    }

    bool parse_number(json_value &out) {
        const char *start = p_;
        if (p_ != end_ && (*p_ == '-' || *p_ == '+')) {
            ++p_;
        }
        bool any = false;
        while (p_ != end_ && (std::isdigit(static_cast<unsigned char>(*p_)) || *p_ == '.' || *p_ == 'e' || *p_ == 'E' || *p_ == '-' || *p_ == '+')) {
            ++p_;
            any = true;
        }
        if (!any) {
            return fail("invalid number");
        }
        const std::string text{ start, static_cast<std::size_t>(p_ - start) };
        char *parse_end = nullptr;
        out.num = std::strtod(text.c_str(), &parse_end);
        if (parse_end != text.c_str() + text.size()) {
            return fail("invalid number");
        }
        out.k = json_value::kind::number;
        return true;
    }

    const char *p_;
    const char *end_;
    std::string error_;
};

}  // namespace

std::optional<std::string> parse_request_json(const std::string &line, net_request &out) {
    json_value root;
    json_parser parser{ line.data(), line.size() };
    if (!parser.parse(root)) {
        return "malformed JSON: " + (parser.error().empty() ? std::string{ "parse error" } : parser.error());
    }
    if (root.k != json_value::kind::object) {
        return std::string{ "request must be a JSON object" };
    }
    out = net_request{};

    if (const json_value *id = root.get("id"); id != nullptr && id->k == json_value::kind::number) {
        out.id = static_cast<std::uint64_t>(id->num);
    }

    if (const json_value *op = root.get("op"); op != nullptr) {
        if (op->k != json_value::kind::string) {
            return std::string{ "\"op\" must be a string" };
        }
        if (op->str == "predict") {
            out.op = request_op::predict;
        } else if (op->str == "ready") {
            out.op = request_op::ready;
            return std::nullopt;
        } else if (op->str == "live") {
            out.op = request_op::live;
            return std::nullopt;
        } else if (op->str == "stats") {
            out.op = request_op::stats;
            return std::nullopt;
        } else if (op->str == "metrics") {
            out.op = request_op::metrics;
            return std::nullopt;
        } else if (op->str == "trace") {
            out.op = request_op::trace;
            return std::nullopt;
        } else {
            return "unknown op \"" + op->str + "\"";
        }
    }

    const json_value *model = root.get("model");
    if (model == nullptr || model->k != json_value::kind::string || model->str.empty()) {
        return std::string{ "predict request needs a non-empty \"model\" string" };
    }
    out.model = model->str;

    if (const json_value *cls = root.get("class"); cls != nullptr) {
        if (cls->k == json_value::kind::string) {
            if (cls->str == "interactive") {
                out.cls = request_class::interactive;
            } else if (cls->str == "batch") {
                out.cls = request_class::batch;
            } else if (cls->str == "background") {
                out.cls = request_class::background;
            } else {
                return "unknown request class \"" + cls->str + "\"";
            }
        } else if (cls->k == json_value::kind::number) {
            const auto v = static_cast<long long>(cls->num);
            if (v < 0 || v >= static_cast<long long>(num_request_classes)) {
                return std::string{ "request class out of range" };
            }
            out.cls = static_cast<request_class>(v);
        } else {
            return std::string{ "\"class\" must be a string or number" };
        }
    }

    if (const json_value *deadline = root.get("deadline_us"); deadline != nullptr) {
        if (deadline->k != json_value::kind::number || deadline->num < 0) {
            return std::string{ "\"deadline_us\" must be a non-negative number" };
        }
        out.deadline = std::chrono::microseconds{ static_cast<std::int64_t>(deadline->num) };
    }

    if (const json_value *trace_id = root.get("trace_id"); trace_id != nullptr) {
        if (trace_id->k != json_value::kind::number || trace_id->num < 1) {
            return std::string{ "\"trace_id\" must be a positive number" };
        }
        out.trace_id = static_cast<std::uint64_t>(trace_id->num);
    }

    const json_value *features = root.get("features");
    const json_value *sparse = root.get("sparse");
    if ((features == nullptr) == (sparse == nullptr)) {
        return std::string{ "predict request needs exactly one of \"features\" or \"sparse\"" };
    }
    if (features != nullptr) {
        if (features->k != json_value::kind::array) {
            return std::string{ "\"features\" must be an array of numbers" };
        }
        out.dense.reserve(features->arr.size());
        for (const json_value &v : features->arr) {
            if (v.k != json_value::kind::number) {
                return std::string{ "\"features\" must be an array of numbers" };
            }
            out.dense.push_back(v.num);
        }
    } else {
        if (sparse->k != json_value::kind::array) {
            return std::string{ "\"sparse\" must be an array of [index, value] pairs" };
        }
        out.sparse = true;
        out.sparse_entries.reserve(sparse->arr.size());
        for (const json_value &pair : sparse->arr) {
            if (pair.k != json_value::kind::array || pair.arr.size() != 2
                || pair.arr[0].k != json_value::kind::number || pair.arr[1].k != json_value::kind::number
                || pair.arr[0].num < 0) {
                return std::string{ "\"sparse\" must be an array of [index, value] pairs" };
            }
            out.sparse_entries.emplace_back(static_cast<std::uint32_t>(pair.arr[0].num), pair.arr[1].num);
        }
    }
    return std::nullopt;
}

std::string encode_response_json(const net_response &resp) {
    std::string out = "{\"id\": " + std::to_string(resp.id) + ", \"status\": \"" + std::string{ response_status_to_string(resp.status) } + "\"";
    switch (resp.status) {
        case response_status::ok:
            out += ", \"value\": " + format_double(resp.value);
            break;
        case response_status::retry_after:
            out += ", \"retry_after_us\": " + std::to_string(resp.retry_after_us);
            if (!resp.error.empty()) {
                out += ", \"error\": \"" + json_escape(resp.error) + "\"";
            }
            break;
        default:
            out += ", \"error\": \"" + json_escape(resp.error) + "\"";
    }
    out += "}";
    return out;
}

}  // namespace plssvm::serve::net
