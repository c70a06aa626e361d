/**
 * @file
 * @brief Seeded mutation harness for the wire codecs (gtest prefix
 *        `NetMutation`, so the sanitizer jobs' `Net*` filter runs it).
 *
 * DESCRIPTION:
 * Malformed wire input never crashes, hangs or over-allocates the server.
 * Every codec the net plane runs on client bytes — `decode_request_binary`,
 * `parse_request_json`, `decode_response_binary` and the incremental
 * `frame_decoder` — returns a result or an error message for any input,
 * never throws, and never holds more entries than the bytes it was given
 * can carry; `frame_decoder::next()` reaches `need_more` or a sticky error
 * within a bounded number of calls.
 *
 * STRATEGY:
 * 1. Build a corpus of valid messages: binary requests (dense, sparse, with
 *    a deadline, with a trace id), JSON lines (features, sparse, probes)
 *    and binary responses (every status).
 * 2. Mutate them with a fixed-seed generator — bit flips, byte overwrites,
 *    truncation, insertion and duplicated spans — for a fixed number of
 *    rounds, and feed every mutant to all three message decoders.
 * 3. Concatenate framed messages into multi-message streams, mutate the
 *    stream, split it at random points, and push the pieces through a
 *    `frame_decoder`, draining `next()` after every piece; each decoded
 *    message goes through the message decoders too.
 * 4. Check the properties above on every call; report the first offending
 *    input as hex. The seed and round count are constants, so a failure
 *    replays exactly.
 */

#include "plssvm/serve/net/framing.hpp"
#include "plssvm/serve/net/protocol.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <random>
#include <string>
#include <vector>

namespace {

namespace net = plssvm::serve::net;
using namespace std::chrono_literals;

constexpr std::uint64_t mutation_seed = 0x5EEDF00Dull;
constexpr std::size_t message_rounds = 500000;
constexpr std::size_t stream_rounds = 80000;
/// Per-message bound of the stream decoder; small, so mutated length
/// prefixes and unterminated lines reach `oversized` often.
constexpr std::size_t stream_max_frame_bytes = 512;

/// Binary wire sizes of one dense / sparse request entry.
constexpr std::size_t dense_entry_bytes = 8;
constexpr std::size_t sparse_entry_bytes = 12;

[[nodiscard]] std::string hex(const std::string &bytes) {
    std::string out;
    for (const char c : bytes) {
        char buf[4];
        std::snprintf(buf, sizeof(buf), "%02x", static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buf;
    }
    return out;
}

[[nodiscard]] std::vector<std::string> binary_requests() {
    std::vector<std::string> corpus;
    net::net_request dense;
    dense.id = 7;
    dense.model = "demo";
    dense.dense = { 0.25, -1.5, 3.75, 0.0 };
    corpus.push_back(net::encode_request_binary(dense));
    net::net_request sparse;
    sparse.id = 8;
    sparse.model = "text-v2";
    sparse.cls = plssvm::serve::request_class::batch;
    sparse.sparse = true;
    sparse.sparse_entries = { { 3, 1.5 }, { 17, -0.25 }, { 40000, 2.0 } };
    corpus.push_back(net::encode_request_binary(sparse));
    net::net_request deadline = dense;
    deadline.id = 9;
    deadline.deadline = 2500us;
    corpus.push_back(net::encode_request_binary(deadline));
    net::net_request traced = sparse;
    traced.id = 10;
    traced.cls = plssvm::serve::request_class::background;
    traced.deadline = 800us;
    traced.trace_id = 0xABCDEF;
    corpus.push_back(net::encode_request_binary(traced));
    return corpus;
}

[[nodiscard]] std::vector<std::string> json_lines() {
    return {
        R"({"model": "demo", "id": 12, "class": "background", "deadline_us": 2500, "features": [1.5, -2.0, 0.0]})",
        R"({"model": "m", "class": 1, "sparse": [[4, 0.5], [9, -1.0]], "trace_id": 77})",
        R"({"model": "demo", "features": [1e-3, 2.5E+2, -0.0, 7]})",
        R"({"op": "ready"})",
        R"({"op": "metrics"})",
    };
}

[[nodiscard]] std::vector<std::string> binary_responses() {
    std::vector<std::string> corpus;
    for (const net::response_status status : { net::response_status::ok, net::response_status::retry_after,
                                               net::response_status::failed, net::response_status::bad_request,
                                               net::response_status::not_found }) {
        net::net_response resp;
        resp.id = 99;
        resp.status = status;
        resp.value = 0.625;
        resp.retry_after_us = 1250;
        resp.error = "model not resident";
        corpus.push_back(net::encode_response_binary(resp));
    }
    return corpus;
}

/// Fixed-seed byte mutator.
class mutator {
  public:
    explicit mutator(const std::uint64_t seed) :
        rng_{ seed } {}

    [[nodiscard]] std::size_t below(const std::size_t n) { return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n); }

    [[nodiscard]] char byte() { return static_cast<char>(rng_() & 0xFF); }

    /// Apply one to three mutations to @p bytes.
    [[nodiscard]] std::string mutate(std::string bytes) {
        const std::size_t count = 1 + below(3);
        for (std::size_t m = 0; m < count; ++m) {
            switch (below(5)) {
                case 0:  // bit flip
                    if (!bytes.empty()) {
                        bytes[below(bytes.size())] ^= static_cast<char>(1u << below(8));
                    }
                    break;
                case 1:  // byte overwrite
                    if (!bytes.empty()) {
                        bytes[below(bytes.size())] = byte();
                    }
                    break;
                case 2:  // truncation
                    bytes.resize(below(bytes.size() + 1));
                    break;
                case 3:  // insertion of 1..8 random bytes
                    {
                        std::string inserted(1 + below(8), '\0');
                        for (char &c : inserted) {
                            c = byte();
                        }
                        bytes.insert(below(bytes.size() + 1), inserted);
                    }
                    break;
                default:  // duplicated span
                    if (!bytes.empty()) {
                        const std::size_t begin = below(bytes.size());
                        const std::size_t length = 1 + below(bytes.size() - begin);
                        bytes.insert(below(bytes.size() + 1), bytes.substr(begin, length));
                    }
                    break;
            }
        }
        return bytes;
    }

  private:
    std::mt19937_64 rng_;
};

/// Feeds inputs to the message decoders and records the first violation.
class codec_checker {
  public:
    /// Run every message decoder on @p bytes.
    void check(const std::string &bytes) {
        check_one("decode_request_binary", bytes, [&]() {
            net::net_request req;
            const std::optional<std::string> error = net::decode_request_binary(bytes, req);
            // a hostile count must never turn into entries or reserved
            // storage beyond what the payload carries
            if (req.dense.capacity() > bytes.size() / dense_entry_bytes || req.sparse_entries.capacity() > bytes.size() / sparse_entry_bytes) {
                fail("decode_request_binary holds more entries than the payload carries", bytes);
            }
            return error;
        });
        check_one("parse_request_json", bytes, [&]() {
            net::net_request req;
            const std::optional<std::string> error = net::parse_request_json(bytes, req);
            // every JSON entry takes at least two bytes ("1," / "[1,2],")
            if (2 * req.dense.size() > bytes.size() + 1 || 2 * req.sparse_entries.size() > bytes.size() + 1) {
                fail("parse_request_json holds more entries than the line carries", bytes);
            }
            return error;
        });
        check_one("decode_response_binary", bytes, [&]() {
            net::net_response resp;
            return net::decode_response_binary(bytes, resp);
        });
    }

    void fail(const std::string &what, const std::string &bytes) {
        ++violations_;
        if (first_violation_.empty()) {
            first_violation_ = what + " on input " + hex(bytes);
        }
    }

    [[nodiscard]] std::size_t calls() const noexcept { return calls_; }
    [[nodiscard]] std::size_t accepted() const noexcept { return accepted_; }
    [[nodiscard]] std::size_t violations() const noexcept { return violations_; }
    [[nodiscard]] const std::string &first_violation() const noexcept { return first_violation_; }

  private:
    template <typename Decode>
    void check_one(const char *name, const std::string &bytes, Decode &&decode) {
        ++calls_;
        try {
            const std::optional<std::string> error = decode();
            if (!error.has_value()) {
                ++accepted_;
            } else if (error->empty()) {
                fail(std::string{ name } + " returned an empty error message", bytes);
            }
        } catch (const std::exception &e) {
            fail(std::string{ name } + " threw '" + e.what() + "'", bytes);
        } catch (...) {
            fail(std::string{ name } + " threw a non-standard exception", bytes);
        }
    }

    std::size_t calls_{ 0 };
    std::size_t accepted_{ 0 };
    std::size_t violations_{ 0 };
    std::string first_violation_;
};

TEST(NetMutation, MutatedMessagesNeverThrowOrOverAllocate) {
    std::vector<std::string> corpus = binary_requests();
    for (std::string &line : json_lines()) {
        corpus.push_back(std::move(line));
    }
    for (std::string &resp : binary_responses()) {
        corpus.push_back(std::move(resp));
    }

    codec_checker checker;
    for (const std::string &valid : corpus) {
        checker.check(valid);
    }
    const std::size_t corpus_accepted = checker.accepted();
    EXPECT_EQ(corpus_accepted, corpus.size()) << "each valid corpus message must decode under its own codec";

    mutator mutate{ mutation_seed };
    for (std::size_t round = 0; round < message_rounds; ++round) {
        checker.check(mutate.mutate(corpus[mutate.below(corpus.size())]));
    }
    EXPECT_EQ(checker.violations(), 0u) << checker.first_violation();
    EXPECT_EQ(checker.calls(), 3 * (corpus.size() + message_rounds));
    EXPECT_GT(checker.accepted(), corpus_accepted) << "some mutants must still decode, or the mutations only hit the header";
}

TEST(NetMutation, MutatedStreamsDrainToNeedMoreOrAStickyError) {
    std::vector<std::string> binary_frames;
    for (const std::string &payload : binary_requests()) {
        binary_frames.push_back(net::encode_frame(net::frame_type::request, payload));
    }
    for (const std::string &payload : binary_responses()) {
        binary_frames.push_back(net::encode_frame(net::frame_type::response, payload));
    }
    const std::vector<std::string> lines = json_lines();

    codec_checker checker;
    mutator mutate{ mutation_seed + 1 };
    std::size_t unbounded_drains = 0;
    std::size_t non_sticky_errors = 0;
    std::size_t messages = 0;
    std::size_t errors = 0;
    std::string first_failure;
    for (std::size_t round = 0; round < stream_rounds; ++round) {
        // two to six messages of one wire mode, then mutated as one stream
        const bool binary = mutate.below(2) == 0;
        std::string stream;
        const std::size_t count = 2 + mutate.below(5);
        for (std::size_t m = 0; m < count; ++m) {
            stream += binary ? binary_frames[mutate.below(binary_frames.size())] : lines[mutate.below(lines.size())] + "\n";
        }
        stream = mutate.mutate(std::move(stream));

        net::frame_decoder decoder{ stream_max_frame_bytes };
        std::string out;
        bool broken = false;
        for (std::size_t begin = 0; begin < stream.size() && !broken;) {
            const std::size_t piece = 1 + mutate.below(stream.size() - begin);
            decoder.append(stream.data() + begin, piece);
            begin += piece;
            // each frame or line consumes at least one buffered byte, so a
            // drain takes at most buffered() + 1 calls to stop
            const std::size_t budget = decoder.buffered() + 2;
            std::size_t calls = 0;
            while (true) {
                if (++calls > budget) {
                    ++unbounded_drains;
                    if (first_failure.empty()) {
                        first_failure = "next() did not stop within " + std::to_string(budget) + " calls on stream " + hex(stream);
                    }
                    broken = true;
                    break;
                }
                const net::frame_decoder::status st = decoder.next(out);
                if (st == net::frame_decoder::status::need_more) {
                    break;
                }
                if (st == net::frame_decoder::status::frame || st == net::frame_decoder::status::line) {
                    ++messages;
                    checker.check(out);
                    continue;
                }
                // oversized / bad_magic: the error must stay until the
                // connection is closed, whatever arrives after it
                ++errors;
                decoder.append(stream.data(), stream.size());
                const net::frame_decoder::status again = decoder.next(out);
                if (again == net::frame_decoder::status::need_more || again == net::frame_decoder::status::frame || again == net::frame_decoder::status::line) {
                    ++non_sticky_errors;
                    if (first_failure.empty()) {
                        first_failure = "protocol error was not sticky on stream " + hex(stream);
                    }
                }
                broken = true;
                break;
            }
        }
    }
    EXPECT_EQ(unbounded_drains, 0u) << first_failure;
    EXPECT_EQ(non_sticky_errors, 0u) << first_failure;
    EXPECT_EQ(checker.violations(), 0u) << checker.first_violation();
    EXPECT_GT(messages, 0u) << "mutated streams must still carry decodable messages";
    EXPECT_GT(errors, 0u) << "mutated streams must reach the sticky protocol errors";
}

}  // namespace
