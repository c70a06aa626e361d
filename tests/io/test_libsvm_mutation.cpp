/**
 * @file
 * @brief Seeded mutation harness for the LIBSVM parser (gtest prefix
 *        `LibsvmMutation`, so the ASan job's `Libsvm*` filter runs it).
 *
 * DESCRIPTION:
 * Malformed data files never crash the parser or make it write outside the
 * dense matrix, although it writes every row by an index read from the file.
 * For any input, `parse_libsvm` returns a consistent dense matrix or throws a
 * plssvm exception, and it returns the same matrix or the same error at one
 * OpenMP thread and at the default count.
 *
 * STRATEGY:
 * 1. Build a corpus of valid files: labeled and unlabeled, with comments,
 *    blank lines, label-only lines, CRLF line ends, tabs and exponents,
 *    and one of more lines than one chunk, which the parser parses in
 *    parallel (it parses a file of one chunk serially).
 * 2. Mutate them with a fixed-seed generator — bit flips, insertion of
 *    random bytes or of bytes of the format's alphabet, deletion of spans,
 *    and replacement of an index by a huge, overflowing, zero or negative
 *    one — and parse every mutant as float and as double, at one thread and
 *    at the default count.
 * 3. Check the properties above on every parse; report the first offending
 *    input. The seed and round count are constants, so a failure replays
 *    exactly.
 *
 * A mutant whose digits could make a legal but large dense matrix (more
 * than `dense_budget_bytes`) is not parsed: densifying it is correct and
 * would only spend the test host's memory. The fixed seed produces none,
 * which the test asserts, so every mutant is parsed.
 */

#include "io/io_test_utils.hpp"

#include "plssvm/exceptions.hpp"
#include "plssvm/io/file_reader.hpp"
#include "plssvm/io/libsvm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace {

using plssvm::io::file_reader;
using plssvm::io::parse_libsvm;
using plssvm::test::scoped_omp_threads;

constexpr std::uint64_t mutation_seed = 0x11B5F00Dull;
constexpr std::size_t mutation_rounds = 5000;
/// Every this many rounds mutate the corpus file of several chunks (the
/// last), whose parallel parses cost the most where the suite shares the
/// cores; the other rounds pick one of the small files.
constexpr std::size_t chunked_file_every = 25;
/// Largest dense matrix a mutant may need before it is parsed.
constexpr std::uint64_t dense_budget_bytes = std::uint64_t{ 64 } << 20;

[[nodiscard]] std::vector<std::string> corpus() {
    std::vector<std::string> files{
        "1 1:0.5 3:2.0\n-1 2:1.5\n1 1:-0.25 2:4 4:1e-3\n",
        "# labeled, with comments and blank lines\n\n1 1:1\n\n# tail\n-1 1:2 5:3.5\n1\n",
        "1:1.0 2:2.0\n1:3.0 7:-1.5E+2\n3:0.125\n",
        "3.5 1:1 2:2 3:3 4:4 5:5 6:6 7:7 8:8\r\n-2.25 2:0.5 8:1\r\n0 1:0\r\n",
        "1 1:\t1 2:2\n-1 1:0.5  3:0.75 \n1 2:1\t 3:2\t\n",
        "-1 10:1 20:2 30:3\n1 5:0.5\n-1 40:-0.0625\n1\n-1\n",
    };
    // more lines than one chunk of the parser (64), so its mutants take the
    // parallel passes; small numbers only, so inserted digits stay within
    // the dense budget
    std::string chunks;
    for (int line = 0; line < 150; ++line) {
        chunks += line % 2 == 0 ? "1 1:0.5 " : "-1 2:1.5 ";
        chunks += std::to_string(3 + line % 7) + ":-2 40:0.25\n";
    }
    files.push_back(std::move(chunks));
    return files;
}

/// Indices that are too large for any dense matrix, overflow a `long`, or
/// are not positive.
[[nodiscard]] std::vector<std::string> hostile_indices() {
    return {
        "4611686018427387905",   // 2^62 + 1: rows * width wraps
        "9223372036854775807",   // LONG_MAX
        "9223372036854775808",   // LONG_MAX + 1
        "18446744073709551621",  // 2^64 + 5
        "99999999999999999999999999",
        "0",
        "-1",
        "-9223372036854775808",
    };
}

/// Fixed-seed byte mutator.
class mutator {
  public:
    explicit mutator(const std::uint64_t seed) :
        rng_{ seed } {}

    [[nodiscard]] std::size_t below(const std::size_t n) { return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n); }

    /// Apply one to three byte mutations to @p text, and then, in one
    /// mutant out of four, put a hostile index in place of an index (last,
    /// so no byte mutation shortens it into a legal one).
    [[nodiscard]] std::string mutate(std::string text) {
        static constexpr std::string_view alphabet = "0123456789:.-+eE \t\r\n#";
        const std::size_t count = 1 + below(3);
        for (std::size_t m = 0; m < count; ++m) {
            switch (below(4)) {
                case 0:  // bit flip
                    if (!text.empty()) {
                        text[below(text.size())] ^= static_cast<char>(1u << below(8));
                    }
                    break;
                case 1:  // insertion of 1..3 random bytes
                    {
                        std::string inserted(1 + below(3), '\0');
                        for (char &c : inserted) {
                            c = static_cast<char>(rng_() & 0xFF);
                        }
                        text.insert(below(text.size() + 1), inserted);
                    }
                    break;
                case 2:  // insertion of one byte of the format's alphabet
                    text.insert(below(text.size() + 1), 1, alphabet[below(alphabet.size())]);
                    break;
                default:  // deletion of a span of 1..8 bytes
                    if (!text.empty()) {
                        const std::size_t begin = below(text.size());
                        text.erase(begin, 1 + below(8));
                    }
                    break;
            }
        }
        if (below(4) == 0) {
            replace_index(text);
        }
        return text;
    }

  private:
    /// Replace the digits before a randomly chosen ':' by a hostile index.
    void replace_index(std::string &text) {
        std::vector<std::size_t> colons;
        for (std::size_t i = 0; i < text.size(); ++i) {
            if (text[i] == ':') {
                colons.push_back(i);
            }
        }
        if (colons.empty()) {
            return;
        }
        const std::size_t colon = colons[below(colons.size())];
        std::size_t begin = colon;
        while (begin > 0 && text[begin - 1] >= '0' && text[begin - 1] <= '9') {
            --begin;
        }
        const std::vector<std::string> indices = hostile_indices();
        text.replace(begin, colon - begin, indices[below(indices.size())]);
    }

    std::mt19937_64 rng_;
};

/**
 * @brief Whether the dense matrix parsed from @p text takes at most
 *        `dense_budget_bytes` as doubles, whatever the text parses into.
 *
 * Every accepted index is a run of digits and every row is a line. A run
 * above 2^61 is left out: no matrix of floats or doubles can hold that
 * index, so the parser rejects it before it allocates.
 */
[[nodiscard]] bool densifies_within_budget(const std::string &text) {
    constexpr std::uint64_t beyond_any_matrix = std::uint64_t{ 1 } << 61;
    std::uint64_t lines = 1;
    std::uint64_t widest = 0;
    std::uint64_t run = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i < text.size() && text[i] >= '0' && text[i] <= '9') {
            run = run > beyond_any_matrix / 10 ? beyond_any_matrix + 1 : 10 * run + static_cast<std::uint64_t>(text[i] - '0');
            continue;
        }
        if (run <= beyond_any_matrix) {
            widest = std::max(widest, run);
        }
        run = 0;
        lines += i < text.size() && text[i] == '\n' ? 1 : 0;
    }
    return widest <= dense_budget_bytes / sizeof(double) / lines;
}

/// What one parse produced: a matrix or an error.
template <typename T>
struct outcome {
    bool parsed{ false };
    /// Whether the error is a plssvm exception, the only kind allowed.
    bool plssvm_error{ false };
    std::string error;
    plssvm::io::libsvm_parse_result<T> result;
};

/// Parses mutants and records the first violation.
class parse_checker {
  public:
    void check(const std::string &text) {
        if (!densifies_within_budget(text)) {
            ++skipped_;
            return;
        }
        check_type<float>(text);
        check_type<double>(text);
    }

    [[nodiscard]] std::size_t parses() const noexcept { return parses_; }
    [[nodiscard]] std::size_t accepted() const noexcept { return accepted_; }
    [[nodiscard]] std::size_t skipped() const noexcept { return skipped_; }
    [[nodiscard]] std::size_t violations() const noexcept { return violations_; }
    [[nodiscard]] const std::string &first_violation() const noexcept { return first_violation_; }

  private:
    template <typename T>
    [[nodiscard]] outcome<T> parse(const file_reader &reader) {
        ++parses_;
        outcome<T> out;
        try {
            out.result = parse_libsvm<T>(reader);
            out.parsed = true;
        } catch (const plssvm::exception &e) {
            out.plssvm_error = true;
            out.error = e.what();
        } catch (const std::exception &e) {
            out.error = std::string{ "threw a non-plssvm exception: " } + e.what();
        } catch (...) {
            out.error = "threw a non-standard exception";
        }
        return out;
    }

    template <typename T>
    void check_type(const std::string &text) {
        const file_reader reader = file_reader::from_string(text);
        const outcome<T> by_default = parse<T>(reader);
        outcome<T> by_one;
        {
            const scoped_omp_threads one{ 1 };
            by_one = parse<T>(reader);
        }
        for (const outcome<T> *out : std::array<const outcome<T> *, 2>{ &by_default, &by_one }) {
            if (!out->parsed) {
                if (!out->plssvm_error || out->error.empty()) {
                    fail(out->plssvm_error ? "threw a plssvm exception without a message" : out->error, text);
                }
                continue;
            }
            const auto &r = out->result;
            if (r.points.num_rows() == 0 || r.points.num_cols() == 0 || r.points.data().size() != r.points.num_rows() * r.points.num_cols()
                || r.labels.size() != (r.has_labels ? r.points.num_rows() : 0)) {
                fail("inconsistent parse result", text);
            }
        }
        if (by_default.parsed != by_one.parsed || by_default.error != by_one.error
            || (by_default.parsed && (by_default.result.points != by_one.result.points || by_default.result.labels != by_one.result.labels))) {
            fail("the default thread count and one thread disagree", text);
        }
        accepted_ += by_default.parsed ? 1 : 0;
    }

    void fail(const std::string &what, const std::string &text) {
        ++violations_;
        if (first_violation_.empty()) {
            first_violation_ = what + " on input '" + text + "'";
        }
    }

    std::size_t parses_{ 0 };
    std::size_t accepted_{ 0 };
    std::size_t skipped_{ 0 };
    std::size_t violations_{ 0 };
    std::string first_violation_;
};

TEST(LibsvmMutation, MutatedFilesParseOrThrowAPlssvmException) {
    const std::vector<std::string> valid = corpus();
    parse_checker checker;
    for (const std::string &text : valid) {
        checker.check(text);
    }
    ASSERT_EQ(checker.violations(), 0u) << checker.first_violation();
    EXPECT_EQ(checker.accepted(), 2 * valid.size()) << "each valid corpus file must parse as float and as double";
    const std::size_t corpus_accepted = checker.accepted();

    mutator mutate{ mutation_seed };
    for (std::size_t round = 0; round < mutation_rounds; ++round) {
        const std::size_t file = round % chunked_file_every == 0 ? valid.size() - 1 : mutate.below(valid.size() - 1);
        checker.check(mutate.mutate(valid[file]));
    }
    EXPECT_EQ(checker.violations(), 0u) << checker.first_violation();
    EXPECT_EQ(checker.skipped(), 0u) << "the fixed seed must parse every mutant";
    EXPECT_EQ(checker.parses(), 4 * (valid.size() + mutation_rounds - checker.skipped()));
    EXPECT_GT(checker.accepted(), corpus_accepted) << "some mutants must still parse, or the mutations only break the syntax";
}

}  // namespace
