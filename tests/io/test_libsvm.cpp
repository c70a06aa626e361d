/**
 * @file
 * @brief Tests of the LIBSVM data file parser/writer: sparse densification,
 *        error handling (file line numbers, error order, widths that can't
 *        be sized), write/read round trips, bit-identical parity of a large
 *        sparse file at one thread and at the default OpenMP thread count,
 *        and the file reader (line numbers, regular files and pipes).
 */

#include "io/io_test_utils.hpp"

#include "plssvm/exceptions.hpp"
#include "plssvm/io/file_reader.hpp"
#include "plssvm/io/libsvm.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>   // fcntl, F_SETPIPE_SZ
#include <unistd.h>  // pipe, write, close

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace {

using plssvm::io::file_reader;
using plssvm::io::parse_libsvm;
using plssvm::test::scoped_omp_threads;

[[nodiscard]] file_reader make_reader(const std::string &content) {
    return file_reader::from_string(content);
}

/// The message of the invalid_file_format_exception parsing @p content
/// throws; empty if it throws none.
template <typename T = double>
[[nodiscard]] std::string format_error(const std::string &content) {
    try {
        (void) parse_libsvm<T>(make_reader(content));
    } catch (const plssvm::invalid_file_format_exception &e) {
        return e.what();
    }
    return {};
}

TEST(LibsvmParser, ParsesLabeledSparseLines) {
    const auto result = parse_libsvm<double>(make_reader("1 1:0.5 3:2.0\n-1 2:1.5\n"));
    EXPECT_TRUE(result.has_labels);
    ASSERT_EQ(result.points.num_rows(), 2U);
    ASSERT_EQ(result.points.num_cols(), 3U);
    EXPECT_DOUBLE_EQ(result.points(0, 0), 0.5);
    EXPECT_DOUBLE_EQ(result.points(0, 1), 0.0);  // densified zero
    EXPECT_DOUBLE_EQ(result.points(0, 2), 2.0);
    EXPECT_DOUBLE_EQ(result.points(1, 1), 1.5);
    EXPECT_DOUBLE_EQ(result.labels[0], 1.0);
    EXPECT_DOUBLE_EQ(result.labels[1], -1.0);
}

TEST(LibsvmParser, ParsesUnlabeledLines) {
    const auto result = parse_libsvm<double>(make_reader("1:1.0 2:2.0\n1:3.0\n"));
    EXPECT_FALSE(result.has_labels);
    EXPECT_TRUE(result.labels.empty());
    EXPECT_EQ(result.points.num_rows(), 2U);
    EXPECT_EQ(result.points.num_cols(), 2U);
}

TEST(LibsvmParser, SkipsCommentsAndEmptyLines) {
    const auto result = parse_libsvm<double>(make_reader("# header comment\n\n1 1:1\n\n# tail\n-1 1:2\n"));
    EXPECT_EQ(result.points.num_rows(), 2U);
}

TEST(LibsvmParser, AcceptsRealValuedLabels) {
    const auto result = parse_libsvm<double>(make_reader("3.5 1:1\n-2.25 1:2\n"));
    EXPECT_DOUBLE_EQ(result.labels[0], 3.5);
    EXPECT_DOUBLE_EQ(result.labels[1], -2.25);
}

TEST(LibsvmParser, MinNumFeaturesExtendsWidth) {
    const auto result = parse_libsvm<double>(make_reader("1 1:1\n"), 5);
    EXPECT_EQ(result.points.num_cols(), 5U);
}

TEST(LibsvmParser, EmptyFileThrows) {
    EXPECT_THROW((void) parse_libsvm<double>(make_reader("")), plssvm::invalid_data_exception);
    EXPECT_THROW((void) parse_libsvm<double>(make_reader("# only comments\n")), plssvm::invalid_data_exception);
}

TEST(LibsvmParser, MixedLabeledUnlabeledThrows) {
    EXPECT_THROW((void) parse_libsvm<double>(make_reader("1 1:1\n1:2\n")), plssvm::invalid_file_format_exception);
}

TEST(LibsvmParser, NonAscendingIndicesThrow) {
    EXPECT_THROW((void) parse_libsvm<double>(make_reader("1 3:1 2:1\n")), plssvm::invalid_file_format_exception);
    EXPECT_THROW((void) parse_libsvm<double>(make_reader("1 2:1 2:2\n")), plssvm::invalid_file_format_exception);
}

TEST(LibsvmParser, ZeroOrNegativeIndicesThrow) {
    EXPECT_THROW((void) parse_libsvm<double>(make_reader("1 0:1\n")), plssvm::invalid_file_format_exception);
    EXPECT_THROW((void) parse_libsvm<double>(make_reader("1 -2:1\n")), plssvm::invalid_file_format_exception);
}

TEST(LibsvmParser, MalformedValueThrows) {
    EXPECT_THROW((void) parse_libsvm<double>(make_reader("1 1:abc\n")), plssvm::invalid_file_format_exception);
    EXPECT_THROW((void) parse_libsvm<double>(make_reader("xyz 1:1\n")), plssvm::invalid_file_format_exception);
    EXPECT_THROW((void) parse_libsvm<double>(make_reader("1 1\n")), plssvm::invalid_file_format_exception);
}

TEST(LibsvmParser, ErrorNamesTheFileLineNumber) {
    // comments and blank lines are skipped but still counted
    const std::string error = format_error("# comment\n\n1 1:0.5\n-1 1:abc\n");
    EXPECT_NE(error.find("Line 4:"), std::string::npos) << error;
}

TEST(LibsvmParser, LineErrorsComeBeforeMixedLabelsAndNoFeatures) {
    // a mixed file whose third line is also malformed reports the line
    std::string error = format_error("1 1:1\n1:2\n-1 1:abc\n");
    EXPECT_NE(error.find("Line 3:"), std::string::npos) << error;
    // a file without features whose third line is malformed reports the line
    error = format_error("1\n-1\nabc\n");
    EXPECT_NE(error.find("Line 3:"), std::string::npos) << error;
    EXPECT_THROW((void) parse_libsvm<double>(make_reader("1\n-1\n")), plssvm::invalid_data_exception);
}

TEST(LibsvmParser, WidthThatCannotBeSizedThrows) {
    // 4 rows x (2^62 + 1) columns wraps to 4 entries in 64-bit arithmetic
    const std::string content = "1 1:1\n-1 2:1\n1 3:1\n-1 4611686018427387905:1\n";
    std::string error = format_error<double>(content);
    EXPECT_NE(error.find("Line 4:"), std::string::npos) << error;
    error = format_error<float>(content);
    EXPECT_NE(error.find("Line 4:"), std::string::npos) << error;
    // the same index on a valid line's last token, after a malformed token,
    // reports the malformed token instead
    error = format_error<double>("1 1:1\n-1 2:x 4611686018427387905:1\n");
    EXPECT_NE(error.find("Line 2: invalid feature value 'x'"), std::string::npos) << error;
}

TEST(LibsvmParser, IndexBeyondTheWidthIsNeverWritten) {
    // line 2's last token has no valid index, so pass 1 reads its width as 0
    // and index 7 lies beyond the width 1; the malformed token is reported
    const std::string error = format_error("1 1:1\n-1 7:1 bad:1\n");
    EXPECT_NE(error.find("Line 2: feature indices must be positive integers, got 'bad'"), std::string::npos) << error;
}

TEST(LibsvmParser, LineWithOnlyLabel) {
    // legal: a point whose features are all zero
    const auto result = parse_libsvm<double>(make_reader("1 1:1\n-1\n"));
    EXPECT_EQ(result.points.num_rows(), 2U);
    EXPECT_DOUBLE_EQ(result.points(1, 0), 0.0);
}

TEST(LibsvmWriter, SparseRoundTrip) {
    plssvm::aos_matrix<double> points{ 2, 3 };
    points(0, 0) = 1.5;
    points(1, 2) = -2.5;
    const std::vector<double> labels{ 1.0, -1.0 };
    const std::string written = plssvm::io::write_libsvm_string(points, &labels, /*sparse=*/true);
    // zeros must be omitted in sparse mode
    EXPECT_EQ(written.find("2:0"), std::string::npos);

    const auto reparsed = parse_libsvm<double>(make_reader(written));
    EXPECT_EQ(reparsed.points, points);
    EXPECT_EQ(reparsed.labels, labels);
}

TEST(LibsvmWriter, DenseWritesAllFeatures) {
    plssvm::aos_matrix<double> points{ 1, 3 };
    points(0, 1) = 4.0;
    const std::string written = plssvm::io::write_libsvm_string<double>(points, nullptr, /*sparse=*/false);
    EXPECT_NE(written.find("1:0"), std::string::npos);
    EXPECT_NE(written.find("2:4"), std::string::npos);
    EXPECT_NE(written.find("3:0"), std::string::npos);
}

TEST(LibsvmWriter, RoundTripPreservesDoublePrecision) {
    plssvm::aos_matrix<double> points{ 1, 1 };
    points(0, 0) = 0.1234567890123456789;  // not exactly representable
    const std::string written = plssvm::io::write_libsvm_string<double>(points, nullptr);
    const auto reparsed = parse_libsvm<double>(make_reader(written));
    EXPECT_DOUBLE_EQ(reparsed.points(0, 0), points(0, 0));
}

TEST(LibsvmWriter, LabelCountMismatchThrows) {
    plssvm::aos_matrix<double> points{ 2, 1 };
    const std::vector<double> labels{ 1.0 };
    EXPECT_THROW((void) plssvm::io::write_libsvm_string(points, &labels), plssvm::invalid_data_exception);
}

TEST(FileReader, MissingFileThrows) {
    EXPECT_THROW(file_reader{ "/nonexistent/path/data.libsvm" }, plssvm::file_not_found_exception);
}

TEST(FileReader, SplitsAndTrimsLines) {
    const auto reader = file_reader::from_string("  line1  \r\n\nline2\n# comment\n");
    ASSERT_EQ(reader.num_lines(), 2U);
    EXPECT_EQ(reader.line(0), "line1");
    EXPECT_EQ(reader.line(1), "line2");
}

TEST(FileReader, KeepsFileLineNumbers) {
    const auto reader = file_reader::from_string("# c\n\nA\n \t\nB\r\n# d\nC");
    ASSERT_EQ(reader.num_lines(), 3U);
    EXPECT_EQ(reader.line(2), "C");
    EXPECT_EQ(reader.line_number(0), 3U);
    EXPECT_EQ(reader.line_number(1), 5U);
    EXPECT_EQ(reader.line_number(2), 7U);
}

TEST(FileReader, MovedReaderKeepsItsLines) {
    // a short buffer: a string would keep it inside the moved-from object
    file_reader source = file_reader::from_string("ab\ncd");
    const file_reader moved = std::move(source);
    source = file_reader::from_string("xy\nzw");
    ASSERT_EQ(moved.num_lines(), 2U);
    EXPECT_EQ(moved.line(0), "ab");
    EXPECT_EQ(moved.line(1), "cd");
}

/// Lines of @p count distinct numbered records, about 20 bytes each.
[[nodiscard]] std::string numbered_lines(const std::size_t count) {
    std::string text;
    for (std::size_t i = 0; i < count; ++i) {
        text += "record " + std::to_string(i) + " 1:0.5\n";
    }
    return text;
}

TEST(FileReader, ReadsARegularFile) {
    // larger than the first buffer of an input that is read (64 KiB): a
    // regular file is mapped whole
    const std::string text = numbered_lines(10000);
    const std::string path = "/tmp/plssvm_test_file_reader.txt";
    std::ofstream{ path, std::ios::binary } << text;
    const file_reader reader{ path };
    std::remove(path.c_str());
    ASSERT_EQ(reader.num_lines(), 10000U);
    EXPECT_EQ(reader.line(9999), "record 9999 1:0.5");
    EXPECT_EQ(reader.line_number(9999), 10000U);
}

TEST(FileReader, MovedFileReaderKeepsItsLines) {
    // a regular file is mapped: the views point into the mapping, which the
    // move hands over and the move assignment over the source must not touch
    const std::string path = "/tmp/plssvm_test_file_reader_move.txt";
    std::ofstream{ path, std::ios::binary } << numbered_lines(3);
    file_reader source{ path };
    std::remove(path.c_str());
    const file_reader moved = std::move(source);
    source = file_reader::from_string("xy\nzw");
    ASSERT_EQ(moved.num_lines(), 3U);
    EXPECT_EQ(moved.line(0), "record 0 1:0.5");
    EXPECT_EQ(moved.line(2), "record 2 1:0.5");
    EXPECT_EQ(source.line(1), "zw");
}

TEST(FileReader, ReadsAnEmptyFile) {
    // an empty regular file has nothing to map and is read instead
    const std::string path = "/tmp/plssvm_test_file_reader_empty.txt";
    std::ofstream{ path, std::ios::binary }.flush();
    const file_reader reader{ path };
    std::remove(path.c_str());
    EXPECT_EQ(reader.num_lines(), 0U);
}

TEST(FileReader, ReadsAPipeOfUnknownSize) {
    // a pipe reports no size: the buffer starts at 64 KiB and must grow.
    // The pipe is made large enough to hold the whole text, so it is
    // written and closed before it is read and no second thread is needed.
    const std::string text = numbered_lines(8000);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_GE(::fcntl(fds[1], F_SETPIPE_SZ, 1 << 18), static_cast<int>(text.size()));
    ASSERT_EQ(::write(fds[1], text.data(), text.size()), static_cast<ssize_t>(text.size()));
    ::close(fds[1]);
    const file_reader reader{ "/proc/self/fd/" + std::to_string(fds[0]) };
    ::close(fds[0]);
    ASSERT_EQ(reader.num_lines(), 8000U);
    EXPECT_EQ(reader.line(0), "record 0 1:0.5");
    EXPECT_EQ(reader.line(7999), "record 7999 1:0.5");
}

/// A generated sparse LIBSVM file and the dense matrix it must parse into.
template <typename T>
struct sparse_file {
    std::string text;
    plssvm::aos_matrix<T> points;
    std::vector<T> labels;
    std::size_t min_num_features{ 0 };
};

template <typename T>
void append_number(std::string &text, const T value) {
    char buffer[64];
    const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
    ASSERT_EQ(ec, std::errc{});
    text.append(buffer, end);
}

/**
 * @brief 4099 labeled lines (not a multiple of any chunk size) with random
 *        index gaps, label-only lines, comments, blank and whitespace-only
 *        lines, CRLF ends and trailing spaces. No line reaches the last 23 of
 *        `min_num_features` columns, so those columns come from the caller's
 *        lower bound alone. Values are written in their shortest round-trip
 *        form, so the parsed matrix must equal the generated one bit for bit.
 */
template <typename T>
[[nodiscard]] sparse_file<T> make_sparse_file(const std::uint64_t seed) {
    constexpr std::size_t num_rows = 4099;
    constexpr std::size_t file_width = 97;
    sparse_file<T> file;
    file.min_num_features = file_width + 23;
    file.points = plssvm::aos_matrix<T>{ num_rows, file.min_num_features };
    file.labels.resize(num_rows);
    std::mt19937_64 rng{ seed };
    std::uniform_real_distribution<T> value_dist{ T{ -100 }, T{ 100 } };
    for (std::size_t row = 0; row < num_rows; ++row) {
        switch (rng() % 16) {
            case 0:
                file.text += "# comment before row " + std::to_string(row) + "\n";
                break;
            case 1:
                file.text += "\n";
                break;
            case 2:
                file.text += " \t \r\n";
                break;
            default:
                break;
        }
        file.labels[row] = static_cast<T>(static_cast<int>(rng() % 5) - 2) + T{ 0.25 };
        append_number(file.text, file.labels[row]);
        // one line in 16 carries its label only; row 7 reaches the file width
        const bool label_only = rng() % 16 == 0 && row != 7;
        const std::size_t end = row == 7 ? file_width - 1 : file_width;
        for (std::size_t col = rng() % 4; !label_only && col < end; col += 1 + rng() % 9) {
            T value = value_dist(rng);
            if (value == T{ 0 }) {
                value = T{ 1 };
            }
            file.points(row, col) = value;
            file.text += ' ' + std::to_string(col + 1) + ':';
            append_number(file.text, value);
        }
        if (row == 7) {
            file.points(row, file_width - 1) = T{ 3 };
            file.text += ' ' + std::to_string(file_width) + ":3";
        }
        file.text += rng() % 4 == 0 ? " \r\n" : "\n";
    }
    return file;
}

template <typename T>
class LibsvmParity : public ::testing::Test {};

using parity_types = ::testing::Types<float, double>;
TYPED_TEST_SUITE(LibsvmParity, parity_types);

TYPED_TEST(LibsvmParity, SparseFileRoundTripsBitIdentically) {
    using T = TypeParam;
    const sparse_file<T> file = make_sparse_file<T>(0x11B5F11Eull);
    const file_reader reader = file_reader::from_string(file.text);
    ASSERT_GE(reader.num_lines(), 4096U);

    const auto check = [&](const char *threads) {
        const auto parsed = parse_libsvm<T>(reader, file.min_num_features);
        ASSERT_TRUE(parsed.has_labels) << threads;
        ASSERT_EQ(parsed.points.num_rows(), file.points.num_rows()) << threads;
        ASSERT_EQ(parsed.points.num_cols(), file.min_num_features) << threads;
        EXPECT_EQ(std::memcmp(parsed.points.data().data(), file.points.data().data(), file.points.data().size() * sizeof(T)), 0) << threads;
        ASSERT_EQ(parsed.labels.size(), file.labels.size()) << threads;
        EXPECT_EQ(std::memcmp(parsed.labels.data(), file.labels.data(), file.labels.size() * sizeof(T)), 0) << threads;
    };
    {
        const scoped_omp_threads one{ 1 };
        check("1 thread");
    }
    check("default thread count");
}

TEST(LibsvmParser, FirstOfTwoBadLinesIsReportedAtEveryThreadCount) {
    // rows 63 and 64 end and start two chunks of lines, so a second thread
    // may reach the later bad line first; rows 100 and 4000 are far apart
    for (const auto &[first_bad, second_bad] : { std::pair<std::size_t, std::size_t>{ 63, 64 }, std::pair<std::size_t, std::size_t>{ 100, 4000 } }) {
        std::string text = "# two bad lines\n";
        for (std::size_t row = 0; row < 4200; ++row) {
            if (row == first_bad) {
                text += "1 1:0.5 2:oops\n";
            } else if (row == second_bad) {
                text += "bad 1:0.5\n";
            } else {
                text += (row % 2 == 0 ? "1" : "-1") + std::string{ " 1:0.5 3:1.5\n" };
            }
        }
        const file_reader reader = file_reader::from_string(text);
        // the comment is file line 1, so row r is file line r + 2
        const std::string expected = "Line " + std::to_string(first_bad + 2) + ": invalid feature value 'oops'";
        // 0 stands for the default count; each count runs a few times, so
        // the threads reach the two lines in more than one order
        for (const int threads : { 1, 2, 3, 4, 8, 0 }) {
            std::optional<scoped_omp_threads> scope;
            if (threads > 0) {
                scope.emplace(threads);
            }
            for (int repeat = 0; repeat < 5; ++repeat) {
                std::string error;
                try {
                    (void) parse_libsvm<double>(reader);
                } catch (const plssvm::invalid_file_format_exception &e) {
                    error = e.what();
                }
                EXPECT_NE(error.find(expected), std::string::npos) << threads << " threads (0: default): '" << error << "'";
            }
        }
    }
}

}  // namespace
