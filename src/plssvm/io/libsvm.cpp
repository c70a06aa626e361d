#include "plssvm/io/libsvm.hpp"

#include "plssvm/detail/string_utils.hpp"
#include "plssvm/exceptions.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstddef>
#include <exception>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace plssvm::io {

namespace {

/// Lines per chunk of pass 2's dynamic schedule: a thread that stalls holds
/// back one chunk, not its static share of the file.
constexpr std::size_t lines_per_chunk = 64;

/// The dense matrix pass 2 writes into.
struct dense_shape {
    std::size_t num_rows;
    /// Columns allocated: the width pass 1 found.
    std::size_t width;
    /// Widest matrix of `num_rows` rows a `std::vector` can size; a wider one
    /// would wrap `num_rows * width`.
    std::size_t max_width;
};

[[nodiscard]] invalid_file_format_exception line_error(const std::size_t line_number, const std::string &what) {
    return invalid_file_format_exception{ "Line " + std::to_string(line_number) + ": " + what };
}

/// The token of @p line that starts at or after @p pos, which moves past it;
/// empty at the end of the line. Tokens are separated by runs of spaces; other
/// whitespace stays in a token and is trimmed when a number is converted.
[[nodiscard]] std::string_view next_token(const std::string_view line, std::size_t &pos) noexcept {
    while (pos < line.size() && line[pos] == ' ') {
        ++pos;
    }
    const std::size_t begin = pos;
    pos = std::min(line.find(' ', begin), line.size());
    return line.substr(begin, pos - begin);
}

/// Parse @p text into @p out as `detail::convert_to_safe` does (it trims
/// whitespace first), but call `from_chars` inline for a bare number.
template <typename N>
[[nodiscard]] bool parse_number(const std::string_view text, N &out) noexcept {
    const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
    return (ec == std::errc{} && ptr == text.data() + text.size()) || detail::convert_to_safe(text, out);
}

/// Pass 1: the feature index of the last token of the (trimmed) @p line, or 0
/// if that token is the label or has no valid index. Indices ascend strictly,
/// so this is a valid line's largest index; pass 2 reports an invalid line.
[[nodiscard]] std::size_t last_index(const std::string_view line) noexcept {
    const std::size_t space = line.rfind(' ');
    const std::string_view token = space == std::string_view::npos ? line : line.substr(space + 1);
    const std::size_t colon = token.find(':');
    long index{};
    if (colon == std::string_view::npos || !parse_number(token.substr(0, colon), index) || index <= 0) {
        return 0;
    }
    return static_cast<std::size_t>(index);
}

/**
 * @brief Pass 2: parse @p line into @p row, a zeroed row of `shape.width`
 *        entries, and its label (if any) into @p label.
 * @return whether the line carries a label
 * @throws plssvm::invalid_file_format_exception naming @p line_number at the
 *         first malformed token
 *
 * An index above `shape.width` is never written. Pass 1 found a smaller last
 * index for this line (or none), so a later token is malformed and throws.
 */
template <typename T>
bool parse_line(const std::string_view line, const std::size_t line_number, const dense_shape &shape, T *row, T &label) {
    std::size_t pos = 0;
    std::string_view token = next_token(line, pos);
    bool has_label = false;

    // A token without ':' in front position is the label.
    if (!token.empty() && token.find(':') == std::string_view::npos) {
        if (!parse_number(token, label)) {
            throw line_error(line_number, "invalid label '" + std::string{ token } + "'!");
        }
        has_label = true;
        token = next_token(line, pos);
    }

    long previous_index = 0;
    for (; !token.empty(); token = next_token(line, pos)) {
        const std::size_t colon = token.find(':');
        if (colon == std::string_view::npos) {
            throw line_error(line_number, "expected 'index:value', got '" + std::string{ token } + "'!");
        }
        long index{};
        if (!parse_number(token.substr(0, colon), index) || index <= 0) {
            throw line_error(line_number, "feature indices must be positive integers, got '" + std::string{ token.substr(0, colon) } + "'!");
        }
        if (index <= previous_index) {
            throw line_error(line_number, "feature indices must be strictly ascending!");
        }
        previous_index = index;
        const auto column = static_cast<std::size_t>(index);
        if (column > shape.max_width) {
            throw line_error(line_number, "feature index " + std::to_string(column) + " is too large: a dense matrix of " + std::to_string(shape.num_rows) + " data points holds at most " + std::to_string(shape.max_width) + " features!");
        }
        T value{};
        if (!parse_number(token.substr(colon + 1), value)) {
            throw line_error(line_number, "invalid feature value '" + std::string{ token.substr(colon + 1) } + "'!");
        }
        if (column <= shape.width) {
            row[column - 1] = value;
        }
    }
    return has_label;
}

}  // namespace

template <typename T>
libsvm_parse_result<T> parse_libsvm(const file_reader &reader, const std::size_t min_num_features, const std::size_t first_line) {
    if (reader.num_lines() <= first_line) {
        throw invalid_data_exception{ "The LIBSVM file contains no data points!" };
    }
    const std::string_view *lines = reader.lines().data() + first_line;
    const std::size_t num_rows = reader.num_lines() - first_line;
    const std::size_t max_width = std::vector<T>{}.max_size() / num_rows;
    if (min_num_features > max_width) {
        throw invalid_data_exception{ "A dense matrix of " + std::to_string(num_rows) + " data points can't hold " + std::to_string(min_num_features) + " features!" };
    }

    // one chunk of lines is one thread's work, so a file of one chunk skips
    // the parallel regions and their fork and barrier
    const bool parallel = num_rows > lines_per_chunk;

    // pass 1: the width (number of features) is the largest 1-based index; a
    // line too wide for any matrix is left to pass 2, which reports it
    std::size_t width = min_num_features;
    #pragma omp parallel for schedule(static) reduction(max : width) if (parallel)
    for (std::size_t row = 0; row < num_rows; ++row) {
        const std::size_t index = last_index(lines[row]);
        if (index <= max_width) {
            width = std::max(width, index);
        }
    }

    libsvm_parse_result<T> result;
    result.points = aos_matrix<T>{ num_rows, width };
    result.labels.resize(num_rows);

    // pass 2: every line straight into its row; the error of the first bad
    // line in file order is kept, and lines after it are skipped
    const dense_shape shape{ num_rows, width, max_width };
    std::size_t num_labeled = 0;
    std::atomic<std::size_t> first_bad_row{ num_rows };
    std::mutex error_mutex;
    std::exception_ptr first_error;
    #pragma omp parallel for schedule(dynamic, lines_per_chunk) reduction(+ : num_labeled) if (parallel)
    for (std::size_t row = 0; row < num_rows; ++row) {
        if (row > first_bad_row.load(std::memory_order_relaxed)) {
            continue;
        }
        try {
            if (parse_line(lines[row], reader.line_number(first_line + row), shape, result.points.row_data(row), result.labels[row])) {
                ++num_labeled;
            }
        } catch (...) {
            const std::lock_guard lock{ error_mutex };
            if (row < first_bad_row.load(std::memory_order_relaxed)) {
                first_bad_row.store(row, std::memory_order_relaxed);
                first_error = std::current_exception();
            }
        }
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }

    if (num_labeled != 0 && num_labeled != num_rows) {
        throw invalid_file_format_exception{ "Inconsistent file: some lines have labels, some don't!" };
    }
    if (width == 0) {
        throw invalid_data_exception{ "The LIBSVM file contains no features!" };
    }
    result.has_labels = num_labeled > 0;
    if (!result.has_labels) {
        result.labels = std::vector<T>{};
    }
    return result;
}

template <typename T>
libsvm_parse_result<T> parse_libsvm_file(const std::string &filename, const std::size_t min_num_features) {
    const file_reader reader{ filename };
    return parse_libsvm<T>(reader, min_num_features);
}

namespace {

template <typename T>
void write_libsvm_stream(std::ostream &out, const aos_matrix<T> &points, const std::vector<T> *labels, const bool sparse) {
    if (labels != nullptr && !labels->empty() && labels->size() != points.num_rows()) {
        throw invalid_data_exception{ "Number of labels does not match the number of data points!" };
    }
    out.precision(17);  // round-trip safe for double
    for (std::size_t row = 0; row < points.num_rows(); ++row) {
        if (labels != nullptr && !labels->empty()) {
            out << (*labels)[row] << ' ';
        }
        const T *src = points.row_data(row);
        for (std::size_t col = 0; col < points.num_cols(); ++col) {
            if (!sparse || src[col] != T{ 0 }) {
                out << (col + 1) << ':' << src[col] << ' ';
            }
        }
        out << '\n';
    }
}

}  // namespace

template <typename T>
void write_libsvm_file(const std::string &filename, const aos_matrix<T> &points, const std::vector<T> *labels, const bool sparse) {
    std::ofstream out{ filename };
    if (!out) {
        throw file_not_found_exception{ "Can't open file '" + filename + "' for writing!" };
    }
    write_libsvm_stream(out, points, labels, sparse);
}

template <typename T>
std::string write_libsvm_string(const aos_matrix<T> &points, const std::vector<T> *labels, const bool sparse) {
    std::ostringstream out;
    write_libsvm_stream(out, points, labels, sparse);
    return std::move(out).str();
}

template struct libsvm_parse_result<float>;
template struct libsvm_parse_result<double>;

template libsvm_parse_result<float> parse_libsvm<float>(const file_reader &, std::size_t, std::size_t);
template libsvm_parse_result<double> parse_libsvm<double>(const file_reader &, std::size_t, std::size_t);
template libsvm_parse_result<float> parse_libsvm_file<float>(const std::string &, std::size_t);
template libsvm_parse_result<double> parse_libsvm_file<double>(const std::string &, std::size_t);
template void write_libsvm_file<float>(const std::string &, const aos_matrix<float> &, const std::vector<float> *, bool);
template void write_libsvm_file<double>(const std::string &, const aos_matrix<double> &, const std::vector<double> *, bool);
template std::string write_libsvm_string<float>(const aos_matrix<float> &, const std::vector<float> *, bool);
template std::string write_libsvm_string<double>(const aos_matrix<double> &, const std::vector<double> *, bool);

}  // namespace plssvm::io
