/**
 * @file
 * @brief LIBSVM sparse data file parser and writer.
 *
 * The on-disk format is sparse (`label index:value ...`, 1-based indices);
 * PLSSVM converts it to a dense representation on read by materialising the
 * zeros (paper §III: "sparse data sets [...] are at first converted into a
 * dense representation by filling in zeros").
 *
 * The parser makes two passes over the lines of a `file_reader`, each in
 * parallel over lines with OpenMP. Pass 1 reads only each line's last index:
 * indices ascend strictly, so a valid line's last index is its largest, and
 * the largest of them (or `min_num_features`) is the width. The dense matrix
 * is then allocated once, and pass 2 parses every line with `from_chars`
 * straight into its own row, in chunks of lines handed out dynamically (a
 * file of one chunk is parsed serially). No memory is allocated per line, so
 * a parse's peak memory is the file plus the dense matrix. Results are
 * bit-identical at every thread count, and an error always names the first
 * bad line in file order.
 */

#ifndef PLSSVM_IO_LIBSVM_HPP_
#define PLSSVM_IO_LIBSVM_HPP_

#include "plssvm/core/matrix.hpp"
#include "plssvm/io/file_reader.hpp"

#include <cstddef>
#include <string>
#include <vector>

namespace plssvm::io {

/// Result of parsing a LIBSVM data file.
template <typename T>
struct libsvm_parse_result {
    /// Dense data points (zeros filled in), one row per point.
    aos_matrix<T> points;
    /// Raw numeric labels in file order; empty if the file has no labels
    /// (test files without ground truth are legal LIBSVM inputs).
    std::vector<T> labels;
    /// True if at least one line carried a label. Mixed files are rejected.
    bool has_labels{ false };
};

/**
 * @brief Parse LIBSVM-formatted @p reader contents into a dense matrix.
 * @param reader the pre-split input lines
 * @param min_num_features lower bound for the feature count (a test file may
 *        not mention trailing features that the model was trained with)
 * @param first_line the first of the reader's lines to parse; the lines
 *        before it are not read (a model file's header)
 * @throws plssvm::invalid_file_format_exception naming the file line number of
 *         the first malformed line (bad label, index or value, a non-positive
 *         or non-ascending index, or an index that makes the dense matrix too
 *         large to size); otherwise if labeled and unlabeled lines are mixed
 * @throws plssvm::invalid_data_exception if there are no data points, no
 *         features, or @p min_num_features is too large to size
 */
template <typename T>
[[nodiscard]] libsvm_parse_result<T> parse_libsvm(const file_reader &reader, std::size_t min_num_features = 0, std::size_t first_line = 0);

/// Convenience overload opening @p filename first.
template <typename T>
[[nodiscard]] libsvm_parse_result<T> parse_libsvm_file(const std::string &filename, std::size_t min_num_features = 0);

/**
 * @brief Write points (and labels, if given) to @p filename in LIBSVM format.
 * @param sparse when true, zero features are omitted (the usual LIBSVM style);
 *        when false every feature is written (LIBSVM-DENSE style)
 */
template <typename T>
void write_libsvm_file(const std::string &filename,
                       const aos_matrix<T> &points,
                       const std::vector<T> *labels,
                       bool sparse = true);

/// Serialise to a string (used by tests and the round-trip property checks).
template <typename T>
[[nodiscard]] std::string write_libsvm_string(const aos_matrix<T> &points,
                                              const std::vector<T> *labels,
                                              bool sparse = true);

}  // namespace plssvm::io

#endif  // PLSSVM_IO_LIBSVM_HPP_
