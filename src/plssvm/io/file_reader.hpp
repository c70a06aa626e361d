/**
 * @file
 * @brief Whole-file reader that exposes the contents as trimmed line views.
 *
 * Reading the training file is the "read" component of the paper's pipeline
 * (Fig. 2). A regular file is mapped read-only; any other input (a pipe, a
 * file reporting size 0 such as those under /proc) is read into one buffer
 * that doubles when full. Either is split into `std::string_view` lines
 * without copying, so parsing cost stays linear in file size and the reader's
 * memory is the file plus one view and one line number per kept line. The
 * views stay valid as long as the reader, also across a move.
 *
 * The mapping spares the copy out of the page cache and keeps the file out
 * of the heap: a freed file-sized heap block leaves a hole that the next
 * file may or may not fit, so a process that parses files in turn kept a
 * resident size that depended on the heap's layout (the length of a file
 * name could add the size of a file). As with any mapped file, truncating
 * the file while a reader maps it makes reading the lost part raise SIGBUS.
 *
 * Each kept line remembers its 1-based line number in the file, so a parser
 * names the line an editor shows even after comments and blank lines were
 * skipped.
 */

#ifndef PLSSVM_IO_FILE_READER_HPP_
#define PLSSVM_IO_FILE_READER_HPP_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace plssvm::io {

class file_reader {
  public:
    /**
     * @brief Read the whole file at @p filename into memory and split it into
     *        lines. Lines that are empty (after trimming) or start with
     *        @p comment are skipped.
     * @throws plssvm::file_not_found_exception if the file cannot be opened
     *         or read.
     */
    explicit file_reader(const std::string &filename, char comment = '#');

    /// Construct from a copy of an in-memory buffer (used by tests and generators).
    static file_reader from_string(std::string_view contents, char comment = '#');

    [[nodiscard]] std::size_t num_lines() const noexcept { return lines_.size(); }
    [[nodiscard]] std::string_view line(const std::size_t i) const { return lines_.at(i); }
    [[nodiscard]] const std::vector<std::string_view> &lines() const noexcept { return lines_; }
    /// The 1-based line number in the file of kept line @p i.
    [[nodiscard]] std::size_t line_number(const std::size_t i) const { return line_numbers_.at(i); }

  private:
    /// Unmaps a file mapping of `bytes` bytes.
    struct unmapper {
        std::size_t bytes;
        void operator()(const char *contents) const noexcept;
    };

    file_reader() = default;
    void split_into_lines(std::string_view contents, char comment);

    /// The mapped regular file; null when `buffer_` holds the contents.
    std::unique_ptr<const char, unmapper> mapping_;
    // a vector, not a string: moving it keeps the bytes the views point to,
    // where a short string would move its in-object buffer
    std::vector<char> buffer_;
    std::vector<std::string_view> lines_;
    std::vector<std::size_t> line_numbers_;
};

}  // namespace plssvm::io

#endif  // PLSSVM_IO_FILE_READER_HPP_
