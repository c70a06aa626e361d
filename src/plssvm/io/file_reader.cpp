#include "plssvm/io/file_reader.hpp"

#include "plssvm/detail/string_utils.hpp"
#include "plssvm/exceptions.hpp"

#include <filesystem>
#include <fstream>
#include <system_error>

namespace plssvm::io {

namespace {

/// First buffer size of an input that reports no size (a pipe, or a file that
/// reports 0 such as those under /proc); a full buffer doubles.
constexpr std::size_t unknown_size_buffer = std::size_t{ 1 } << 16;

}  // namespace

file_reader::file_reader(const std::string &filename, const char comment) {
    std::ifstream file{ filename, std::ios::binary };
    if (!file) {
        throw file_not_found_exception{ "Can't open file '" + filename + "'!" };
    }
    // one byte more than a regular file's size, so the read that reaches the
    // end of the file finds room and the buffer never grows
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(filename, ec);
    buffer_.resize(ec || size == 0 ? unknown_size_buffer : static_cast<std::size_t>(size) + 1);
    std::size_t filled = 0;
    while (file) {
        if (filled == buffer_.size()) {
            buffer_.resize(2 * buffer_.size());
        }
        file.read(buffer_.data() + filled, static_cast<std::streamsize>(buffer_.size() - filled));
        filled += static_cast<std::size_t>(file.gcount());
    }
    if (file.bad()) {
        throw file_not_found_exception{ "Can't read file '" + filename + "'!" };
    }
    buffer_.resize(filled);
    split_into_lines(comment);
}

file_reader file_reader::from_string(const std::string_view contents, const char comment) {
    file_reader reader;
    reader.buffer_.assign(contents.begin(), contents.end());
    reader.split_into_lines(comment);
    return reader;
}

void file_reader::split_into_lines(const char comment) {
    const std::string_view view{ buffer_.data(), buffer_.size() };
    std::size_t start = 0;
    std::size_t number = 0;
    while (start < view.size()) {
        ++number;
        std::size_t end = view.find('\n', start);
        if (end == std::string_view::npos) {
            end = view.size();
        }
        const std::string_view line = detail::trim(view.substr(start, end - start));
        if (!line.empty() && line.front() != comment) {
            lines_.push_back(line);
            line_numbers_.push_back(number);
        }
        start = end + 1;
    }
}

}  // namespace plssvm::io
