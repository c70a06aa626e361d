#include "plssvm/io/file_reader.hpp"

#include "plssvm/detail/string_utils.hpp"
#include "plssvm/exceptions.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>

namespace plssvm::io {

namespace {

/// First buffer size of an input that is read rather than mapped (a pipe, or a
/// file that reports size 0 such as those under /proc); a full buffer doubles.
constexpr std::size_t unknown_size_buffer = std::size_t{ 1 } << 16;

}  // namespace

file_reader::file_reader(const std::string &filename, const char comment) {
    // a regular file is mapped; any other input, or a file that does not map,
    // is read below, which also reports an input that cannot be opened or read
    if (const int fd = ::open(filename.c_str(), O_RDONLY | O_CLOEXEC); fd >= 0) {
        struct stat info {};
        if (::fstat(fd, &info) == 0 && S_ISREG(info.st_mode) && info.st_size > 0) {
            const auto size = static_cast<std::size_t>(info.st_size);
            if (void *contents = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0); contents != MAP_FAILED) {
                mapping_ = { static_cast<const char *>(contents), unmapper{ size } };
            }
        }
        ::close(fd);  // a mapping outlives its descriptor
    }
    if (mapping_) {
        split_into_lines({ mapping_.get(), mapping_.get_deleter().bytes }, comment);
        return;
    }

    std::ifstream file{ filename, std::ios::binary };
    if (!file) {
        throw file_not_found_exception{ "Can't open file '" + filename + "'!" };
    }
    buffer_.resize(unknown_size_buffer);
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
    split_into_lines({ buffer_.data(), buffer_.size() }, comment);
}

file_reader file_reader::from_string(const std::string_view contents, const char comment) {
    file_reader reader;
    reader.buffer_.assign(contents.begin(), contents.end());
    reader.split_into_lines({ reader.buffer_.data(), reader.buffer_.size() }, comment);
    return reader;
}

void file_reader::unmapper::operator()(const char *contents) const noexcept {
    ::munmap(const_cast<char *>(contents), bytes);
}

void file_reader::split_into_lines(const std::string_view view, const char comment) {
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
