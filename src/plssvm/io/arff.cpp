#include "plssvm/io/arff.hpp"

#include "plssvm/detail/string_utils.hpp"
#include "plssvm/exceptions.hpp"

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace plssvm::io {

namespace {

struct arff_header {
    std::string relation_name;
    std::size_t num_features{ 0 };
    bool has_class_attribute{ false };
    std::size_t first_data_line{ 0 };
};

[[nodiscard]] arff_header parse_header(const file_reader &reader) {
    arff_header header;
    bool seen_data = false;
    std::size_t i = 0;
    for (; i < reader.num_lines(); ++i) {
        const std::string_view raw = reader.line(i);
        if (raw.front() == '%') {  // ARFF comment
            continue;
        }
        if (raw.front() != '@') {
            throw invalid_file_format_exception{ "ARFF line " + std::to_string(reader.line_number(i)) + ": expected a header directive before @DATA, got '" + std::string{ raw } + "'!" };
        }
        const std::string lower = detail::to_lower_case(raw);
        if (detail::starts_with(lower, "@relation")) {
            header.relation_name = std::string{ detail::trim(raw.substr(9)) };
        } else if (detail::starts_with(lower, "@attribute")) {
            const std::string_view rest = detail::trim(raw.substr(10));
            const std::string rest_lower = detail::to_lower_case(rest);
            if (rest_lower.find('{') != std::string::npos || detail::starts_with(detail::to_lower_case(std::string_view{ rest_lower }), "class")) {
                // nominal attribute => class labels; must be the last attribute
                if (header.has_class_attribute) {
                    throw invalid_file_format_exception{ "ARFF file declares more than one class attribute!" };
                }
                header.has_class_attribute = true;
            } else {
                if (header.has_class_attribute) {
                    throw invalid_file_format_exception{ "The ARFF class attribute must be the last attribute!" };
                }
                if (rest_lower.find("numeric") == std::string::npos && rest_lower.find("real") == std::string::npos) {
                    throw invalid_file_format_exception{ "ARFF line " + std::to_string(reader.line_number(i)) + ": only NUMERIC/REAL feature attributes are supported!" };
                }
                ++header.num_features;
            }
        } else if (detail::starts_with(lower, "@data")) {
            seen_data = true;
            ++i;
            break;
        } else {
            throw invalid_file_format_exception{ "ARFF line " + std::to_string(reader.line_number(i)) + ": unknown directive '" + std::string{ raw } + "'!" };
        }
    }
    if (!seen_data) {
        throw invalid_file_format_exception{ "ARFF file is missing the @DATA directive!" };
    }
    if (header.num_features == 0) {
        throw invalid_file_format_exception{ "ARFF file declares no numeric feature attributes!" };
    }
    header.first_data_line = i;
    return header;
}

template <typename T>
void parse_dense_row(const std::string_view line, const std::size_t line_number, const arff_header &header,
                     std::vector<T> &features, T &label) {
    const std::vector<std::string_view> tokens = detail::split(line, ',');
    const std::size_t expected = header.num_features + (header.has_class_attribute ? 1 : 0);
    if (tokens.size() != expected) {
        throw invalid_file_format_exception{ "ARFF line " + std::to_string(line_number) + ": expected " + std::to_string(expected) + " comma-separated values, got " + std::to_string(tokens.size()) + "!" };
    }
    for (std::size_t f = 0; f < header.num_features; ++f) {
        if (!detail::convert_to_safe(detail::trim(tokens[f]), features[f])) {
            throw invalid_file_format_exception{ "ARFF line " + std::to_string(line_number) + ": invalid numeric value '" + std::string{ tokens[f] } + "'!" };
        }
    }
    if (header.has_class_attribute) {
        if (!detail::convert_to_safe(detail::trim(tokens.back()), label)) {
            throw invalid_file_format_exception{ "ARFF line " + std::to_string(line_number) + ": invalid class label '" + std::string{ tokens.back() } + "'!" };
        }
    }
}

template <typename T>
void parse_sparse_row(std::string_view line, const std::size_t line_number, const arff_header &header,
                      std::vector<T> &features, T &label) {
    // format: {index value, index value, ...} with 0-based indices
    line = detail::trim(line.substr(1, line.size() - 2));
    std::fill(features.begin(), features.end(), T{ 0 });
    if (line.empty()) {
        return;
    }
    for (const std::string_view entry : detail::split(line, ',')) {
        const std::vector<std::string_view> parts = detail::split(detail::trim(entry), ' ');
        if (parts.size() != 2) {
            throw invalid_file_format_exception{ "ARFF line " + std::to_string(line_number) + ": invalid sparse entry '" + std::string{ entry } + "'!" };
        }
        std::size_t index{};
        if (!detail::convert_to_safe(parts[0], index)) {
            throw invalid_file_format_exception{ "ARFF line " + std::to_string(line_number) + ": invalid sparse index '" + std::string{ parts[0] } + "'!" };
        }
        const std::size_t class_index = header.num_features;
        if (header.has_class_attribute && index == class_index) {
            if (!detail::convert_to_safe(parts[1], label)) {
                throw invalid_file_format_exception{ "ARFF line " + std::to_string(line_number) + ": invalid class label '" + std::string{ parts[1] } + "'!" };
            }
            continue;
        }
        if (index >= header.num_features) {
            throw invalid_file_format_exception{ "ARFF line " + std::to_string(line_number) + ": sparse index " + std::to_string(index) + " out of range!" };
        }
        if (!detail::convert_to_safe(parts[1], features[index])) {
            throw invalid_file_format_exception{ "ARFF line " + std::to_string(line_number) + ": invalid sparse value '" + std::string{ parts[1] } + "'!" };
        }
    }
}

}  // namespace

template <typename T>
arff_parse_result<T> parse_arff(const file_reader &reader) {
    const arff_header header = parse_header(reader);

    std::vector<T> all_features;
    std::vector<T> labels;
    std::vector<T> row(header.num_features);
    std::size_t num_rows = 0;

    for (std::size_t i = header.first_data_line; i < reader.num_lines(); ++i) {
        const std::string_view line = reader.line(i);
        if (line.front() == '%') {
            continue;
        }
        T label{};
        if (line.front() == '{' && line.back() == '}') {
            parse_sparse_row(line, reader.line_number(i), header, row, label);
        } else {
            parse_dense_row(line, reader.line_number(i), header, row, label);
        }
        all_features.insert(all_features.end(), row.begin(), row.end());
        if (header.has_class_attribute) {
            labels.push_back(label);
        }
        ++num_rows;
    }

    if (num_rows == 0) {
        throw invalid_data_exception{ "The ARFF file contains no data points!" };
    }

    arff_parse_result<T> result;
    result.relation_name = header.relation_name;
    result.has_labels = header.has_class_attribute;
    result.points = aos_matrix<T>{ num_rows, header.num_features, std::move(all_features) };
    result.labels = std::move(labels);
    return result;
}

template <typename T>
arff_parse_result<T> parse_arff_file(const std::string &filename) {
    // '%' is the ARFF comment character, but full lines are filtered above to
    // keep the reader format agnostic; pass an impossible comment char here.
    const file_reader reader{ filename, '\0' };
    return parse_arff<T>(reader);
}

template <typename T>
void write_arff_file(const std::string &filename, const aos_matrix<T> &points, const std::vector<T> *labels, const std::string &relation_name) {
    std::ofstream out{ filename };
    if (!out) {
        throw file_not_found_exception{ "Can't open file '" + filename + "' for writing!" };
    }
    out.precision(17);
    out << "@RELATION " << relation_name << '\n';
    for (std::size_t f = 0; f < points.num_cols(); ++f) {
        out << "@ATTRIBUTE feature_" << f << " NUMERIC\n";
    }
    const bool has_labels = labels != nullptr && !labels->empty();
    if (has_labels) {
        out << "@ATTRIBUTE class {-1,1}\n";
    }
    out << "@DATA\n";
    for (std::size_t row = 0; row < points.num_rows(); ++row) {
        const T *src = points.row_data(row);
        for (std::size_t col = 0; col < points.num_cols(); ++col) {
            out << src[col] << ',';
        }
        if (has_labels) {
            out << (*labels)[row];
        } else {
            out.seekp(-1, std::ios_base::cur);  // drop trailing comma
        }
        out << '\n';
    }
}

template struct arff_parse_result<float>;
template struct arff_parse_result<double>;

template arff_parse_result<float> parse_arff<float>(const file_reader &);
template arff_parse_result<double> parse_arff<double>(const file_reader &);
template arff_parse_result<float> parse_arff_file<float>(const std::string &);
template arff_parse_result<double> parse_arff_file<double>(const std::string &);
template void write_arff_file<float>(const std::string &, const aos_matrix<float> &, const std::vector<float> *, const std::string &);
template void write_arff_file<double>(const std::string &, const aos_matrix<double> &, const std::vector<double> *, const std::string &);

}  // namespace plssvm::io
