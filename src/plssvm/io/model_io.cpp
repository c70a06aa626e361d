#include "plssvm/io/model_io.hpp"

#include "plssvm/detail/string_utils.hpp"
#include "plssvm/exceptions.hpp"
#include "plssvm/io/file_reader.hpp"
#include "plssvm/io/libsvm.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace plssvm::io {

namespace {

[[nodiscard]] invalid_file_format_exception header_error(const std::string &filename, const std::string &what) {
    return invalid_file_format_exception{ "Model file '" + filename + "': " + what };
}

}  // namespace

template <typename T>
model_file<T> read_model_file(const std::string &filename) {
    const file_reader reader{ filename };
    model_file<T> model;

    std::size_t total_sv = 0;
    bool seen_sv_marker = false;
    std::size_t sv_start_line = 0;

    for (std::size_t i = 0; i < reader.num_lines(); ++i) {
        const std::string_view line = reader.line(i);
        if (line == "SV") {
            seen_sv_marker = true;
            sv_start_line = i + 1;
            break;
        }
        const auto tokens = detail::split(line, ' ');
        if (tokens.size() < 2) {
            throw header_error(filename, "invalid header line '" + std::string{ line } + "'");
        }
        const std::string key = detail::to_lower_case(tokens[0]);
        if (key == "svm_type") {
            if (detail::to_lower_case(tokens[1]) != "c_svc") {
                throw header_error(filename, "only svm_type c_svc is supported, got '" + std::string{ tokens[1] } + "'");
            }
        } else if (key == "kernel_type") {
            model.params.kernel = kernel_type_from_string(tokens[1]);
        } else if (key == "degree") {
            model.params.degree = detail::convert_to<int>(tokens[1]);
        } else if (key == "gamma") {
            model.params.gamma = detail::convert_to<double>(tokens[1]);
        } else if (key == "coef0") {
            model.params.coef0 = detail::convert_to<double>(tokens[1]);
        } else if (key == "nr_class") {
            if (detail::convert_to<int>(tokens[1]) != 2) {
                throw header_error(filename, "only binary (nr_class 2) models are supported");
            }
        } else if (key == "total_sv") {
            total_sv = detail::convert_to<unsigned long>(tokens[1]);
        } else if (key == "rho") {
            model.rho = detail::convert_to<T>(tokens[1]);
        } else if (key == "label") {
            if (tokens.size() != 3) {
                throw header_error(filename, "expected exactly two labels");
            }
            model.positive_label = detail::convert_to<T>(tokens[1]);
            model.negative_label = detail::convert_to<T>(tokens[2]);
        } else if (key == "nr_sv") {
            // informational; consistency is checked against total_sv below
        } else {
            throw header_error(filename, "unknown header key '" + key + "'");
        }
    }

    if (!seen_sv_marker) {
        throw header_error(filename, "missing 'SV' marker");
    }
    if (total_sv == 0) {
        throw header_error(filename, "total_sv must be positive");
    }
    const std::size_t num_sv_lines = reader.num_lines() - sv_start_line;
    if (num_sv_lines != total_sv) {
        throw header_error(filename, "expected " + std::to_string(total_sv) + " support vectors, found " + std::to_string(num_sv_lines));
    }

    // SV lines are LIBSVM sparse lines whose "label" token is the coefficient.
    libsvm_parse_result<T> sv = parse_libsvm<T>(reader, 0, sv_start_line);
    if (!sv.has_labels) {
        throw header_error(filename, "support vector lines are missing their coefficients");
    }
    model.support_vectors = std::move(sv.points);
    model.alpha = std::move(sv.labels);
    return model;
}

template <typename T>
void write_model_file(const std::string &filename, const model_file<T> &model) {
    if (model.support_vectors.num_rows() != model.alpha.size()) {
        throw invalid_data_exception{ "Model has " + std::to_string(model.support_vectors.num_rows()) + " support vectors but " + std::to_string(model.alpha.size()) + " coefficients!" };
    }
    std::ofstream out{ filename };
    if (!out) {
        throw file_not_found_exception{ "Can't open model file '" + filename + "' for writing!" };
    }
    out.precision(17);

    // LIBSVM groups support vectors by class; for the LS-SVM the "class" of a
    // support vector is the sign of its training label, which we recover from
    // the sign of nothing here -- all points are SVs, so we simply order by
    // coefficient sign for nr_sv bookkeeping while keeping exact positions.
    const std::size_t m = model.alpha.size();
    std::vector<std::size_t> order(m);
    for (std::size_t i = 0; i < m; ++i) {
        order[i] = i;
    }
    std::stable_partition(order.begin(), order.end(), [&](const std::size_t i) { return model.alpha[i] > T{ 0 }; });
    const auto num_positive = static_cast<std::size_t>(std::count_if(model.alpha.begin(), model.alpha.end(), [](const T a) { return a > T{ 0 }; }));

    out << "svm_type c_svc\n";
    out << "kernel_type " << model.params.kernel << '\n';
    if (model.params.kernel == kernel_type::polynomial) {
        out << "degree " << model.params.degree << '\n';
    }
    if (model.params.kernel != kernel_type::linear) {
        out << "gamma " << model.params.effective_gamma(model.support_vectors.num_cols()) << '\n';
    }
    if (model.params.kernel == kernel_type::polynomial || model.params.kernel == kernel_type::sigmoid) {
        out << "coef0 " << model.params.coef0 << '\n';
    }
    out << "nr_class 2\n";
    out << "total_sv " << m << '\n';
    out << "rho " << model.rho << '\n';
    out << "label " << model.positive_label << ' ' << model.negative_label << '\n';
    out << "nr_sv " << num_positive << ' ' << (m - num_positive) << '\n';
    out << "SV\n";
    for (const std::size_t i : order) {
        out << model.alpha[i] << ' ';
        const T *sv = model.support_vectors.row_data(i);
        for (std::size_t col = 0; col < model.support_vectors.num_cols(); ++col) {
            if (sv[col] != T{ 0 }) {
                out << (col + 1) << ':' << sv[col] << ' ';
            }
        }
        out << '\n';
    }
}

template struct model_file<float>;
template struct model_file<double>;

template model_file<float> read_model_file<float>(const std::string &);
template model_file<double> read_model_file<double>(const std::string &);
template void write_model_file<float>(const std::string &, const model_file<float> &);
template void write_model_file<double>(const std::string &, const model_file<double> &);

}  // namespace plssvm::io
