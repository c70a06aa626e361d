#include "plssvm/core/csvm.hpp"

#include "plssvm/core/lssvm_math.hpp"
#include "plssvm/core/predict.hpp"
#include "plssvm/detail/assert.hpp"
#include "plssvm/exceptions.hpp"
#include "plssvm/solver/cg.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace plssvm {

template <typename T>
csvm<T>::csvm(parameter params) :
    params_{ params } {
    params_.validate();
}

template <typename T>
kernel_params<T> csvm<T>::make_kernel_params(const std::size_t num_features) const {
    return kernel_params<T>{
        params_.kernel,
        params_.degree,
        static_cast<T>(params_.effective_gamma(num_features)),
        static_cast<T>(params_.coef0),
    };
}

template <typename T>
model<T> csvm<T>::fit(const data_set<T> &data, const solver_control &ctrl) {
    ctrl.validate();
    if (!data.has_labels()) {
        throw invalid_data_exception{ "Training requires a labeled data set!" };
    }
    (void) data.binary_labels();  // throws if not binary
    if (data.num_data_points() < 2) {
        throw invalid_data_exception{ "Training requires at least two data points!" };
    }
    return std::move(fit(data.points(), { data.labels() }, ctrl).front());
}

template <typename T>
std::vector<model<T>> csvm<T>::fit(const aos_matrix<T> &points,
                                   const std::vector<std::vector<T>> &label_columns,
                                   const solver_control &ctrl) {
    ctrl.validate();
    if (label_columns.empty()) {
        throw invalid_data_exception{ "Training requires at least one label column!" };
    }
    if (points.num_rows() < 2) {
        throw invalid_data_exception{ "Training requires at least two data points!" };
    }
    std::vector<std::vector<T>> signs;
    std::vector<std::pair<T, T>> model_labels;
    signs.reserve(label_columns.size());
    model_labels.reserve(label_columns.size());
    for (const std::vector<T> &labels : label_columns) {
        if (labels.size() != points.num_rows()) {
            throw invalid_data_exception{ "A label column has " + std::to_string(labels.size()) + " labels for " + std::to_string(points.num_rows()) + " points!" };
        }
        // as in `data_set::binary_labels`: the first label seen maps to +1
        const T positive = labels.front();
        const auto other = std::find_if(labels.begin(), labels.end(), [positive](const T label) { return label != positive; });
        if (other == labels.end() || std::any_of(other, labels.end(), [positive, negative = *other](const T label) { return label != positive && label != negative; })) {
            throw invalid_data_exception{ "Every label column must hold exactly two distinct labels!" };
        }
        std::vector<T> &column = signs.emplace_back(labels.size());
        std::transform(labels.begin(), labels.end(), column.begin(), [positive](const T label) { return label == positive ? T{ 1 } : T{ -1 }; });
        model_labels.emplace_back(positive, *other);
    }
    return train(points, signs, model_labels, ctrl);
}

template <typename T>
model<T> csvm<T>::fit_regression(const data_set<T> &data, const solver_control &ctrl) {
    ctrl.validate();
    if (!data.has_labels()) {
        throw invalid_data_exception{ "Regression training requires labeled data (the targets)!" };
    }
    if (data.num_data_points() < 2) {
        throw invalid_data_exception{ "Training requires at least two data points!" };
    }
    // label mapping is meaningless for regression; keep the +-1 placeholders
    return std::move(train(data.points(), { data.labels() }, { { T{ 1 }, T{ -1 } } }, ctrl).front());
}

template <typename T>
std::vector<model<T>> csvm<T>::train(const aos_matrix<T> &points,
                                     const std::vector<std::vector<T>> &columns,
                                     const std::vector<std::pair<T, T>> &model_labels,
                                     const solver_control &ctrl) {
    const kernel_params<T> kp = make_kernel_params(points.num_cols());
    std::vector<solve_result> solved = solve_lssvm(points, columns, kp, ctrl);
    PLSSVM_ASSERT(solved.size() == columns.size(), "Backend returned a wrong number of solutions!");

    const auto panel = std::make_shared<const aos_matrix<T>>(points);
    std::vector<model<T>> models;
    models.reserve(solved.size());
    for (std::size_t c = 0; c < solved.size(); ++c) {
        PLSSVM_ASSERT(solved[c].alpha.size() == points.num_rows(), "Backend returned a weight vector of wrong size!");
        model<T> &trained = models.emplace_back(params_, panel, std::move(solved[c].alpha),
                                                /*rho=*/-solved[c].bias,
                                                /*positive_label=*/model_labels[c].first,
                                                /*negative_label=*/model_labels[c].second);
        trained.set_num_iterations(solved[c].iterations);
    }
    return models;
}

template <typename T>
auto csvm<T>::solve_columns(solver::linear_operator<T> &op,
                            const std::vector<T> &q,
                            const T q_mm,
                            const std::vector<std::vector<T>> &label_columns,
                            const solver_control &ctrl) -> std::vector<solve_result> {
    const std::size_t n = op.size();
    const std::size_t k = label_columns.size();
    std::vector<T> rhs;
    rhs.reserve(n * k);
    for (const std::vector<T> &labels : label_columns) {
        const std::vector<T> column = reduced_rhs(labels);
        rhs.insert(rhs.end(), column.begin(), column.end());
    }
    std::vector<T> alpha_tilde(n * k, T{ 0 });
    const std::vector<solver::cg_result> cg = solver::conjugate_gradients(op, rhs, alpha_tilde, k, ctrl);

    std::vector<solve_result> results(k);
    for (std::size_t c = 0; c < k; ++c) {
        const auto first = alpha_tilde.begin() + static_cast<std::ptrdiff_t>(c * n);
        std::vector<T> column(first, first + static_cast<std::ptrdiff_t>(n));
        results[c].bias = recover_bias(column, q, q_mm, label_columns[c].back());
        results[c].alpha = expand_alpha(std::move(column));
        results[c].iterations = cg[c].iterations;
        results[c].final_relative_residual = cg[c].final_relative_residual;
    }
    return results;
}

template <typename T>
std::vector<T> csvm<T>::predict_values(const model<T> &trained, const data_set<T> &data) const {
    return decision_values(trained, data.points());
}

template <typename T>
std::vector<T> csvm<T>::predict(const model<T> &trained, const data_set<T> &data) const {
    // route through the (possibly backend-overridden) decision value path
    std::vector<T> values = predict_values(trained, data);
    for (T &v : values) {
        v = trained.label_from_decision(v);
    }
    return values;
}

template <typename T>
T csvm<T>::score(const model<T> &trained, const data_set<T> &data) const {
    if (!data.has_labels()) {
        throw invalid_data_exception{ "Scoring requires a labeled data set!" };
    }
    const std::vector<T> predicted = predict(trained, data);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < predicted.size(); ++i) {
        correct += predicted[i] == data.labels()[i];
    }
    return static_cast<T>(correct) / static_cast<T>(predicted.size());
}

template class csvm<float>;
template class csvm<double>;

}  // namespace plssvm
