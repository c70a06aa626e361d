#include "plssvm/ext/multiclass.hpp"

#include "plssvm/core/csvm_factory.hpp"
#include "plssvm/core/predict.hpp"
#include "plssvm/exceptions.hpp"

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace plssvm::ext {

template <typename T>
one_vs_all<T>::one_vs_all(const backend_type backend, parameter params, std::vector<sim::device_spec> devices) :
    backend_{ backend },
    params_{ params },
    devices_{ std::move(devices) } {
    params_.validate();
}

template <typename T>
multiclass_model<T> one_vs_all<T>::fit(const data_set<T> &data, const solver_control &ctrl) {
    if (!data.has_labels()) {
        throw invalid_data_exception{ "Multi-class training requires a labeled data set!" };
    }
    const std::vector<T> &labels = data.labels();
    const std::vector<T> class_labels = data.distinct_labels();
    if (class_labels.size() < 2) {
        throw invalid_data_exception{ "Multi-class training requires at least two distinct labels!" };
    }

    // one binary problem per class: this class (+1) vs. the rest (-1)
    std::vector<std::vector<T>> columns(class_labels.size(), std::vector<T>(labels.size()));
    for (std::size_t c = 0; c < class_labels.size(); ++c) {
        for (std::size_t i = 0; i < labels.size(); ++i) {
            columns[c][i] = labels[i] == class_labels[c] ? T{ 1 } : T{ -1 };
        }
    }
    auto svm = make_csvm<T>(backend_, params_, devices_);
    return multiclass_model<T>{ class_labels, svm->fit(data.points(), columns, ctrl) };
}

template <typename T>
std::vector<T> one_vs_all<T>::predict(const multiclass_model<T> &trained, const data_set<T> &data) const {
    if (trained.num_classes() == 0) {
        throw invalid_data_exception{ "The multi-class model is empty!" };
    }
    const std::size_t num_points = data.num_data_points();
    std::vector<T> best_value(num_points, -std::numeric_limits<T>::infinity());
    std::vector<T> best_label(num_points, trained.class_labels().front());

    for (std::size_t c = 0; c < trained.num_classes(); ++c) {
        const model<T> &binary = trained.binary_models()[c];
        // orient the decision value toward "this class": the binary model maps
        // whichever label it saw first to +1, which may be the "rest" side
        const T orientation = binary.positive_label() > T{ 0 } ? T{ 1 } : T{ -1 };
        const std::vector<T> values = decision_values(binary, data.points());
        const T label = trained.class_labels()[c];
        for (std::size_t i = 0; i < num_points; ++i) {
            const T class_score = orientation * values[i];
            if (class_score > best_value[i]) {
                best_value[i] = class_score;
                best_label[i] = label;
            }
        }
    }
    return best_label;
}

template <typename T>
T one_vs_all<T>::score(const multiclass_model<T> &trained, const data_set<T> &data) const {
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

template class one_vs_all<float>;
template class one_vs_all<double>;
template class multiclass_model<float>;
template class multiclass_model<double>;

}  // namespace plssvm::ext
