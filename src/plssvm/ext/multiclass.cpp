#include "plssvm/ext/multiclass.hpp"

#include "plssvm/core/csvm_factory.hpp"
#include "plssvm/exceptions.hpp"
#include "plssvm/serve/compiled_model.hpp"

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
    // one compile of the whole ensemble: each distinct support vector panel
    // is stored and swept once for all heads, each head oriented toward its
    // class (the binary model maps whichever label it saw first to +1, which
    // may be the "rest" side); argmax over the heads, first class on ties
    return serve::compiled_model<T>{ trained }.predict_labels(data.points());
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
