#include "plssvm/core/model.hpp"

#include "plssvm/detail/assert.hpp"
#include "plssvm/exceptions.hpp"
#include "plssvm/io/model_io.hpp"

#include <memory>
#include <string>
#include <utility>

namespace plssvm {

template <typename T>
model<T>::model(parameter params,
                aos_matrix<T> support_vectors,
                std::vector<T> alpha,
                const T rho,
                const T positive_label,
                const T negative_label) :
    model{ params, std::make_shared<const aos_matrix<T>>(std::move(support_vectors)), std::move(alpha), rho, positive_label, negative_label } {}

template <typename T>
model<T>::model(parameter params,
                std::shared_ptr<const aos_matrix<T>> support_vectors,
                std::vector<T> alpha,
                const T rho,
                const T positive_label,
                const T negative_label) :
    params_{ params },
    support_vectors_{ std::move(support_vectors) },
    alpha_{ std::move(alpha) },
    rho_{ rho },
    positive_label_{ positive_label },
    negative_label_{ negative_label } {
    PLSSVM_ASSERT(support_vectors_ != nullptr, "A model needs a support vector panel!");
    if (support_vectors_->num_rows() != alpha_.size()) {
        throw invalid_data_exception{ "Model has " + std::to_string(support_vectors_->num_rows()) + " support vectors but " + std::to_string(alpha_.size()) + " weights!" };
    }
    if (support_vectors_->num_rows() == 0) {
        throw invalid_data_exception{ "A model must contain at least one support vector!" };
    }
}

template <typename T>
void model<T>::save(const std::string &filename) const {
    io::model_file<T> file;
    file.params = params_;
    // Persist the gamma actually used so prediction after load is identical
    // even when training relied on the 1/num_features default.
    file.params.gamma = params_.effective_gamma(num_features());
    file.support_vectors = *support_vectors_;
    file.alpha = alpha_;
    file.rho = rho_;
    file.positive_label = positive_label_;
    file.negative_label = negative_label_;
    io::write_model_file(filename, file);
}

template <typename T>
model<T> model<T>::load(const std::string &filename) {
    io::model_file<T> file = io::read_model_file<T>(filename);
    return model{ file.params, std::move(file.support_vectors), std::move(file.alpha),
                  file.rho, file.positive_label, file.negative_label };
}

template class model<float>;
template class model<double>;

}  // namespace plssvm
