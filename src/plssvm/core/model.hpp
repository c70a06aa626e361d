/**
 * @file
 * @brief The trained SVM model: support vectors, weights, bias, and metadata.
 *
 * For an LS-SVM *every* training point is a support vector with a (possibly
 * negative) weight (paper §II-C). The model serialises to the LIBSVM model
 * file format so PLSSVM-trained models can be consumed by LIBSVM tooling and
 * vice versa ("drop-in replacement", paper §I).
 *
 * The support vectors are one shared, immutable panel: a copy of a model
 * shares it, and so do the k heads of a one-vs-all ensemble (all trained on
 * the same points) and every copy of the ensemble. Only the weights, the
 * bias and the labels are per model.
 *
 * A `model` is the *training-side* representation. For repeated prediction,
 * compile it into a `plssvm::serve::compiled_model` (or register it with a
 * `plssvm::serve::model_registry`), which precomputes the collapsed linear
 * weight vector, cached RBF norms, and the SoA support-vector layout once.
 */

#ifndef PLSSVM_CORE_MODEL_HPP_
#define PLSSVM_CORE_MODEL_HPP_

#include "plssvm/core/matrix.hpp"
#include "plssvm/core/parameter.hpp"

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace plssvm {

template <typename T>
class model {
  public:
    using real_type = T;

    model() = default;

    /**
     * @param params the hyper-parameters used for training
     * @param support_vectors all training points (LS-SVM: every point is a SV)
     * @param alpha the learned weights, one per support vector
     * @param rho the negated bias (LIBSVM convention: f(x) = sum_i alpha_i k(sv_i, x) - rho)
     * @param positive_label original label mapped to +1
     * @param negative_label original label mapped to -1
     */
    model(parameter params,
          aos_matrix<T> support_vectors,
          std::vector<T> alpha,
          T rho,
          T positive_label,
          T negative_label);

    /// As above, sharing the panel @p support_vectors with other models.
    model(parameter params,
          std::shared_ptr<const aos_matrix<T>> support_vectors,
          std::vector<T> alpha,
          T rho,
          T positive_label,
          T negative_label);

    [[nodiscard]] const parameter &params() const noexcept { return params_; }
    [[nodiscard]] const aos_matrix<T> &support_vectors() const noexcept { return *support_vectors_; }
    [[nodiscard]] const std::vector<T> &alpha() const noexcept { return alpha_; }
    [[nodiscard]] T rho() const noexcept { return rho_; }
    /// Bias of the decision function f(x) = sum alpha_i k(sv_i, x) + bias.
    [[nodiscard]] T bias() const noexcept { return -rho_; }
    [[nodiscard]] T positive_label() const noexcept { return positive_label_; }
    [[nodiscard]] T negative_label() const noexcept { return negative_label_; }
    [[nodiscard]] std::size_t num_support_vectors() const noexcept { return support_vectors_->num_rows(); }
    [[nodiscard]] std::size_t num_features() const noexcept { return support_vectors_->num_cols(); }

    /// Map a decision value to the original label domain.
    [[nodiscard]] T label_from_decision(const T decision) const noexcept {
        return decision > T{ 0 } ? positive_label_ : negative_label_;
    }

    /// gamma resolved against the training feature count.
    [[nodiscard]] T effective_gamma() const { return static_cast<T>(params_.effective_gamma(num_features())); }

    /// Number of CG iterations the training run needed (metadata, may be 0 for loaded models).
    [[nodiscard]] std::size_t num_iterations() const noexcept { return num_iterations_; }
    void set_num_iterations(const std::size_t iterations) noexcept { num_iterations_ = iterations; }

    /// Save in the LIBSVM model file format.
    void save(const std::string &filename) const;

    /// Load a LIBSVM model file.
    [[nodiscard]] static model load(const std::string &filename);

  private:
    parameter params_{};
    std::shared_ptr<const aos_matrix<T>> support_vectors_{ std::make_shared<const aos_matrix<T>>() };
    std::vector<T> alpha_{};
    T rho_{ 0 };
    T positive_label_{ 1 };
    T negative_label_{ -1 };
    std::size_t num_iterations_{ 0 };
};

}  // namespace plssvm

#endif  // PLSSVM_CORE_MODEL_HPP_
