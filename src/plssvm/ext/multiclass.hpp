/**
 * @file
 * @brief One-vs-all multi-class LS-SVM classification.
 *
 * The paper supports binary classification only and lists multi-class as
 * future work (§V), citing Suykens & Vandewalle's multi-class LS-SVM. This
 * extension implements the one-vs-all (one-vs-rest) scheme on top of the
 * binary `csvm`: one binary head per distinct label (class vs. rest),
 * prediction by the maximum decision value.
 *
 * The heads differ only in their labels, and Q~ does not depend on the
 * labels. So `fit` trains all k heads in one CG whose k right-hand sides
 * share each kernel sweep (`csvm::fit` over k label columns); each head
 * keeps its own iteration count and is bitwise the model a binary `fit` on
 * its one-vs-rest labels returns. The k heads share one copy of the points,
 * and so does every copy of the ensemble.
 *
 * `predict` compiles the ensemble once into a k-head `serve::compiled_model`:
 * the shared panel is stored and swept once, and every kernel value is added
 * into the k heads' sums, each head's value exactly its binary decision
 * value, oriented toward its class. The heads must share their kernel
 * parameters and feature count, as `fit` makes them.
 */

#ifndef PLSSVM_EXT_MULTICLASS_HPP_
#define PLSSVM_EXT_MULTICLASS_HPP_

#include "plssvm/backends/backend_types.hpp"
#include "plssvm/core/data_set.hpp"
#include "plssvm/core/model.hpp"
#include "plssvm/core/parameter.hpp"
#include "plssvm/sim/device_spec.hpp"

#include <cstddef>
#include <vector>

namespace plssvm::ext {

/// Trained one-vs-all ensemble: one binary model per class, all sharing one
/// support vector panel.
template <typename T>
class multiclass_model {
  public:
    multiclass_model() = default;
    multiclass_model(std::vector<T> class_labels, std::vector<model<T>> models) :
        class_labels_{ std::move(class_labels) },
        models_{ std::move(models) } {}

    [[nodiscard]] std::size_t num_classes() const noexcept { return class_labels_.size(); }
    [[nodiscard]] const std::vector<T> &class_labels() const noexcept { return class_labels_; }
    [[nodiscard]] const std::vector<model<T>> &binary_models() const noexcept { return models_; }

  private:
    std::vector<T> class_labels_;
    std::vector<model<T>> models_;
};

template <typename T>
class one_vs_all {
  public:
    /**
     * @param backend backend for the underlying binary machines
     * @param params shared SVM hyper-parameters
     * @param devices simulated devices for the device backends (optional)
     */
    explicit one_vs_all(backend_type backend,
                        parameter params,
                        std::vector<sim::device_spec> devices = {});

    /**
     * @brief Train one binary LS-SVM per distinct label (class vs. rest), all
     *        in one solve.
     * @throws plssvm::invalid_data_exception if @p data is unlabeled or has
     *         fewer than two distinct labels
     */
    [[nodiscard]] multiclass_model<T> fit(const data_set<T> &data, const solver_control &ctrl = {});

    /// Predicted class labels: argmax over the per-class decision values,
    /// first class on ties.
    /// @throws plssvm::invalid_data_exception if @p trained is empty or its
    ///         heads differ in kernel parameters or feature count, or if the
    ///         feature count of @p data differs
    [[nodiscard]] std::vector<T> predict(const multiclass_model<T> &trained, const data_set<T> &data) const;

    /// Multi-class accuracy in [0, 1].
    [[nodiscard]] T score(const multiclass_model<T> &trained, const data_set<T> &data) const;

  private:
    backend_type backend_;
    parameter params_;
    std::vector<sim::device_spec> devices_;
};

}  // namespace plssvm::ext

#endif  // PLSSVM_EXT_MULTICLASS_HPP_
