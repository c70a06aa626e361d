/**
 * @file
 * @brief The user-facing SVM class: `fit`, `predict`, `score`.
 *
 * `csvm` is the backend-independent front-end. Concrete backends (OpenMP,
 * CUDA, OpenCL, SYCL — the latter three running on the simulated device
 * layer, see DESIGN.md) implement the expensive part: solving the reduced
 * LS-SVM system. The training pipeline is the paper's four steps
 * (§III): read (done by `data_set`), transform, solve (CG), write; each step
 * reports its runtime through the performance tracker so the component
 * figures (Fig. 2/4) can be regenerated.
 */

#ifndef PLSSVM_CORE_CSVM_HPP_
#define PLSSVM_CORE_CSVM_HPP_

#include "plssvm/core/data_set.hpp"
#include "plssvm/core/kernel_functions.hpp"
#include "plssvm/core/model.hpp"
#include "plssvm/core/parameter.hpp"
#include "plssvm/detail/tracker.hpp"
#include "plssvm/solver/operator.hpp"

#include <cstddef>
#include <string_view>
#include <utility>
#include <vector>

namespace plssvm {

template <typename T>
class csvm {
  public:
    using real_type = T;

    explicit csvm(parameter params);
    csvm(const csvm &) = delete;
    csvm &operator=(const csvm &) = delete;
    virtual ~csvm() = default;

    /**
     * @brief Train an LS-SVM classifier on @p data.
     * @param data a labeled, binary data set with at least two points
     * @param ctrl CG termination controls (epsilon, iteration budget)
     * @throws plssvm::invalid_data_exception if @p data is unlabeled or not binary
     */
    [[nodiscard]] model<T> fit(const data_set<T> &data, const solver_control &ctrl = {});

    /**
     * @brief Train one binary LS-SVM per label column on the same points, in
     *        one solve.
     *
     * Q~ does not depend on the labels, so the k reduced systems share one
     * CG whose k right-hand sides share each kernel sweep. Each column keeps
     * its own iterations and stopping test: model c is bitwise the model
     * `fit` returns for @p points labelled with column c. The k models share
     * one copy of @p points.
     * @param points the training points (at least two)
     * @param label_columns k label columns, each with one label per point and
     *        exactly two distinct labels; as in `fit`, a column's first label
     *        is its model's positive label
     * @throws plssvm::invalid_data_exception if there is no column, or a
     *         column does not match the points or is not binary
     */
    [[nodiscard]] std::vector<model<T>> fit(const aos_matrix<T> &points,
                                            const std::vector<std::vector<T>> &label_columns,
                                            const solver_control &ctrl = {});

    /**
     * @brief Train an LS-SVM *regressor* (LS-SVR) on @p data.
     *
     * The least-squares dual system is label-agnostic: with real-valued
     * targets the identical reduced system (Eq. 14) yields a kernel ridge
     * regressor — the regression support the paper lists as future work (§V).
     * Predictions are the raw decision values (`predict_values`).
     *
     * @param data a labeled data set; labels are the regression targets
     * @throws plssvm::invalid_data_exception if @p data is unlabeled
     */
    [[nodiscard]] model<T> fit_regression(const data_set<T> &data, const solver_control &ctrl = {});

    /// Decision values f(x) = sum_i alpha_i k(sv_i, x) - rho for every point.
    /// The device backends override this with their device prediction kernels.
    [[nodiscard]] virtual std::vector<T> predict_values(const model<T> &trained, const data_set<T> &data) const;

    /// Predicted labels in the original label domain of the trained model.
    [[nodiscard]] std::vector<T> predict(const model<T> &trained, const data_set<T> &data) const;

    /**
     * @brief Classification accuracy of @p trained on labeled @p data, in [0, 1].
     * @throws plssvm::invalid_data_exception if @p data has no labels
     */
    [[nodiscard]] T score(const model<T> &trained, const data_set<T> &data) const;

    [[nodiscard]] const parameter &params() const noexcept { return params_; }

    /// Human-readable backend identifier ("openmp", "cuda", ...).
    [[nodiscard]] virtual std::string_view backend_name() const noexcept = 0;

    /// Component timings of the last `fit` call (read/transform/cg/write/...).
    [[nodiscard]] detail::tracker &performance_tracker() noexcept { return tracker_; }
    [[nodiscard]] const detail::tracker &performance_tracker() const noexcept { return tracker_; }

  protected:
    /// Result of a backend solve for one label column: full weight vector
    /// (size m), bias, CG stats.
    struct solve_result {
        std::vector<T> alpha;
        T bias{ 0 };
        std::size_t iterations{ 0 };
        double final_relative_residual{ 0.0 };
    };

    /**
     * @brief Backend hook: solve the reduced systems Q~ alpha~ = y¯ - y_m 1 of
     *        every label column in one CG and recover each (full alpha, bias).
     * @param points the training points (row-major host layout)
     * @param label_columns k label columns of size m (+-1 labels, or the
     *        targets of a regression)
     * @param kp kernel parameters with gamma resolved
     * @param ctrl CG controls
     * @return one result per column, in column order
     */
    [[nodiscard]] virtual std::vector<solve_result> solve_lssvm(const aos_matrix<T> &points,
                                                                const std::vector<std::vector<T>> &label_columns,
                                                                const kernel_params<T> &kp,
                                                                const solver_control &ctrl) = 0;

    /**
     * @brief The solve shared by every backend: one CG over @p op for the
     *        reduced right-hand sides of all @p label_columns, then each
     *        column's bias (Eq. 15) and eliminated weight.
     * @param q the operator's q vector (q_i = k(x_i, x_m))
     * @param q_mm the operator's Q_mm = k(x_m, x_m) + 1/C
     */
    [[nodiscard]] static std::vector<solve_result> solve_columns(solver::linear_operator<T> &op,
                                                                 const std::vector<T> &q,
                                                                 T q_mm,
                                                                 const std::vector<std::vector<T>> &label_columns,
                                                                 const solver_control &ctrl);

    /// Resolve `parameter` into runtime kernel params for @p num_features.
    [[nodiscard]] kernel_params<T> make_kernel_params(std::size_t num_features) const;

    parameter params_;
    mutable detail::tracker tracker_;

  private:
    /// Solve every column of @p columns at once and wrap column c as a model
    /// with the labels @p model_labels[c] (positive, negative); the models
    /// share one copy of @p points.
    [[nodiscard]] std::vector<model<T>> train(const aos_matrix<T> &points,
                                              const std::vector<std::vector<T>> &columns,
                                              const std::vector<std::pair<T, T>> &model_labels,
                                              const solver_control &ctrl);
};

}  // namespace plssvm

#endif  // PLSSVM_CORE_CSVM_HPP_
