/**
 * @file
 * @brief Abstract linear operator consumed by the CG solver.
 *
 * The LS-SVM system matrix Q~ has (m-1)^2 entries and is never materialised
 * (paper §III-B); every backend provides its own implicit matrix-vector
 * product behind this interface. Q~ does not depend on the labels, so one
 * CG can carry several right-hand sides (one per one-vs-all class) and apply
 * the operator to all of their directions at once (`apply_block`).
 */

#ifndef PLSSVM_SOLVER_OPERATOR_HPP_
#define PLSSVM_SOLVER_OPERATOR_HPP_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace plssvm::solver {

template <typename T>
class linear_operator {
  public:
    linear_operator() = default;
    linear_operator(const linear_operator &) = delete;
    linear_operator &operator=(const linear_operator &) = delete;
    linear_operator(linear_operator &&) = delete;
    linear_operator &operator=(linear_operator &&) = delete;
    virtual ~linear_operator() = default;

    /// Dimension n of the square operator.
    [[nodiscard]] virtual std::size_t size() const noexcept = 0;

    /// Compute out = A * x. Both vectors have size() entries; out is overwritten.
    virtual void apply(const std::vector<T> &x, std::vector<T> &out) = 0;

    /**
     * @brief Compute out_c = A * x_c for @p num_columns columns of size()
     *        entries each, stored one after another in @p x and @p out
     *        (out is overwritten).
     *
     * The default calls `apply` once per column. An operator that can share
     * work between the columns overrides it (the OpenMP `q_operator`
     * evaluates each kernel entry once for all of them); its column c must
     * equal `apply` on x_c bit for bit, so that a CG over k right-hand sides
     * repeats each column's own solve exactly.
     */
    virtual void apply_block(const std::vector<T> &x, std::vector<T> &out, const std::size_t num_columns) {
        if (num_columns == 1) {
            apply(x, out);
            return;
        }
        const std::size_t n = size();
        std::vector<T> column(n);
        std::vector<T> result(n);
        for (std::size_t c = 0; c < num_columns; ++c) {
            const auto offset = static_cast<std::ptrdiff_t>(c * n);
            std::copy_n(x.begin() + offset, n, column.begin());
            apply(column, result);
            std::copy(result.begin(), result.end(), out.begin() + offset);
        }
    }
};

}  // namespace plssvm::solver

#endif  // PLSSVM_SOLVER_OPERATOR_HPP_
