#include "plssvm/solver/cg.hpp"

#include "plssvm/detail/assert.hpp"
#include "plssvm/detail/chunked_sum.hpp"
#include "plssvm/exceptions.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace plssvm::solver {

namespace {

template <typename T>
[[nodiscard]] T dot(const T *x, const T *y, const std::size_t n) {
    return detail::chunked_sum<T>(n, [x, y](const std::size_t i) { return x[i] * y[i]; });
}

// axpy and xpay stay serial up to one reduction chunk, as `dot` does: a
// team of threads costs more than a few hundred multiply-adds
template <typename T>
void axpy(const T a, const T *x, T *y, const std::size_t n) {
    #pragma omp parallel for simd if (n > detail::reduction_chunk)
    for (std::size_t i = 0; i < n; ++i) {
        y[i] += a * x[i];
    }
}

template <typename T>
void xpay(const T *x, const T a, T *y, const std::size_t n) {
    #pragma omp parallel for simd if (n > detail::reduction_chunk)
    for (std::size_t i = 0; i < n; ++i) {
        y[i] = x[i] + a * y[i];
    }
}

/// The one CG of this file (see the header): @p k columns of @p B and @p X,
/// one `apply_block` per iteration over the columns still iterating.
/// @p observer sees every iteration of every column.
template <typename T>
std::vector<cg_result> solve(linear_operator<T> &A,
                             const std::vector<T> &B,
                             std::vector<T> &X,
                             const std::size_t k,
                             const solver_control &ctrl,
                             const cg_observer &observer) {
    ctrl.validate();
    const std::size_t n = A.size();
    PLSSVM_ASSERT(B.size() == n * k, "Right-hand side size does not match the operator!");
    PLSSVM_ASSERT(X.size() == n * k, "Initial guess size does not match the operator!");

    const std::size_t max_iterations = ctrl.max_iterations.value_or(n);
    const auto column = [n](auto &block, const std::size_t c) { return block.data() + c * n; };

    std::vector<cg_result> results(k);
    std::vector<T> norm_b_squared(k);
    std::vector<T> target(k);
    std::vector<T> delta(k);

    // slot j of the working blocks R, D and AD holds column active[j]
    std::vector<std::size_t> active;
    for (std::size_t c = 0; c < k; ++c) {
        norm_b_squared[c] = dot(column(B, c), column(B, c), n);
        if (norm_b_squared[c] == T{ 0 }) {
            // b = 0 => x = 0 is the exact solution.
            std::fill_n(column(X, c), n, T{ 0 });
            results[c].converged = true;
        } else {
            target[c] = static_cast<T>(ctrl.epsilon) * static_cast<T>(ctrl.epsilon) * norm_b_squared[c];
            active.push_back(c);
        }
    }
    std::vector<T> R(n * active.size());
    for (std::size_t j = 0; j < active.size(); ++j) {
        std::copy_n(column(B, active[j]), n, column(R, j));
    }

    // r = b - A x for the given slots, in one block apply
    const auto refresh_residuals = [&](const std::vector<std::size_t> &slots) {
        if (slots.empty()) {
            return;
        }
        std::vector<T> x_block(n * slots.size());
        std::vector<T> ax_block(n * slots.size());
        for (std::size_t s = 0; s < slots.size(); ++s) {
            std::copy_n(column(X, active[slots[s]]), n, column(x_block, s));
        }
        A.apply_block(x_block, ax_block, slots.size());
        for (std::size_t s = 0; s < slots.size(); ++s) {
            const T *b = column(B, active[slots[s]]);
            const T *ax = column(ax_block, s);
            T *r = column(R, slots[s]);
            for (std::size_t i = 0; i < n; ++i) {
                r[i] = b[i] - ax[i];
            }
        }
    };

    // a zero initial guess has the residual b exactly: no sweep for it
    std::vector<std::size_t> warm_starts;
    for (std::size_t j = 0; j < active.size(); ++j) {
        const T *x = column(X, active[j]);
        if (std::any_of(x, x + n, [](const T v) { return v != T{ 0 }; })) {
            warm_starts.push_back(j);
        }
    }
    refresh_residuals(warm_starts);

    std::vector<T> D = R;  // initial search directions
    for (std::size_t j = 0; j < active.size(); ++j) {
        delta[active[j]] = dot(column(R, j), column(R, j), n);
    }
    std::vector<T> AD(D.size());

    // drop the slots whose column stopped (broke down or reached its
    // target), keeping the others in order
    std::vector<bool> stopped(active.size(), false);
    const auto retire = [&]() {
        std::size_t kept = 0;
        for (std::size_t j = 0; j < active.size(); ++j) {
            const std::size_t c = active[j];
            if (stopped[j] || delta[c] <= target[c]) {
                continue;
            }
            if (kept != j) {
                std::copy_n(column(R, j), n, column(R, kept));
                std::copy_n(column(D, j), n, column(D, kept));
            }
            active[kept++] = c;
        }
        active.resize(kept);
        R.resize(n * kept);
        D.resize(n * kept);
        AD.resize(n * kept);
        stopped.assign(kept, false);
    };
    retire();

    std::vector<T> step(active.size());  // per-slot alpha of the current iteration
    std::size_t iteration = 0;
    while (!active.empty() && iteration < max_iterations) {
        A.apply_block(D, AD, active.size());
        ++iteration;

        std::vector<std::size_t> moving;
        for (std::size_t j = 0; j < active.size(); ++j) {
            const std::size_t c = active[j];
            const T dAd = dot(column(D, j), column(AD, j), n);
            if (dAd <= T{ 0 }) {
                // Loss of positive definiteness (numerically); stop this
                // column at its current iterate rather than dividing by a
                // non-positive value.
                stopped[j] = true;
                continue;
            }
            step[j] = delta[c] / dAd;
            axpy(step[j], column(D, j), column(X, c), n);
            results[c].iterations = iteration;
            moving.push_back(j);
        }

        if (iteration % ctrl.residual_refresh_interval == 0) {
            // recompute the exact residual to remove accumulated drift
            refresh_residuals(moving);
        } else {
            for (const std::size_t j : moving) {
                axpy(-step[j], column(AD, j), column(R, j), n);
            }
        }

        for (const std::size_t j : moving) {
            const std::size_t c = active[j];
            const T delta_new = dot(column(R, j), column(R, j), n);
            const T beta = delta_new / delta[c];
            xpay(column(R, j), beta, column(D, j), n);
            delta[c] = delta_new;
            if (observer) {
                observer(iteration, std::sqrt(static_cast<double>(delta[c] / norm_b_squared[c])));
            }
        }
        retire();
    }

    for (std::size_t c = 0; c < k; ++c) {
        if (norm_b_squared[c] == T{ 0 }) {
            continue;
        }
        results[c].final_relative_residual = std::sqrt(static_cast<double>(delta[c] / norm_b_squared[c]));
        results[c].converged = delta[c] <= target[c];
        if (!results[c].converged && ctrl.strict) {
            const std::string which = k > 1 ? ", right-hand side " + std::to_string(c) : "";
            throw solver_exception{ "CG did not converge within " + std::to_string(max_iterations) + " iterations (relative residual " + std::to_string(results[c].final_relative_residual) + which + ")!" };
        }
    }
    return results;
}

}  // namespace

template <typename T>
T dot_product(const std::vector<T> &x, const std::vector<T> &y) {
    PLSSVM_ASSERT(x.size() == y.size(), "dot_product requires equally sized vectors!");
    return dot(x.data(), y.data(), x.size());
}

template <typename T>
void axpy(const T a, const std::vector<T> &x, std::vector<T> &y) {
    PLSSVM_ASSERT(x.size() == y.size(), "axpy requires equally sized vectors!");
    axpy(a, x.data(), y.data(), x.size());
}

template <typename T>
void xpay(const std::vector<T> &x, const T a, std::vector<T> &y) {
    PLSSVM_ASSERT(x.size() == y.size(), "xpay requires equally sized vectors!");
    xpay(x.data(), a, y.data(), x.size());
}

template <typename T>
cg_result conjugate_gradients(linear_operator<T> &A,
                              const std::vector<T> &b,
                              std::vector<T> &x,
                              const solver_control &ctrl,
                              const cg_observer &observer) {
    return solve(A, b, x, 1, ctrl, observer).front();
}

template <typename T>
std::vector<cg_result> conjugate_gradients(linear_operator<T> &A,
                                           const std::vector<T> &B,
                                           std::vector<T> &X,
                                           const std::size_t num_rhs,
                                           const solver_control &ctrl) {
    return solve(A, B, X, num_rhs, ctrl, {});
}

template float dot_product<float>(const std::vector<float> &, const std::vector<float> &);
template double dot_product<double>(const std::vector<double> &, const std::vector<double> &);
template void axpy<float>(float, const std::vector<float> &, std::vector<float> &);
template void axpy<double>(double, const std::vector<double> &, std::vector<double> &);
template void xpay<float>(const std::vector<float> &, float, std::vector<float> &);
template void xpay<double>(const std::vector<double> &, double, std::vector<double> &);

template cg_result conjugate_gradients<float>(linear_operator<float> &, const std::vector<float> &, std::vector<float> &, const solver_control &, const cg_observer &);
template cg_result conjugate_gradients<double>(linear_operator<double> &, const std::vector<double> &, std::vector<double> &, const solver_control &, const cg_observer &);
template std::vector<cg_result> conjugate_gradients<float>(linear_operator<float> &, const std::vector<float> &, std::vector<float> &, std::size_t, const solver_control &);
template std::vector<cg_result> conjugate_gradients<double>(linear_operator<double> &, const std::vector<double> &, std::vector<double> &, std::size_t, const solver_control &);

}  // namespace plssvm::solver
