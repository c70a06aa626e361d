/**
 * @file
 * @brief Floating-point sums whose result does not depend on the thread count.
 *
 * An OpenMP `reduction(+)` adds its per-thread partials in the order the
 * threads finish, so the same sum can round differently from one run, or one
 * thread count, to the next. `chunked_sum` cuts the range into fixed chunks
 * of `reduction_chunk` entries, sums each chunk serially into its own slot
 * and adds the slots in chunk order: the result depends on n only. Every
 * reduction of the training path (CG's dot products, the OpenMP operators'
 * sum(x) and <q, x>) goes through it, which makes a fit bitwise reproducible
 * at any thread count.
 */

#ifndef PLSSVM_DETAIL_CHUNKED_SUM_HPP_
#define PLSSVM_DETAIL_CHUNKED_SUM_HPP_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace plssvm::detail {

/// Entries per partial sum of `chunked_sum`.
inline constexpr std::size_t reduction_chunk = 1024;

/// sum_{i < n} term(i), reduced over fixed chunks (see the file comment).
template <typename T, typename Term>
[[nodiscard]] T chunked_sum(const std::size_t n, const Term &term) {
    const std::size_t num_chunks = (n + reduction_chunk - 1) / reduction_chunk;
    std::vector<T> partial(num_chunks);
    #pragma omp parallel for schedule(static) if (num_chunks > 1)
    for (std::size_t c = 0; c < num_chunks; ++c) {
        const std::size_t end = std::min(n, (c + 1) * reduction_chunk);
        T sum{ 0 };
        for (std::size_t i = c * reduction_chunk; i < end; ++i) {
            sum += term(i);
        }
        partial[c] = sum;
    }
    T total{ 0 };
    for (const T sum : partial) {
        total += sum;
    }
    return total;
}

}  // namespace plssvm::detail

#endif  // PLSSVM_DETAIL_CHUNKED_SUM_HPP_
