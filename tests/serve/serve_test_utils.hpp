/**
 * @file
 * @brief Shared helpers for the serving-subsystem tests: deterministic
 *        synthetic models and query points for every kernel type, and the
 *        randomized sparse-parity harness (seeded (density, n_sv,
 *        n_features, batch) grids asserted against the scalar reference
 *        sweep).
 */

#ifndef PLSSVM_TESTS_SERVE_SERVE_TEST_UTILS_HPP_
#define PLSSVM_TESTS_SERVE_SERVE_TEST_UTILS_HPP_

#include "plssvm/core/matrix.hpp"
#include "plssvm/core/model.hpp"
#include "plssvm/core/parameter.hpp"
#include "plssvm/core/sparse_matrix.hpp"
#include "plssvm/detail/rng.hpp"
#include "plssvm/ext/multiclass.hpp"
#include "plssvm/serve/compiled_model.hpp"

#include <gtest/gtest.h>

#include <sys/syscall.h>  // SYS_gettid
#include <unistd.h>       // syscall

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

namespace plssvm::test {

/// Yield until @p predicate holds or @p timeout elapses; returns the
/// predicate's final value. For counters that legitimately move just after
/// a future settles (an executor task counts as completed only once its
/// closure returned), so a test waits for the counter without sleeping.
template <typename Predicate>
[[nodiscard]] bool wait_until(Predicate &&predicate, const std::chrono::milliseconds timeout = std::chrono::milliseconds{ 5000 }) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!predicate()) {
        if (std::chrono::steady_clock::now() >= deadline) {
            return predicate();
        }
        std::this_thread::yield();
    }
    return true;
}

/// Kernel id of the calling thread.
[[nodiscard]] inline long current_thread_id() {
    return ::syscall(SYS_gettid);
}

/// Voluntary context switches of thread @p tid of this process so far: each
/// one is a blocking wait that ended (0 if the thread is gone).
[[nodiscard]] inline std::size_t voluntary_switches(const long tid) {
    std::ifstream status{ "/proc/self/task/" + std::to_string(tid) + "/status" };
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
            return static_cast<std::size_t>(std::stoull(line.substr(24)));
        }
    }
    return 0;
}

/// Voluntary context switches of every thread of this process but the
/// calling one.
[[nodiscard]] inline std::size_t voluntary_switches_of_other_threads() {
    const long self = current_thread_id();
    std::size_t total = 0;
    for (const std::filesystem::directory_entry &task : std::filesystem::directory_iterator{ "/proc/self/task" }) {
        const long tid = std::stol(task.path().filename().string());
        if (tid != self) {
            total += voluntary_switches(tid);
        }
    }
    return total;
}

/**
 * @brief Holds an engine's drain thread inside the completion callback of
 *        one request until `release()`: the explicit signal with which a
 *        test makes requests queue up and leave in one batch.
 *
 * The constructor submits the holding request and returns once the drain
 * thread is inside its callback (`held()`), so the engine has nothing
 * queued; requests submitted afterwards wait until `release()` (or the
 * destructor), and a test waits for `pending_requests() == N` before
 * releasing them. The holding request counts as one served request of the
 * engine's default class.
 */
class drain_gate {
  public:
    template <typename Engine>
    explicit drain_gate(Engine &engine) :
        state_{ std::make_shared<state>() } {
        engine.submit(std::vector<double>(engine.num_features(), 0.0), {}, nullptr,
                      [s = state_](double, std::exception_ptr) { s->hold(); });
        std::unique_lock lock{ state_->mutex };
        held_ = state_->cv.wait_for(lock, std::chrono::seconds{ 10 }, [this] { return state_->entered; });
    }

    drain_gate(const drain_gate &) = delete;
    drain_gate &operator=(const drain_gate &) = delete;

    ~drain_gate() { release(); }

    /// Whether the drain thread entered the holding callback.
    [[nodiscard]] bool held() const noexcept { return held_; }

    /// Let the drain thread go (idempotent).
    void release() {
        {
            const std::lock_guard lock{ state_->mutex };
            state_->released = true;
        }
        state_->cv.notify_all();
    }

  private:
    /// Shared with the callback, which may still be returning from its wait
    /// after the gate is gone.
    struct state {
        std::mutex mutex;
        std::condition_variable cv;
        bool entered{ false };
        bool released{ false };

        void hold() {
            std::unique_lock lock{ mutex };
            entered = true;
            cv.notify_all();
            cv.wait(lock, [this] { return released; });
        }
    };

    std::shared_ptr<state> state_;
    bool held_{ false };
};

/// Deterministic random matrix with entries ~ N(0, 1).
[[nodiscard]] inline aos_matrix<double> random_matrix(const std::size_t rows, const std::size_t cols, const std::uint64_t seed) {
    auto engine = detail::make_engine(seed);
    aos_matrix<double> m{ rows, cols };
    for (double &v : m.data()) {
        v = detail::standard_normal<double>(engine);
    }
    return m;
}

/// Synthetic trained model: random support vectors and weights, fixed rho.
/// `num_sv` deliberately defaults to a non-multiple of the SoA padding so the
/// padded tail is exercised.
[[nodiscard]] inline model<double> random_model(const kernel_type kernel,
                                                const std::size_t num_sv = 37,
                                                const std::size_t dim = 11,
                                                const std::uint64_t seed = 42) {
    parameter params;
    params.kernel = kernel;
    params.degree = 3;
    params.gamma = 0.35;
    params.coef0 = 0.75;

    auto engine = detail::make_engine(seed + 1);
    std::vector<double> alpha(num_sv);
    for (double &a : alpha) {
        a = detail::standard_normal<double>(engine);
    }
    return model<double>{ params, random_matrix(num_sv, dim, seed), std::move(alpha), /*rho=*/0.125, /*positive=*/1.0, /*negative=*/-1.0 };
}

/// Synthetic one-vs-all ensemble of @p num_classes random binary heads
/// (labels 0, 1, ...), every head over @p dim features.
[[nodiscard]] inline ext::multiclass_model<double> random_ensemble(const kernel_type kernel,
                                                                   const std::size_t num_classes = 3,
                                                                   const std::size_t dim = 11,
                                                                   const std::uint64_t seed = 42) {
    std::vector<double> labels;
    std::vector<model<double>> heads;
    for (std::size_t c = 0; c < num_classes; ++c) {
        labels.push_back(static_cast<double>(c));
        heads.push_back(random_model(kernel, 37, dim, seed + 7 * c));
    }
    return ext::multiclass_model<double>{ std::move(labels), std::move(heads) };
}

/// All kernel types the library ships.
[[nodiscard]] inline std::vector<kernel_type> all_kernel_types() {
    return { kernel_type::linear, kernel_type::polynomial, kernel_type::rbf, kernel_type::sigmoid };
}

// --- randomized sparse-parity harness ---------------------------------------

/// Deterministic random matrix with an *exact* number of non-zeros:
/// `round(density * rows * cols)` entries at seeded-shuffled positions,
/// values ~ N(0, 1). Exact counts make the density threshold boundary
/// testable (a coin-flip generator only hits it in expectation).
[[nodiscard]] inline aos_matrix<double> sparse_random_matrix(const std::size_t rows, const std::size_t cols,
                                                             const double density, const std::uint64_t seed) {
    auto engine = detail::make_engine(seed);
    aos_matrix<double> m{ rows, cols };
    const std::size_t cells = rows * cols;
    const auto nnz = std::min(cells, static_cast<std::size_t>(std::llround(density * static_cast<double>(cells))));
    std::vector<std::size_t> positions(cells);
    std::iota(positions.begin(), positions.end(), std::size_t{ 0 });
    std::shuffle(positions.begin(), positions.end(), engine);
    for (std::size_t i = 0; i < nnz; ++i) {
        double v = detail::standard_normal<double>(engine);
        while (v == 0.0) {
            v = detail::standard_normal<double>(engine);  // keep the count exact
        }
        m.data()[positions[i]] = v;
    }
    return m;
}

/// Inject the awkward sparse structures every sparse sweep must survive:
/// an entirely empty row (0), a single-nnz row (1), and an all-zero last
/// column. Only shrinks the non-zero count, so a matrix below the density
/// threshold stays below it.
inline void inject_sparse_edge_cases(aos_matrix<double> &m) {
    if (m.num_rows() > 0) {
        std::fill(m.row_data(0), m.row_data(0) + m.num_cols(), 0.0);
    }
    if (m.num_rows() > 1 && m.num_cols() > 0) {
        std::fill(m.row_data(1), m.row_data(1) + m.num_cols(), 0.0);
        m(1, 0) = 1.5;
    }
    if (m.num_cols() > 1) {
        for (std::size_t r = 0; r < m.num_rows(); ++r) {
            m(r, m.num_cols() - 1) = 0.0;
        }
    }
}

/// Synthetic trained model whose support-vector panel has (at most) the given
/// exact density, with the edge-case structures injected.
[[nodiscard]] inline model<double> random_sparse_model(const kernel_type kernel,
                                                       const std::size_t num_sv,
                                                       const std::size_t dim,
                                                       const double density,
                                                       const std::uint64_t seed = 42) {
    parameter params;
    params.kernel = kernel;
    params.degree = 3;
    params.gamma = 0.35;
    params.coef0 = 0.75;

    auto engine = detail::make_engine(seed + 1);
    std::vector<double> alpha(num_sv);
    for (double &a : alpha) {
        a = detail::standard_normal<double>(engine);
    }
    aos_matrix<double> sv = sparse_random_matrix(num_sv, dim, density, seed);
    inject_sparse_edge_cases(sv);
    return model<double>{ params, std::move(sv), std::move(alpha), /*rho=*/0.125, /*positive=*/1.0, /*negative=*/-1.0 };
}

/// One cell of the randomized parity grid.
struct sparse_parity_case {
    double density;
    std::size_t num_sv;
    std::size_t dim;
    std::size_t batch;
};

/// The (density x shape) grid the randomized parity harness sweeps: densities
/// from empty through the default threshold up to half-dense, shapes chosen
/// to straddle every tile boundary (single SV/point, sub-tile, exact-tile,
/// non-multiple, multi-block).
[[nodiscard]] inline std::vector<sparse_parity_case> sparse_parity_grid() {
    const std::vector<double> densities{ 0.0, 0.02, 0.1, 0.5 };
    const std::vector<std::array<std::size_t, 3>> shapes{
        { 1, 7, 5 },      // a single support vector
        { 8, 16, 16 },    // exact sparse point tile
        { 37, 11, 33 },   // nothing a tile multiple
        { 64, 64, 64 },   // tile multiples everywhere
        { 130, 9, 100 },  // SVs beyond one padding block
        { 33, 7, 129 },   // batch > 8 sparse point tiles
    };
    std::vector<sparse_parity_case> grid;
    for (const double density : densities) {
        for (const auto &[num_sv, dim, batch] : shapes) {
            grid.push_back(sparse_parity_case{ density, num_sv, dim, batch });
        }
    }
    return grid;
}

/**
 * @brief Assert that every sparse execution path of @p compiled matches the
 *        per-point scalar reference sweep over @p queries within tolerance.
 *
 * Covers: the blocked dense path, the dense-query sparse sweep (when the
 * sparse compiled form is active), the CSR-query path (sparse merge-join /
 * row-pair sweeps or the densify fallback, whichever the compiled form
 * selects) — each over the full batch AND over a sub-range with
 * `row_begin != 0` so offset bugs at tile boundaries cannot hide.
 */
inline void expect_sparse_paths_match_reference(const serve::compiled_model<double> &compiled,
                                                const aos_matrix<double> &queries,
                                                const std::string &context) {
    const std::size_t batch = queries.num_rows();
    std::vector<double> reference(batch);
    compiled.decision_values_reference_into(queries, 0, batch, reference.data());

    const auto expect_matches = [&](const std::vector<double> &actual, const std::size_t offset, const char *path) {
        for (std::size_t p = 0; p < actual.size(); ++p) {
            const double expected = reference[offset + p];
            EXPECT_NEAR(actual[p], expected, 1e-10 * (1.0 + std::abs(expected)))
                << context << " path=" << path << " point=" << offset + p;
        }
    };

    // blocked dense path (the dense parity net, kept honest on sparse data)
    std::vector<double> blocked(batch);
    compiled.decision_values_into(queries, 0, batch, blocked.data());
    expect_matches(blocked, 0, "dense_blocked");

    // dense-query x sparse-SV sweep
    if (compiled.sparse_sv()) {
        std::vector<double> sparse_dense(batch);
        compiled.decision_values_sparse_into(queries, 0, batch, sparse_dense.data());
        expect_matches(sparse_dense, 0, "dense_query_sparse_sv");
    }

    // CSR-query path, full batch
    const csr_matrix<double> csr{ queries };
    std::vector<double> sparse_csr(batch);
    compiled.decision_values_into(csr, 0, batch, sparse_csr.data());
    expect_matches(sparse_csr, 0, "csr_query");

    // CSR-query and dense paths over a sub-range with row_begin != 0 (offset
    // deliberately not a tile multiple)
    if (batch >= 3) {
        const std::size_t row_begin = batch / 3 + 1;
        const std::size_t row_end = batch - batch / 7;
        std::vector<double> range(row_end - row_begin);
        compiled.decision_values_into(csr, row_begin, row_end, range.data());
        expect_matches(range, row_begin, "csr_query_row_slice");
        if (compiled.sparse_sv()) {
            compiled.decision_values_sparse_into(queries, row_begin, row_end, range.data());
            expect_matches(range, row_begin, "dense_query_sparse_sv_row_slice");
        }
    }
}

/**
 * @brief Run the full randomized parity grid for @p kernel: for every
 *        (density, shape) cell compile a sparse model (forced-sparse AND
 *        auto-threshold forms) and check all sparse paths against the
 *        reference sweep on equally sparse queries with injected edge cases.
 */
inline void run_sparse_parity_grid(const kernel_type kernel, const std::uint64_t seed = 4242) {
    std::uint64_t case_seed = seed;
    for (const sparse_parity_case &c : sparse_parity_grid()) {
        case_seed += 17;
        const std::string context = "kernel=" + std::string{ kernel_type_to_string(kernel) }
                                    + " density=" + std::to_string(c.density) + " num_sv=" + std::to_string(c.num_sv)
                                    + " dim=" + std::to_string(c.dim) + " batch=" + std::to_string(c.batch);
        const model<double> trained = random_sparse_model(kernel, c.num_sv, c.dim, c.density, case_seed);
        aos_matrix<double> queries = sparse_random_matrix(c.batch, c.dim, c.density, case_seed + 1);
        inject_sparse_edge_cases(queries);

        // forced sparse compiled form: the sparse sweeps must be exercised
        // even at density 0.5 and for the empty (density 0) panel
        const serve::compiled_model<double> forced{ trained, serve::compile_options{ .sparse_density_threshold = 1.5 } };
        EXPECT_TRUE(forced.sparse_sv()) << context;
        expect_sparse_paths_match_reference(forced, queries, context + " form=forced_sparse");

        // auto form under the default threshold: exercises the dense-form
        // fallbacks at high density and the sparse form below the threshold
        const serve::compiled_model<double> auto_form{ trained };
        expect_sparse_paths_match_reference(auto_form, queries, context + " form=auto");
    }
}

}  // namespace plssvm::test

#endif  // PLSSVM_TESTS_SERVE_SERVE_TEST_UTILS_HPP_
