#include "plssvm/serve/predict_dispatcher.hpp"

#include <cstddef>

namespace plssvm::serve {

namespace {

[[nodiscard]] double density(const std::size_t nnz, const std::size_t rows, const std::size_t cols) noexcept {
    const std::size_t cells = rows * cols;
    return cells == 0 ? 1.0 : static_cast<double>(nnz) / static_cast<double>(cells);
}

}  // namespace

double sparse_density(const predict_shape &shape) noexcept {
    const double query = density(shape.query_nnz, shape.batch_size, shape.dim);
    if (shape.kernel == kernel_type::linear) {
        return query;
    }
    const double sv = density(shape.sv_nnz, shape.num_sv, shape.dim);
    return shape.sparse_query ? 0.5 * (query + sv) : sv;
}

predict_path choose_path(const predict_shape &shape, const fault::path_mask &allowed) noexcept {
    if (shape.batch_size < min_blocked_batch) {
        return predict_path::reference;
    }
    // the sparse sweep exists for non-linear kernels iff the model compiled
    // the sparse SV form, and for the linear kernel iff the queries are CSR
    // (dense linear prediction is a GEMV against w, independent of SV nnz)
    const bool linear = shape.kernel == kernel_type::linear;
    const bool offered = linear ? shape.sparse_query : shape.sv_nnz > 0;
    const bool blocked = allowed.allows(predict_path::host_blocked);
    if (offered && allowed.allows(predict_path::host_sparse)) {
        const double threshold = linear ? sparse_threshold_linear
                                        : (shape.sparse_query ? sparse_threshold_csr_queries : sparse_threshold_dense_queries);
        if (!blocked || sparse_density(shape) < threshold) {
            return predict_path::host_sparse;
        }
    }
    // reference is the unconditional fallback when every competitive path is
    // masked out by a tripped breaker
    return blocked ? predict_path::host_blocked : predict_path::reference;
}

}  // namespace plssvm::serve
