#include "plssvm/serve/predict_dispatcher.hpp"

#include "plssvm/serve/batch_kernels.hpp"

#include <cstddef>

namespace plssvm::serve {

double predict_dispatcher::host_seconds(const std::size_t batch_size, const std::size_t num_sv, const std::size_t dim, const kernel_type kernel) const {
    const sim::kernel_cost cost = sim::serve_predict_cost(batch_size, num_sv, dim, kernel, params_.real_bytes);
    return sim::host_roofline_seconds(params_.host, cost);
}

double predict_dispatcher::host_sparse_seconds(const predict_shape &shape) const {
    const std::size_t query_nnz = shape.sparse_query ? shape.query_nnz : shape.batch_size * shape.dim;
    const sim::kernel_cost cost = sim::serve_sparse_predict_cost(shape.batch_size, shape.num_sv, shape.dim,
                                                                 shape.sv_nnz, query_nnz, shape.sparse_query,
                                                                 shape.kernel, params_.real_bytes,
                                                                 sparse_point_tile);
    return sim::host_roofline_seconds(params_.host, cost);
}

predict_path predict_dispatcher::choose(const std::size_t batch_size, const std::size_t num_sv, const std::size_t dim, const kernel_type kernel) const {
    return choose(predict_shape{ batch_size, num_sv, dim, kernel });
}

predict_path predict_dispatcher::choose(const predict_shape &shape) const {
    return choose(shape, fault::path_mask::all());
}

predict_path predict_dispatcher::choose(const predict_shape &shape, const fault::path_mask &allowed) const {
    if (shape.batch_size < params_.min_blocked_batch) {
        return predict_path::reference;
    }
    // the sparse sweep exists for non-linear kernels iff the model compiled
    // the sparse SV form, and for the linear kernel iff the queries are CSR
    // (dense linear prediction is a GEMV against w, independent of SV nnz)
    const bool sparse_available = shape.kernel == kernel_type::linear ? shape.sparse_query : shape.sv_nnz > 0;
    // reference is the unconditional fallback when every competitive path is
    // masked out by a tripped breaker
    predict_path best_path = predict_path::reference;
    double best = 0.0;
    if (allowed.allows(predict_path::host_blocked)) {
        best_path = predict_path::host_blocked;
        best = host_seconds(shape.batch_size, shape.num_sv, shape.dim, shape.kernel);
    }
    if (sparse_available && allowed.allows(predict_path::host_sparse)
        && (best_path == predict_path::reference || host_sparse_seconds(shape) < best)) {
        best_path = predict_path::host_sparse;
    }
    return best_path;
}

double predict_dispatcher::estimated_seconds(const predict_shape &shape) const {
    return estimated_seconds(shape, choose(shape));
}

double predict_dispatcher::estimated_seconds(const predict_shape &shape, const predict_path path) const {
    if (path == predict_path::host_sparse) {
        return host_sparse_seconds(shape);
    }
    return host_seconds(shape.batch_size, shape.num_sv, shape.dim, shape.kernel);
}

}  // namespace plssvm::serve
