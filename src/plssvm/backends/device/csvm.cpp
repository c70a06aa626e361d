#include "plssvm/backends/device/csvm.hpp"

#include "plssvm/backends/device/predict_kernels.hpp"
#include "plssvm/backends/device/q_operator.hpp"
#include "plssvm/detail/tracker.hpp"
#include "plssvm/exceptions.hpp"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

namespace plssvm::backend::device {

template <typename T>
device_csvm<T>::device_csvm(parameter params,
                            const sim::backend_runtime runtime,
                            const std::vector<sim::device_spec> &specs,
                            const sim::block_config &cfg) :
    ::plssvm::csvm<T>{ params },
    runtime_{ runtime },
    cfg_{ cfg } {
    if (specs.empty()) {
        throw invalid_parameter_exception{ "A device backend requires at least one device!" };
    }
    devices_.reserve(specs.size());
    for (const sim::device_spec &spec : specs) {
        devices_.emplace_back(spec, sim::runtime_profile::for_device(runtime, spec));
    }
}

template <typename T>
std::vector<T> device_csvm<T>::predict_values(const model<T> &trained, const data_set<T> &data) const {
    if (data.num_features() != trained.num_features()) {
        throw invalid_data_exception{ "The data has " + std::to_string(data.num_features()) + " features but the model was trained with " + std::to_string(trained.num_features()) + "!" };
    }
    const auto start = std::chrono::steady_clock::now();
    sim::device &dev = devices_.front();  // prediction runs on the first device
    const double sim_before = dev.clock_seconds();

    const std::size_t num_sv = trained.num_support_vectors();
    const std::size_t num_points = data.num_data_points();
    const std::size_t dim = data.num_features();
    const kernel_params<T> kp{ trained.params().kernel, trained.params().degree,
                               trained.effective_gamma(), static_cast<T>(trained.params().coef0) };
    const T bias = trained.bias();

    // upload support vectors (SoA) and weights
    const soa_matrix<T> sv_soa = transform_to_soa(trained.support_vectors(), cfg_.tile());
    sim::device_buffer<T> sv_buffer{ dev, sv_soa.data().size() };
    sv_buffer.copy_from_host(sv_soa.data().data(), sv_soa.data().size());
    sim::device_buffer<T> alpha_buffer{ dev, sv_soa.padded_rows() };
    alpha_buffer.copy_from_host(trained.alpha().data(), num_sv);

    std::vector<T> values(num_points);

    if (kp.kernel == kernel_type::linear) {
        // device_kernel_w: one pass over the SVs, then host dot products
        sim::device_buffer<T> w_buffer{ dev, dim };
        const sim::kernel_cost w_cost = sim::predict_kernel_cost(0, num_sv, dim, kp.kernel, sizeof(T));
        dev.launch("device_kernel_w", w_cost, [&] {
            kernel_w(sv_buffer.data(), alpha_buffer.data(), num_sv, sv_soa.padded_rows(), dim, w_buffer.data());
        });
        std::vector<T> w(dim);
        w_buffer.copy_to_host(w.data(), dim);
        #pragma omp parallel for
        for (std::size_t p = 0; p < num_points; ++p) {
            values[p] = kernels::dot(w.data(), data.points().row_data(p), dim) + bias;
        }
    } else {
        const soa_matrix<T> pt_soa = transform_to_soa(data.points(), cfg_.tile());
        sim::device_buffer<T> pt_buffer{ dev, pt_soa.data().size() };
        pt_buffer.copy_from_host(pt_soa.data().data(), pt_soa.data().size());
        sim::device_buffer<T> out_buffer{ dev, pt_soa.padded_rows() };
        const sim::kernel_cost cost = sim::predict_kernel_cost(num_points, num_sv, dim, kp.kernel, sizeof(T));
        dev.launch("device_kernel_predict", cost, [&] {
            kernel_predict(sv_buffer.data(), alpha_buffer.data(), num_sv, sv_soa.padded_rows(),
                           pt_buffer.data(), num_points, pt_soa.padded_rows(), dim, kp, out_buffer.data());
        });
        out_buffer.copy_to_host(values.data(), num_points);
        for (T &v : values) {
            v += bias;
        }
    }

    const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    this->tracker_.add("predict", wall, dev.clock_seconds() - sim_before);
    return values;
}

template <typename T>
auto device_csvm<T>::solve_lssvm(const aos_matrix<T> &points,
                                 const std::vector<std::vector<T>> &label_columns,
                                 const kernel_params<T> &kp,
                                 const solver_control &ctrl) -> std::vector<solve_result> {
    if (first_fit_) {
        // one-time backend/runtime initialisation cost (charged at device
        // construction); report it so "total" pipeline sums are complete
        double init_sim = 0.0;
        for (const sim::device &dev : devices_) {
            init_sim = std::max(init_sim, dev.clock_seconds());
        }
        this->tracker_.add("init", 0.0, init_sim);
        first_fit_ = false;
    }

    // operator construction performs & tracks "transform" and "h2d"
    device_q_operator<T> op{ devices_, points, kp, static_cast<T>(this->params_.cost), cfg_, this->tracker_ };
    const std::vector<T> q = op.q_host();

    const auto cg_start = std::chrono::steady_clock::now();
    const double sim_before = op.apply_sim_seconds();
    std::vector<solve_result> results = this->solve_columns(op, q, op.q_mm(), label_columns, ctrl);
    const double cg_wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - cg_start).count();
    this->tracker_.add("cg", cg_wall, op.apply_sim_seconds() - sim_before);
    return results;
}

template class device_csvm<float>;
template class device_csvm<double>;

}  // namespace plssvm::backend::device
