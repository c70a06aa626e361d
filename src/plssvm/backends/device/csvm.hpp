/**
 * @file
 * @brief Common csvm implementation for all simulated device backends
 *        (CUDA, OpenCL, SYCL differ only in their runtime profile).
 *
 * Training pipeline on the device (paper §III): transform the parsed data
 * into the padded SoA layout, upload it, then run CG on the host with the
 * implicit matrix-vector product executed on the device(s). A solve over k
 * label columns (a one-vs-all ensemble) transforms and uploads the data
 * once; every iteration then runs one device sweep per active column. Component
 * timings land in the performance tracker: wall seconds (host reality) and
 * simulated device seconds (what the paper's hardware would take).
 */

#ifndef PLSSVM_BACKENDS_DEVICE_CSVM_HPP_
#define PLSSVM_BACKENDS_DEVICE_CSVM_HPP_

#include "plssvm/core/csvm.hpp"
#include "plssvm/sim/cost_model.hpp"
#include "plssvm/sim/device.hpp"

#include <cstddef>
#include <vector>

namespace plssvm::backend::device {

template <typename T>
class device_csvm : public ::plssvm::csvm<T> {
  public:
    /**
     * @param params SVM hyper-parameters
     * @param runtime which programming-model runtime to simulate
     * @param specs one entry per device; more than one enables the
     *        feature-split multi-device mode (linear kernel only)
     * @param cfg blocking configuration of the device kernels
     * @throws plssvm::unsupported_backend_exception e.g. CUDA on non-NVIDIA
     */
    device_csvm(parameter params,
                sim::backend_runtime runtime,
                const std::vector<sim::device_spec> &specs,
                const sim::block_config &cfg = {});

    [[nodiscard]] std::string_view backend_name() const noexcept override {
        return sim::backend_runtime_to_string(runtime_);
    }

    /// Device-side prediction: `device_kernel_w` for the linear kernel (one
    /// pass over the SVs, then host dot products), `device_kernel_predict`
    /// for the non-linear kernels. Runs on the first device like native
    /// PLSSVM; timings land in the "predict" tracker component.
    [[nodiscard]] std::vector<T> predict_values(const model<T> &trained, const data_set<T> &data) const override;

    [[nodiscard]] std::size_t num_devices() const noexcept { return devices_.size(); }
    [[nodiscard]] const std::vector<sim::device> &devices() const noexcept { return devices_; }
    [[nodiscard]] std::vector<sim::device> &devices() noexcept { return devices_; }

    /// Peak bytes ever allocated on device @p d (paper §IV-G memory numbers).
    [[nodiscard]] std::size_t peak_device_memory(const std::size_t d) const {
        return devices_.at(d).peak_allocated_bytes();
    }

    [[nodiscard]] const sim::block_config &block_config() const noexcept { return cfg_; }

  protected:
    using typename ::plssvm::csvm<T>::solve_result;

    [[nodiscard]] std::vector<solve_result> solve_lssvm(const aos_matrix<T> &points,
                                                        const std::vector<std::vector<T>> &label_columns,
                                                        const kernel_params<T> &kp,
                                                        const solver_control &ctrl) override;

  private:
    sim::backend_runtime runtime_;
    sim::block_config cfg_;
    // mutable: prediction is logically const but advances the simulated
    // device clocks (launches + transfers), mirroring real device state
    mutable std::vector<sim::device> devices_;
    bool first_fit_{ true };
};

}  // namespace plssvm::backend::device

#endif  // PLSSVM_BACKENDS_DEVICE_CSVM_HPP_
