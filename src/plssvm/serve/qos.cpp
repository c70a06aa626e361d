#include "plssvm/serve/qos.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>

namespace plssvm::serve {

per_class<std::size_t> class_batch_caps(const qos_config &config, const std::size_t max_batch_size, const latency_estimator &estimate) {
    const std::size_t cap = std::max<std::size_t>(1, max_batch_size);
    const double fraction = config.adaptive.exec_budget_fraction <= 0.0 ? 0.5 : std::min(1.0, config.adaptive.exec_budget_fraction);
    per_class<std::size_t> caps{};
    for (const request_class cls : all_request_classes) {
        std::size_t &class_cap = caps[class_index(cls)];
        class_cap = cap;
        const std::chrono::microseconds budget = config.classes[class_index(cls)].deadline_budget;
        if (budget.count() > 0 && estimate) {
            // never let one batch's execution eat the class's deadline share
            const double exec_budget_s = fraction * std::chrono::duration<double>(budget).count();
            while (class_cap > 1 && estimate(class_cap) > exec_budget_s) {
                class_cap /= 2;
            }
        }
    }
    return caps;
}

}  // namespace plssvm::serve
