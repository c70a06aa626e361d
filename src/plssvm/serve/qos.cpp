#include "plssvm/serve/qos.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <mutex>
#include <utility>

namespace plssvm::serve {

namespace {

/// Idle flush-delay factor per class when `base_flush_delay` is "auto":
/// interactive flushes at the engine's configured delay, bulk classes may
/// coalesce longer since nobody is waiting on them interactively.
constexpr per_class<std::size_t> default_flush_factor{ 1, 4, 16 };

[[nodiscard]] double clamp01(const double v) {
    return std::min(1.0, std::max(0.0, v));
}

}  // namespace

batch_tuner::batch_tuner(const qos_config &config, const batch_policy base, latency_estimator estimate) :
    config_{ config },
    estimate_{ std::move(estimate) } {
    // resolve every zero-valued "auto" knob against the engine's base policy
    adaptive_batch_config &a = config_.adaptive;
    if (a.min_batch_size == 0) {
        a.min_batch_size = std::max<std::size_t>(1, base.max_batch_size / 8);
    }
    if (a.max_batch_size == 0) {
        a.max_batch_size = std::max<std::size_t>(base.max_batch_size * 4, base.max_batch_size);
    }
    a.max_batch_size = std::max(a.max_batch_size, a.min_batch_size);
    if (a.backlog_at_max <= 0.0) {
        a.backlog_at_max = 2.0 * static_cast<double>(a.max_batch_size);
    }
    a.alpha = clamp01(a.alpha <= 0.0 ? 0.25 : a.alpha);
    a.exec_budget_fraction = a.exec_budget_fraction <= 0.0 ? 0.5 : std::min(1.0, a.exec_budget_fraction);
    for (const request_class cls : all_request_classes) {
        class_qos_config &c = config_.classes[class_index(cls)];
        if (c.base_flush_delay.count() <= 0) {
            c.base_flush_delay = base.max_delay * default_flush_factor[class_index(cls)];
        }
        if (c.max_flush_delay.count() <= 0) {
            c.max_flush_delay = c.base_flush_delay * 8;
        }
        c.max_flush_delay = std::max(c.max_flush_delay, c.base_flush_delay);
    }
    if (!config_.adaptive_batching) {
        // static mode: the historical one-policy behaviour for every class
        for (const request_class cls : all_request_classes) {
            policies_[class_index(cls)] = class_batch_policy{ base.max_batch_size, base.max_delay, std::chrono::microseconds{ 0 } };
        }
        return;
    }
    const std::lock_guard lock{ mutex_ };
    recompute();
}

void batch_tuner::observe(const std::size_t backlog, const std::size_t lane_queue_depth, const std::size_t cross_lane_queued) {
    if (!config_.adaptive_batching) {
        return;  // static policies, nothing to adapt
    }
    const std::lock_guard lock{ mutex_ };
    // cross-lane pressure counts at quarter weight: another tenant's backlog
    // slows this engine down, but far less than its own queue does
    const double pressure_sample = static_cast<double>(backlog) + static_cast<double>(lane_queue_depth)
                                   + 0.25 * static_cast<double>(cross_lane_queued);
    const double alpha = config_.adaptive.alpha;
    ewma_pressure_ = alpha * pressure_sample + (1.0 - alpha) * ewma_pressure_;
    recompute();
}

void batch_tuner::recompute() {
    const adaptive_batch_config &a = config_.adaptive;
    saturation_ = clamp01(ewma_pressure_ / a.backlog_at_max);
    const auto span = static_cast<double>(a.max_batch_size - a.min_batch_size);
    const std::size_t base_target = a.min_batch_size + static_cast<std::size_t>(std::llround(saturation_ * span));
    for (const request_class cls : all_request_classes) {
        const class_qos_config &c = config_.classes[class_index(cls)];
        class_batch_policy policy;
        policy.target_batch_size = base_target;
        if (c.deadline_budget.count() > 0 && estimate_) {
            // never grow a deadline-carrying class's batches past the point
            // where executing one batch would eat its deadline share
            const double exec_budget_s = a.exec_budget_fraction * std::chrono::duration<double>(c.deadline_budget).count();
            while (policy.target_batch_size > a.min_batch_size
                   && estimate_(policy.target_batch_size) > exec_budget_s) {
                policy.target_batch_size = std::max(a.min_batch_size, policy.target_batch_size / 2);
            }
        }
        const auto flush_span = std::chrono::duration<double>(c.max_flush_delay - c.base_flush_delay);
        policy.flush_delay = c.base_flush_delay
                             + std::chrono::duration_cast<std::chrono::microseconds>(saturation_ * flush_span);
        if (estimate_) {
            policy.estimated_batch_latency = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::duration<double>(estimate_(policy.target_batch_size)));
        }
        policies_[class_index(cls)] = policy;
    }
}

per_class<class_batch_policy> batch_tuner::policies() const {
    const std::lock_guard lock{ mutex_ };
    return policies_;
}

double batch_tuner::saturation() const {
    const std::lock_guard lock{ mutex_ };
    return saturation_;
}

}  // namespace plssvm::serve
