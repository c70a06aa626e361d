/**
 * @file
 * @brief Immutable model snapshots and the RCU-style handle engines publish
 *        them through.
 *
 * A serving engine must be able to replace its model without stopping: the
 * old serving iteration recompiled in place while requests queued. Instead,
 * everything a batch evaluation needs — the compiled heads (one for a binary
 * model, one per class for a one-vs-all ensemble), the optional server-side
 * input scaling, and a version tag — is frozen into one immutable snapshot
 * object. Engines hold the current snapshot behind `snapshot_handle`:
 *
 *  - readers (`load()`) grab a shared_ptr once per batch and evaluate the
 *    whole batch against that snapshot — a swap mid-batch is invisible;
 *  - a reload shadow-compiles a *new* snapshot off the serving path and
 *    publishes it with one atomic `store()`; in-flight batches finish on the
 *    old snapshot, which dies with its last reference (RCU semantics: the
 *    shared_ptr control block is the grace period).
 *
 * No request ever observes a half-built model. The handle is a
 * mutex-guarded shared_ptr rather than `std::atomic<std::shared_ptr>`:
 * libstdc++ 12's lock-free implementation releases its embedded spinlock
 * with a relaxed RMW, which has no formal happens-before edge to the next
 * writer (ThreadSanitizer rightly reports it), and one uncontended mutex
 * acquisition per *batch* is noise next to the batch kernel — this way the
 * sanitized build exercises exactly the code production runs.
 *
 * The snapshot is also where server-side preprocessing lives: when an
 * `io::scaling` transform is attached, the engine applies it inside the
 * batch path, so clients send raw feature values and scaling stays
 * versioned *with* the model it was fitted for (swapping one without the
 * other is impossible by construction).
 */

#ifndef PLSSVM_SERVE_SNAPSHOT_HPP_
#define PLSSVM_SERVE_SNAPSHOT_HPP_

#include "plssvm/core/model.hpp"
#include "plssvm/exceptions.hpp"
#include "plssvm/ext/multiclass.hpp"
#include "plssvm/io/scaling.hpp"
#include "plssvm/serve/compiled_model.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace plssvm::serve {

/// Shared immutable scaling transform; nullptr means "clients pre-scale".
template <typename T>
using scaling_ptr = std::shared_ptr<const io::scaling<T>>;

/**
 * @brief Everything one engine batch evaluation depends on, frozen.
 *
 * A binary model is one head whose decision value maps to a label through
 * `compiled_model::label_from_decision`. A one-vs-all ensemble is k heads,
 * each oriented toward "its" class (the binary trainer may have mapped the
 * rest side to +1); the label is the argmax over the oriented scores, first
 * class on ties — exactly `ext::one_vs_all::predict`.
 */
template <typename T>
struct engine_snapshot {
    std::vector<compiled_model<T>> heads;  ///< one head, or one per ensemble class
    std::vector<T> orientation;            ///< +-1 per head, toward "this class" (+1 for a binary model)
    std::vector<T> class_labels;           ///< ensemble label domain in head order; empty for a binary model
    scaling_ptr<T> input_scaling{};        ///< optional server-side preprocessing
    std::uint64_t version{ 0 };            ///< monotonically increasing per engine

    /// A binary model: one head, labelled by `label_from_decision`.
    explicit engine_snapshot(compiled_model<T> binary, scaling_ptr<T> scaling = nullptr) :
        heads{ std::move(binary) },
        orientation{ T{ 1 } },
        input_scaling{ std::move(scaling) } {}

    /// A one-vs-all ensemble: every binary head compiled with @p opts.
    /// @throws plssvm::invalid_data_exception if the ensemble is empty or its
    ///         label and head counts differ
    engine_snapshot(const ext::multiclass_model<T> &ensemble, const compile_options opts, scaling_ptr<T> scaling = nullptr) :
        class_labels{ ensemble.class_labels() },
        input_scaling{ std::move(scaling) } {
        if (class_labels.empty() || ensemble.binary_models().empty()) {
            throw invalid_data_exception{ "The multi-class model is empty!" };
        }
        if (ensemble.binary_models().size() != class_labels.size()) {
            throw invalid_data_exception{ "The multi-class model has " + std::to_string(class_labels.size()) + " class labels but " + std::to_string(ensemble.binary_models().size()) + " binary heads!" };
        }
        heads.reserve(class_labels.size());
        orientation.reserve(class_labels.size());
        for (const model<T> &binary : ensemble.binary_models()) {
            // orient toward "this class"; see ext::one_vs_all::predict
            orientation.push_back(binary.positive_label() > T{ 0 } ? T{ 1 } : T{ -1 });
            heads.emplace_back(binary, opts);
        }
    }

    /// Whether this is a one-vs-all ensemble (rather than a binary model).
    [[nodiscard]] bool ensemble() const noexcept { return !class_labels.empty(); }

    /// Whether every head compiled the sparse SV form: all heads run the same
    /// dispatched path, so the sparse sweeps are on offer only then.
    [[nodiscard]] bool sparse_sv() const noexcept {
        return std::all_of(heads.begin(), heads.end(), [](const compiled_model<T> &head) { return head.sparse_sv(); });
    }

    /// The label of one row of oriented scores (one entry per head).
    [[nodiscard]] T label(const T *scores) const {
        if (!ensemble()) {
            return heads.front().label_from_decision(scores[0]);
        }
        T best = -std::numeric_limits<T>::infinity();
        T label = class_labels.front();
        for (std::size_t c = 0; c < heads.size(); ++c) {
            if (scores[c] > best) {
                best = scores[c];
                label = class_labels[c];
            }
        }
        return label;
    }
};

/**
 * @brief Publication point of an engine's current snapshot.
 *
 * `load()` is what every batch calls once; `store()` is the reload's atomic
 * swap. The wrapper makes the intent (RCU-style read-copy-update with the
 * shared_ptr refcount as the grace period) visible at the call sites.
 */
template <typename Snapshot>
class snapshot_handle {
  public:
    using snapshot_ptr = std::shared_ptr<const Snapshot>;

    explicit snapshot_handle(snapshot_ptr initial) :
        current_{ std::move(initial) } {}

    snapshot_handle(const snapshot_handle &) = delete;
    snapshot_handle &operator=(const snapshot_handle &) = delete;

    /// The snapshot to evaluate this batch against (kept alive by the
    /// returned shared_ptr even if a swap happens mid-batch).
    [[nodiscard]] snapshot_ptr load() const {
        const std::lock_guard lock{ mutex_ };
        return current_;
    }

    /// Atomically publish @p next; readers that already loaded keep the old
    /// snapshot until their batch finishes. The displaced snapshot is
    /// released outside the lock (its destruction may be a full model).
    void store(snapshot_ptr next) {
        snapshot_ptr displaced;
        {
            const std::lock_guard lock{ mutex_ };
            displaced = std::exchange(current_, std::move(next));
        }
    }

  private:
    mutable std::mutex mutex_;
    snapshot_ptr current_;
};

}  // namespace plssvm::serve

#endif  // PLSSVM_SERVE_SNAPSHOT_HPP_
