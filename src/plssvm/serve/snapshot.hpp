/**
 * @file
 * @brief Immutable model snapshots and the RCU-style handle engines publish
 *        them through.
 *
 * A serving engine must be able to replace its model without stopping: the
 * old serving iteration recompiled in place while requests queued. Instead,
 * everything a batch evaluation needs — the compiled model (one head for a
 * binary model, one per class for a one-vs-all ensemble, over one stored
 * copy of each distinct support-vector panel), the optional server-side
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

#include "plssvm/io/scaling.hpp"
#include "plssvm/serve/compiled_model.hpp"

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

namespace plssvm::serve {

/// Shared immutable scaling transform; nullptr means "clients pre-scale".
template <typename T>
using scaling_ptr = std::shared_ptr<const io::scaling<T>>;

/**
 * @brief Everything one engine batch evaluation depends on, frozen.
 *
 * The compiled model is a binary model (one head, labelled by
 * `compiled_model::label_from_decision`) or a one-vs-all ensemble (one head
 * per class, each oriented toward its class, labelled by the argmax over the
 * heads, first class on ties — exactly `ext::one_vs_all::predict`); either
 * way one sweep of its stored panels scores every head.
 */
template <typename T>
struct engine_snapshot {
    compiled_model<T> compiled;      ///< the served model: one head, or one per ensemble class
    scaling_ptr<T> input_scaling{};  ///< optional server-side preprocessing
    std::uint64_t version{ 0 };      ///< monotonically increasing per engine

    explicit engine_snapshot(compiled_model<T> served, scaling_ptr<T> scaling = nullptr) :
        compiled{ std::move(served) },
        input_scaling{ std::move(scaling) } {}
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
