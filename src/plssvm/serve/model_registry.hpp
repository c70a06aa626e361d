/**
 * @file
 * @brief Multi-tenant registry of named, ready-to-serve models.
 *
 * A serving process typically hosts many models (per customer, per A/B arm,
 * per label subset). The registry owns the engines of every registered name
 * — binary models and one-vs-all ensembles alike are `inference_engine`s —
 * hands out shared pointers so in-flight users keep an evicted engine alive,
 * and applies least-recently-used eviction once `capacity()` names are
 * resident (compiled models pin the full SV matrix in memory, so residency
 * must be bounded).
 *
 * Every name is served by exactly one engine, which `find` hands out.
 *
 * All engines of a registry share one `serve::executor`
 * (`default_config.exec`, defaulting to the process-wide instance): eight
 * resident engines on a four-core host run on one executor's worth of
 * worker threads, not eight pools.
 *
 * Model replacement is zero-downtime: `reload(name, model)` shadow-compiles
 * the replacement on the registry's background lane of the shared executor
 * (one task at a time, so compiles never crowd out serving) and atomically
 * swaps the engine's snapshot when ready — the engine keeps serving the old
 * snapshot throughout, the handed-out engine pointer stays valid, and
 * in-flight batches finish on the snapshot they started with. All LRU age
 * bookkeeping (find hits, loads, reload scheduling and completion) goes
 * through the registry's one mutex, so age refreshes cannot race the swap.
 */

#ifndef PLSSVM_SERVE_MODEL_REGISTRY_HPP_
#define PLSSVM_SERVE_MODEL_REGISTRY_HPP_

#include "plssvm/core/model.hpp"
#include "plssvm/exceptions.hpp"
#include "plssvm/ext/multiclass.hpp"
#include "plssvm/serve/executor.hpp"
#include "plssvm/serve/inference_engine.hpp"
#include "plssvm/serve/snapshot.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace plssvm::serve {

template <typename T>
class model_registry {
  public:
    using engine_ptr = std::shared_ptr<inference_engine<T>>;

    /// @param capacity maximum resident names (>= 1) before LRU eviction
    /// @param default_config engine configuration applied when a load call
    ///        does not pass its own; its `exec` (nullptr = the process-wide
    ///        executor) becomes the shared executor of every engine
    explicit model_registry(const std::size_t capacity = 8, engine_config default_config = {}) :
        capacity_{ capacity },
        default_config_{ default_config },
        exec_{ default_config.exec != nullptr ? default_config.exec : &executor::process_wide() },
        reload_lane_{ exec_->create_lane(lane_options{ .name = "registry-reload", .quota = 1 }) } {
        if (capacity_ == 0) {
            throw invalid_parameter_exception{ "model_registry capacity must be at least 1!" };
        }
        default_config_.exec = exec_;
    }

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

    /// The executor every engine of this registry runs on.
    [[nodiscard]] executor &shared_executor() const noexcept { return *exec_; }

    /// Register a binary model under @p name (replacing any previous entry).
    /// An optional @p input_scaling makes the engine accept raw client
    /// features (applied server-side, versioned with the model snapshot).
    engine_ptr load(const std::string &name, const model<T> &trained, scaling_ptr<T> input_scaling = nullptr) {
        return load(name, trained, default_config_, std::move(input_scaling));
    }

    engine_ptr load(const std::string &name, const model<T> &trained, engine_config config, scaling_ptr<T> input_scaling = nullptr) {
        return load_one(name, trained, config, std::move(input_scaling));
    }

    /// Register a one-vs-all ensemble under @p name (replacing any previous entry).
    engine_ptr load(const std::string &name, const ext::multiclass_model<T> &ensemble, scaling_ptr<T> input_scaling = nullptr) {
        return load(name, ensemble, default_config_, std::move(input_scaling));
    }

    engine_ptr load(const std::string &name, const ext::multiclass_model<T> &ensemble, engine_config config, scaling_ptr<T> input_scaling = nullptr) {
        return load_one(name, ensemble, config, std::move(input_scaling));
    }

    /// Load a LIBSVM model file and register it under @p name.
    engine_ptr load_file(const std::string &name, const std::string &filename) {
        return load(name, model<T>::load(filename));
    }

    /**
     * @brief Zero-downtime replacement of the model served under @p name.
     *
     * The replacement is compiled on the registry's background lane of the
     * shared executor (shadow load) and atomically swapped into the resident
     * engine when ready; requests keep flowing against the old
     * snapshot in the meantime and the engine pointers held by clients stay
     * the same. If @p name is not resident, this degenerates to a
     * synchronous `load`.
     *
     * @return future resolving when the new snapshot is live (holds a
     *         compile error if the swap failed, e.g. feature-count mismatch)
     * @throws plssvm::invalid_parameter_exception if @p name currently
     *         serves a one-vs-all ensemble (the kind cannot change via reload)
     */
    std::future<void> reload(const std::string &name, model<T> trained, scaling_ptr<T> input_scaling = nullptr) {
        return reload_entry(name, std::move(trained), std::move(input_scaling));
    }

    /// Zero-downtime replacement of the one-vs-all ensemble under @p name
    /// (same contract as the binary overload; class-count mismatches surface
    /// through the future).
    /// @throws plssvm::invalid_parameter_exception if @p name currently
    ///         serves a binary model
    std::future<void> reload(const std::string &name, ext::multiclass_model<T> ensemble, scaling_ptr<T> input_scaling = nullptr) {
        return reload_entry(name, std::move(ensemble), std::move(input_scaling));
    }

    /// The engine serving @p name, or nullptr. Refreshes the LRU age only
    /// on a hit.
    [[nodiscard]] engine_ptr find(const std::string &name) { return lookup(name, false); }

    /// `find` restricted to one-vs-all ensembles: nullptr for a binary
    /// entry, whose LRU age then stays untouched.
    [[nodiscard]] engine_ptr find_multiclass(const std::string &name) { return lookup(name, true); }

    [[nodiscard]] bool contains(const std::string &name) const {
        const std::lock_guard lock{ mutex_ };
        return entries_.count(name) > 0;
    }

    /// Remove @p name; in-flight shared pointers keep the engines alive.
    bool evict(const std::string &name) {
        entry displaced;  // engine teardown (if last owner) happens after unlock
        const std::lock_guard lock{ mutex_ };
        const auto it = entries_.find(name);
        if (it == entries_.end()) {
            return false;
        }
        displaced = std::move(it->second);
        entries_.erase(it);
        return true;
    }

    [[nodiscard]] std::size_t size() const {
        const std::lock_guard lock{ mutex_ };
        return entries_.size();
    }

    /// Registry-wide health: the worst (max-severity) health state over every
    /// resident engine. An empty registry is healthy.
    [[nodiscard]] health_state health() const {
        health_state worst = health_state::healthy;
        for (const auto &[name, e] : resident()) {
            worst = std::max(worst, e.engine->health());
        }
        return worst;
    }

    /**
     * @brief One scrapeable JSON object over every resident name:
     *        `{"health": "<registry health>", "models":
     *        {"<name>": <serve_stats json>, ...}}`, names in registry (map)
     *        order. The top-level health is the max severity over the
     *        engines' health states.
     *
     * Engines are pinned under the registry mutex but their stats are
     * collected outside it, so a slow engine cannot stall loads/evictions.
     * Does not refresh LRU ages (scraping must not protect idle models).
     */
    [[nodiscard]] std::string stats_json() const {
        const std::vector<std::pair<std::string, entry>> pinned = resident();
        health_state worst = health_state::healthy;
        for (const auto &[name, e] : pinned) {
            worst = std::max(worst, e.engine->health());
        }
        std::string json = "{\"health\": \"";
        json += health_state_to_string(worst);
        json += "\", \"models\": {";
        append_per_model(json, pinned, [](const inference_engine<T> &engine) { return engine.stats_json(); });
        json += "}}";
        return json;
    }

    /**
     * @brief Emit every resident engine's metric families into @p builder,
     *        each labelled with `model="<name>"`, plus the registry health
     *        and the shared executor's per-lane queue-depth/steal gauges.
     *
     * Same locking discipline as `stats_json()`: engines are pinned under
     * the registry mutex, collected outside it, and LRU ages are not
     * refreshed (scraping must not protect idle models). Process-wide
     * families are left to the caller (see `obs::collect_build_info`).
     */
    void collect_metrics(obs::prometheus_builder &builder) const {
        health_state worst = health_state::healthy;
        for (const auto &[name, e] : resident()) {
            e.engine->collect_metrics(builder, obs::label_set{ { "model", name } });
            worst = std::max(worst, e.engine->health());
        }
        builder.add_gauge("plssvm_serve_registry_health", "Registry-wide health: worst engine state (0 healthy, 1 degraded, 2 critical)",
                          {}, static_cast<double>(static_cast<std::uint8_t>(worst)));
        for (const lane_report &lane : exec_->lane_reports()) {
            // every engine's lane is named "engine": the id keeps the series apart
            const obs::label_set labels{ { "lane", lane.name }, { "lane_id", std::to_string(lane.id) } };
            builder.add_gauge("plssvm_serve_lane_queue_depth", "Tasks currently queued on an executor lane", labels, static_cast<double>(lane.stats.queue_depth));
            builder.add_gauge("plssvm_serve_lane_in_flight", "Tasks of an executor lane executing right now", labels, static_cast<double>(lane.stats.in_flight));
            builder.add_counter("plssvm_serve_lane_steals_total", "Lane tasks executed by a non-affine worker", labels, static_cast<double>(lane.stats.stolen));
            builder.add_counter("plssvm_serve_lane_submitted_total", "Tasks ever enqueued on an executor lane", labels, static_cast<double>(lane.stats.submitted));
        }
    }

    /// `collect_metrics()` plus the process-wide build info, rendered as one
    /// Prometheus text exposition.
    [[nodiscard]] std::string metrics_text() const {
        obs::prometheus_builder builder;
        collect_metrics(builder);
        obs::collect_build_info(builder);
        return builder.text();
    }

    /**
     * @brief Retained wire-to-wire traces of every resident engine:
     *        `{"models": {"<name>": <dump json>, ...}}`. Backs the `trace`
     *        wire op. Same locking discipline as `stats_json()` —
     *        engines are pinned under the registry mutex, dumped outside it,
     *        and LRU ages are not refreshed.
     */
    [[nodiscard]] std::string trace_json() const {
        std::string json = "{\"models\": {";
        append_per_model(json, resident(), [](const inference_engine<T> &engine) { return engine.dump_traces(); });
        json += "}}";
        return json;
    }

    /// Registered names, most recently used first.
    [[nodiscard]] std::vector<std::string> names() const {
        const std::lock_guard lock{ mutex_ };
        std::vector<std::pair<std::uint64_t, std::string>> aged;
        aged.reserve(entries_.size());
        for (const auto &[name, e] : entries_) {
            aged.emplace_back(e.last_used, name);
        }
        std::sort(aged.begin(), aged.end(), [](const auto &a, const auto &b) { return a.first > b.first; });
        std::vector<std::string> result;
        result.reserve(aged.size());
        for (auto &[age, name] : aged) {
            result.push_back(std::move(name));
        }
        return result;
    }

  private:
    struct entry {
        engine_ptr engine;
        std::uint64_t last_used{ 0 };
    };

    template <typename Source>
    engine_ptr load_one(const std::string &name, const Source &source, engine_config config, scaling_ptr<T> input_scaling) {
        if (config.exec == nullptr) {
            config.exec = exec_;
        }
        auto engine = std::make_shared<inference_engine<T>>(source, config, std::move(input_scaling));
        insert(name, entry{ engine });
        return engine;
    }

    /// Shared body of both `reload` overloads: the kind check is synchronous,
    /// the compile and swap run on the reload lane.
    template <typename Source>
    std::future<void> reload_entry(const std::string &name, Source source, scaling_ptr<T> input_scaling) {
        constexpr bool ensemble = std::is_same_v<Source, ext::multiclass_model<T>>;
        engine_ptr engine;
        {
            const std::lock_guard lock{ mutex_ };
            const auto it = entries_.find(name);
            if (it != entries_.end()) {
                if (it->second.engine->ensemble() != ensemble) {
                    throw invalid_parameter_exception{ "reload type mismatch: '" + name + "' serves a " + (ensemble ? "binary model" : "multi-class ensemble") + "!" };
                }
                engine = it->second.engine;
                it->second.last_used = ++clock_;  // a reload is a use
            }
        }
        if (engine == nullptr) {
            (void) load(name, source, std::move(input_scaling));
            return resolved_future();
        }
        // shadow-compile off the serving path; the captured shared_ptr keeps
        // the engine alive even if it gets evicted mid-compile
        return reload_lane_.enqueue([this, name, engine = std::move(engine), source = std::move(source), input_scaling = std::move(input_scaling)]() {
            engine->reload(source, input_scaling);
            touch(name);
        });
    }

    /// Shared body of `find` / `find_multiclass`.
    [[nodiscard]] engine_ptr lookup(const std::string &name, const bool ensembles_only) {
        const std::lock_guard lock{ mutex_ };
        const auto it = entries_.find(name);
        if (it == entries_.end() || (ensembles_only && !it->second.engine->ensemble())) {
            return nullptr;
        }
        it->second.last_used = ++clock_;
        return it->second.engine;
    }

    /// Every resident entry, pinned under the lock (scrapes then read the
    /// engines outside it).
    [[nodiscard]] std::vector<std::pair<std::string, entry>> resident() const {
        const std::lock_guard lock{ mutex_ };
        return { entries_.begin(), entries_.end() };
    }

    /// Append `"<name>": <render(engine)>` per entry to @p json.
    template <typename Render>
    static void append_per_model(std::string &json, const std::vector<std::pair<std::string, entry>> &pinned, Render &&render) {
        bool first = true;
        for (const auto &[name, e] : pinned) {
            if (!std::exchange(first, false)) {
                json += ", ";
            }
            append_escaped_name(json, name);
            json += render(*e.engine);
        }
    }

    /// Append `"<name>": ` to @p json with the name JSON-escaped — model
    /// names are arbitrary user strings: one quote in a name would otherwise
    /// break every scraper.
    static void append_escaped_name(std::string &json, const std::string &name) {
        json += "\"";
        for (const char c : name) {
            if (c == '"' || c == '\\') {
                json += '\\';
                json += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
                json += buffer;
            } else {
                json += c;
            }
        }
        json += "\": ";
    }

    [[nodiscard]] static std::future<void> resolved_future() {
        std::promise<void> promise;
        promise.set_value();
        return promise.get_future();
    }

    /// Refresh the LRU age of @p name (if still resident) under the same
    /// lock every other age update takes — called after a snapshot swap.
    void touch(const std::string &name) {
        const std::lock_guard lock{ mutex_ };
        const auto it = entries_.find(name);
        if (it != entries_.end()) {
            it->second.last_used = ++clock_;
        }
    }

    /// Insert (or replace) @p name and apply LRU eviction. Displaced engines
    /// are destroyed only after the lock is released: tearing an engine down
    /// joins its drain thread, which must not stall every other tenant.
    void insert(const std::string &name, entry &&e) {
        std::vector<entry> displaced;  // destroyed after the lock scope
        const std::lock_guard lock{ mutex_ };
        e.last_used = ++clock_;
        const auto it = entries_.find(name);
        if (it != entries_.end()) {
            displaced.push_back(std::move(it->second));
            entries_.erase(it);
        }
        entries_.emplace(name, std::move(e));
        while (entries_.size() > capacity_) {
            auto victim = entries_.begin();
            for (auto candidate = entries_.begin(); candidate != entries_.end(); ++candidate) {
                if (candidate->second.last_used < victim->second.last_used) {
                    victim = candidate;
                }
            }
            displaced.push_back(std::move(victim->second));
            entries_.erase(victim);
        }
    }

    std::size_t capacity_;
    engine_config default_config_;
    executor *exec_;
    mutable std::mutex mutex_;
    std::map<std::string, entry> entries_;
    std::uint64_t clock_{ 0 };
    /// Background shadow-compile lane; declared last so its destructor runs
    /// first and drains pending reload tasks (which capture `this`) before
    /// any other member dies.
    executor::lane reload_lane_;
};

}  // namespace plssvm::serve

#endif  // PLSSVM_SERVE_MODEL_REGISTRY_HPP_
