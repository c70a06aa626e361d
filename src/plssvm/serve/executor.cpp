#include "plssvm/serve/executor.hpp"

#include "plssvm/exceptions.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace plssvm::serve {

namespace {

/// The executor (if any) whose worker the current thread is.
thread_local const executor *current_worker_executor = nullptr;

}  // namespace

bool executor::on_worker_thread() const noexcept {
    return current_worker_executor == this;
}

executor::executor(std::size_t num_threads) {
    if (num_threads == 0) {
        num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    workers_.reserve(num_threads);
    // a start-up left to run after construction would compete with the
    // first tasks, and its wake-ups would count as the idle pool's
    std::latch started{ static_cast<std::ptrdiff_t>(num_threads) };
    for (std::size_t i = 0; i < num_threads; ++i) {
        workers_.emplace_back([this, i, &started]() { worker_loop(i, started); });
    }
    started.wait();
}

executor::~executor() {
    {
        const std::lock_guard lock{ mutex_ };
        stop_ = true;
    }
    work_available_.notify_all();
    for (std::thread &worker : workers_) {
        worker.join();
    }
}

executor &executor::process_wide() {
    // Engines referencing the process-wide executor must be destroyed before
    // static destruction tears it down — trivially true for engines with
    // automatic storage duration, the recommended ownership.
    static executor instance{ 0 };
    return instance;
}

// ---------------------------------------------------------------------------
// lane handle
// ---------------------------------------------------------------------------

std::size_t executor::lane::max_concurrency() const noexcept {
    if (owner_ == nullptr || state_ == nullptr) {
        return 0;
    }
    const std::size_t workers = owner_->size();
    const std::size_t quota = state_->options.quota;  // immutable after creation
    return quota == 0 ? workers : std::min(quota, workers);
}

void executor::lane::enqueue_detached(detail::task job) {
    if (owner_ == nullptr || state_ == nullptr) {
        throw exception{ "executor::lane: enqueue on a detached lane!" };
    }
    bool wake = false;
    {
        const std::lock_guard lock{ owner_->mutex_ };
        lane_state &state = *state_;
        if (state.closed || owner_->stop_) {
            throw exception{ "executor::lane: enqueue after shutdown!" };
        }
        state.queue.push_back(std::move(job));
        ++state.counters.submitted;
        state.counters.max_queue_depth = std::max(state.counters.max_queue_depth, state.queue.size());
        // a lane at its quota needs no wake-up: the worker that frees a
        // slot takes the task or wakes another worker for it
        wake = runnable(state);
    }
    if (wake) {
        owner_->work_available_.notify_one();
    }
}

bool executor::lane::try_run_one() {
    if (owner_ == nullptr || state_ == nullptr) {
        return false;
    }
    detail::task job;
    {
        const std::lock_guard lock{ owner_->mutex_ };
        if (state_->queue.empty()) {
            return false;
        }
        job = owner_->take(*state_, helper_thread);
    }
    job();
    job.reset();
    const std::lock_guard lock{ owner_->mutex_ };
    owner_->finish(*state_, helper_thread);
    return true;
}

lane_stats executor::lane::stats() const {
    if (owner_ == nullptr || state_ == nullptr) {
        return lane_stats{};
    }
    const std::lock_guard lock{ owner_->mutex_ };
    return counters_of(*state_);
}

void executor::lane::close() {
    if (owner_ != nullptr && state_ != nullptr) {
        owner_->close_lane(state_);
    }
    owner_ = nullptr;
    state_.reset();
}

// ---------------------------------------------------------------------------
// lane registry
// ---------------------------------------------------------------------------

executor::lane executor::create_lane(lane_options options) {
    auto state = std::make_shared<lane_state>();
    {
        const std::lock_guard lock{ mutex_ };
        state->id = lane_counter_;
        state->affinity = lane_counter_++ % workers_.size();
        state->options = std::move(options);
        lanes_.push_back(state);
    }
    return lane{ this, std::move(state) };
}

void executor::close_lane(const std::shared_ptr<lane_state> &state) {
    std::unique_lock lock{ mutex_ };
    // after this store every further enqueue throws; the queued and running
    // tasks still finish
    state->closed = true;
    lane_drained_.wait(lock, [&state]() { return state->queue.empty() && state->counters.in_flight == 0; });
    lanes_.erase(std::find(lanes_.begin(), lanes_.end(), state));
}

std::size_t executor::num_lanes() const {
    const std::lock_guard lock{ mutex_ };
    return lanes_.size();
}

std::size_t executor::total_steals() const {
    const std::lock_guard lock{ mutex_ };
    return total_steals_;
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

lane_stats executor::counters_of(const lane_state &state) {
    lane_stats stats = state.counters;
    stats.queue_depth = state.queue.size();
    return stats;
}

std::vector<lane_report> executor::reports_locked() const {
    std::vector<lane_report> reports;
    reports.reserve(lanes_.size());
    for (const std::shared_ptr<lane_state> &lane : lanes_) {
        reports.push_back(lane_report{ lane->options.name, lane->id, lane->affinity, counters_of(*lane) });
    }
    return reports;
}

executor_stats executor::stats_locked() const {
    executor_stats stats;
    stats.workers = workers_.size();
    stats.lanes = lanes_.size();
    stats.total_steals = total_steals_;
    for (const std::shared_ptr<lane_state> &lane : lanes_) {
        stats.queued += lane->queue.size();
        stats.in_flight += lane->counters.in_flight;
    }
    return stats;
}

executor_stats executor::stats() const {
    const std::lock_guard lock{ mutex_ };
    return stats_locked();
}

std::vector<lane_report> executor::lane_reports() const {
    const std::lock_guard lock{ mutex_ };
    return reports_locked();
}

std::string executor::stats_json() const {
    executor_stats totals;
    std::vector<lane_report> lanes;
    {
        const std::lock_guard lock{ mutex_ };
        totals = stats_locked();
        lanes = reports_locked();
    }
    const auto append_count = [](std::string &out, const char *name, const std::size_t value, const bool trailing_comma = true) {
        char buffer[96];
        std::snprintf(buffer, sizeof(buffer), "\"%s\": %zu%s", name, value, trailing_comma ? ", " : "");
        out += buffer;
    };
    const auto append_escaped = [](std::string &out, const std::string &text) {
        for (const char c : text) {
            // names are internal identifiers; escape just enough to never
            // emit malformed JSON
            if (c == '"' || c == '\\') {
                out += '\\';
            }
            out += c;
        }
    };
    std::string json;
    json.reserve(640 + 256 * lanes.size());
    json += "{ ";
    append_count(json, "workers", totals.workers);
    append_count(json, "num_lanes", totals.lanes);
    append_count(json, "queued", totals.queued);
    append_count(json, "in_flight", totals.in_flight);
    append_count(json, "total_steals", totals.total_steals);
    json += "\"lanes\": [ ";
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const lane_report &lane = lanes[i];
        json += "{ \"name\": \"";
        append_escaped(json, lane.name);
        json += "\", ";
        append_count(json, "affinity", lane.affinity);
        append_count(json, "submitted", lane.stats.submitted);
        append_count(json, "completed", lane.stats.completed);
        append_count(json, "stolen", lane.stats.stolen);
        append_count(json, "queue_depth", lane.stats.queue_depth);
        append_count(json, "in_flight", lane.stats.in_flight);
        append_count(json, "max_queue_depth", lane.stats.max_queue_depth, false);
        json += i + 1 < lanes.size() ? " }, " : " }";
    }
    json += " ] }";
    return json;
}

// ---------------------------------------------------------------------------
// worker scheduling
// ---------------------------------------------------------------------------

bool executor::runnable(const lane_state &state) {
    return !state.queue.empty() && (state.options.quota == 0 || state.workers_busy < state.options.quota);
}

executor::lane_state *executor::next_runnable_lane() {
    const std::size_t num_lanes = lanes_.size();
    for (std::size_t i = 1; i <= num_lanes; ++i) {
        const std::size_t idx = (cursor_ + i) % num_lanes;
        lane_state &lane = *lanes_[idx];
        if (runnable(lane)) {
            cursor_ = idx;
            return &lane;
        }
    }
    return nullptr;
}

detail::task executor::take(lane_state &state, const std::size_t worker_index) {
    detail::task job = std::move(state.queue.front());
    state.queue.pop_front();
    ++state.counters.in_flight;
    if (worker_index != helper_thread) {
        ++state.workers_busy;
        if (worker_index != state.affinity) {
            ++state.counters.stolen;
            ++total_steals_;
        }
    }
    return job;
}

void executor::finish(lane_state &state, const std::size_t worker_index) {
    --state.counters.in_flight;
    ++state.counters.completed;
    if (worker_index != helper_thread) {
        --state.workers_busy;
    }
    if (state.closed && state.queue.empty() && state.counters.in_flight == 0) {
        lane_drained_.notify_all();
    }
}

void executor::worker_loop(const std::size_t worker_index, std::latch &started) {
    current_worker_executor = this;
    std::unique_lock lock{ mutex_ };
    // counted under the lock, which a new worker next releases by waiting
    // for work (the executor has no lanes yet)
    started.count_down();
    lane_state *finished = nullptr;  // lane of the task this worker just ran
    while (true) {
        lane_state *lane = next_runnable_lane();
        if (finished != nullptr && finished != lane && runnable(*finished)) {
            // the quota slot this worker freed has queued work, but the
            // rotation moves this worker on: wake another one to take it
            work_available_.notify_one();
        }
        finished = nullptr;
        if (lane == nullptr) {
            const bool drained = std::all_of(lanes_.begin(), lanes_.end(), [](const std::shared_ptr<lane_state> &l) { return l->queue.empty(); });
            if (stop_ && drained) {
                // the other workers may wait for quota-blocked work that no
                // longer exists
                work_available_.notify_all();
                return;
            }
            work_available_.wait(lock);
            continue;
        }
        detail::task job = take(*lane, worker_index);
        lock.unlock();
        job();
        // destroy the closure outside the lock: its captures can hold the
        // last reference to an engine, whose teardown re-enters the executor
        // (lane close). The lane itself stays registered until this task
        // is counted complete, so the raw pointer is still valid below.
        job.reset();
        lock.lock();
        finish(*lane, worker_index);
        finished = lane;
    }
}

}  // namespace plssvm::serve
