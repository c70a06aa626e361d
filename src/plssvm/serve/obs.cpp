#include "plssvm/serve/obs.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace plssvm::serve::obs {

namespace {

[[nodiscard]] std::size_t round_up_pow2(std::size_t value) {
    value = std::max<std::size_t>(value, 2);
    return std::bit_ceil(value);
}

void append_number(std::string &out, const double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.10g", value);
    out += buffer;
}

void append_number(std::string &out, const std::uint64_t value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%llu", static_cast<unsigned long long>(value));
    out += buffer;
}

/// Escape a Prometheus label value (backslash, double quote, newline).
void append_escaped(std::string &out, const std::string_view value) {
    for (const char c : value) {
        switch (c) {
            case '\\':
                out += "\\\\";
                break;
            case '"':
                out += "\\\"";
                break;
            case '\n':
                out += "\\n";
                break;
            default:
                out += c;
        }
    }
}

void append_trace_json(std::string &out, const request_trace &trace) {
    out += "{\"id\": ";
    append_number(out, trace.id);
    out += ", \"class\": \"";
    out += request_class_to_string(trace.cls);
    out += '"';
    if (trace.shed) {
        out += ", \"shed\": true, \"reason\": \"";
        out += admission_decision_to_string(trace.shed_reason);
        out += "\", \"t_admit_ns\": ";
        append_number(out, trace.t_admit_ns);
        out += '}';
        return;
    }
    out += ", \"path\": \"";
    out += predict_path_to_string(trace.path);
    out += "\", \"deadline_missed\": ";
    out += trace.deadline_missed ? "true" : "false";
    out += ", \"batch_size\": ";
    append_number(out, trace.batch_size);
    out += ", \"estimated_batch_s\": ";
    append_number(out, trace.estimated_batch_seconds);
    out += ", \"t_admit_ns\": ";
    append_number(out, trace.t_admit_ns);
    out += ", \"t_enqueue_ns\": ";
    append_number(out, trace.t_enqueue_ns);
    out += ", \"t_seal_ns\": ";
    append_number(out, trace.t_seal_ns);
    out += ", \"t_dispatch_ns\": ";
    append_number(out, trace.t_dispatch_ns);
    out += ", \"t_complete_ns\": ";
    append_number(out, trace.t_complete_ns);
    if (trace.t_net_accepted_ns != 0) {
        out += ", \"net\": {\"t_accepted_ns\": ";
        append_number(out, trace.t_net_accepted_ns);
        out += ", \"t_read_ns\": ";
        append_number(out, trace.t_net_read_ns);
        out += ", \"t_decoded_ns\": ";
        append_number(out, trace.t_net_decoded_ns);
        out += ", \"t_dispatch_ns\": ";
        append_number(out, trace.t_net_dispatch_ns);
        out += ", \"t_encoded_ns\": ";
        append_number(out, trace.t_net_encoded_ns);
        out += ", \"t_flushed_ns\": ";
        append_number(out, trace.t_net_flushed_ns);
        out += ", \"wire_complete\": ";
        out += trace.wire_complete() ? "true" : "false";
        out += '}';
    }
    out += ", \"spans_ns\": {";
    const stage_seconds spans = trace.spans_seconds();
    for (const trace_stage stage : all_trace_stages) {
        out += '"';
        out += trace_stage_to_string(stage);
        out += "\": ";
        append_number(out, static_cast<std::uint64_t>(spans[stage_index(stage)] * 1e9 + 0.5));
        out += stage == all_trace_stages.back() ? "" : ", ";
    }
    out += "}}";
}

}  // namespace

// ---------------------------------------------------------------------------
// time_series_store
// ---------------------------------------------------------------------------

namespace {

[[nodiscard]] std::int64_t steady_second(const std::chrono::steady_clock::time_point tp) noexcept {
    return std::chrono::duration_cast<std::chrono::seconds>(tp.time_since_epoch()).count();
}

}  // namespace

time_series_store::time_series_store(const std::size_t capacity_seconds) :
    buckets_(std::max<std::size_t>(capacity_seconds, 8)) {}

time_series_store::bucket *time_series_store::bucket_for(const std::int64_t second) {
    bucket &b = buckets_[static_cast<std::size_t>(second) % buckets_.size()];
    if (b.second > second) {
        return nullptr;  // straggler from a second this bucket has lapped: drop
    }
    if (b.second < second) {
        // reuse the bucket for the newer second; the latency lists keep their capacity
        b.second = second;
        b.completed = {};
        b.shed = {};
        b.failed = {};
        b.deadline_misses = {};
        for (std::vector<latency_count> &counts : b.latency) {
            counts.clear();
        }
    }
    return &b;
}

void time_series_store::record_complete(const request_class cls, const std::chrono::steady_clock::time_point now,
                                        const double latency_seconds, const bool deadline_missed) {
    bucket *b = bucket_for(steady_second(now));
    if (b == nullptr) {
        return;
    }
    const std::size_t i = class_index(cls);
    ++b->completed[i];
    if (deadline_missed) {
        ++b->deadline_misses[i];
    }
    const double ns_d = latency_seconds > 0.0 ? latency_seconds * 1e9 : 0.0;
    const auto ns = ns_d < static_cast<double>(latency_histogram::max_value_ns)
        ? static_cast<std::uint64_t>(ns_d)
        : latency_histogram::max_value_ns;
    const auto index = static_cast<std::uint32_t>(latency_histogram::bucket_index(ns));
    std::vector<latency_count> &counts = b->latency[i];
    const auto it = std::lower_bound(counts.begin(), counts.end(), index,
                                     [](const latency_count &entry, const std::uint32_t key) { return entry.first < key; });
    if (it != counts.end() && it->first == index) {
        ++it->second;
        return;
    }
    const auto pos = it - counts.begin();
    if (counts.size() == counts.capacity()) {
        // grow geometrically, but never past one entry per histogram bucket
        counts.reserve(std::min(latency_histogram::num_buckets, std::max<std::size_t>(8, 2 * counts.capacity())));
    }
    counts.insert(counts.begin() + pos, latency_count{ index, 1 });
}

void time_series_store::record_shed(const request_class cls, const std::chrono::steady_clock::time_point now) {
    if (bucket *b = bucket_for(steady_second(now)); b != nullptr) {
        ++b->shed[class_index(cls)];
    }
}

void time_series_store::record_failure(const request_class cls, const std::chrono::steady_clock::time_point now, const std::uint64_t count) {
    if (bucket *b = bucket_for(steady_second(now)); b != nullptr) {
        b->failed[class_index(cls)] += count;
    }
}

std::vector<time_series_store::window_view> time_series_store::windows(const std::chrono::steady_clock::time_point now,
                                                                       const std::vector<std::chrono::seconds> &spans) const {
    std::vector<window_view> views(spans.size());
    std::int64_t max_span = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        views[i].window = spans[i];
        max_span = std::max<std::int64_t>(max_span, spans[i].count());
    }
    const std::int64_t now_sec = steady_second(now);
    for (const bucket &b : buckets_) {
        if (b.second < 0 || b.second > now_sec || now_sec - b.second >= max_span) {
            continue;  // unused, from the future (clock skew), or expired
        }
        for (window_view &view : views) {
            if (now_sec - b.second >= view.window.count()) {
                continue;
            }
            for (std::size_t cls = 0; cls < num_request_classes; ++cls) {
                view.completed[cls] += b.completed[cls];
                view.shed[cls] += b.shed[cls];
                view.failed[cls] += b.failed[cls];
                view.deadline_misses[cls] += b.deadline_misses[cls];
                for (const auto &[index, count] : b.latency[cls]) {
                    view.latency[cls].accumulate(index, count);
                }
            }
        }
    }
    return views;
}

// ---------------------------------------------------------------------------
// trace_ring
// ---------------------------------------------------------------------------

void trace_ring::reset(const std::size_t capacity) {
    slots_.assign(round_up_pow2(capacity), request_trace{});
    head_ = 0;
}

void trace_ring::publish(const request_trace &trace) {
    const std::lock_guard lock{ mutex_ };
    if (slots_.empty()) {
        return;
    }
    slots_[head_ % slots_.size()] = trace;
    ++head_;
}

void trace_ring::collect(std::vector<request_trace> &out) const {
    const std::lock_guard lock{ mutex_ };
    const std::uint64_t capacity = slots_.size();
    for (std::uint64_t ticket = head_ > capacity ? head_ - capacity : 0; ticket < head_; ++ticket) {
        out.push_back(slots_[ticket % capacity]);
    }
}

std::uint64_t trace_ring::published() const {
    const std::lock_guard lock{ mutex_ };
    return head_;
}

// ---------------------------------------------------------------------------
// prometheus_builder
// ---------------------------------------------------------------------------

prometheus_builder::family &prometheus_builder::family_for(const std::string_view name, const std::string_view type, const std::string_view help) {
    for (family &fam : families_) {
        if (fam.name == name) {
            return fam;
        }
    }
    families_.push_back(family{ std::string{ name }, std::string{ type }, std::string{ help }, {} });
    return families_.back();
}

void prometheus_builder::add_sample(family &fam, const std::string_view name, const label_set &labels, const double value) {
    std::string line{ name };
    if (!labels.empty()) {
        line += '{';
        for (std::size_t i = 0; i < labels.size(); ++i) {
            line += labels[i].first;
            line += "=\"";
            append_escaped(line, labels[i].second);
            line += '"';
            line += i + 1 < labels.size() ? "," : "";
        }
        line += '}';
    }
    line += ' ';
    append_number(line, value);
    fam.samples.push_back(std::move(line));
}

void prometheus_builder::add_counter(const std::string_view name, const std::string_view help, const label_set &labels, const double value) {
    add_sample(family_for(name, "counter", help), name, labels, value);
}

void prometheus_builder::add_gauge(const std::string_view name, const std::string_view help, const label_set &labels, const double value) {
    add_sample(family_for(name, "gauge", help), name, labels, value);
}

void prometheus_builder::add_histogram(const std::string_view name, const std::string_view help, const label_set &labels, const latency_histogram &hist) {
    // decade-ish ladder from 10us to 10s: fine enough for latency SLOs,
    // coarse enough to keep the exposition small
    static constexpr std::array<double, 15> edges{
        1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 1e-1, 1.0, 5.0, 10.0
    };
    family &fam = family_for(name, "histogram", help);
    const std::string bucket_name = std::string{ name } + "_bucket";
    for (const double edge : edges) {
        label_set bucket_labels = labels;
        char le[32];
        std::snprintf(le, sizeof(le), "%g", edge);
        bucket_labels.emplace_back("le", le);
        add_sample(fam, bucket_name, bucket_labels, static_cast<double>(hist.count_le(edge)));
    }
    label_set inf_labels = labels;
    inf_labels.emplace_back("le", "+Inf");
    add_sample(fam, bucket_name, inf_labels, static_cast<double>(hist.count()));
    add_sample(fam, std::string{ name } + "_sum", labels, hist.sum_seconds());
    add_sample(fam, std::string{ name } + "_count", labels, static_cast<double>(hist.count()));
}

std::string prometheus_builder::text() const {
    std::string out;
    out.reserve(4096);
    for (const family &fam : families_) {
        out += "# HELP ";
        out += fam.name;
        out += ' ';
        out += fam.help;
        out += "\n# TYPE ";
        out += fam.name;
        out += ' ';
        out += fam.type;
        out += '\n';
        for (const std::string &sample : fam.samples) {
            out += sample;
            out += '\n';
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// flight_recorder
// ---------------------------------------------------------------------------

flight_recorder::flight_recorder(const obs_config &config) :
    config_{ config },
    epoch_{ std::chrono::steady_clock::now() } {
    for (const request_class cls : all_request_classes) {
        const double rate = config_.sampling[class_index(cls)];
        std::uint64_t period = 0;
        if (rate >= 1.0) {
            period = 1;
        } else if (rate > 0.0) {
            period = static_cast<std::uint64_t>(std::llround(1.0 / rate));
            period = period == 0 ? 1 : period;
        }
        sample_period_[class_index(cls)] = period;
        rings_[class_index(cls)].reset(config_.flight_recorder_capacity);
    }
    shed_ring_.reset(config_.shed_ring_capacity);
}

bool flight_recorder::should_trace(const request_class cls, const bool has_deadline) noexcept {
    if (!config_.enabled) {
        return false;
    }
    if (has_deadline) {
        return true;
    }
    const std::uint64_t period = sample_period_[class_index(cls)];
    if (period == 1) {
        return true;
    }
    if (period == 0) {
        sampled_out_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    const std::uint64_t n = sample_counters_[class_index(cls)].fetch_add(1, std::memory_order_relaxed);
    if (n % period == 0) {
        return true;
    }
    sampled_out_.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void flight_recorder::record_complete(const request_trace &trace) {
    if (!config_.enabled) {
        return;
    }
    rings_[class_index(trace.cls)].publish(trace);
    traces_recorded_.fetch_add(1, std::memory_order_relaxed);
    if (trace.deadline_missed) {
        deadline_miss_traces_.fetch_add(1, std::memory_order_relaxed);
        maybe_violation_dump("deadline_miss");
    }
}

void flight_recorder::record_shed(const request_class cls, const admission_decision reason) {
    if (!config_.enabled) {
        return;
    }
    request_trace trace{};
    trace.id = next_trace_id();
    trace.cls = cls;
    trace.shed = true;
    trace.shed_reason = reason;
    trace.t_admit_ns = now_ns();
    shed_ring_.publish(trace);
    sheds_recorded_.fetch_add(1, std::memory_order_relaxed);
    maybe_violation_dump("shed");
}

void flight_recorder::record_health_transition(const std::string_view from, const std::string_view to) {
    if (!config_.enabled) {
        return;
    }
    std::string reason{ "health:" };
    reason += from;
    reason += "->";
    reason += to;
    std::string json = dump_json(reason);
    {
        const std::lock_guard lock{ dump_mutex_ };
        last_health_dump_ = std::move(json);
    }
    health_dumps_.fetch_add(1, std::memory_order_relaxed);
}

std::string flight_recorder::dump_json(const std::string_view reason) const {
    std::string out;
    out.reserve(4096);
    out += "{\"reason\": \"";
    out += reason;
    out += "\", \"generated_ns\": ";
    append_number(out, now_ns());
    out += ", \"traces\": {";
    for (const request_class cls : all_request_classes) {
        out += '"';
        out += request_class_to_string(cls);
        out += "\": [";
        const std::vector<request_trace> records = traces(cls);
        for (std::size_t i = 0; i < records.size(); ++i) {
            append_trace_json(out, records[i]);
            out += i + 1 < records.size() ? ", " : "";
        }
        out += ']';
        out += cls == all_request_classes.back() ? "" : ", ";
    }
    out += "}, \"sheds\": [";
    const std::vector<request_trace> sheds = shed_events();
    for (std::size_t i = 0; i < sheds.size(); ++i) {
        append_trace_json(out, sheds[i]);
        out += i + 1 < sheds.size() ? ", " : "";
    }
    out += "]}";
    return out;
}

std::string flight_recorder::last_violation_dump() const {
    const std::lock_guard lock{ dump_mutex_ };
    return last_violation_dump_;
}

std::string flight_recorder::last_health_dump() const {
    const std::lock_guard lock{ dump_mutex_ };
    return last_health_dump_;
}

std::vector<request_trace> flight_recorder::traces(const request_class cls) const {
    std::vector<request_trace> out;
    rings_[class_index(cls)].collect(out);
    return out;
}

std::vector<request_trace> flight_recorder::shed_events() const {
    std::vector<request_trace> out;
    shed_ring_.collect(out);
    return out;
}

void flight_recorder::maybe_violation_dump(const std::string_view reason) {
    const auto interval_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(config_.min_dump_interval).count());
    const std::uint64_t now = now_ns() + 1;  // + 1: keep "never dumped" == 0 distinct
    std::uint64_t last = last_dump_ns_.load(std::memory_order_relaxed);
    if (last != 0 && now - last < interval_ns) {
        return;  // rate-limited: a shed storm must not render JSON per shed
    }
    if (!last_dump_ns_.compare_exchange_strong(last, now, std::memory_order_relaxed)) {
        return;  // another violator won the dump slot
    }
    std::string json = dump_json(reason);
    {
        const std::lock_guard lock{ dump_mutex_ };
        last_violation_dump_ = std::move(json);
    }
    violation_dumps_.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// exposition validity
// ---------------------------------------------------------------------------

namespace {

/// Family a sample line belongs to, given the declared histogram families:
/// `name_bucket` / `name_sum` / `name_count` fold back onto `name`.
[[nodiscard]] std::string_view sample_family(const std::string_view series_name,
                                             const std::unordered_map<std::string, std::string> &family_types) {
    if (family_types.count(std::string{ series_name }) != 0) {
        return series_name;
    }
    for (const std::string_view suffix : { std::string_view{ "_bucket" }, std::string_view{ "_sum" }, std::string_view{ "_count" } }) {
        if (series_name.size() > suffix.size() && series_name.substr(series_name.size() - suffix.size()) == suffix) {
            const std::string_view base = series_name.substr(0, series_name.size() - suffix.size());
            const auto it = family_types.find(std::string{ base });
            if (it != family_types.end() && it->second == "histogram") {
                return base;
            }
        }
    }
    return {};
}

/// `name` or `name{labels}` of a sample line (everything before the value).
[[nodiscard]] std::string_view series_key(const std::string_view line) {
    const std::size_t space = line.rfind(' ');
    return space == std::string_view::npos ? line : line.substr(0, space);
}

/// Bare metric name of a series key (strips the label block).
[[nodiscard]] std::string_view series_name(const std::string_view key) {
    const std::size_t brace = key.find('{');
    return brace == std::string_view::npos ? key : key.substr(0, brace);
}

}  // namespace

bool exposition_valid(const std::string_view text) {
    std::unordered_map<std::string, std::string> family_types;  // name -> type
    std::unordered_set<std::string> seen_series;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string_view::npos) {
            end = text.size();
        }
        const std::string_view line = text.substr(pos, end - pos);
        pos = end + 1;
        if (line.empty() || line.rfind("# HELP ", 0) == 0) {
            continue;
        }
        if (line.rfind("# TYPE ", 0) == 0) {
            const std::string_view rest = line.substr(7);
            const std::size_t space = rest.find(' ');
            if (space == std::string_view::npos) {
                return false;  // TYPE without a type token
            }
            const std::string name{ rest.substr(0, space) };
            if (!family_types.emplace(name, std::string{ rest.substr(space + 1) }).second) {
                return false;  // family declared twice
            }
            continue;
        }
        if (line[0] == '#') {
            continue;  // comment
        }
        const std::string_view key = series_key(line);
        if (key.size() == line.size()) {
            return false;  // sample line without a value
        }
        if (sample_family(series_name(key), family_types).empty()) {
            return false;  // sample without a declared family
        }
        if (!seen_series.insert(std::string{ key }).second) {
            return false;  // duplicate series
        }
    }
    return true;
}

// ---------------------------------------------------------------------------
// build info + uptime
// ---------------------------------------------------------------------------

std::string_view compiled_isa() noexcept {
#if defined(__AVX512F__)
    return "avx512f";
#elif defined(__AVX2__)
    return "avx2";
#elif defined(__AVX__)
    return "avx";
#elif defined(__SSE4_2__)
    return "sse4.2";
#elif defined(__SSE2__) || defined(__x86_64__)
    return "sse2";
#elif defined(__aarch64__)
    return "neon";
#else
    return "generic";
#endif
}

namespace {

/// Process-wide serving epoch: first touch of the obs plane.
[[nodiscard]] std::chrono::steady_clock::time_point process_epoch() noexcept {
    static const std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
    return epoch;
}

}  // namespace

double process_uptime_seconds() noexcept {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - process_epoch()).count();
}

void collect_build_info(prometheus_builder &builder) {
    builder.add_gauge("plssvm_serve_build_info", "Serving stack build metadata (constant 1; version/ISA in labels)",
                      { { "version", std::string{ serve_version } }, { "isa", std::string{ compiled_isa() } } }, 1.0);
    builder.add_gauge("plssvm_serve_uptime_seconds", "Seconds since the serving plane was initialized in this process",
                      {}, process_uptime_seconds());
}

void flight_recorder::collect(prometheus_builder &builder, const label_set &labels) const {
    builder.add_counter("plssvm_serve_obs_traces_recorded_total", "Completed request traces published into the flight recorder", labels, static_cast<double>(traces_recorded()));
    builder.add_counter("plssvm_serve_obs_sheds_recorded_total", "Shed events published into the flight recorder", labels, static_cast<double>(sheds_recorded()));
    builder.add_counter("plssvm_serve_obs_sampled_out_total", "Admitted requests skipped by trace sampling", labels, static_cast<double>(sampled_out()));
    builder.add_counter("plssvm_serve_obs_deadline_miss_traces_total", "Traces whose request missed its deadline", labels, static_cast<double>(deadline_miss_traces_.load(std::memory_order_relaxed)));
    builder.add_counter("plssvm_serve_obs_violation_dumps_total", "Automatic flight-recorder dumps triggered by sheds or deadline misses", labels, static_cast<double>(violation_dumps()));
    builder.add_counter("plssvm_serve_obs_health_dumps_total", "Forced flight-recorder dumps triggered by health transitions", labels, static_cast<double>(health_dumps()));
}

}  // namespace plssvm::serve::obs
