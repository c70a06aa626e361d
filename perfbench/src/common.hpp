/**
 * @file
 * @brief Shared pieces of the benchmark harness: the command-line options,
 *        the metric sink, the in-memory span recorder, and the statistics
 *        helpers (percentiles with misses, the median over a step's
 *        attempts, the max-rate ladder rule, span self time). The helpers are header-only so `selftest.cpp` can check
 *        them without linking the library.
 */

#ifndef PERFBENCH_COMMON_HPP_
#define PERFBENCH_COMMON_HPP_

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(const clock_type::time_point a, const clock_type::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// CPU time (user + system, all threads) the process has used, in seconds.
[[nodiscard]] inline double process_cpu_seconds() {
    timespec ts{};
    (void) ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Voluntary context switches of the process so far (every thread): each is
/// a blocking wait, ended by a wake-up.
[[nodiscard]] inline long process_voluntary_switches() {
    rusage usage{};
    (void) ::getrusage(RUSAGE_SELF, &usage);
    return usage.ru_nvcsw;
}

/// High-water mark of the process's resident memory, in MiB.
[[nodiscard]] inline double peak_rss_mb() {
    rusage usage{};
    (void) ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// statistics helpers
// ---------------------------------------------------------------------------

/// A miss (failed, refused, lost or wrong response) is an infinite latency.
inline constexpr double miss = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile (q in (0, 1]) of @p samples; misses sort last, so
/// a percentile falling on a miss is infinite. NaN for an empty sample.
[[nodiscard]] inline double percentile(std::vector<double> samples, const double q) {
    if (samples.empty()) {
        return std::numeric_limits<double>::quiet_NaN();
    }
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(q * static_cast<double>(samples.size()));
    const std::size_t index = static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(samples.size()))) - 1;
    return samples[index];
}

/// Median, the 0.5 nearest-rank percentile.
[[nodiscard]] inline double median(std::vector<double> samples) {
    return percentile(std::move(samples), 0.5);
}

/// The smallest step whose p99 has ten samples beyond it.
inline constexpr std::size_t min_p99_samples = 1000;

/// Outcome of one fixed-rate step of the open-loop generator.
struct step_result {
    double offered_rps{ 0.0 };     ///< scheduled rate
    double achieved_rps{ 0.0 };    ///< OK responses per scheduled second
    std::size_t sent{ 0 };
    std::size_t ok{ 0 };
    std::size_t misses{ 0 };       ///< failed + refused + lost + wrong
    std::size_t wrong{ 0 };        ///< responses whose label differs from the reference
    double p50_s{ 0.0 };
    double p99_s{ 0.0 };           ///< pooled p99 over every request of the step
    double tail_p50_s{ 0.0 };      ///< median latency of the last fifth of the schedule
    double lag_p99_s{ 0.0 };       ///< how late sends left against their due time
    double cpu_s_per_req{ 0.0 };   ///< process CPU time over the step per request sent (server, engine and generator)
    bool generator_valid{ true };  ///< false when the generator itself fell behind (late sends in the last fifth)
};

/// A fixed-rate step is run a fixed number of times; its figures are the
/// medians over the attempts (counts are summed, and the generator kept its
/// schedule when it did so in most attempts). One attempt disturbed by the
/// host does not move them; a slowdown present in most attempts does.
[[nodiscard]] inline step_result median_step(const std::vector<step_result> &attempts) {
    step_result r;
    const auto field = [&](double step_result::*member) {
        std::vector<double> values;
        for (const step_result &a : attempts) {
            values.push_back(a.*member);
        }
        return median(std::move(values));
    };
    std::size_t valid = 0;
    for (const step_result &a : attempts) {
        r.sent += a.sent;
        r.ok += a.ok;
        r.misses += a.misses;
        r.wrong += a.wrong;
        valid += a.generator_valid ? 1 : 0;
    }
    r.offered_rps = field(&step_result::offered_rps);
    r.achieved_rps = field(&step_result::achieved_rps);
    r.p50_s = field(&step_result::p50_s);
    r.p99_s = field(&step_result::p99_s);
    r.tail_p50_s = field(&step_result::tail_p50_s);
    r.lag_p99_s = field(&step_result::lag_p99_s);
    r.cpu_s_per_req = field(&step_result::cpu_s_per_req);
    r.generator_valid = 2 * valid > attempts.size();
    return r;
}

/// Ladder rule: a rung passes when the generator kept its schedule, the p99
/// (misses infinite) meets @p limit_s, and the backlog did not grow (the
/// last fifth of the step still meets the limit at its median).
[[nodiscard]] inline bool rung_passes(const step_result &s, const double limit_s) {
    return s.generator_valid && s.p99_s <= limit_s && s.tail_p50_s <= limit_s;
}

/// Index of the highest rung of an ascending ladder such that it and every
/// rung below it pass; -1 when the lowest rung fails.
[[nodiscard]] inline int highest_passing_rung(const std::vector<step_result> &rungs, const double limit_s) {
    int best = -1;
    for (std::size_t i = 0; i < rungs.size(); ++i) {
        if (!rung_passes(rungs[i], limit_s)) {
            break;
        }
        best = static_cast<int>(i);
    }
    return best;
}

// ---------------------------------------------------------------------------
// span recorder
// ---------------------------------------------------------------------------

/// One recorded interval. `parent` indexes the recorder's span list (-1 for
/// a root); spans of one request share `request`.
struct span {
    std::string name;
    double start{ 0.0 };  ///< seconds since the recorder's origin
    double end{ 0.0 };
    long parent{ -1 };
    std::uint64_t request{ 0 };
};

/// Length of the union of the intervals [start, end) in @p intervals.
[[nodiscard]] inline double union_length(std::vector<std::pair<double, double>> intervals) {
    std::sort(intervals.begin(), intervals.end());
    double total = 0.0;
    double cur_begin = 0.0;
    double cur_end = 0.0;
    bool open = false;
    for (const auto &[b, e] : intervals) {
        if (!open || b > cur_end) {
            if (open) {
                total += cur_end - cur_begin;
            }
            cur_begin = b;
            cur_end = e;
            open = true;
        } else {
            cur_end = std::max(cur_end, e);
        }
    }
    if (open) {
        total += cur_end - cur_begin;
    }
    return total;
}

/// Self time of a span: its duration minus the union of its children,
/// each child clipped to the parent's interval.
[[nodiscard]] inline double self_time(const span &parent, const std::vector<span> &children) {
    std::vector<std::pair<double, double>> covered;
    covered.reserve(children.size());
    for (const span &c : children) {
        const double b = std::max(c.start, parent.start);
        const double e = std::min(c.end, parent.end);
        if (e > b) {
            covered.emplace_back(b, e);
        }
    }
    return (parent.end - parent.start) - union_length(std::move(covered));
}

/**
 * @brief In-memory span store. Spans are appended under a mutex (the wire
 *        passes record from several threads) and written out once, when the
 *        traced run ends.
 */
class span_recorder {
  public:
    span_recorder() :
        origin_{ clock_type::now() } {}

    [[nodiscard]] double now() const { return seconds_between(origin_, clock_type::now()); }
    [[nodiscard]] double at(const clock_type::time_point t) const { return seconds_between(origin_, t); }

    /// Record a finished span; returns its index (usable as a parent).
    long add(std::string name, const double start, const double end, const long parent = -1, const std::uint64_t request = 0) {
        const std::lock_guard lock{ mutex_ };
        spans_.push_back(span{ std::move(name), start, end, parent, request });
        return static_cast<long>(spans_.size()) - 1;
    }

    /// Open a span now and close it later with `close` (single-threaded use).
    long open(std::string name, const long parent = -1, const std::uint64_t request = 0) {
        return add(std::move(name), now(), now(), parent, request);
    }

    void close(const long index) {
        const std::lock_guard lock{ mutex_ };
        spans_[static_cast<std::size_t>(index)].end = now();
    }

    /// Number of spans recorded so far (a mark for `durations`).
    [[nodiscard]] std::size_t size() const {
        const std::lock_guard lock{ mutex_ };
        return spans_.size();
    }

    /// Durations (seconds) of the spans called @p name recorded at or after
    /// index @p from.
    [[nodiscard]] std::vector<double> durations(const std::string &name, const std::size_t from = 0) const {
        const std::lock_guard lock{ mutex_ };
        std::vector<double> out;
        for (std::size_t i = from; i < spans_.size(); ++i) {
            if (spans_[i].name == name) {
                out.push_back(spans_[i].end - spans_[i].start);
            }
        }
        return out;
    }

    /// Summed self time of every span called @p name.
    [[nodiscard]] double total_self_time(const std::string &name) const {
        const std::lock_guard lock{ mutex_ };
        std::map<long, std::vector<span>> children;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[i].parent >= 0) {
                children[spans_[i].parent].push_back(spans_[i]);
            }
        }
        double total = 0.0;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[i].name == name) {
                const auto it = children.find(static_cast<long>(i));
                total += self_time(spans_[i], it == children.end() ? std::vector<span>{} : it->second);
            }
        }
        return total;
    }

    /// Write every span as one JSON object per line.
    void write_jsonl(const std::string &path) const {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            throw std::runtime_error{ "cannot write " + path };
        }
        const std::lock_guard lock{ mutex_ };
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const span &s = spans_[i];
            std::fprintf(f, "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %ld, \"request\": %llu}\n",
                         i, s.name.c_str(), s.start, s.end, s.parent, static_cast<unsigned long long>(s.request));
        }
        std::fclose(f);
    }

  private:
    clock_type::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<span> spans_;
};

// ---------------------------------------------------------------------------
// options and results
// ---------------------------------------------------------------------------

/// `--key value` pairs of the command line.
class options {
  public:
    options(const int argc, char **argv) {
        for (int i = 1; i < argc; ++i) {
            const std::string key = argv[i];
            if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
                throw std::invalid_argument{ "expected --key value pairs, got '" + key + "'" };
            }
            values_[key.substr(2)] = argv[++i];
        }
    }

    [[nodiscard]] const std::string &str(const std::string &key) const {
        const auto it = values_.find(key);
        if (it == values_.end()) {
            throw std::invalid_argument{ "missing option --" + key };
        }
        return it->second;
    }

    [[nodiscard]] double num(const std::string &key) const { return std::stod(str(key)); }
    [[nodiscard]] std::size_t count(const std::string &key) const { return static_cast<std::size_t>(std::stoull(str(key))); }

    /// Comma-separated list of numbers.
    [[nodiscard]] std::vector<double> list(const std::string &key) const {
        std::vector<double> out;
        std::string item;
        for (const char c : str(key) + ",") {
            if (c == ',') {
                if (!item.empty()) {
                    out.push_back(std::stod(item));
                }
                item.clear();
            } else {
                item += c;
            }
        }
        return out;
    }

  private:
    std::map<std::string, std::string> values_;
};

/// Named metrics of one run plus the operation counts of the result line.
struct run_report {
    std::map<std::string, std::pair<double, std::string>> metrics;  ///< name -> (value, unit)
    std::size_t attempted{ 0 };
    std::size_t failed{ 0 };
    bool correct{ true };

    void set(const std::string &name, const double value, const std::string &unit) { metrics[name] = { value, unit }; }

    /// Count an operation; a wrong output also clears `correct`.
    void record(const bool ok, const bool wrong_output = false) {
        ++attempted;
        failed += ok ? 0 : 1;
        correct = correct && !wrong_output;
    }
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_HPP_
