/**
 * @file
 * @brief Checks of the harness's own helpers: percentiles with misses
 *        counted as infinite, the max-rate ladder rule, and span self time.
 *        Run with `python3 perfbench/run.py --selftest`; exits non-zero on
 *        the first failed check.
 */

#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

namespace {

int failures = 0;

void check(const bool ok, const char *what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
}

[[nodiscard]] bool near(const double a, const double b) { return std::abs(a - b) <= 1e-12; }

[[nodiscard]] perfbench::step_result rung(const double p99, const double tail = 0.001, const bool valid = true) {
    perfbench::step_result r;
    r.p99_s = p99;
    r.tail_p50_s = tail;
    r.generator_valid = valid;
    return r;
}

}  // namespace

int main() {
    using perfbench::miss;

    // percentiles: nearest rank, misses sort last as infinite latencies
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i) {
        hundred.push_back(static_cast<double>(i));
    }
    check(near(perfbench::percentile(hundred, 0.5), 50.0), "p50 of 1..100 is 50");
    check(near(perfbench::percentile(hundred, 0.99), 99.0), "p99 of 1..100 is 99");
    std::vector<double> one_miss = hundred;
    one_miss[3] = miss;
    check(near(perfbench::percentile(one_miss, 0.99), 100.0), "one miss in 100 leaves p99 finite");
    std::vector<double> two_misses = one_miss;
    two_misses[7] = miss;
    check(perfbench::percentile(two_misses, 0.99) == miss, "two misses in 100 make p99 infinite");
    check(near(perfbench::percentile(two_misses, 0.5), 52.0), "misses shift the median upward");
    check(std::isnan(perfbench::percentile({}, 0.5)), "empty sample has no percentile");
    std::vector<double> step(perfbench::min_p99_samples);
    for (std::size_t i = 0; i < step.size(); ++i) {
        step[i] = static_cast<double>(i);
    }
    const double step_p99 = perfbench::percentile(step, 0.99);
    check(std::count_if(step.begin(), step.end(), [&](const double v) { return v > step_p99; }) == 10,
          "the smallest p99 step leaves exactly 10 samples beyond its p99");

    // a step's p99 is pooled over all of its requests, so a stall that hits
    // 2 % of them shows wherever in the step it falls
    std::vector<double> periodic_stall(5000, 1.0);
    for (std::size_t i = 0; i < periodic_stall.size(); i += 50) {
        periodic_stall[i] = 10.0;  // one stalled request in fifty
    }
    check(near(perfbench::percentile(periodic_stall, 0.99), 10.0), "a stall on 2 % of the requests sets the p99");
    check(near(perfbench::percentile(periodic_stall, 0.5), 1.0), "the same stall leaves the p50");

    // a step's figures are the medians over its attempts
    const auto attempt = [](const double p99, const bool valid = true) {
        perfbench::step_result a;
        a.sent = 100;
        a.p99_s = p99;
        a.generator_valid = valid;
        return a;
    };
    const perfbench::step_result one_disturbed = perfbench::median_step({ attempt(0.002), attempt(0.030), attempt(0.003) });
    check(near(one_disturbed.p99_s, 0.003) && one_disturbed.sent == 300, "one disturbed attempt of three does not set the step's p99");
    check(near(perfbench::median_step({ attempt(0.030), attempt(0.002), attempt(0.020) }).p99_s, 0.020),
          "a slowdown in two attempts of three sets the step's p99");
    check(perfbench::median_step({ attempt(miss), attempt(0.002), attempt(miss) }).p99_s == miss, "misses in most attempts keep the p99 infinite");
    check(!perfbench::median_step({ attempt(0.002, false), attempt(0.002), attempt(0.002, false) }).generator_valid,
          "a generator behind in most attempts invalidates the step");

    // ladder: highest rung such that it and every rung below it pass
    const double limit = 0.005;
    check(perfbench::highest_passing_rung({ rung(0.001), rung(0.002), rung(0.004), rung(0.009) }, limit) == 2,
          "ladder stops below the first rung over the limit");
    check(perfbench::highest_passing_rung({ rung(0.001), rung(0.009), rung(0.002) }, limit) == 0,
          "a passing rung above a failing one does not count");
    check(perfbench::highest_passing_rung({ rung(0.001), rung(0.002, 0.006) }, limit) == 0,
          "a growing backlog (late tail over the limit) fails the rung");
    check(perfbench::highest_passing_rung({ rung(0.001), rung(0.002, 0.001, false) }, limit) == 0,
          "a rung whose generator fell behind fails");
    check(perfbench::highest_passing_rung({ rung(miss) }, limit) == -1, "misses fail the lowest rung");

    // self time: duration minus the union of the (clipped) children
    const perfbench::span parent{ "cg", 0.0, 10.0, -1, 0 };
    check(near(perfbench::self_time(parent, {}), 10.0), "a leaf's self time is its duration");
    check(near(perfbench::self_time(parent, { { "a", 1.0, 3.0, 0, 0 }, { "a", 5.0, 6.0, 0, 0 } }), 7.0),
          "disjoint children are subtracted");
    check(near(perfbench::self_time(parent, { { "a", 1.0, 4.0, 0, 0 }, { "b", 2.0, 5.0, 0, 0 } }), 6.0),
          "overlapping children count once");
    check(near(perfbench::self_time(parent, { { "a", -2.0, 1.0, 0, 0 }, { "b", 9.0, 12.0, 0, 0 } }), 8.0),
          "children are clipped to the parent");
    check(near(perfbench::self_time(parent, { { "a", 0.0, 10.0, 0, 0 }, { "b", 3.0, 4.0, 0, 0 } }), 0.0),
          "a child covering the parent leaves no self time");

    perfbench::span_recorder rec;
    const long root = rec.add("fit", 0.0, 4.0);
    rec.add("apply", 0.5, 1.5, root);
    rec.add("apply", 2.0, 3.0, root);
    check(near(rec.total_self_time("fit"), 2.0), "recorder self time of a parent with two children");
    check(near(rec.total_self_time("apply"), 2.0), "recorder self time of leaves sums durations");

    std::printf("%d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}
