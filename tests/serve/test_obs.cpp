/**
 * @file
 * @brief Observability-plane tests (ctest label `obs`, all suites prefixed
 *        `Obs`): log-bucketed histogram accuracy / merge / epoch-stable
 *        deltas, Prometheus exposition format validation, trace ring
 *        ordering under concurrent publishers, sampling-period
 *        honoring, flight-recorder dumps on injected shed and deadline
 *        miss, measured-rate estimate regression, and per-lane executor
 *        gauges.
 */

#include "serve/serve_test_utils.hpp"

#include "plssvm/exceptions.hpp"
#include "plssvm/serve/executor.hpp"
#include "plssvm/serve/inference_engine.hpp"
#include "plssvm/serve/model_registry.hpp"
#include "plssvm/serve/obs.hpp"
#include "plssvm/serve/qos.hpp"
#include "plssvm/serve/serve_stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using plssvm::kernel_type;
using plssvm::serve::class_index;
using plssvm::serve::engine_config;
using plssvm::serve::executor;
using plssvm::serve::inference_engine;
using plssvm::serve::lane_options;
using plssvm::serve::lane_report;
using plssvm::serve::model_registry;
using plssvm::serve::request_class;
using plssvm::serve::request_options;
using plssvm::serve::request_shed_exception;
using plssvm::serve::serve_stats;
namespace obs = plssvm::serve::obs;
namespace test = plssvm::test;
using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// log-bucketed latency histogram
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketIndexRoundTripAndResolution) {
    // every value must land in a bucket whose upper bound is >= the value
    // and whose relative width is bounded by one sub-bucket (1/16)
    for (const std::uint64_t ns : { std::uint64_t{ 0 }, std::uint64_t{ 1 }, std::uint64_t{ 15 }, std::uint64_t{ 16 },
                                    std::uint64_t{ 17 }, std::uint64_t{ 1000 }, std::uint64_t{ 123456 },
                                    std::uint64_t{ 1'000'000'000 }, std::uint64_t{ 999'999'999'999 } }) {
        const std::size_t index = obs::latency_histogram::bucket_index(ns);
        ASSERT_LT(index, obs::latency_histogram::num_buckets) << "ns = " << ns;
        const std::uint64_t upper = obs::latency_histogram::bucket_upper_ns(index);
        EXPECT_GE(upper, ns) << "bucket upper bound below the recorded value";
        if (ns >= obs::latency_histogram::sub_count) {
            // relative one-sided error: (upper - ns) / ns <= 1/16
            EXPECT_LE(static_cast<double>(upper - ns) / static_cast<double>(ns), 1.0 / 16.0) << "ns = " << ns;
        } else {
            EXPECT_EQ(upper, ns) << "unit buckets are exact";
        }
    }
    // bucket upper bounds are strictly increasing (quantile walk correctness)
    for (std::size_t i = 1; i < obs::latency_histogram::num_buckets; ++i) {
        ASSERT_GT(obs::latency_histogram::bucket_upper_ns(i), obs::latency_histogram::bucket_upper_ns(i - 1)) << "bucket " << i;
    }
}

TEST(ObsHistogram, QuantilesAreOneSidedWithinBucketError) {
    obs::latency_histogram hist;
    // 1..1000 microseconds, uniformly: true p50 = 500us, p99 = 990us
    for (int us = 1; us <= 1000; ++us) {
        hist.record(static_cast<double>(us) * 1e-6);
    }
    EXPECT_EQ(hist.count(), 1000u);
    const double p50 = hist.quantile(0.50);
    const double p99 = hist.quantile(0.99);
    // one-sided: never optimistic, at most one sub-bucket (~6.25%) pessimistic
    EXPECT_GE(p50, 500e-6 * (1.0 - 1e-9));
    EXPECT_LE(p50, 500e-6 * 1.07);
    EXPECT_GE(p99, 990e-6 * (1.0 - 1e-9));
    EXPECT_LE(p99, 990e-6 * 1.07);
    EXPECT_NEAR(hist.sum_seconds(), 1000.0 * 1001.0 / 2.0 * 1e-6, 1e-9);
    EXPECT_NEAR(hist.max_seconds(), 1000e-6, 1000e-6 / 16.0);
    // the quantile is capped at the recorded max: q=1 must not report the
    // bucket upper bound beyond it
    EXPECT_LE(hist.quantile(1.0), hist.max_seconds() + 1e-12);
}

TEST(ObsHistogram, MergeAddsObservations) {
    obs::latency_histogram a;
    obs::latency_histogram b;
    for (int i = 0; i < 100; ++i) {
        a.record(1e-3);
        b.record(4e-3);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), 200u);
    EXPECT_NEAR(a.sum_seconds(), 0.5, 1e-9);
    // median of the merged population sits between the two modes
    EXPECT_GE(a.quantile(0.50), 1e-3);
    EXPECT_LE(a.quantile(0.25), 1.1e-3);
    EXPECT_GE(a.quantile(0.75), 4e-3 * 0.99);
}

TEST(ObsHistogram, DeltaSinceIsolatesTheWindow) {
    // the epoch-mixing regression the histograms fix: a load change between
    // two scrapes must not blend into the window percentiles
    obs::latency_histogram cumulative;
    for (int i = 0; i < 1000; ++i) {
        cumulative.record(10e-3);  // slow epoch: 10ms requests
    }
    const obs::latency_histogram scrape = cumulative;
    for (int i = 0; i < 1000; ++i) {
        cumulative.record(100e-6);  // fast epoch: 100us requests
    }
    const obs::latency_histogram window = cumulative.delta_since(scrape);
    EXPECT_EQ(window.count(), 1000u);
    // the window median reflects ONLY the fast epoch
    EXPECT_LE(window.quantile(0.50), 110e-6);
    EXPECT_LE(window.quantile(0.99), 110e-6);
    // while the cumulative median still straddles both
    EXPECT_GE(cumulative.quantile(0.75), 9e-3);
}

TEST(ObsHistogram, CountLeIsMonotoneAndExhaustive) {
    obs::latency_histogram hist;
    for (int us = 1; us <= 100; ++us) {
        hist.record(static_cast<double>(us) * 1e-6);
    }
    std::uint64_t previous = 0;
    for (const double edge : { 1e-6, 1e-5, 5e-5, 1e-4, 1e-3, 1.0 }) {
        const std::uint64_t le = hist.count_le(edge);
        EXPECT_GE(le, previous) << "le ladder must be monotone";
        previous = le;
    }
    EXPECT_EQ(hist.count_le(1.0), hist.count()) << "everything lies below 1s";
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Minimal exposition-format validator: every non-comment line is
/// `name{labels} value` (or `name value`), every family has exactly one
/// HELP and one TYPE line, histograms carry a monotone `le` ladder that
/// terminates in `+Inf` and matches `_count`.
void validate_prometheus(const std::string &text) {
    ASSERT_FALSE(text.empty());
    ASSERT_EQ(text.back(), '\n') << "exposition must end with a newline";
    std::istringstream stream{ text };
    std::string line;
    std::size_t help_lines = 0;
    std::size_t type_lines = 0;
    std::size_t samples = 0;
    while (std::getline(stream, line)) {
        ASSERT_FALSE(line.empty()) << "no blank lines inside the exposition";
        if (line.rfind("# HELP ", 0) == 0) {
            ++help_lines;
            continue;
        }
        if (line.rfind("# TYPE ", 0) == 0) {
            ++type_lines;
            const std::string rest = line.substr(7);
            const std::size_t space = rest.find(' ');
            ASSERT_NE(space, std::string::npos) << line;
            const std::string type = rest.substr(space + 1);
            EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram") << line;
            continue;
        }
        ASSERT_NE(line.front(), '#') << "unknown comment line: " << line;
        // sample line: metric name, optional {labels}, one space, the value
        const std::size_t brace = line.find('{');
        const std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        const std::string name = line.substr(0, brace == std::string::npos ? line.find(' ') : brace);
        ASSERT_FALSE(name.empty()) << line;
        for (const char c : name) {
            ASSERT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_' || c == ':')
                << "invalid metric name character in: " << line;
        }
        if (brace != std::string::npos) {
            const std::size_t close = line.find('}', brace);
            ASSERT_NE(close, std::string::npos) << line;
            ASSERT_LT(close, space) << line;
        }
        const std::string value = line.substr(space + 1);
        ASSERT_FALSE(value.empty()) << line;
        if (value != "+Inf" && value != "-Inf" && value != "NaN") {
            std::size_t consumed = 0;
            EXPECT_NO_THROW({
                (void) std::stod(value, &consumed);
            }) << line;
            EXPECT_EQ(consumed, value.size()) << "trailing junk in sample value: " << line;
        }
        ++samples;
    }
    EXPECT_EQ(help_lines, type_lines) << "every family has exactly one HELP and one TYPE";
    EXPECT_GT(samples, 0u);
}

TEST(ObsPrometheus, FamiliesGroupAcrossLabelSetsAndValuesEscape) {
    obs::prometheus_builder builder;
    builder.add_counter("plssvm_test_total", "A counter", { { "model", "alpha" } }, 1.0);
    builder.add_counter("plssvm_test_total", "A counter", { { "model", "beta\"quoted\\slash\nline" } }, 2.0);
    builder.add_gauge("plssvm_test_gauge", "A gauge", {}, 0.5);
    const std::string text = builder.text();
    validate_prometheus(text);
    // one family header even though two label sets were added
    EXPECT_EQ(text.find("# TYPE plssvm_test_total counter"), text.rfind("# TYPE plssvm_test_total counter"));
    // label escaping per the exposition spec
    EXPECT_NE(text.find("model=\"beta\\\"quoted\\\\slash\\nline\""), std::string::npos) << text;
    EXPECT_NE(text.find("plssvm_test_total{model=\"alpha\"} 1"), std::string::npos) << text;
}

TEST(ObsPrometheus, HistogramLadderIsCumulativeAndTerminatesAtInf) {
    obs::latency_histogram hist;
    for (int i = 0; i < 64; ++i) {
        hist.record(2e-4);  // all observations in one spot of the ladder
    }
    obs::prometheus_builder builder;
    builder.add_histogram("plssvm_test_latency_seconds", "latencies", {}, hist);
    const std::string text = builder.text();
    validate_prometheus(text);
    EXPECT_NE(text.find("# TYPE plssvm_test_latency_seconds histogram"), std::string::npos);
    EXPECT_NE(text.find("le=\"+Inf\"} 64"), std::string::npos) << text;
    EXPECT_NE(text.find("plssvm_test_latency_seconds_count 64"), std::string::npos) << text;
    // the bucket counts along the ladder are monotonically non-decreasing
    std::istringstream stream{ text };
    std::string line;
    double previous = -1.0;
    std::size_t ladder_lines = 0;
    while (std::getline(stream, line)) {
        if (line.rfind("plssvm_test_latency_seconds_bucket", 0) != 0) {
            continue;
        }
        const double value = std::stod(line.substr(line.rfind(' ') + 1));
        EXPECT_GE(value, previous) << line;
        previous = value;
        ++ladder_lines;
    }
    EXPECT_GT(ladder_lines, 10u) << "expected a full default edge ladder";
}

// ---------------------------------------------------------------------------
// trace ring
// ---------------------------------------------------------------------------

TEST(ObsTraceRing, CollectsPublishedRecordsOldestFirst) {
    obs::trace_ring ring;
    ring.reset(8);
    for (std::uint64_t i = 1; i <= 5; ++i) {
        obs::request_trace trace{};
        trace.id = i;
        trace.t_admit_ns = i * 100;
        trace.t_enqueue_ns = i * 100 + 1;
        trace.t_seal_ns = i * 100 + 2;
        trace.t_dispatch_ns = i * 100 + 3;
        trace.t_complete_ns = i * 100 + 4;
        ring.publish(trace);
    }
    std::vector<obs::request_trace> out;
    ring.collect(out);
    ASSERT_EQ(out.size(), 5u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].id, i + 1) << "oldest first";
        EXPECT_TRUE(out[i].spans_complete());
    }
}

TEST(ObsTraceRing, OverwritesOldestBeyondCapacity) {
    obs::trace_ring ring;
    ring.reset(4);
    for (std::uint64_t i = 1; i <= 10; ++i) {
        obs::request_trace trace{};
        trace.id = i;
        ring.publish(trace);
    }
    EXPECT_EQ(ring.published(), 10u);
    std::vector<obs::request_trace> out;
    ring.collect(out);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out.front().id, 7u);
    EXPECT_EQ(out.back().id, 10u);
}

TEST(ObsTraceRing, ConcurrentPublishersNeverYieldTornRecords) {
    // each publisher stamps every field from its id; a torn record would
    // show inconsistent fields, and a lost slot would shorten the collection
    obs::trace_ring ring;
    ring.reset(1024);
    constexpr std::size_t num_threads = 8;
    constexpr std::uint64_t per_thread = 500;
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (std::size_t t = 0; t < num_threads; ++t) {
        threads.emplace_back([&ring, t]() {
            for (std::uint64_t i = 0; i < per_thread; ++i) {
                const std::uint64_t id = t * per_thread + i + 1;
                obs::request_trace trace{};
                trace.id = id;
                trace.batch_size = id % 64;
                trace.t_admit_ns = id;
                trace.t_enqueue_ns = id + 1;
                trace.t_seal_ns = id + 2;
                trace.t_dispatch_ns = id + 3;
                trace.t_complete_ns = id + 4;
                ring.publish(trace);
            }
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }
    EXPECT_EQ(ring.published(), num_threads * per_thread);
    std::vector<obs::request_trace> out;
    ring.collect(out);
    // publishes are serialized, so the last capacity() of them all survive
    EXPECT_EQ(out.size(), ring.capacity());
    for (const obs::request_trace &trace : out) {
        ASSERT_GE(trace.id, 1u);
        ASSERT_LE(trace.id, num_threads * per_thread);
        // internal consistency: every field derives from the id
        EXPECT_EQ(trace.batch_size, trace.id % 64);
        EXPECT_EQ(trace.t_admit_ns, trace.id);
        EXPECT_EQ(trace.t_complete_ns, trace.id + 4);
        EXPECT_TRUE(trace.spans_complete());
    }
}

// ---------------------------------------------------------------------------
// flight recorder: sampling, dumps, rate limiting
// ---------------------------------------------------------------------------

TEST(ObsFlightRecorder, SamplingHonorsTheQuantizedPeriod) {
    obs::obs_config config;
    config.sampling[class_index(request_class::interactive)] = 0.25;  // period 4
    obs::flight_recorder recorder{ config };
    std::size_t traced = 0;
    for (int i = 0; i < 100; ++i) {
        traced += recorder.should_trace(request_class::interactive, /*has_deadline=*/false) ? 1 : 0;
    }
    EXPECT_EQ(traced, 25u) << "rate 0.25 quantizes to exactly every 4th request";
    EXPECT_EQ(recorder.sampled_out(), 75u);
}

TEST(ObsFlightRecorder, DeadlineCarryingRequestsAlwaysTrace) {
    obs::obs_config config;
    config.sampling = { 0.0, 0.0, 0.0 };  // never sample
    obs::flight_recorder recorder{ config };
    EXPECT_FALSE(recorder.should_trace(request_class::interactive, /*has_deadline=*/false));
    // the acceptance guarantee: every deadline miss ships with its trace,
    // so deadline-carrying requests bypass sampling entirely
    EXPECT_TRUE(recorder.should_trace(request_class::interactive, /*has_deadline=*/true));
}

TEST(ObsFlightRecorder, DisabledPlaneRecordsNothing) {
    obs::obs_config config;
    config.enabled = false;
    obs::flight_recorder recorder{ config };
    EXPECT_FALSE(recorder.should_trace(request_class::interactive, /*has_deadline=*/true));
    recorder.record_shed(request_class::interactive, plssvm::serve::admission_decision::shed_queue_full);
    EXPECT_EQ(recorder.sheds_recorded(), 0u);
    EXPECT_TRUE(recorder.last_violation_dump().empty());
}

TEST(ObsFlightRecorder, ShedTriggersViolationDumpWithReason) {
    obs::flight_recorder recorder{};
    recorder.record_shed(request_class::batch, plssvm::serve::admission_decision::shed_queue_full);
    EXPECT_EQ(recorder.sheds_recorded(), 1u);
    EXPECT_EQ(recorder.violation_dumps(), 1u) << "the FIRST shed must dump (no warm-up suppression)";
    const std::string dump = recorder.last_violation_dump();
    EXPECT_NE(dump.find("\"reason\": \"shed\""), std::string::npos) << dump;
    EXPECT_NE(dump.find("queue_full"), std::string::npos) << dump;
    EXPECT_NE(dump.find("\"batch\""), std::string::npos) << dump;
    const std::vector<obs::request_trace> sheds = recorder.shed_events();
    ASSERT_EQ(sheds.size(), 1u);
    EXPECT_TRUE(sheds.front().shed);
    EXPECT_GT(sheds.front().t_admit_ns, 0u) << "a shed trace still carries its admission stamp";
}

TEST(ObsFlightRecorder, ViolationDumpsAreRateLimited) {
    obs::obs_config config;
    config.min_dump_interval = std::chrono::microseconds{ 3'600'000'000LL };  // one hour
    obs::flight_recorder recorder{ config };
    for (int i = 0; i < 50; ++i) {
        recorder.record_shed(request_class::interactive, plssvm::serve::admission_decision::shed_rate_limited);
    }
    EXPECT_EQ(recorder.sheds_recorded(), 50u) << "every shed event is retained";
    EXPECT_EQ(recorder.violation_dumps(), 1u) << "but only the first renders a dump inside the interval";
}

TEST(ObsFlightRecorder, DeadlineMissDumpRetainsTheCompleteTrace) {
    obs::flight_recorder recorder{};
    obs::request_trace trace{};
    trace.id = recorder.next_trace_id();
    trace.cls = request_class::interactive;
    trace.deadline_missed = true;
    trace.batch_size = 3;
    trace.t_admit_ns = 100;
    trace.t_enqueue_ns = 200;
    trace.t_seal_ns = 300;
    trace.t_dispatch_ns = 400;
    trace.t_complete_ns = 900;
    recorder.record_complete(trace);
    EXPECT_EQ(recorder.traces_recorded(), 1u);
    EXPECT_EQ(recorder.violation_dumps(), 1u);
    const std::string dump = recorder.last_violation_dump();
    EXPECT_NE(dump.find("\"reason\": \"deadline_miss\""), std::string::npos) << dump;
    EXPECT_NE(dump.find("\"deadline_missed\": true"), std::string::npos) << dump;
    EXPECT_NE(dump.find("\"spans_ns\""), std::string::npos) << dump;
    const std::vector<obs::request_trace> traces = recorder.traces(request_class::interactive);
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_TRUE(traces.front().spans_complete());
    const obs::stage_seconds spans = traces.front().spans_seconds();
    EXPECT_NEAR(spans[obs::stage_index(obs::trace_stage::admission)], 100e-9, 1e-12);
    EXPECT_NEAR(spans[obs::stage_index(obs::trace_stage::service)], 500e-9, 1e-12);
}

// ---------------------------------------------------------------------------
// engine end-to-end: lifecycle traces, violation dumps, exposition
// ---------------------------------------------------------------------------

TEST(ObsEngine, CompletedAsyncRequestsCarryMonotoneLifecycleSpans) {
    inference_engine<double> engine{ test::random_model(kernel_type::linear), engine_config{ .max_batch_size = 4 } };
    // the engine's first batch has no measured rate, hence no estimate: run
    // it in another class so every interactive batch below has one
    (void) engine.submit(std::vector<double>(engine.num_features(), 0.25), request_options{ .cls = request_class::batch }).get();
    std::vector<std::future<double>> futures;
    for (int i = 0; i < 32; ++i) {
        futures.push_back(engine.submit(std::vector<double>(engine.num_features(), 0.25)));
    }
    for (std::future<double> &f : futures) {
        (void) f.get();
    }
    const std::vector<obs::request_trace> traces = engine.recorder().traces(request_class::interactive);
    ASSERT_FALSE(traces.empty()) << "default sampling traces every request";
    for (const obs::request_trace &trace : traces) {
        EXPECT_TRUE(trace.spans_complete()) << "trace " << trace.id << " must carry all five monotone stamps";
        EXPECT_GT(trace.batch_size, 0u);
        EXPECT_GT(trace.estimated_batch_seconds, 0.0) << "the measured-rate estimate is attributed to the trace";
    }
    // stage histograms fed the per-class stats
    const serve_stats stats = engine.stats();
    const auto &interactive = stats.classes[class_index(request_class::interactive)];
    EXPECT_EQ(interactive.completed, 32u);
    EXPECT_EQ(interactive.stages[obs::stage_index(obs::trace_stage::service)].count, 32u);
    EXPECT_GT(interactive.stages[obs::stage_index(obs::trace_stage::queue_wait)].total_seconds, 0.0);
}

TEST(ObsEngine, ShedRequestProducesRetrievableFlightRecord) {
    engine_config config;
    // one-token bucket with a negligible refill: the second submit sheds
    config.qos.classes[class_index(request_class::interactive)].rate_limit = 1e-6;
    config.qos.classes[class_index(request_class::interactive)].burst = 1.0;
    inference_engine<double> engine{ test::random_model(kernel_type::rbf), config };
    (void) engine.submit(std::vector<double>(engine.num_features(), 0.5)).get();
    EXPECT_THROW((void) engine.submit(std::vector<double>(engine.num_features(), 0.5)), request_shed_exception);
    EXPECT_GE(engine.recorder().sheds_recorded(), 1u);
    const std::string dump = engine.last_violation_dump();
    ASSERT_FALSE(dump.empty()) << "a shed must leave an automatic violation dump behind";
    EXPECT_NE(dump.find("\"reason\": \"shed\""), std::string::npos) << dump;
    EXPECT_NE(dump.find("rate_limited"), std::string::npos) << dump;
}

TEST(ObsEngine, DeadlineMissShipsWithItsCompleteTrace) {
    engine_config config;
    config.obs.sampling = { 0.0, 0.0, 0.0 };  // deadline requests must trace anyway
    inference_engine<double> engine{ test::random_model(kernel_type::linear), config };
    // a 1us budget is over before the drain thread can possibly complete it
    request_options options;
    options.deadline = 1us;
    (void) engine.submit(std::vector<double>(engine.num_features(), 0.1), options).get();
    const std::vector<obs::request_trace> traces = engine.recorder().traces(request_class::interactive);
    ASSERT_FALSE(traces.empty());
    EXPECT_TRUE(traces.back().deadline_missed);
    EXPECT_TRUE(traces.back().spans_complete()) << "the acceptance criterion: a missed deadline is fully attributable";
    const std::string dump = engine.last_violation_dump();
    ASSERT_FALSE(dump.empty());
    EXPECT_NE(dump.find("\"reason\": \"deadline_miss\""), std::string::npos) << dump;
    EXPECT_NE(dump.find("\"spans_ns\""), std::string::npos) << dump;
    // and the explicit dump channel sees the same retained trace
    const std::string explicit_dump = engine.dump_traces();
    EXPECT_NE(explicit_dump.find("\"reason\": \"explicit\""), std::string::npos);
    EXPECT_NE(explicit_dump.find("\"deadline_missed\": true"), std::string::npos) << explicit_dump;
}

TEST(ObsEngine, MetricsTextIsValidPrometheusExposition) {
    inference_engine<double> engine{ test::random_model(kernel_type::polynomial) };
    std::vector<std::future<double>> futures;
    for (int i = 0; i < 16; ++i) {
        futures.push_back(engine.submit(std::vector<double>(engine.num_features(), 0.3)));
    }
    for (std::future<double> &f : futures) {
        (void) f.get();
    }
    (void) engine.predict(test::random_matrix(24, engine.num_features(), 7));
    const std::string text = engine.metrics_text();
    validate_prometheus(text);
    for (const char *family : { "plssvm_serve_requests_total", "plssvm_serve_batches_total",
                                "plssvm_serve_latency_seconds_bucket", "plssvm_serve_stage_latency_seconds_bucket",
                                "plssvm_serve_admitted_total", "plssvm_serve_path_batches_total",
                                "plssvm_serve_cost_estimate_rel_error_count", "plssvm_serve_obs_traces_recorded_total" }) {
        EXPECT_NE(text.find(family), std::string::npos) << "missing family " << family;
    }
    EXPECT_NE(text.find("stage=\"queue_wait\""), std::string::npos);
    EXPECT_NE(text.find("class=\"interactive\""), std::string::npos);
}

TEST(ObsEngine, StatsJsonExposesStageAndCostModelSections) {
    inference_engine<double> engine{ test::random_model(kernel_type::linear) };
    std::vector<std::future<double>> futures;
    for (int i = 0; i < 8; ++i) {
        futures.push_back(engine.submit(std::vector<double>(engine.num_features(), 0.2)));
    }
    for (std::future<double> &f : futures) {
        (void) f.get();
    }
    const std::string json = engine.stats_json();
    // backward-compatible additions only: the legacy fields stay (asserted
    // exhaustively in the Qos suite), the new sections appear
    for (const char *field : { "\"p999_latency_s\"", "\"cost_model\"", "\"estimate_batches\"", "\"median_rel_error\"",
                               "\"stages\"", "\"queue_wait\"", "\"dispatch\"", "\"service\"", "\"admission\"" }) {
        EXPECT_NE(json.find(field), std::string::npos) << "missing " << field << " in " << json;
    }
    std::ptrdiff_t depth = 0;
    for (const char c : json) {
        depth += c == '{' ? 1 : (c == '}' ? -1 : 0);
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0) << "unbalanced braces";
}

// ---------------------------------------------------------------------------
// measured-rate estimate regression
// ---------------------------------------------------------------------------

TEST(ObsCalibration, ReferencePathEstimateErrorStaysBounded) {
    // single-point submits ride the reference path (batch < min_blocked_batch)
    // and each is estimated from the running mean of the ones before it.
    // The guard is intentionally loose — it catches unit mix-ups (1e3x) and
    // a broken running mean, not timing noise.
    inference_engine<double> engine{ test::random_model(kernel_type::linear, /*num_sv=*/256, /*dim=*/64) };
    for (int i = 0; i < 24; ++i) {
        (void) engine.submit(std::vector<double>(engine.num_features(), 0.4)).get();
    }
    const serve_stats stats = engine.stats();
    EXPECT_EQ(stats.estimate_batches, 23u) << "every drained batch after the first records its estimate";
    EXPECT_GT(stats.estimate_median_rel_error, 0.0) << "estimates are never exact";
    EXPECT_LE(stats.estimate_median_rel_error, 9.0) << "median relative error an order of magnitude off: the measured estimate regressed";
}

// ---------------------------------------------------------------------------
// executor per-lane gauges
// ---------------------------------------------------------------------------

TEST(ObsExecutor, LaneReportsExposePerLaneCounters) {
    executor exec{ 2 };
    executor::lane alpha = exec.create_lane(lane_options{ .name = "alpha" });
    executor::lane beta = exec.create_lane(lane_options{ .name = "beta" });
    std::vector<std::future<void>> pending;
    for (int i = 0; i < 8; ++i) {
        pending.push_back(alpha.enqueue([]() {}));
    }
    for (std::future<void> &f : pending) {
        f.get();
    }
    // a task counts as completed only after its closure returned, so the
    // futures can be ready first: wait for the counter itself
    ASSERT_TRUE(test::wait_until([&]() { return alpha.stats().completed == 8u; }));
    const std::vector<lane_report> reports = exec.lane_reports();
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(reports[0].name, "alpha");
    EXPECT_EQ(reports[1].name, "beta");
    EXPECT_EQ(reports[0].stats.submitted, 8u);
    EXPECT_EQ(reports[0].stats.completed, 8u);
    EXPECT_EQ(reports[1].stats.submitted, 0u);
    EXPECT_EQ(reports[0].stats.queue_depth, 0u);
}

TEST(ObsExecutor, StatsJsonRendersLaneGauges) {
    executor exec{ 2 };
    executor::lane lane = exec.create_lane(lane_options{ .name = "obs-lane" });
    std::vector<std::future<void>> pending;
    for (int i = 0; i < 4; ++i) {
        pending.push_back(lane.enqueue([]() {}));
    }
    for (std::future<void> &f : pending) {
        f.get();
    }
    ASSERT_TRUE(test::wait_until([&]() { return lane.stats().completed == 4u; }));
    const std::string json = exec.stats_json();
    for (const char *field : { "\"workers\": 2", "\"num_lanes\": 1", "\"lanes\": [", "\"name\": \"obs-lane\"",
                               "\"submitted\": 4", "\"completed\": 4", "\"queue_depth\": 0", "\"max_queue_depth\"" }) {
        EXPECT_NE(json.find(field), std::string::npos) << "missing " << field << " in " << json;
    }
    std::ptrdiff_t depth = 0;
    for (const char c : json) {
        depth += (c == '{' || c == '[') ? 1 : ((c == '}' || c == ']') ? -1 : 0);
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0) << "unbalanced JSON nesting";
}

// ---------------------------------------------------------------------------
// registry exposition
// ---------------------------------------------------------------------------

TEST(ObsRegistry, MetricsTextLabelsEveryModelAndExportsLaneGauges) {
    executor exec{ 2 };
    engine_config config;
    config.exec = &exec;
    model_registry<double> registry{ 4, config };
    (void) registry.load("alpha-model", test::random_model(kernel_type::linear));
    (void) registry.load("beta-model", test::random_model(kernel_type::rbf));
    const std::string text = registry.metrics_text();
    validate_prometheus(text);
    // two engines' lanes share the name "engine": their series must differ
    EXPECT_TRUE(obs::exposition_valid(text)) << text;
    EXPECT_NE(text.find("model=\"alpha-model\""), std::string::npos);
    EXPECT_NE(text.find("model=\"beta-model\""), std::string::npos);
    EXPECT_NE(text.find("plssvm_serve_lane_queue_depth"), std::string::npos);
    EXPECT_NE(text.find("lane=\"engine\""), std::string::npos) << text.substr(0, 2000);
}

}  // namespace
