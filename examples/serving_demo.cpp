/**
 * @file
 * @brief Serving quickstart: train a model, register it on the shared
 *        executor, serve synchronous batches and asynchronous single-point
 *        requests with in-engine scaling (raw-feature clients), hot-swap a
 *        retrained model with zero downtime, print the stats.
 *
 * `--qos` runs the admission-control demo instead: class-tagged submission
 * (interactive / batch / background), token-bucket rate limiting and
 * queue-depth shedding with the typed `request_shed_exception`, deadline
 * budgets, and the per-class stats JSON snapshot.
 *
 * `--stats-interval <s>` runs the observability demo: a scraper thread
 * polls the registry's Prometheus text exposition every <s> seconds while
 * traffic flows, exactly like a metrics agent would. `--dump-traces`
 * additionally prints the flight recorder's JSON trace dump (the last N
 * complete request lifecycles per class) on exit, plus the automatic
 * violation dump captured at the first deadline miss.
 *
 * `--listen [port]` runs the network serving demo: the epoll front-end of
 * `plssvm::serve::net` is started over the registry (port 0 = ephemeral)
 * and a loopback client exercises both wire modes — the curl-able JSON
 * lines (readiness probe + one prediction) and the binary framing. With
 * `--serve-seconds <s>` the server then stays up so you can poke it from
 * another terminal with `nc`.
 *
 * Build & run:
 *   cmake -B build -S . && cmake --build build -j
 *   ./build/examples/serving_demo
 *   ./build/examples/serving_demo --qos
 *   ./build/examples/serving_demo --stats-interval 1 --dump-traces
 *   ./build/examples/serving_demo --listen 7143 --serve-seconds 60
 */

#include "plssvm/core/csvm_factory.hpp"
#include "plssvm/core/data_set.hpp"
#include "plssvm/core/parameter.hpp"
#include "plssvm/datagen/make_classification.hpp"
#include "plssvm/detail/tracker.hpp"
#include "plssvm/serve/serve.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

// loopback client of the `--listen` demo
#include <arpa/inet.h>    // htons, htonl
#include <csignal>        // std::signal, SIGTERM, SIGINT
#include <netinet/in.h>   // sockaddr_in, INADDR_LOOPBACK
#include <sys/socket.h>   // socket, connect
#include <unistd.h>       // write, read, close

namespace {

/// SIGTERM/SIGINT observed while `--listen` serves: triggers a graceful
/// drain (stop accepting, settle inflight requests, exit 0) instead of
/// killing responses mid-write.
volatile std::sig_atomic_t g_shutdown_requested = 0;

extern "C" void on_shutdown_signal(int) { g_shutdown_requested = 1; }

/// The `--qos` mode: graceful degradation under class-tagged overload.
int qos_demo() {
    using plssvm::serve::class_index;
    using plssvm::serve::request_class;
    using plssvm::serve::request_options;
    using namespace std::chrono_literals;

    // 1. train a small model to serve
    plssvm::datagen::classification_params gen;
    gen.num_points = 512;
    gen.num_features = 16;
    gen.class_sep = 1.5;
    const auto train = plssvm::datagen::make_classification<double>(gen);
    plssvm::parameter params;
    params.kernel = plssvm::kernel_type::rbf;
    const auto svm = plssvm::make_csvm<double>(plssvm::backend_type::openmp, params);
    const auto model = svm->fit(plssvm::data_set<double>{ plssvm::aos_matrix<double>{ train.points() }, std::vector<double>(train.labels()) },
                                plssvm::solver_control{ .epsilon = 1e-6 });

    // 2. QoS policy: interactive traffic gets a deadline budget and a short
    //    shed queue (fail fast under overload), background traffic is
    //    rate-limited to a trickle, batch sits in between; batches take
    //    whatever queued while the previous one ran, up to 32 per class
    //    (fewer for interactive if 32 would overrun its deadline budget)
    plssvm::serve::engine_config config;
    config.num_threads = 2;
    config.max_batch_size = 32;
    config.qos.classes[class_index(request_class::interactive)].max_pending = 64;
    config.qos.classes[class_index(request_class::interactive)].deadline_budget = 20ms;
    config.qos.classes[class_index(request_class::batch)].max_pending = 512;
    config.qos.classes[class_index(request_class::background)].rate_limit = 200.0;  // req/s
    config.qos.classes[class_index(request_class::background)].burst = 50.0;
    plssvm::serve::inference_engine<double> engine{ model, config };
    std::printf("QoS engine up: interactive max_pending=64 deadline=20ms, background rate=200/s burst=50\n");

    // 3. a mixed burst: every point is submitted under a class chosen
    //    round-robin; overload sheds excess with a TYPED error the caller
    //    can catch and turn into a retry/backoff decision
    gen.seed = 7;
    const auto queries = plssvm::datagen::make_classification<double>(gen).points();
    std::vector<std::future<double>> admitted;
    std::size_t shed = 0;
    for (std::size_t round = 0; round < 8; ++round) {
        for (std::size_t p = 0; p < queries.num_rows(); ++p) {
            const request_class cls = static_cast<request_class>(p % plssvm::serve::num_request_classes);
            try {
                admitted.push_back(engine.submit(
                    std::vector<double>(queries.row_data(p), queries.row_data(p) + queries.num_cols()),
                    request_options{ .cls = cls }));
            } catch (const plssvm::serve::request_shed_exception &e) {
                ++shed;
                if (shed == 1) {
                    std::printf("first shed: %s\n", e.what());
                }
            }
        }
    }
    for (std::future<double> &f : admitted) {
        (void) f.get();  // every admitted request is answered
    }
    std::printf("burst of %zu submissions: %zu admitted+answered, %zu shed (graceful degradation)\n",
                admitted.size() + shed, admitted.size(), shed);

    // 4. per-class accounting: who was admitted, who was shed, which class
    //    missed deadlines, and each class's batch cap
    const plssvm::serve::serve_stats stats = engine.stats();
    for (const request_class cls : plssvm::serve::all_request_classes) {
        const plssvm::serve::class_serve_stats &c = stats.classes[class_index(cls)];
        std::printf("  %-11s admitted %5zu | shed %4zu (rate %zu, queue %zu) | deadline misses %3zu | p99 %7.0f us | batch cap %zu\n",
                    std::string{ plssvm::serve::request_class_to_string(cls) }.c_str(),
                    c.admitted, c.shed_rate_limited + c.shed_queue_full, c.shed_rate_limited, c.shed_queue_full,
                    c.deadline_misses, 1e6 * c.p99_latency_seconds, c.target_batch_size);
    }
    std::printf("mean batch %.1f requests\n", stats.mean_batch_size);

    // 5. the scrape format: one JSON snapshot per engine (registries expose
    //    the same per resident model via registry.stats_json())
    const std::string json = engine.stats_json();
    std::printf("stats JSON snapshot (%zu bytes): %.120s...\n", json.size(), json.c_str());
    return 0;
}

/// The `--stats-interval` mode: a Prometheus scraper thread polls the
/// registry while traffic flows; `--dump-traces` prints the flight-recorder
/// JSON on exit.
int obs_demo(const double stats_interval_s, const bool dump_traces) {
    using namespace std::chrono_literals;

    // 1. train a small model and register it — the observability plane is on
    //    by default (sampling rate 1.0 for every class)
    plssvm::datagen::classification_params gen;
    gen.num_points = 512;
    gen.num_features = 16;
    gen.class_sep = 1.5;
    const auto train = plssvm::datagen::make_classification<double>(gen);
    plssvm::parameter params;
    params.kernel = plssvm::kernel_type::rbf;
    const auto svm = plssvm::make_csvm<double>(plssvm::backend_type::openmp, params);
    const auto model = svm->fit(plssvm::data_set<double>{ plssvm::aos_matrix<double>{ train.points() }, std::vector<double>(train.labels()) },
                                plssvm::solver_control{ .epsilon = 1e-6 });

    plssvm::serve::engine_config config;
    config.num_threads = 2;
    config.max_batch_size = 32;
    plssvm::serve::model_registry<double> registry{ /*capacity=*/4, config };
    auto engine = registry.load("obs-demo", model);
    std::printf("observability demo: tracing on, scraping metrics every %.1f s\n", stats_interval_s);

    // 2. the scraper: what a Prometheus agent would do — poll the text
    //    exposition on a fixed interval and ship it off. Here we print a
    //    digest (size + a few representative sample lines) per scrape.
    std::atomic<bool> stop{ false };
    std::thread scraper{ [&]() {
        std::size_t scrape = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(std::chrono::duration<double>(stats_interval_s));
            const std::string text = registry.metrics_text();
            std::size_t families = 0;
            for (std::size_t pos = text.find("# TYPE"); pos != std::string::npos; pos = text.find("# TYPE", pos + 1)) {
                ++families;
            }
            std::printf("scrape #%zu: %zu bytes, %zu metric families\n", ++scrape, text.size(), families);
            // surface one histogram line so the scrape is visibly real
            const std::size_t line = text.find("plssvm_serve_stage_latency_seconds_bucket");
            if (line != std::string::npos) {
                std::printf("  %.*s\n", static_cast<int>(text.find('\n', line) - line), text.c_str() + line);
            }
        }
    } };

    // 3. traffic: plain async submits plus a deadline-carrying slice — the
    //    recorder always traces deadline requests, and an impossible 1 us
    //    budget forces a deadline miss that triggers the automatic
    //    violation dump
    gen.seed = 7;
    const auto queries = plssvm::datagen::make_classification<double>(gen).points();
    const auto demo_deadline = std::chrono::steady_clock::now() + std::chrono::duration<double>(2.0 * stats_interval_s + 0.5);
    std::size_t submitted = 0;
    while (std::chrono::steady_clock::now() < demo_deadline) {
        std::vector<std::future<double>> futures;
        for (std::size_t p = 0; p < queries.num_rows(); ++p) {
            plssvm::serve::request_options options;
            if (p % 64 == 63) {
                options.deadline = p % 128 == 127 ? std::chrono::microseconds{ 1 }  // guaranteed miss
                                                  : std::chrono::microseconds{ 50000 };
            }
            futures.push_back(engine->submit(
                std::vector<double>(queries.row_data(p), queries.row_data(p) + queries.num_cols()), options));
        }
        for (std::future<double> &f : futures) {
            (void) f.get();
        }
        submitted += futures.size();
        std::this_thread::sleep_for(50ms);
    }
    stop.store(true);
    scraper.join();

    // 4. the recorder's bookkeeping: every completed request carried the
    //    full admit -> enqueue -> seal -> dispatch -> complete stamp chain
    const auto &recorder = engine->recorder();
    std::printf("served %zu requests: %zu traces recorded, %zu sheds, %zu violation dumps\n",
                submitted, recorder.traces_recorded(), recorder.sheds_recorded(), recorder.violation_dumps());

    const std::string violation = engine->last_violation_dump();
    if (!violation.empty()) {
        std::printf("violation dump captured at the first deadline miss (%zu bytes)\n", violation.size());
    }
    if (dump_traces) {
        const std::string dump = engine->dump_traces();
        std::printf("flight recorder dump (%zu bytes):\n%.400s%s\n", dump.size(), dump.c_str(),
                    dump.size() > 400 ? "\n  ... (truncated)" : "");
    }
    return 0;
}

/// The `--listen` mode: serve a registry over TCP via the epoll front-end
/// and exercise both wire modes with a loopback client.
int listen_demo(const std::uint16_t port, const double serve_seconds) {
    namespace net = plssvm::serve::net;

    // 1. train a small model and register it, exactly like the quickstart
    plssvm::datagen::classification_params gen;
    gen.num_points = 512;
    gen.num_features = 16;
    gen.class_sep = 1.5;
    const auto train = plssvm::datagen::make_classification<double>(gen);
    plssvm::parameter params;
    params.kernel = plssvm::kernel_type::rbf;
    const auto svm = plssvm::make_csvm<double>(plssvm::backend_type::openmp, params);
    const auto model = svm->fit(plssvm::data_set<double>{ plssvm::aos_matrix<double>{ train.points() }, std::vector<double>(train.labels()) },
                                plssvm::solver_control{ .epsilon = 1e-6 });

    plssvm::serve::engine_config config;
    config.num_threads = 2;
    config.max_batch_size = 32;
    plssvm::serve::model_registry<double> registry{ /*capacity=*/4, config };
    (void) registry.load("quickstart", model);

    // 2. the network front-end: requests from every connection flow into
    //    the same micro-batcher, so concurrent sockets feed one batch
    net::net_server_config server_config;
    server_config.port = port;
    server_config.event_threads = 2;
    net::net_server server{ server_config, std::make_shared<net::registry_dispatcher<double>>(registry) };
    std::printf("serving \"quickstart\" on 127.0.0.1:%u (binary frames and JSON lines share the port)\n", server.port());
    std::printf("try from another terminal:\n");
    std::printf("  printf '{\"op\":\"ready\"}\\n' | nc 127.0.0.1 %u\n", server.port());
    std::printf("  printf '{\"model\":\"quickstart\",\"id\":1,\"features\":[0.1,...x16]}\\n' | nc 127.0.0.1 %u\n\n", server.port());

    // 3. the built-in loopback client: a readiness probe and one prediction
    //    over the JSON-lines mode (what nc/curl would send)
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr *>(&addr), sizeof(addr)) != 0) {
        std::fprintf(stderr, "loopback connect failed\n");
        return 1;
    }
    std::string request = "{\"op\":\"ready\"}\n{\"model\":\"quickstart\",\"id\":7,\"features\":[";
    for (std::size_t feature = 0; feature < gen.num_features; ++feature) {
        request += (feature == 0 ? "" : ",") + std::to_string(train.points().row_data(0)[feature]);
    }
    request += "]}\n";
    if (::write(fd, request.data(), request.size()) != static_cast<ssize_t>(request.size())) {
        std::fprintf(stderr, "loopback write failed\n");
        ::close(fd);
        return 1;
    }
    std::string received;
    char buf[4096];
    while (std::count(received.begin(), received.end(), '\n') < 2) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0) {
            break;
        }
        received.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    std::printf("loopback JSON-lines exchange:\n%s", received.c_str());

    // 4. net-plane stats: connection/request counters and stage latency
    const net::net_counters counters = server.counters();
    std::printf("net counters: %llu accepted, %llu requests, %llu ok, ready=%s\n",
                static_cast<unsigned long long>(counters.connections_accepted),
                static_cast<unsigned long long>(counters.requests_total),
                static_cast<unsigned long long>(counters.responses_ok),
                server.ready() ? "true" : "false");

    if (serve_seconds > 0.0) {
        // 5. graceful drain on SIGTERM/SIGINT: stop accepting, flip the
        //    readiness probe to not-ready, let inflight requests settle,
        //    then exit 0 — what an orchestrator's rolling restart expects
        std::signal(SIGTERM, on_shutdown_signal);
        std::signal(SIGINT, on_shutdown_signal);
        std::printf("serving for %.0f more second(s) (SIGTERM drains gracefully)...\n", serve_seconds);
        const auto serve_until = std::chrono::steady_clock::now() + std::chrono::duration<double>(serve_seconds);
        while (std::chrono::steady_clock::now() < serve_until && g_shutdown_requested == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds{ 50 });
        }
        if (g_shutdown_requested != 0) {
            std::printf("shutdown signal received: draining (inflight=%llu, ready -> false)\n",
                        static_cast<unsigned long long>(server.inflight()));
            server.begin_drain();
            const auto drain_deadline = std::chrono::steady_clock::now() + std::chrono::seconds{ 10 };
            while (server.inflight() > 0 && std::chrono::steady_clock::now() < drain_deadline) {
                std::this_thread::sleep_for(std::chrono::milliseconds{ 10 });
            }
            std::printf("drained: inflight=%llu\n", static_cast<unsigned long long>(server.inflight()));
            server.stop();
            std::printf("graceful shutdown complete\n");
            return 0;
        }
        std::printf("final net stats: %s\n", server.stats_json().c_str());
    }
    return 0;
}

}  // namespace

int main(int argc, char **argv) {
    if (argc > 1 && std::strcmp(argv[1], "--qos") == 0) {
        return qos_demo();
    }
    bool listen_mode = false;
    std::uint16_t listen_port = 0;
    double serve_seconds = 0.0;
    for (int arg = 1; arg < argc; ++arg) {
        if (std::strcmp(argv[arg], "--listen") == 0) {
            listen_mode = true;
            if (arg + 1 < argc && argv[arg + 1][0] != '-') {
                listen_port = static_cast<std::uint16_t>(std::atoi(argv[++arg]));
            }
        } else if (std::strcmp(argv[arg], "--serve-seconds") == 0 && arg + 1 < argc) {
            serve_seconds = std::atof(argv[++arg]);
        }
    }
    if (listen_mode) {
        return listen_demo(listen_port, serve_seconds);
    }
    double stats_interval_s = 0.0;
    bool dump_traces = false;
    for (int arg = 1; arg < argc; ++arg) {
        if (std::strcmp(argv[arg], "--stats-interval") == 0 && arg + 1 < argc) {
            stats_interval_s = std::atof(argv[++arg]);
        } else if (std::strcmp(argv[arg], "--dump-traces") == 0) {
            dump_traces = true;
        }
    }
    if (stats_interval_s > 0.0 || dump_traces) {
        return obs_demo(stats_interval_s > 0.0 ? stats_interval_s : 1.0, dump_traces);
    }
    // 1. generate raw training data and fit the server-side scaling on it:
    //    clients will send UNSCALED features, the engine applies the
    //    transform inside the batch path (it is versioned with the model)
    plssvm::datagen::classification_params gen;
    gen.num_points = 512;
    gen.num_features = 16;
    gen.class_sep = 1.5;
    auto train = plssvm::datagen::make_classification<double>(gen);
    auto scaling = std::make_shared<plssvm::io::scaling<double>>(-1.0, 1.0);
    plssvm::aos_matrix<double> scaled_points = train.points();
    scaling->fit_transform(scaled_points);
    const plssvm::data_set<double> scaled_train{ std::move(scaled_points), std::vector<double>(train.labels()) };

    plssvm::parameter params;
    params.kernel = plssvm::kernel_type::rbf;
    const auto svm = plssvm::make_csvm<double>(plssvm::backend_type::openmp, params);
    const auto model = svm->fit(scaled_train, plssvm::solver_control{ .epsilon = 1e-6 });

    // 2. register the model. All engines of the registry share ONE executor
    //    (here: the process-wide pool); `num_threads` is the engine's lane
    //    quota on it, not a private pool size. The registry compiles the
    //    model once and freezes it into an immutable snapshot together with
    //    the scaling transform.
    plssvm::serve::engine_config config;
    config.num_threads = 4;  // lane quota on the shared executor
    config.max_batch_size = 64;
    plssvm::serve::model_registry<double> registry{ /*capacity=*/8, config };
    auto engine = registry.load("quickstart", model, scaling);
    std::printf("engine runs on a shared executor with %zu workers (lane quota %zu), snapshot v%llu\n",
                engine->stats().executor_threads, engine->num_threads(),
                static_cast<unsigned long long>(engine->snapshot_version()));

    // 3. synchronous batch prediction over RAW client features: one call,
    //    scaled server-side, partitioned across the executor lane
    gen.seed = 99;
    const auto raw_queries = plssvm::datagen::make_classification<double>(gen).points();
    const std::vector<double> labels = engine->predict(raw_queries);
    std::printf("sync batch: predicted %zu labels from raw features, first = %+.0f\n", labels.size(), labels.front());

    // 4. asynchronous single-point requests (also raw): the micro-batcher
    //    coalesces them into batched kernel invocations
    std::vector<std::future<double>> futures;
    for (std::size_t p = 0; p < 256; ++p) {
        futures.push_back(engine->submit(std::vector<double>(raw_queries.row_data(p), raw_queries.row_data(p) + raw_queries.num_cols())));
    }
    std::size_t agree = 0;
    for (std::size_t p = 0; p < futures.size(); ++p) {
        agree += futures[p].get() == labels[p];
    }
    std::printf("async submit: %zu/%zu labels agree with the sync batch\n", agree, futures.size());

    // 5. zero-downtime reload: retrain and hot-swap. The replacement is
    //    shadow-compiled on the executor's background lane and swapped in
    //    atomically — the engine pointer keeps serving throughout, requests
    //    in flight finish on the snapshot they started with.
    const auto retrained = svm->fit(scaled_train, plssvm::solver_control{ .epsilon = 1e-8 });
    std::future<void> swap = registry.reload("quickstart", retrained, scaling);
    (void) engine->predict(raw_queries);  // still serving while compiling
    swap.get();                           // the new snapshot is live
    std::printf("hot-swapped to snapshot v%llu after %zu reload(s), same engine pointer\n",
                static_cast<unsigned long long>(engine->snapshot_version()), engine->stats().reloads);

    // 6. serving statistics, also publishable through the library tracker
    const plssvm::serve::serve_stats stats = engine->stats();
    std::printf("served %zu requests in %zu batches (mean batch %.1f)\n",
                stats.total_requests, stats.total_batches, stats.mean_batch_size);
    std::printf("latency p50 %.0f us | p99 %.0f us | throughput %.0f req/s\n",
                1e6 * stats.p50_latency_seconds, 1e6 * stats.p99_latency_seconds, stats.requests_per_second);
    std::printf("lane queue depth %zu (max %zu), %zu stolen tasks, executor threads %zu\n",
                stats.queue_depth, stats.max_queue_depth, stats.steals, stats.executor_threads);

    plssvm::detail::tracker tracker;
    engine->report_to(tracker);
    std::printf("tracker metric serve/p99_latency_s = %.6f, serve/snapshot_version = %.0f\n",
                tracker.get_metric("serve/p99_latency_s"), tracker.get_metric("serve/snapshot_version"));

    return 0;
}
