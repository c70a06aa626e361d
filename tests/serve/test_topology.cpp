/**
 * @file
 * @brief Tests for NUMA topology discovery and topology-aware placement:
 *        cpulist parsing, sysfs probing against fake trees, the graceful
 *        degradation ladder (missing sysfs / single node / oversubscribed
 *        pool all collapse to the no-pinning executor), lane home-domain
 *        resolution, and NUMA-sharded placement through the registry.
 *
 * The probe's sysfs root is injectable, so multi-node behavior is tested on
 * any host — including the single-core CI runner — by writing a fake
 * `node<N>/cpulist` tree under /tmp. Actual `pthread_setaffinity_np` calls
 * may fail against fabricated CPU ids; the executor is required to shrug
 * that off, which these tests implicitly exercise.
 */

#include "plssvm/serve/executor.hpp"
#include "plssvm/serve/inference_engine.hpp"
#include "plssvm/serve/model_registry.hpp"
#include "plssvm/serve/topology.hpp"

#include "serve/serve_test_utils.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <vector>

namespace {

using plssvm::serve::any_numa_domain;
using plssvm::serve::engine_config;
using plssvm::serve::executor;
using plssvm::serve::executor_options;
using plssvm::serve::lane_options;
using plssvm::serve::model_registry;
using plssvm::serve::numa_domain;
using plssvm::serve::parse_cpu_list;
using plssvm::serve::probe_topology;
using plssvm::serve::single_node_topology;
using plssvm::serve::topology_info;
namespace test = plssvm::test;

// --- cpulist parsing ---------------------------------------------------------

TEST(ExecutorTopology, ParsesRangesAndSingletons) {
    EXPECT_EQ(parse_cpu_list("0-3,8,10-11"), (std::vector<int>{ 0, 1, 2, 3, 8, 10, 11 }));
    EXPECT_EQ(parse_cpu_list("5"), (std::vector<int>{ 5 }));
    EXPECT_EQ(parse_cpu_list("0-0"), (std::vector<int>{ 0 }));
    EXPECT_EQ(parse_cpu_list("0-1\n"), (std::vector<int>{ 0, 1 }));  // sysfs trailing newline
}

TEST(ExecutorTopology, SkipsMalformedTokensInsteadOfThrowing) {
    EXPECT_EQ(parse_cpu_list(""), (std::vector<int>{}));
    EXPECT_EQ(parse_cpu_list("abc"), (std::vector<int>{}));
    EXPECT_EQ(parse_cpu_list("3-1"), (std::vector<int>{}));          // inverted range
    EXPECT_EQ(parse_cpu_list("x,2,7-,4"), (std::vector<int>{ 2, 4 }));
    EXPECT_EQ(parse_cpu_list("-1,1"), (std::vector<int>{ 1 }));
}

// --- probing a fake sysfs tree ----------------------------------------------

/// Write a fake `/sys/devices/system/node`-style tree and hand back its root.
class fake_sysfs {
  public:
    explicit fake_sysfs(const std::string &name) :
        root_{ std::filesystem::temp_directory_path() / ("plssvm_topo_" + name) } {
        std::filesystem::remove_all(root_);
        std::filesystem::create_directories(root_);
    }

    ~fake_sysfs() {
        std::error_code ec;  // best-effort cleanup, never throw from a dtor
        std::filesystem::remove_all(root_, ec);
    }

    void add_node(const std::size_t id, const std::string &cpulist) {
        const std::filesystem::path dir = root_ / ("node" + std::to_string(id));
        std::filesystem::create_directories(dir);
        std::ofstream{ dir / "cpulist" } << cpulist << '\n';
    }

    [[nodiscard]] std::string path() const { return root_.string(); }

  private:
    std::filesystem::path root_;
};

TEST(ExecutorTopology, ProbesMultiNodeTreeFromSysfs) {
    fake_sysfs tree{ "two_nodes" };
    tree.add_node(0, "0-1");
    tree.add_node(1, "2-3");
    const topology_info topo = probe_topology(tree.path());
    EXPECT_EQ(topo.source, "sysfs");
    ASSERT_EQ(topo.num_domains(), 2u);
    EXPECT_TRUE(topo.multi_node());
    EXPECT_EQ(topo.num_cpus(), 4u);
    EXPECT_EQ(topo.domains[0].cpus, (std::vector<int>{ 0, 1 }));
    EXPECT_EQ(topo.domains[1].cpus, (std::vector<int>{ 2, 3 }));
}

TEST(ExecutorTopology, SkipsCpuLessNodes) {
    fake_sysfs tree{ "memory_only_node" };
    tree.add_node(0, "0-3");
    tree.add_node(1, "");  // CXL-style memory-only node: no local CPUs
    tree.add_node(2, "4-7");
    const topology_info topo = probe_topology(tree.path());
    EXPECT_EQ(topo.source, "sysfs");
    ASSERT_EQ(topo.num_domains(), 2u);
    EXPECT_EQ(topo.domains[1].cpus, (std::vector<int>{ 4, 5, 6, 7 }));
}

TEST(ExecutorTopology, MissingRootFallsBackToSingleNode) {
    const topology_info topo = probe_topology("/nonexistent/plssvm/sysfs/root");
    EXPECT_EQ(topo.source, "fallback");
    ASSERT_EQ(topo.num_domains(), 1u);
    EXPECT_FALSE(topo.multi_node());
    EXPECT_GE(topo.num_cpus(), 1u);
}

TEST(ExecutorTopology, AllNodesUnreadableFallsBackToSingleNode) {
    fake_sysfs tree{ "empty" };  // root exists, zero node<N> entries
    const topology_info topo = probe_topology(tree.path());
    EXPECT_EQ(topo.source, "fallback");
    EXPECT_EQ(topo.num_domains(), 1u);
}

TEST(ExecutorTopology, SingleNodeFallbackCoversRequestedCpus) {
    const topology_info topo = single_node_topology(6);
    ASSERT_EQ(topo.num_domains(), 1u);
    EXPECT_EQ(topo.num_cpus(), 6u);
    EXPECT_EQ(topo.source, "fallback");
}

// --- executor placement on injected topologies -------------------------------

/// Fake topology: @p domains NUMA nodes with @p cpus_each fabricated CPUs.
[[nodiscard]] topology_info fake_topology(const std::size_t domains, const std::size_t cpus_each) {
    topology_info topo{};
    topo.source = "sysfs";
    int next_cpu = 0;
    for (std::size_t d = 0; d < domains; ++d) {
        numa_domain node{};
        node.id = d;
        for (std::size_t c = 0; c < cpus_each; ++c) {
            node.cpus.push_back(next_cpu++);
        }
        topo.domains.push_back(std::move(node));
    }
    return topo;
}

TEST(ExecutorTopology, MultiNodeExecutorSpreadsWorkersAcrossDomains) {
    executor exec{ 4, executor_options{ .topology = fake_topology(2, 2) } };
    EXPECT_EQ(exec.num_domains(), 2u);
    EXPECT_TRUE(exec.pinning_active());
    EXPECT_EQ(exec.workers_in_domain(0), 2u);
    EXPECT_EQ(exec.workers_in_domain(1), 2u);
    EXPECT_EQ(exec.worker_domain(0), 0u);
    EXPECT_EQ(exec.worker_domain(1), 1u);
    EXPECT_EQ(exec.worker_domain(2), 0u);
    EXPECT_EQ(exec.worker_domain(3), 1u);

    // the executor still executes work even though pinning to fabricated
    // CPU ids fails on the real machine
    executor::lane lane = exec.create_lane(lane_options{ .name = "topo" });
    EXPECT_EQ(lane.enqueue([] { return 17; }).get(), 17);
}

TEST(ExecutorTopology, SingleNodeTopologyDisablesPinning) {
    executor exec{ 2, executor_options{ .topology = fake_topology(1, 4) } };
    EXPECT_EQ(exec.num_domains(), 1u);
    EXPECT_FALSE(exec.pinning_active());
}

TEST(ExecutorTopology, OversubscribedPoolDegradesToNoPinning) {
    // 8 workers on 4 fabricated CPUs: pinning would stack workers, so the
    // executor must fall back to the free-floating pre-NUMA behavior.
    executor exec{ 8, executor_options{ .topology = fake_topology(2, 2) } };
    EXPECT_EQ(exec.num_domains(), 2u);
    EXPECT_FALSE(exec.pinning_active());
    executor::lane lane = exec.create_lane(lane_options{ .name = "over" });
    EXPECT_EQ(lane.enqueue([] { return 5; }).get(), 5);
}

TEST(ExecutorTopology, PinningCanBeDisabledByOption) {
    executor exec{ 4, executor_options{ .topology = fake_topology(2, 2), .pin_workers = false } };
    EXPECT_FALSE(exec.pinning_active());
}

TEST(ExecutorTopology, StatsJsonCarriesTopologySection) {
    executor exec{ 4, executor_options{ .topology = fake_topology(2, 2) } };
    executor::lane lane = exec.create_lane(lane_options{ .name = "alpha", .home_domain = 1 });
    const std::string json = exec.stats_json();
    EXPECT_NE(json.find("\"topology\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"domains\": 2"), std::string::npos) << json;
    EXPECT_NE(json.find("\"source\": \"sysfs\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"pinned\": true"), std::string::npos) << json;
    EXPECT_NE(json.find("\"home_domain\": 1"), std::string::npos) << json;
}

TEST(ExecutorTopology, FallbackExecutorStatsJsonReportsUnpinned) {
    executor exec{ 1, executor_options{ .topology = single_node_topology(1) } };
    const std::string json = exec.stats_json();
    EXPECT_NE(json.find("\"topology\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"domains\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"pinned\": false"), std::string::npos) << json;
}

TEST(ExecutorTopology, LaneResolvesToRequestedHomeDomain) {
    executor exec{ 4, executor_options{ .topology = fake_topology(2, 2) } };
    executor::lane on_one = exec.create_lane(lane_options{ .name = "d1", .home_domain = 1 });
    EXPECT_EQ(on_one.home_domain(), 1u);
    // no preference: the lane lands wherever round-robin says, but always on
    // a real domain
    executor::lane anywhere = exec.create_lane(lane_options{ .name = "any" });
    EXPECT_LT(anywhere.home_domain(), exec.num_domains());
    // a domain without workers cannot be honored; the lane must still work
    executor::lane bogus = exec.create_lane(lane_options{ .name = "bogus", .home_domain = 99 });
    EXPECT_LT(bogus.home_domain(), exec.num_domains());
    EXPECT_EQ(bogus.enqueue([] { return 3; }).get(), 3);
}

// --- sharded placement through the registry ----------------------------------

TEST(ExecutorTopology, ShardedEngineCreatesOneReplicaPerDomain) {
    executor exec{ 4, executor_options{ .topology = fake_topology(2, 2) } };
    model_registry<double> registry{ 4, engine_config{ .exec = &exec } };
    const auto replicas = registry.load_sharded("numa", test::random_model(plssvm::kernel_type::rbf));
    ASSERT_EQ(replicas.size(), 2u);
    EXPECT_EQ(replicas[0]->home_domain(), 0u);
    EXPECT_EQ(replicas[1]->home_domain(), 1u);
}

TEST(ExecutorTopology, ShardedEngineMatchesPlainEngineResults) {
    executor exec{ 4, executor_options{ .topology = fake_topology(2, 2) } };
    const plssvm::model<double> trained = test::random_model(plssvm::kernel_type::rbf);
    const plssvm::aos_matrix<double> queries = test::random_matrix(16, 11, 7);

    const engine_config config{ .exec = &exec };
    model_registry<double> registry{ 4, config };
    const auto replicas = registry.load_sharded("numa", trained);
    plssvm::serve::inference_engine<double> plain{ trained, config };

    const std::vector<double> expected = plain.decision_values(queries);
    // every replica must serve identical values
    for (std::size_t shard = 0; shard < replicas.size(); ++shard) {
        const std::vector<double> actual = replicas[shard]->decision_values(queries);
        ASSERT_EQ(actual.size(), expected.size());
        for (std::size_t i = 0; i < actual.size(); ++i) {
            EXPECT_DOUBLE_EQ(actual[i], expected[i]) << "shard " << shard << " point " << i;
        }
    }

    // async submits route across replicas and settle with the same values
    std::vector<std::future<double>> futures;
    for (std::size_t i = 0; i < queries.num_rows(); ++i) {
        std::vector<double> point(queries.num_cols());
        for (std::size_t c = 0; c < point.size(); ++c) {
            point[c] = queries(i, c);
        }
        futures.push_back(registry.find("numa")->submit(std::move(point)));
    }
    const std::vector<double> labels = plain.predict(queries);
    for (std::size_t i = 0; i < futures.size(); ++i) {
        EXPECT_DOUBLE_EQ(futures[i].get(), labels[i]) << "point " << i;
    }
}

TEST(ExecutorTopology, ShardedEngineReloadSwapsEveryReplica) {
    executor exec{ 4, executor_options{ .topology = fake_topology(2, 2) } };
    model_registry<double> registry{ 4, engine_config{ .exec = &exec } };
    const auto replicas = registry.load_sharded("numa", test::random_model(plssvm::kernel_type::linear));
    const std::uint64_t before = replicas.front()->snapshot_version();
    registry.reload("numa", test::random_model(plssvm::kernel_type::linear, 37, 11, /*seed=*/99)).get();
    for (std::size_t shard = 0; shard < replicas.size(); ++shard) {
        EXPECT_GT(replicas[shard]->snapshot_version(), before) << "shard " << shard;
    }
    EXPECT_EQ(registry.health(), plssvm::serve::health_state::healthy);
}

TEST(ExecutorTopology, ShardedStatsAggregateAcrossReplicas) {
    executor exec{ 2, executor_options{ .topology = fake_topology(2, 1) } };
    model_registry<double> registry{ 4, engine_config{ .exec = &exec } };
    const auto replicas = registry.load_sharded("numa", test::random_model(plssvm::kernel_type::rbf));
    for (int i = 0; i < 6; ++i) {
        (void) registry.find("numa")->predict(test::random_matrix(4, 11, 100 + static_cast<std::uint64_t>(i)));
    }
    std::size_t total_requests = 0;
    for (const auto &replica : replicas) {
        total_requests += replica->stats().total_requests;
    }
    EXPECT_EQ(total_requests, 24u);  // 6 batches x 4 points, summed over shards
    const std::string json = registry.stats_json();
    EXPECT_NE(json.find("\"shards\": 2"), std::string::npos) << json;
    EXPECT_NE(json.find("\"replicas\": ["), std::string::npos) << json;
}

// --- registry integration ----------------------------------------------------

TEST(ExecutorTopology, RegistryServesShardedModels) {
    model_registry<double> registry;
    const plssvm::model<double> trained = test::random_model(plssvm::kernel_type::rbf);
    const auto replicas = registry.load_sharded("numa-model", trained);
    ASSERT_GE(replicas.size(), 1u);  // exactly 1 on single-node hosts
    const auto found = registry.find("numa-model");
    EXPECT_NE(std::find(replicas.begin(), replicas.end(), found), replicas.end()) << "find hands out a replica";
    EXPECT_EQ(registry.find("absent"), nullptr);

    const plssvm::aos_matrix<double> queries = test::random_matrix(8, 11, 3);
    const std::vector<double> direct = found->predict(queries);
    EXPECT_EQ(direct.size(), queries.num_rows());

    // zero-downtime reload through the registry's reload lane
    const std::uint64_t before = found->snapshot_version();
    registry.reload("numa-model", test::random_model(plssvm::kernel_type::rbf, 37, 11, /*seed=*/77)).get();
    EXPECT_GT(found->snapshot_version(), before);

    // the sharded entry participates in health/stats/metrics exposition
    EXPECT_EQ(registry.health(), plssvm::serve::health_state::healthy);
    const std::string json = registry.stats_json();
    EXPECT_NE(json.find("numa-model"), std::string::npos) << json;
    const std::string metrics = registry.metrics_text();
    EXPECT_NE(metrics.find("plssvm_serve_lane_home_domain"), std::string::npos) << metrics;
}

TEST(ExecutorTopology, EngineStatsReportHomeDomain) {
    executor exec{ 2, executor_options{ .topology = fake_topology(2, 1) } };
    plssvm::serve::engine_config config{};
    config.exec = &exec;
    config.home_domain = 1;
    plssvm::serve::inference_engine<double> engine{ test::random_model(plssvm::kernel_type::linear), config };
    EXPECT_EQ(engine.home_domain(), 1u);
    EXPECT_EQ(engine.stats().home_domain, 1u);
    EXPECT_NE(engine.stats_json().find("\"home_domain\": 1"), std::string::npos);
}

}  // namespace
