/**
 * @file
 * @brief Unit tests for the request-coalescing `serve::micro_batcher`:
 *        natural batching (what queued leaves at once, up to the cap),
 *        shutdown draining, and the untimed wakeup discipline (class-level
 *        QoS behaviour — priority ordering, deadline caps — is covered in
 *        `test_qos.cpp`).
 */

#include "plssvm/exceptions.hpp"
#include "plssvm/serve/fault.hpp"
#include "plssvm/serve/micro_batcher.hpp"
#include "plssvm/serve/qos.hpp"
#include "serve/serve_test_utils.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <future>
#include <thread>
#include <vector>

namespace {

using plssvm::serve::micro_batcher;
using plssvm::serve::request_class;
namespace test = plssvm::test;
using namespace std::chrono_literals;

/// A callback for requests whose outcome the test does not read.
void ignore(double, std::exception_ptr) {}

TEST(MicroBatcher, RejectsZeroBatchSize) {
    EXPECT_THROW((micro_batcher<double>{ 0 }), plssvm::invalid_parameter_exception);
}

// Asserts: requests that queued while no consumer was there leave in one
// batch per pop, up to the class cap, highest-priority class first.
// Strategy: queue 6 interactive, 3 batch and 2 background requests with a
// cap of 4 before any next_batch(), then pop everything after shutdown and
// compare the sequence of (class, size) against the expected order.
TEST(MicroBatcher, RequestsQueuedWhileTheConsumerIsAwayLeaveInOneBatchUpToTheCap) {
    micro_batcher<double> batcher{ 4 };
    for (int i = 0; i < 2; ++i) {
        batcher.enqueue({ 3.0 }, ignore, request_class::background);
    }
    for (int i = 0; i < 3; ++i) {
        batcher.enqueue({ 2.0 }, ignore, request_class::batch);
    }
    for (int i = 0; i < 6; ++i) {
        batcher.enqueue({ static_cast<double>(i) }, ignore, request_class::interactive);
    }
    // the consumer comes back while the batcher is still open: no wait, the
    // highest class leaves at once, capped
    const auto first = batcher.next_batch();
    EXPECT_EQ(first.cls, request_class::interactive);
    ASSERT_EQ(first.size(), 4u);
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first.requests[i].point[0], static_cast<double>(i)) << "FIFO within the class";
    }
    batcher.shutdown();
    std::vector<std::pair<request_class, std::size_t>> rest;
    while (true) {
        const auto batch = batcher.next_batch();
        if (batch.empty()) {
            break;
        }
        rest.emplace_back(batch.cls, batch.size());
    }
    const std::vector<std::pair<request_class, std::size_t>> expected{
        { request_class::interactive, 2 }, { request_class::batch, 3 }, { request_class::background, 2 }
    };
    EXPECT_EQ(rest, expected);
}

TEST(MicroBatcher, SizeTriggerReleasesFullBatchImmediately) {
    micro_batcher<double> batcher{ 4 };
    for (int i = 0; i < 4; ++i) {
        batcher.enqueue({ 1.0, 2.0 }, ignore);
    }
    const auto batch = batcher.next_batch();
    EXPECT_EQ(batch.size(), 4u);
    EXPECT_EQ(batch.cls, request_class::interactive) << "enqueue without a class defaults to interactive";
    EXPECT_EQ(batcher.pending(), 0u);
}

// Asserts: a partial batch leaves at once — neither a request's deadline
// nor a flush delay has to release it. Strategy: queue two requests (one
// with a 10 s deadline budget) under a cap of 100 and call next_batch() on
// the same thread; a timed wait for more requests would block here.
TEST(MicroBatcher, DeadlineReleasesPartialBatch) {
    micro_batcher<double> batcher{ 100 };
    batcher.enqueue({ 1.0 }, ignore, request_class::interactive, std::chrono::microseconds{ 10s });
    batcher.enqueue({ 2.0 }, ignore);
    const auto start = std::chrono::steady_clock::now();
    const auto batch = batcher.next_batch();
    EXPECT_LT(std::chrono::steady_clock::now() - start, 1s);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_NE(batch.requests[0].deadline, plssvm::serve::no_deadline);
    EXPECT_EQ(batch.requests[1].deadline, plssvm::serve::no_deadline);
}

// Asserts: a consumer blocked on an EMPTY batcher waits untimed — no timer,
// no periodic wakeups on an idle engine. Strategy: record the consumer
// thread's kernel id, wait until it is blocked in next_batch(), and count
// its voluntary context switches over a 100 ms window by design (a 1 ms
// poll would add about 100).
TEST(MicroBatcher, IdleConsumerPerformsNoTimerWakeups) {
    micro_batcher<double> batcher;
    std::atomic<long> tid{ 0 };
    std::thread consumer{ [&batcher, &tid]() {
        tid = test::current_thread_id();
        EXPECT_TRUE(batcher.next_batch().empty());
    } };
    ASSERT_TRUE(test::wait_until([&] { return batcher.waiting() == 1; }));
    const std::size_t before = test::voluntary_switches(tid);
    std::this_thread::sleep_for(100ms);
    EXPECT_LE(test::voluntary_switches(tid) - before, 1u) << "idle consumer must block untimed";
    batcher.shutdown();
    consumer.join();
}

// Asserts: a lone request is popped with no timed wait: a consumer blocked
// on an empty batcher is woken by the first enqueue and takes that request
// alone. Strategy: wait (signal, not sleep) until the consumer thread is
// blocked in next_batch(), enqueue one request, and join the consumer.
TEST(MicroBatcher, BlockedConsumerTakesALoneRequestAtOnce) {
    micro_batcher<double> batcher;
    std::size_t taken = 0;
    std::thread consumer{ [&batcher, &taken]() { taken = batcher.next_batch().size(); } };
    ASSERT_TRUE(test::wait_until([&] { return batcher.waiting() == 1; }));
    batcher.enqueue({ 1.0 }, ignore);
    consumer.join();
    EXPECT_EQ(taken, 1u);
    EXPECT_EQ(batcher.waiting(), 0u);
}

TEST(MicroBatcher, BatchesNeverExceedMaxSize) {
    micro_batcher<double> batcher{ 3 };
    for (int i = 0; i < 8; ++i) {
        batcher.enqueue({ static_cast<double>(i) }, ignore);
    }
    batcher.shutdown();
    std::vector<std::size_t> sizes;
    while (true) {
        const auto batch = batcher.next_batch();
        if (batch.empty()) {
            break;
        }
        sizes.push_back(batch.size());
    }
    ASSERT_EQ(sizes.size(), 3u);
    EXPECT_EQ(sizes[0], 3u);
    EXPECT_EQ(sizes[1], 3u);
    EXPECT_EQ(sizes[2], 2u);
}

TEST(MicroBatcher, PreservesFifoOrderAndPayload) {
    micro_batcher<double> batcher{ 8 };
    for (int i = 0; i < 5; ++i) {
        batcher.enqueue({ static_cast<double>(i), static_cast<double>(10 * i) }, ignore);
    }
    batcher.shutdown();
    const auto batch = batcher.next_batch();
    ASSERT_EQ(batch.size(), 5u);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(batch.requests[i].point.size(), 2u);
        EXPECT_EQ(batch.requests[i].point[0], static_cast<double>(i));
        EXPECT_EQ(batch.requests[i].point[1], static_cast<double>(10 * i));
    }
}

// Asserts: shutdown wakes a consumer blocked on an empty batcher, which
// then returns the empty exit batch. Strategy: wait until the consumer is
// blocked (waiting() == 1), then shut down and join.
TEST(MicroBatcher, ShutdownWakesBlockedConsumer) {
    micro_batcher<double> batcher{ 4 };
    std::thread consumer{ [&batcher]() {
        const auto batch = batcher.next_batch();
        EXPECT_TRUE(batch.empty());
    } };
    ASSERT_TRUE(test::wait_until([&] { return batcher.waiting() == 1; }));
    batcher.shutdown();
    consumer.join();
}

TEST(MicroBatcher, EnqueueAfterShutdownThrows) {
    micro_batcher<double> batcher;
    batcher.shutdown();
    EXPECT_TRUE(batcher.is_shutdown());
    bool called = false;
    EXPECT_THROW(batcher.enqueue({ 1.0 }, [&called](double, std::exception_ptr) { called = true; }), plssvm::exception);
    EXPECT_FALSE(called) << "a refused request's callback never runs";
}

TEST(MicroBatcher, ShutdownStillDrainsPendingRequests) {
    micro_batcher<double> batcher{ 10 };
    auto [done, future] = plssvm::serve::promise_completion<double>();
    batcher.enqueue({ 3.5 }, std::move(done));
    batcher.shutdown();
    // pending requests survive shutdown and are handed out without waiting
    auto batch = batcher.next_batch();
    ASSERT_EQ(batch.size(), 1u);
    batch.requests[0].done(7.0, nullptr);
    EXPECT_EQ(future.get(), 7.0);
    EXPECT_TRUE(batcher.next_batch().empty());
}

}  // namespace
