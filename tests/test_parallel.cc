/**
 * @file
 * Tests for the thread pool and the threaded reference backend:
 * chunk coverage, and the property that threading changes neither
 * spikes nor state (neurons are independent within a step).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/thread_pool.hh"
#include "nets/table1.hh"
#include "snn/simulator.hh"

namespace flexon {
namespace {

TEST(ParallelFor, CoversRangeExactlyOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    ThreadPool::global().parallelFor(
        hits.size(), 4, [&](size_t, size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i)
                hits[i].fetch_add(1);
        });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SingleThreadRunsInline)
{
    int calls = 0;
    ThreadPool::global().parallelFor(
        100, 1, [&](size_t, size_t begin, size_t end) {
            ++calls;
            EXPECT_EQ(begin, 0u);
            EXPECT_EQ(end, 100u);
        });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, TinyRangesStayInline)
{
    int calls = 0;
    ThreadPool::global().parallelFor(
        3, 8, [&](size_t, size_t, size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, EmptyRange)
{
    bool called_with_work = false;
    ThreadPool::global().parallelFor(
        0, 4, [&](size_t, size_t begin, size_t end) {
            called_with_work = begin < end;
        });
    EXPECT_FALSE(called_with_work);
}

TEST(ThreadPool, WorkersPersistAcrossDispatches)
{
    ThreadPool &pool = ThreadPool::global();
    std::atomic<size_t> total{0};
    pool.parallelFor(1000, 4, [&](size_t, size_t begin, size_t end) {
        total.fetch_add(end - begin);
    });
    const size_t workersAfterFirst = pool.workerCount();
    EXPECT_GE(workersAfterFirst, 3u); // lanes - 1, caller is lane 0
    // Subsequent dispatches at the same width reuse the workers
    // instead of spawning fresh threads (the seed's parallelFor
    // spawned `threads` new std::threads per call).
    for (int i = 0; i < 50; ++i) {
        pool.parallelFor(1000, 4,
                         [&](size_t, size_t begin, size_t end) {
                             total.fetch_add(end - begin);
                         });
    }
    EXPECT_EQ(pool.workerCount(), workersAfterFirst);
    EXPECT_EQ(total.load(), 51u * 1000u);
}

TEST(ThreadPool, LaneChunksAreDeterministic)
{
    // The lane -> index-range mapping must be a pure function of
    // (n, lanes): record it twice and compare.
    auto capture = [](size_t n, size_t lanes) {
        std::vector<std::pair<size_t, size_t>> ranges(lanes,
                                                      {0, 0});
        ThreadPool::global().parallelFor(
            n, lanes, [&](size_t lane, size_t begin, size_t end) {
                ranges[lane] = {begin, end};
            });
        return ranges;
    };
    EXPECT_EQ(capture(1003, 4), capture(1003, 4));
    EXPECT_EQ(capture(64, 8), capture(64, 8));
}

TEST(ThreadPool, ForEachLaneRunsEveryLaneOnce)
{
    std::vector<std::atomic<int>> hits(6);
    ThreadPool::global().forEachLane(
        6, [&](size_t lane) { hits[lane].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedDispatchRunsInline)
{
    std::atomic<int> inner{0};
    ThreadPool::global().parallelFor(
        8, 2, [&](size_t, size_t begin, size_t end) {
            // A dispatch from inside a worker must not deadlock.
            ThreadPool::global().parallelFor(
                4, 2, [&](size_t, size_t b, size_t e) {
                    inner.fetch_add(static_cast<int>(e - b));
                });
            (void)begin;
            (void)end;
        });
    EXPECT_EQ(inner.load(), 8); // 2 outer chunks x 4 inner items
}

TEST(ThreadedBackend, SpikesIdenticalToSingleThread)
{
    auto run = [](size_t threads) {
        BenchmarkInstance inst =
            buildBenchmark(findBenchmark("Vogels-Abbott"), 20.0, 5);
        SimulatorOptions opts;
        opts.threads = threads;
        opts.recordSpikes = true;
        Simulator sim(inst.network, inst.stimulus, opts);
        sim.run(800);
        return sim.spikeEvents();
    };
    const auto single = run(1);
    const auto multi = run(4);
    ASSERT_EQ(single.size(), multi.size());
    for (size_t i = 0; i < single.size(); ++i) {
        EXPECT_EQ(single[i].step, multi[i].step);
        EXPECT_EQ(single[i].neuron, multi[i].neuron);
    }
    EXPECT_GT(single.size(), 0u);
}

TEST(ThreadedBackend, ContinuousModeAlsoDeterministic)
{
    auto spikes = [](size_t threads) {
        BenchmarkInstance inst =
            buildBenchmark(findBenchmark("Brunel"), 50.0, 5);
        SimulatorOptions opts;
        opts.threads = threads;
        opts.mode = IntegrationMode::Continuous;
        opts.solver = SolverKind::RKF45;
        Simulator sim(inst.network, inst.stimulus, opts);
        sim.run(300);
        return sim.stats().spikes;
    };
    EXPECT_EQ(spikes(1), spikes(3));
}

} // namespace
} // namespace flexon
