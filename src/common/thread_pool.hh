/**
 * @file
 * Persistent worker-pool execution engine.
 *
 * The original flexon::parallelFor spawned and joined fresh
 * std::threads on every call, which puts a thread create/destroy pair
 * on every simulation step (Section II-C's hot loop runs millions of
 * steps). ThreadPool keeps the workers alive across calls: a
 * dispatch publishes one job (a chunked index range), wakes the
 * sleeping workers, lets the caller participate as lane 0, and waits
 * on a completion barrier. Large-scale SNN engines (NEST's per-VP
 * threads, the FPGA routing pipelines in PAPERS.md) use the same
 * persistent-partition structure; this is the CPU-side equivalent.
 *
 * Determinism contract: parallelFor(n, lanes, fn) always splits
 * [0, n) into the same contiguous, ascending chunks for a given
 * (n, lanes) pair and passes the lane index to fn, so callers can
 * keep lane-private scratch and reduce in fixed lane order.
 */

#ifndef FLEXON_COMMON_THREAD_POOL_HH
#define FLEXON_COMMON_THREAD_POOL_HH

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace flexon {

/** A persistent pool of worker threads with a barrier-style fork/join. */
class ThreadPool
{
  public:
    /** Jobs are plain function pointers: no per-dispatch allocation. */
    using Task = void (*)(void *ctx, size_t lane, size_t begin,
                          size_t end);

    /** Hard cap on lanes per dispatch (backstop, not a tuning knob). */
    static constexpr size_t maxLanes = 256;

    ThreadPool() = default;
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * The process-wide pool. Workers are spawned lazily on first use
     * and reused by every caller (simulator phases, array
     * backends).
     */
    static ThreadPool &global();

    /**
     * Invoke fn(lane, begin, end) on `lanes` contiguous chunks of
     * [0, n). The calling thread participates as lane 0; lanes - 1
     * pooled workers take the rest. Blocks until every lane is done,
     * so callers need no synchronization. With lanes <= 1 (or tiny n)
     * the call runs inline. Dispatches from within a worker also run
     * inline (no nested fork).
     */
    template <typename Fn>
    void
    parallelFor(size_t n, size_t lanes, Fn &&fn)
    {
        if (lanes > maxLanes)
            lanes = maxLanes;
        if (lanes <= 1 || n < 2 * lanes || insideWorker()) {
            if (n > 0)
                fn(size_t{0}, size_t{0}, n);
            return;
        }
        using F = std::remove_reference_t<Fn>;
        auto trampoline = [](void *ctx, size_t lane, size_t begin,
                             size_t end) {
            (*static_cast<F *>(ctx))(lane, begin, end);
        };
        run(n, lanes, trampoline, &fn);
    }

    /**
     * Invoke fn(lane) once per lane in [0, lanes), one lane per
     * dispatch chunk. Unlike parallelFor there is no small-n inline
     * heuristic: callers use this when each lane owns a
     * pre-partitioned slice of work (e.g. a target shard of the
     * synapse table). Blocks until every lane is done.
     */
    template <typename Fn>
    void
    forEachLane(size_t lanes, Fn &&fn)
    {
        if (lanes > maxLanes)
            lanes = maxLanes;
        if (lanes <= 1 || insideWorker()) {
            for (size_t lane = 0; lane < lanes; ++lane)
                fn(lane);
            return;
        }
        using F = std::remove_reference_t<Fn>;
        auto trampoline = [](void *ctx, size_t lane, size_t begin,
                             size_t end) {
            (void)begin;
            (void)end;
            (*static_cast<F *>(ctx))(lane);
        };
        run(lanes, lanes, trampoline, &fn);
    }

    /** Workers currently alive (grows on demand, for tests/stats). */
    size_t workerCount() const;

    /**
     * Aggregated lane accounting, populated only while
     * telemetry::detailEnabled() (otherwise all zero: the hot path
     * takes no clock reads). Lane vectors are trimmed to the highest
     * lane that ever ran a chunk.
     */
    struct TelemetrySnapshot
    {
        /** Workers alive (excludes the per-dispatch caller lane 0). */
        size_t workers = 0;
        /** parallelFor/forEachLane dispatches that hit the pool. */
        uint64_t dispatches = 0;
        /** Chunks executed across all lanes. */
        uint64_t chunks = 0;
        /** Nanoseconds spent inside chunk bodies, summed over lanes. */
        uint64_t busyNs = 0;
        /** Wall nanoseconds spent inside run() by the callers. */
        uint64_t wallNs = 0;
        /** wallNs x lanes per dispatch: the busy-time denominator
         *  (busyNs / laneNs = parallel efficiency). */
        uint64_t laneNs = 0;
        std::vector<uint64_t> laneBusyNs;
        std::vector<uint64_t> laneChunks;
    };

    /** Snapshot the pool's telemetry counters (sum-on-read). */
    TelemetrySnapshot telemetrySnapshot() const;

    /** Zero the pool's telemetry counters (between measured runs). */
    void resetTelemetry();

  private:
    void run(size_t n, size_t lanes, Task task, void *ctx);
    void execChunk(Task task, void *ctx, size_t lane, size_t begin,
                   size_t end);
    void ensureWorkers(size_t count);
    void workerMain();
    static bool insideWorker();

    /** Serializes dispatches from different caller threads. */
    std::mutex dispatchMutex_;

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::vector<std::thread> workers_;

    // Current job, published under mutex_. Workers claim lanes from
    // nextLane_ and count themselves out through pending_.
    uint64_t generation_ = 0;
    Task task_ = nullptr;
    void *ctx_ = nullptr;
    size_t jobN_ = 0;
    size_t jobLanes_ = 0;
    size_t jobChunk_ = 0;
    size_t nextLane_ = 0;
    size_t pending_ = 0;
    bool shutdown_ = false;

    // Telemetry (written only while telemetry::detailEnabled()).
    // Lane slots are line-padded so concurrent lanes never share one.
    struct alignas(64) LaneMetrics
    {
        std::atomic<uint64_t> busyNs{0};
        std::atomic<uint64_t> chunks{0};
    };
    std::array<LaneMetrics, maxLanes> laneMetrics_;
    std::atomic<uint64_t> dispatches_{0};
    std::atomic<uint64_t> wallNs_{0};
    std::atomic<uint64_t> laneNs_{0};
};

} // namespace flexon

#endif // FLEXON_COMMON_THREAD_POOL_HH
