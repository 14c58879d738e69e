/**
 * @file
 * The delay ring and its delivery engine.
 *
 * Spike delivery is a memory-bandwidth problem (Lindqvist & Podobas,
 * arXiv:2405.02019): the per-event work is one multiply-free
 * accumulate, so throughput is set by how compactly the synapse data
 * streams. Every ConnectivityProvider (snn/connectivity.hh) serves a
 * fired source's row, per target shard, as ascending-bucket runs of
 * 8-byte records {cell = target * maxSynapseTypes + type, weight},
 * and SpikeRouter streams them with one loop for all providers:
 *
 *   per fired source (ascending), per run of its row in the lane's
 *   shard: base[cell] += weight, the ring-slot base hoisted per run.
 *
 * Sparse activity: realistic cortical workloads fire at a few Hz, so
 * on most steps most shards receive nothing. Providers keep a
 * per-(source, shard) *activity bitmap* — bit b set when the row has
 * records in bucket b. Delivery ORs the fired sources' masks per
 * shard and dispatches only the shards with route or clear work (no
 * pool barrier when at most one shard has work); a lane skips fired
 * rows whose mask for its shard is empty. Networks with more than 64
 * distinct delay values have no masks (they would not fit a word):
 * any firing then makes every shard active, through the same loop.
 *
 * Order preservation (the bit-identity argument): a ring cell is one
 * (slot, target, type) location, and within a step exactly one delay
 * bucket writes a given slot. Fired sources are scanned in ascending
 * order and each run keeps original row order, so every cell receives
 * its floating-point additions in exactly the serial-scan order, for
 * any shard count and any provider (tests/test_routing.cc enforces
 * this against a naive delivery oracle).
 *
 * Ring maintenance is activity-proportional: each (slot, shard)
 * tracks what was written into it — stimulus cells, and routed runs
 * as `bucket << 32 | source` keys with the run length as cost — and
 * the consumed slot is cleared by re-walking only those runs when
 * sparse, falling back to a dense std::fill above a per-shard density
 * threshold. Quiet steps and quiet shards of large networks therefore
 * no longer pay O(numNeurons * maxSynapseTypes) per step.
 */

#ifndef FLEXON_SNN_ROUTING_HH
#define FLEXON_SNN_ROUTING_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "common/telemetry.hh"
#include "common/touch_list.hh"
#include "snn/connectivity.hh"
#include "snn/network.hh"

namespace flexon {

/**
 * The delay ring plus its delivery engine: ring slots are cleared
 * activity-proportionally and fired spikes are streamed from the
 * connectivity provider's rows, in parallel across target shards,
 * with bit-identical results at any shard count.
 */
class SpikeRouter
{
  public:
    /**
     * A router delivering from a borrowed `provider` (a session's),
     * over the provider's shards.
     *
     * @param metrics registry the router's counters live in (must
     *        outlive the router); nullptr = a private registry. The
     *        delivery counters are always on; the deep per-step
     *        samples (touched cells, ring occupancy) only fire while
     *        telemetry::detailEnabled().
     */
    SpikeRouter(const Network &network, ConnectivityProvider &provider,
                telemetry::Registry *metrics = nullptr);

    /**
     * A router that owns its provider, for callers without a session:
     * one of `kind` over `shardCount` target shards, its metrics in
     * `metrics` too; reset() resets it with the router.
     */
    SpikeRouter(const Network &network, size_t shardCount,
                telemetry::Registry *metrics = nullptr,
                ConnectivityKind kind = ConnectivityKind::Materialized);

    /** The connectivity source spikes are delivered from. */
    const ConnectivityProvider &provider() const { return conn_; }

    /** Provider-owned connectivity bytes (tables/blobs/caches). */
    size_t connectivityBytes() const
    {
        return conn_.connectivityBytes();
    }

    /** The weight buffer consumed by step t's neuron phase. */
    std::span<double> slot(uint64_t t);
    std::span<const double> slot(uint64_t t) const;

    /** The raw ring (ringDepth * slotSize doubles, slot-major). */
    const std::vector<double> &ringBuffer() const { return ring_; }

    /**
     * Delivery has one schedule, so only `true` is accepted. Kept
     * only for the repository benchmark (perfbench/), which still
     * calls it.
     */
    void setSparseDelivery(bool on) { flexon_assert(on); }

    /**
     * Record a stimulus write into step t's slot so the sparse clear
     * can undo it (cell = target * maxSynapseTypes + type). Call for
     * every cell the stimulus phase accumulates into.
     */
    void
    noteStimulus(uint64_t t, uint32_t cell)
    {
        stimTouch(t % ringDepth_, conn_.shardOfCell(cell))
            .add(cell, 1);
    }

    /**
     * One synapse-calculation step: clear the consumed slot of step
     * t (sparse or dense, decided per shard), then deliver every
     * fired source's outgoing synapses into the slots of t + delay.
     * `fired` must be ascending. Only shards with route or clear
     * work are dispatched; steps whose work fits one lane — quiet
     * steps included — run inline without a pool barrier.
     */
    void routeStep(uint64_t t, std::span<const uint32_t> fired);

    /** Re-mirror plasticity weight updates (cheap when unchanged). */
    void refreshWeights() { conn_.refreshWeights(); }

    // Registry counters since construction / reset().
    uint64_t events() const { return events_.value(); }
    uint64_t denseClears() const { return denseClears_.value(); }
    uint64_t sparseClears() const { return sparseClears_.value(); }
    /** Cell zeroings performed by sparse clears (incl. duplicates). */
    uint64_t cellsCleared() const { return cellsCleared_.value(); }
    /** Shards skipped entirely by the sparse path, summed. */
    uint64_t shardsSkipped() const { return shardsSkipped_.value(); }
    /** (source, shard, bucket) runs streamed by delivery, summed. */
    uint64_t bucketsVisited() const { return bucketsVisited_.value(); }

    /** Zero the ring, the touch tracking and the counters. */
    void reset();

    /**
     * Checkpoint the router's dynamic state: the delay ring (runs of
     * exact +0.0 run-length encoded as `zN` tokens — quiet slots
     * dominate the ring), every per-(slot, shard) routed and
     * stimulus touch list, and the event/clear/skip counters (read
     * from and restored into the registry). The
     * touch lists are part of correctness, not just telemetry: a
     * restored ring without its pending-write tracking would let a
     * sparse clear miss stale cells. Saturated lists round trip as
     * saturated, so the dense/sparse decision sequence — and with it
     * every counter — continues deterministically. loadState
     * fatal()s on a geometry mismatch and on touch keys or ring
     * tokens a save could not have written. A list holding a record
     * range key (bit 63, written by older builds) is restored
     * saturated, which forces the exact dense clear of its shard.
     */
    void saveState(std::ostream &os) const;
    void loadState(std::istream &is);

  private:
    /** The owning form: borrow `provider`, then keep it. */
    SpikeRouter(const Network &network,
                std::unique_ptr<ConnectivityProvider> provider,
                telemetry::Registry *metrics);

    /**
     * Clear the consumed slot for lane `shard`: its contiguous cell
     * range densely, or only the tracked writes when sparse.
     */
    void laneClear(size_t slotIdx, size_t shard, bool dense);

    /**
     * Delivery for lane `shard`: stream each fired row's runs in
     * this shard via ConnectivityProvider::rowSpan, into the slot
     * bases hoisted by routeStep.
     */
    void laneRoute(size_t shard, std::span<const uint32_t> fired);

    /** The checkpointed counters, in `counters` line order. */
    std::array<telemetry::Counter *, 6>
    counters() const
    {
        return {&events_,        &denseClears_,   &sparseClears_,
                &cellsCleared_,  &shardsSkipped_, &bucketsVisited_};
    }

    TouchList &touch(size_t slotIdx, size_t shard)
    {
        return touched_[slotIdx * shards_ + shard];
    }
    const TouchList &touch(size_t slotIdx, size_t shard) const
    {
        return touched_[slotIdx * shards_ + shard];
    }

    TouchList &stimTouch(size_t slotIdx, size_t shard)
    {
        return stimTouched_[slotIdx * shards_ + shard];
    }
    const TouchList &stimTouch(size_t slotIdx, size_t shard) const
    {
        return stimTouched_[slotIdx * shards_ + shard];
    }

    /** Private registry when the caller supplies none. */
    std::unique_ptr<telemetry::Registry> ownMetrics_;
    telemetry::Registry &metrics_;
    telemetry::Counter &events_;
    telemetry::Counter &denseClears_;
    telemetry::Counter &sparseClears_;
    telemetry::Counter &cellsCleared_;
    telemetry::Counter &shardsSkipped_;
    telemetry::Counter &bucketsVisited_;

    /** Set only by the owning constructor. */
    std::unique_ptr<ConnectivityProvider> ownConn_;
    ConnectivityProvider &conn_;
    size_t shards_;
    /** One decode scratch per shard (lanes never share). */
    mutable std::vector<RowScratch> scratch_;
    size_t ringDepth_;
    size_t slotSize_;
    std::vector<double> ring_;
    /** Ring-slot base pointer per delay, recomputed each step. */
    std::vector<double *> slotBase_;
    /**
     * touched_ row (slot of t + delay, shard 0) per delay,
     * recomputed each step beside slotBase_ — the lanes index
     * [delay][shard] instead of re-dividing by the ring depth per
     * streamed run.
     */
    std::vector<TouchList *> touchBase_;
    /**
     * Per (slot, shard): routed writes pending in that slot, as
     * packed (bucket << 32 | source) keys with run-length cost.
     */
    std::vector<TouchList> touched_;
    /** Per (slot, shard): stimulus cells pending in that slot. */
    std::vector<TouchList> stimTouched_;
    /** Per-shard event tallies (reduced after the barrier). */
    std::vector<uint64_t> laneEvents_;
    /** Per-shard run-visit tallies (reduced after the barrier). */
    std::vector<uint64_t> laneBuckets_;
    /** Per-shard dense-clear decisions for the consumed slot. */
    std::vector<uint8_t> laneDense_;
    /** Per-shard OR of the fired sources' activity masks. */
    std::vector<uint64_t> routeMask_;
    /** Shards with route or clear work this step, compacted. */
    std::vector<uint32_t> activeShards_;
    /** Per-shard sparse-clear cost cap: dense fill at or above. */
    std::vector<uint64_t> shardClearBudget_;

    /** Deep telemetry, sampled per step while detailEnabled(). */
    telemetry::Counter *touchedCellsCounter_ = nullptr;
    telemetry::HistogramMetric *occupancyHist_ = nullptr;
};

} // namespace flexon

#endif // FLEXON_SNN_ROUTING_HH
