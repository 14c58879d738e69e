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
 * Sparse delivery: realistic cortical workloads fire at a few Hz, so
 * on most steps most shards receive nothing. Providers keep a
 * per-(source, shard) *activity bitmap* — bit b set when the row has
 * records in bucket b. Delivery ORs the fired sources' masks per
 * shard, and a lane skips fired rows whose mask for its shard is
 * empty. Networks with more than 64 distinct delay values have no
 * masks (they would not fit a word): any firing then makes every
 * shard active, through the same loop.
 *
 * Order preservation (the bit-identity argument): a ring cell is one
 * (slot, target, type) location, and within a step exactly one delay
 * bucket writes a given slot. Fired sources are scanned in ascending
 * order and each run keeps original row order, so every cell receives
 * its floating-point additions in exactly the serial-scan order, for
 * any shard count and any provider (tests/test_routing.cc enforces
 * this against a naive delivery oracle).
 *
 * Ring maintenance: each step, every lane zeroes its own shard's
 * cells of the consumed slot with one std::fill before it routes.
 * A sequential fill streams faster than re-walking the fired rows to
 * undo their writes, which would read every delivered record twice.
 */

#ifndef FLEXON_SNN_ROUTING_HH
#define FLEXON_SNN_ROUTING_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "common/telemetry.hh"
#include "snn/connectivity.hh"
#include "snn/network.hh"

namespace flexon {

/**
 * The delay ring plus its delivery engine: each lane clears its
 * shard of the consumed slot and streams the fired spikes from the
 * connectivity provider's rows into it, in parallel across target
 * shards, with bit-identical results at any shard count.
 */
class SpikeRouter
{
  public:
    /**
     * A router delivering from a borrowed `provider` (a session's),
     * over the provider's shards.
     *
     * @param metrics registry the router's counters live in (must
     *        outlive the router); nullptr = a private registry.
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
     * One synapse-calculation step: each shard lane zeroes its cells
     * of the consumed slot of step t, then delivers every fired
     * source's outgoing synapses in its shard into the slots of
     * t + delay. `fired` must be ascending. A step with nothing to
     * route clears inline, without a pool barrier.
     */
    void routeStep(uint64_t t, std::span<const uint32_t> fired);

    /** Re-mirror plasticity weight updates (cheap when unchanged). */
    void refreshWeights() { conn_.refreshWeights(); }

    // Registry counters since construction / reset().
    uint64_t events() const { return events_.value(); }
    /** (source, shard, bucket) runs streamed by delivery, summed. */
    uint64_t bucketsVisited() const { return bucketsVisited_.value(); }

    /**
     * Stubs of the sparse clear and shard skip, which are gone: the
     * repository benchmark (perfbench/) still calls them. Delivery
     * has one schedule, so setSparseDelivery accepts only `true`;
     * there is nothing to note and nothing to count.
     */
    void setSparseDelivery(bool on) { flexon_assert(on); }
    void noteStimulus(uint64_t, uint32_t) {}
    uint64_t denseClears() const { return 0; }
    uint64_t sparseClears() const { return 0; }
    uint64_t shardsSkipped() const { return 0; }

    /** Zero the ring and the counters. */
    void reset();

    /**
     * Checkpoint the router's dynamic state: the delay ring (runs of
     * exact +0.0 run-length encoded as `zN` tokens — quiet slots
     * dominate the ring) and the event and bucket counters (read
     * from and restored into the registry). loadState takes the
     * checkpoint's header version: blocks older than v5 also hold
     * 2 x ringDepth x shards `touch` lines and six counters, which
     * it reads past, keeping the event and bucket counts. It
     * fatal()s on a geometry mismatch, a malformed or truncated
     * touch line, and ring tokens a save could not have written.
     */
    void saveState(std::ostream &os) const;
    void loadState(std::istream &is, int version);

  private:
    /** The owning form: borrow `provider`, then keep it. */
    SpikeRouter(const Network &network,
                std::unique_ptr<ConnectivityProvider> provider,
                telemetry::Registry *metrics);

    /**
     * Delivery for lane `shard`: stream each fired row's runs in
     * this shard via ConnectivityProvider::rowSpan, into the slot
     * bases hoisted by routeStep.
     */
    void laneRoute(size_t shard, std::span<const uint32_t> fired);

    /** Private registry when the caller supplies none. */
    std::unique_ptr<telemetry::Registry> ownMetrics_;
    telemetry::Registry &metrics_;
    telemetry::Counter &events_;
    telemetry::Counter &bucketsVisited_;

    /** Set only by the owning constructor. */
    std::unique_ptr<ConnectivityProvider> ownConn_;
    ConnectivityProvider &conn_;
    size_t shards_;
    /** One decode scratch per shard (lanes never share). */
    std::vector<RowScratch> scratch_;
    size_t ringDepth_;
    size_t slotSize_;
    std::vector<double> ring_;
    /** Ring-slot base pointer per delay, recomputed each step. */
    std::vector<double *> slotBase_;
    /** Per-shard event tallies (reduced after the barrier). */
    std::vector<uint64_t> laneEvents_;
    /** Per-shard run-visit tallies (reduced after the barrier). */
    std::vector<uint64_t> laneBuckets_;
    /** Per-shard OR of the fired sources' activity masks. */
    std::vector<uint64_t> routeMask_;
};

} // namespace flexon

#endif // FLEXON_SNN_ROUTING_HH
