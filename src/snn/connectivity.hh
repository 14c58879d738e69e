/**
 * @file
 * Connectivity providers: one row-oriented interface over three
 * synapse-storage strategies.
 *
 * The delivery engine (snn/routing.hh) consumes connectivity as
 * *rows*: for a fired source neuron and a target shard, the list of
 * delay-bucket runs of {ring cell, weight} delivery records. A
 * ConnectivityProvider answers that query — rowSpan() — from one of
 * three representations:
 *
 *  - **materialized**: one precompiled source-major array of 8-byte
 *    delivery records, per (source, shard) ascending-bucket runs in
 *    row order behind packed run headers. rowSpan() is a zero-copy
 *    view into it.
 *  - **compressed**: per-(source, shard) delta/varint-encoded blobs
 *    (see DESIGN.md §12 for the row format), decoded on delivery
 *    into a per-shard scratch buffer. ~6× smaller than the
 *    materialized records at microcircuit densities.
 *  - **procedural**: nothing stored per synapse at all. Rows are
 *    regenerated on demand from the network's ConnectivitySpec
 *    (counter-based per-source RNG, Network::rowFor), decoded
 *    through an LRU hot-row cache; STDP updates live in the
 *    network's sparse weight-delta overlay. Memory is O(neurons),
 *    so networks that OOM under materialized storage run.
 *
 * All three providers expose identical shard/bucket geometry (built
 * by buildConnectivityGeometry from the same inputs) and yield the
 * same per-cell weight-addition order, so spike trains are
 * bit-identical across providers at any thread count.
 */

#ifndef FLEXON_SNN_CONNECTIVITY_HH
#define FLEXON_SNN_CONNECTIVITY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/telemetry.hh"
#include "snn/network.hh"

namespace flexon {

/** One delivery: ring cell (target * maxSynapseTypes + type) and
 *  the weight to accumulate into it. */
struct DeliveryRecord
{
    uint32_t cell;
    float weight;
};

/** Available connectivity representations. */
enum class ConnectivityKind {
    Materialized, ///< precompiled source-major records (default)
    Compressed,   ///< delta/varint row blobs, decoded on delivery
    Procedural,   ///< rows regenerated from the spec'd RNG
};

/** Printable kind name ("materialized" / "compressed" /
 *  "procedural"). */
const char *connectivityKindName(ConnectivityKind kind);

/** Parse a kind name; returns false on anything else. */
bool parseConnectivityKind(const std::string &text,
                           ConnectivityKind &out);

/**
 * Packed bucket-run header: delay-bucket index in the top byte, run
 * length (record count) in the low 24 bits.
 */
constexpr uint32_t
packRunHeader(uint32_t bucket, uint32_t length)
{
    return (bucket << 24) | length;
}

constexpr uint32_t
runHeaderBucket(uint32_t header)
{
    return header >> 24;
}

constexpr uint32_t
runHeaderLength(uint32_t header)
{
    return header & 0xFFFFFFu;
}

/**
 * Shard/bucket layout shared by every provider (all build it with
 * the same function, which is what makes cross-provider geometry
 * equality structural rather than coincidental).
 */
struct ConnectivityGeometry
{
    size_t shardCount = 1;
    /** Target-neuron boundary of each shard (size shardCount + 1),
     *  balanced by incoming synapse count. */
    std::vector<uint32_t> shardTargetBegin;
    /** Ascending list of delays actually used by some synapse. */
    std::vector<uint8_t> bucketDelay;
    /** delay -> bucket index (valid for delays in bucketDelay). */
    std::array<uint8_t, 256> bucketOf{};
    /** target neuron -> owning shard (O(1) shard lookup). */
    std::vector<uint32_t> shardOf;
};

/**
 * Build the delivery geometry for a finalized network: clamp the
 * shard request to the pool width and the neuron count, split
 * targets into contiguous shards of balanced incoming-synapse load,
 * and enumerate the realized delay buckets.
 */
ConnectivityGeometry
buildConnectivityGeometry(const Network &network, size_t shardCount);

/**
 * Per-shard scratch space rowSpan() may decode into. One instance
 * per target shard (never shared between lanes); a view returned by
 * rowSpan() is valid until the next rowSpan() call with the same
 * scratch instance.
 */
struct RowScratch
{
    std::vector<uint32_t> runs;           ///< packed run headers
    std::vector<DeliveryRecord> records;  ///< run-major records
    std::vector<Synapse> synapses;        ///< raw regenerated row
    std::vector<uint32_t> counts;         ///< counting-sort bins
};

/**
 * Decoded delivery row of one (source, shard): bucket runs in
 * ascending bucket order over a contiguous record array. Within a
 * run, records for the same ring cell appear in a fixed
 * provider-independent relative order, so floating-point
 * accumulation per cell is identical across providers.
 */
struct RowView
{
    std::span<const uint32_t> runs;
    const DeliveryRecord *records = nullptr;
};

/**
 * Abstract connectivity source. Geometry accessors are non-virtual
 * (they read the shared ConnectivityGeometry) so the router's hot
 * paths pay a virtual call only per fired row, not per record.
 *
 * A session builds one provider for the whole run, and its router
 * delivers from it.
 *
 * Threading contract: rowSpan() is const and safe to call from
 * concurrent lanes as long as each lane passes its own RowScratch;
 * prepareStep() and refreshWeights() are serial (between lane
 * dispatches) and are where any internal caches may mutate.
 */
class ConnectivityProvider
{
  public:
    virtual ~ConnectivityProvider() = default;

    const ConnectivityGeometry &geometry() const { return geo_; }
    size_t shardCount() const { return geo_.shardCount; }
    size_t bucketCount() const { return geo_.bucketDelay.size(); }
    uint8_t bucketDelay(size_t bucket) const
    {
        return geo_.bucketDelay[bucket];
    }
    const std::vector<uint32_t> &shardTargetBegin() const
    {
        return geo_.shardTargetBegin;
    }

    /** True when per-source masks are exact (bucketCount <= 64). */
    bool rowMasksExact() const { return masksExact_; }
    /** Per-shard activity masks of a source row (shardCount
     *  words; bit b set iff the row reaches bucket b there). */
    const uint64_t *rowMaskRow(uint32_t src) const
    {
        return maskData_ + static_cast<size_t>(src) * geo_.shardCount;
    }
    uint64_t rowMask(uint32_t src, size_t shard) const
    {
        return rowMaskRow(src)[shard];
    }

    /** Decode the delivery row of (src, shard). */
    virtual RowView rowSpan(uint32_t src, size_t shard,
                            RowScratch &scratch) const = 0;

    /** Serial pre-delivery hook (e.g. populate the hot-row cache
     *  for this step's fired set). */
    virtual void prepareStep(std::span<const uint32_t> fired)
    {
        (void)fired;
    }

    /**
     * Mirror the weight mutations made since the last call: replay
     * the network's mutation-log entries past this provider's
     * watermark through replayWeights(), or, when more than
     * Network::weightLogCapacity behind, declare every weight stale
     * through mirrorAllWeights(). One compare when nothing changed.
     */
    void refreshWeights();

    /** Heap bytes owned by this provider (tables, blobs, caches). */
    virtual size_t connectivityBytes() const = 0;

    /** Forget cached rows / zero the cache counters (bit-exact
     *  session reset) and republish the footprint gauges. */
    virtual void reset();

    /** Procedural hot-row cache hits / misses (rows decoded); 0 for
     *  the other kinds. */
    uint64_t rowCacheHits() const { return hits_ ? hits_->value() : 0; }
    uint64_t rowCacheMisses() const { return misses_ ? misses_->value() : 0; }

  protected:
    /**
     * @param metrics registry the footprint gauges, the refresh
     *        counters and any subclass counters live in; nullptr =
     *        no telemetry
     */
    ConnectivityProvider(ConnectivityGeometry geo,
                         const Network &network,
                         telemetry::Registry *metrics);

    /**
     * Set the footprint gauges: this provider's bytes and the total
     * with the network's own synapse storage. Called at the serial
     * points where either changes (construction, weight refresh,
     * cache fills, reset).
     */
    void publishFootprint();

    /** refreshWeights() hook: mirror the mutations logged as entries
     *  [first, end) of the network's log (duplicates included). */
    virtual void replayWeights(uint64_t first, uint64_t end) = 0;

    /** refreshWeights() hook: any weight may have changed. */
    virtual void mirrorAllWeights() = 0;

    ConnectivityGeometry geo_;
    const Network &net_;
    const uint64_t *maskData_ = nullptr; ///< set by the subclass
    bool masksExact_ = false;
    /** Row-cache counters (registered by the procedural provider). */
    telemetry::Counter *hits_ = nullptr;
    telemetry::Counter *misses_ = nullptr;

  private:
    telemetry::Gauge *providerBytes_ = nullptr;
    telemetry::Gauge *totalBytes_ = nullptr;
    telemetry::Counter *tailRefreshes_ = nullptr;
    telemetry::Counter *fullRefreshes_ = nullptr;
    /** Network::weightMutations() already mirrored. */
    uint64_t weightsSeen_ = 0;
};

/**
 * The synapse-event counter (weight deliveries into future steps'
 * inputs) of `metrics`: one name and description for the router that
 * writes it and the session that reads it.
 */
telemetry::Counter &synapseEventsCounter(telemetry::Registry &metrics);

/**
 * Construct a provider over a finalized network.
 *
 * Materialized requires a materialized network (it compiles its
 * record array from stored rows); procedural requires a network
 * built with buildFromSpec(procedural = true); compressed accepts
 * either storage mode (it encodes from regenerated or stored rows).
 */
std::unique_ptr<ConnectivityProvider>
makeConnectivityProvider(ConnectivityKind kind, const Network &network,
                         size_t shardCount,
                         telemetry::Registry *metrics);

} // namespace flexon

#endif // FLEXON_SNN_CONNECTIVITY_HH
