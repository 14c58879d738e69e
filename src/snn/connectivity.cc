#include "snn/connectivity.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/logging.hh"
#include "common/telemetry.hh"
#include "common/thread_pool.hh"

namespace flexon {

const char *
connectivityKindName(ConnectivityKind kind)
{
    switch (kind) {
    case ConnectivityKind::Materialized:
        return "materialized";
    case ConnectivityKind::Compressed:
        return "compressed";
    case ConnectivityKind::Procedural:
        return "procedural";
    }
    return "?";
}

bool
parseConnectivityKind(const std::string &text, ConnectivityKind &out)
{
    if (text == "materialized")
        out = ConnectivityKind::Materialized;
    else if (text == "compressed")
        out = ConnectivityKind::Compressed;
    else if (text == "procedural")
        out = ConnectivityKind::Procedural;
    else
        return false;
    return true;
}

ConnectivityGeometry
buildConnectivityGeometry(const Network &network, size_t shardCount)
{
    if (!network.finalized())
        fatal("network must be finalized before connectivity-"
              "geometry build");
    const size_t n = network.numNeurons();
    if (n > std::numeric_limits<uint32_t>::max() / maxSynapseTypes)
        fatal("connectivity cell offsets overflow at %zu neurons", n);

    ConnectivityGeometry geo;
    size_t sc = shardCount == 0 ? 1 : shardCount;
    sc = std::min(sc, ThreadPool::maxLanes);
    if (sc > n)
        sc = n == 0 ? 1 : n;
    geo.shardCount = sc;

    // Cut the target axis into contiguous ranges of roughly equal
    // incoming-synapse load (the finalize()-time in-degree cache, so
    // no synapse walk — procedural networks have no rows to walk).
    const std::vector<uint32_t> &incoming = network.incomingCounts();
    const uint64_t total = network.numSynapses();
    geo.shardTargetBegin.assign(sc + 1, 0);
    geo.shardTargetBegin[sc] = static_cast<uint32_t>(n);
    uint64_t accum = 0;
    size_t shard = 1;
    for (uint32_t target = 0; target < n && shard < sc; ++target) {
        accum += incoming[target];
        if (accum * sc >= total * shard) {
            geo.shardTargetBegin[shard] = target + 1;
            ++shard;
        }
    }
    for (; shard < sc; ++shard)
        geo.shardTargetBegin[shard] = static_cast<uint32_t>(n);

    geo.shardOf.assign(n, 0);
    for (size_t s = 0; s < sc; ++s)
        for (uint32_t t = geo.shardTargetBegin[s];
             t < geo.shardTargetBegin[s + 1]; ++t)
            geo.shardOf[t] = static_cast<uint32_t>(s);

    // Delay buckets cover only the delay values that occur, so the
    // delivery layout does not scale with the ring depth of sparse
    // delay sets.
    const std::array<bool, 256> &used = network.delaysUsed();
    for (size_t d = 0; d < used.size(); ++d) {
        if (used[d]) {
            geo.bucketOf[d] =
                static_cast<uint8_t>(geo.bucketDelay.size());
            geo.bucketDelay.push_back(static_cast<uint8_t>(d));
        }
    }
    return geo;
}

telemetry::Counter &
synapseEventsCounter(telemetry::Registry &metrics)
{
    return metrics.counter("sim.synapse_events",
                           "synaptic weight deliveries");
}

ConnectivityProvider::ConnectivityProvider(ConnectivityGeometry geo,
                                           const Network &network,
                                           telemetry::Registry *metrics)
    : geo_(std::move(geo)), net_(network),
      weightsSeen_(network.weightMutations())
{
    if (metrics != nullptr) {
        providerBytes_ = &metrics->gauge(
            "snn.connectivity.provider_bytes",
            "delivery provider footprint (records, blobs or hot-row "
            "cache)");
        totalBytes_ = &metrics->gauge(
            "snn.connectivity.bytes",
            "total connectivity footprint (provider + network)");
        tailRefreshes_ = &metrics->counter(
            "route.refresh_tail",
            "weight refreshes replayed from the mutation-log tail");
        fullRefreshes_ = &metrics->counter(
            "route.refresh_full",
            "weight refreshes that declared every weight stale");
    }
}

void
ConnectivityProvider::publishFootprint()
{
    if (providerBytes_ == nullptr)
        return;
    const size_t own = connectivityBytes();
    providerBytes_->set(static_cast<double>(own));
    totalBytes_->set(
        static_cast<double>(own + net_.connectivityBytes()));
}

void
ConnectivityProvider::refreshWeights()
{
    const uint64_t total = net_.weightMutations();
    if (total == weightsSeen_)
        return;
    if (total - weightsSeen_ <= Network::weightLogCapacity) {
        replayWeights(weightsSeen_, total);
        if (tailRefreshes_ != nullptr)
            tailRefreshes_->add(1);
    } else {
        // Too far behind the log ring to know which weights moved.
        mirrorAllWeights();
        if (fullRefreshes_ != nullptr)
            fullRefreshes_->add(1);
    }
    weightsSeen_ = total;
    publishFootprint();
}

void
ConnectivityProvider::reset()
{
    if (hits_ != nullptr) {
        hits_->reset();
        misses_->reset();
    }
    publishFootprint();
}

namespace {

size_t
geometryBytes(const ConnectivityGeometry &geo)
{
    return geo.shardTargetBegin.capacity() * sizeof(uint32_t) +
           geo.shardOf.capacity() * sizeof(uint32_t) +
           geo.bucketDelay.capacity();
}

// ---- LEB128 varints -------------------------------------------------

void
putVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

uint64_t
getVarint(const uint8_t *&p)
{
    uint64_t v = 0;
    unsigned shift = 0;
    while ((*p & 0x80) != 0) {
        v |= static_cast<uint64_t>(*p++ & 0x7F) << shift;
        shift += 7;
    }
    v |= static_cast<uint64_t>(*p++) << shift;
    return v;
}

/**
 * The one row sorter: a counting sort of one source row into delivery
 * order. For each shard in [shardLo, shardHi) it appends that shard's
 * ascending-bucket runs to `runs` (packed headers) and their records
 * to `records`, keeping row order inside every run — the order the
 * per-cell accumulation argument rests on (DESIGN.md §7).
 * runEnd[i] / recEnd[i] receive the sizes of `runs` / `records` after
 * shard shardLo + i. When `position` is non-null, position[k]
 * receives the `records` index of row[k] (left alone for synapses
 * outside the shard range). `counts` is the caller's scratch.
 */
void
sortRow(std::span<const Synapse> row, const ConnectivityGeometry &geo,
        size_t shardLo, size_t shardHi, std::vector<uint32_t> &counts,
        std::vector<uint32_t> &runs,
        std::vector<DeliveryRecord> &records, uint32_t *runEnd,
        uint32_t *recEnd, uint32_t *position)
{
    constexpr size_t outside = std::numeric_limits<size_t>::max();
    const size_t buckets = geo.bucketDelay.size();
    const size_t shards = shardHi - shardLo;
    auto binOf = [&](const Synapse &syn) {
        const size_t s = geo.shardOf[syn.target];
        return s < shardLo || s >= shardHi
                   ? outside
                   : (s - shardLo) * buckets + geo.bucketOf[syn.delay];
    };

    counts.assign(shards * buckets, 0);
    for (const Synapse &syn : row) {
        const size_t bin = binOf(syn);
        if (bin != outside)
            ++counts[bin];
    }
    auto placed = static_cast<uint32_t>(records.size());
    for (size_t s = 0, bin = 0; s < shards; ++s) {
        for (size_t b = 0; b < buckets; ++b, ++bin) {
            const uint32_t len = counts[bin];
            if (len == 0)
                continue;
            flexon_assert(len < (uint32_t{1} << 24));
            runs.push_back(packRunHeader(static_cast<uint32_t>(b), len));
            counts[bin] = placed; // becomes the run's write cursor
            placed += len;
        }
        runEnd[s] = static_cast<uint32_t>(runs.size());
        recEnd[s] = placed;
    }
    records.resize(placed);
    for (size_t k = 0; k < row.size(); ++k) {
        const size_t bin = binOf(row[k]);
        if (bin == outside)
            continue;
        const uint32_t pos = counts[bin]++;
        records[pos] = {static_cast<uint32_t>(row[k].target *
                                                  maxSynapseTypes +
                                              row[k].type),
                        row[k].weight};
        if (position != nullptr)
            position[k] = pos;
    }
}

/** Sort a raw row's records for one shard into the lane's scratch. */
RowView
decodeRowForShard(std::span<const Synapse> row, size_t shard,
                  const ConnectivityGeometry &geo, RowScratch &scratch)
{
    scratch.runs.clear();
    scratch.records.clear();
    uint32_t runEnd = 0, recEnd = 0;
    sortRow(row, geo, shard, shard + 1, scratch.counts, scratch.runs,
            scratch.records, &runEnd, &recEnd, nullptr);
    return {std::span<const uint32_t>(scratch.runs),
            scratch.records.data()};
}

/** OR the bucket of every run header in [begin, end) into a mask. */
uint64_t
runMask(const uint32_t *begin, const uint32_t *end)
{
    uint64_t mask = 0;
    for (const uint32_t *h = begin; h != end; ++h)
        mask |= uint64_t{1} << runHeaderBucket(*h);
    return mask;
}

// ---- Materialized ---------------------------------------------------

/**
 * The synapse table compiled once into delivery order: per (source,
 * shard), that source's 8-byte records contiguous in ascending-bucket
 * runs behind packed run headers, row order kept within a run. A
 * fired row streams as one header line plus one record run per shard
 * and rowSpan() is a zero-copy view.
 *
 * Weights are copied into the records, so weight updates
 * (Network::setSynapseWeight) are re-mirrored by refreshWeights()
 * through recordOf_.
 */
class MaterializedProvider final : public ConnectivityProvider
{
  public:
    MaterializedProvider(const Network &network, size_t shardCount,
                         telemetry::Registry *metrics)
        : ConnectivityProvider(
              buildConnectivityGeometry(network, shardCount), network,
              metrics)
    {
        const uint64_t total = network.numSynapses();
        if (total >= std::numeric_limits<uint32_t>::max()) {
            fatal("materialized connectivity supports < 2^32 synapses "
                  "(network has %llu)",
                  static_cast<unsigned long long>(total));
        }
        const size_t n = network.numNeurons();
        const size_t sc = geo_.shardCount;
        masksExact_ = geo_.bucketDelay.size() <= 64;
        if (masksExact_)
            mask_.assign(n * sc, 0);
        records_.reserve(total);
        recordOf_.resize(total);
        runPtr_.assign(n * sc + 1, 0);
        recPtr_.assign(n * sc + 1, 0);

        // Rows land one after another, so each (source, shard) begins
        // where the previous one ended: the sorter writes the ends.
        std::vector<uint32_t> counts;
        for (uint32_t src = 0; src < n; ++src) {
            const size_t at = static_cast<size_t>(src) * sc;
            sortRow(network.outgoing(src), geo_, 0, sc, counts, runs_,
                    records_, runPtr_.data() + at + 1,
                    recPtr_.data() + at + 1,
                    recordOf_.data() + network.rowStart(src));
            if (masksExact_)
                for (size_t s = 0; s < sc; ++s)
                    mask_[at + s] =
                        runMask(runs_.data() + runPtr_[at + s],
                                runs_.data() + runPtr_[at + s + 1]);
        }
        runs_.shrink_to_fit();
        if (masksExact_)
            maskData_ = mask_.data();
        publishFootprint();
    }

    RowView
    rowSpan(uint32_t src, size_t shard,
            RowScratch & /*scratch*/) const override
    {
        const size_t at =
            static_cast<size_t>(src) * geo_.shardCount + shard;
        return {std::span<const uint32_t>(
                    runs_.data() + runPtr_[at],
                    runPtr_[at + 1] - runPtr_[at]),
                records_.data() + recPtr_[at]};
    }

    size_t
    connectivityBytes() const override
    {
        return records_.capacity() * sizeof(DeliveryRecord) +
               (recordOf_.capacity() + runs_.capacity() +
                runPtr_.capacity() + recPtr_.capacity()) *
                   sizeof(uint32_t) +
               mask_.capacity() * sizeof(uint64_t) +
               geometryBytes(geo_);
    }

  private:
    void
    replayWeights(uint64_t first, uint64_t end) override
    {
        for (uint64_t m = first; m < end; ++m) {
            const uint64_t idx = net_.weightLogEntry(m);
            records_[recordOf_[idx]].weight = net_.synapseAt(idx).weight;
        }
    }

    void
    mirrorAllWeights() override
    {
        for (uint64_t idx = 0; idx < net_.numSynapses(); ++idx)
            records_[recordOf_[idx]].weight = net_.synapseAt(idx).weight;
    }

    std::vector<DeliveryRecord> records_;
    std::vector<uint32_t> runs_;
    /** (src * shardCount + shard) -> runs_ / records_; +1 sentinel. */
    std::vector<uint32_t> runPtr_;
    std::vector<uint32_t> recPtr_;
    std::vector<uint64_t> mask_;
    /** Global synapse index -> records_ position (weight refresh). */
    std::vector<uint32_t> recordOf_;
};

// ---- Compressed -----------------------------------------------------

/**
 * Per-(source, shard) blob layout: a sequence of bucket runs, each
 *
 *   bucket   u8
 *   mode     u8    bit 0: uniform synapse type, bit 1: uniform weight
 *   count    varint
 *   [type    u8]                      when uniform type
 *   first    varint                   target id (uniform) / ring cell
 *   deltas   varint x (count - 1)     ascending, >= 0
 *   weights  f32 raw (1 when uniform, else count)
 *
 * The row sorter lays each shard's records out in ascending-bucket
 * runs, row order kept; each run is then stable-sorted by cell so the
 * deltas are non-negative and small. Same-cell records keep their
 * row-relative order, which is all per-cell accumulation order
 * needs, so results stay bit-identical to the materialized walks.
 * Weights stay lossless float32 — STDP and bit-identity rule out
 * quantization; the compression win comes from the id stream.
 */
class CompressedProvider final : public ConnectivityProvider
{
  public:
    CompressedProvider(const Network &network, size_t shardCount,
                       telemetry::Registry *metrics)
        : ConnectivityProvider(
              buildConnectivityGeometry(network, shardCount), network,
              metrics)
    {
        const size_t n = network.numNeurons();
        const size_t sc = geo_.shardCount;
        masksExact_ = geo_.bucketDelay.size() <= 64;
        if (masksExact_)
            mask_.assign(n * sc, 0);
        rowOffset_.assign(n * sc + 1, 0);
        patched_.assign(n, 0);

        std::vector<Synapse> rowScratch;
        std::vector<uint32_t> counts, runs, runEnd(sc), recEnd(sc);
        std::vector<DeliveryRecord> records;
        for (uint32_t src = 0; src < n; ++src) {
            runs.clear();
            records.clear();
            sortRow(net_.rowFor(src, rowScratch), geo_, 0, sc, counts,
                    runs, records, runEnd.data(), recEnd.data(),
                    nullptr);
            DeliveryRecord *rec = records.data();
            size_t run = 0;
            for (size_t s = 0; s < sc; ++s) {
                for (; run < runEnd[s]; ++run) {
                    const uint32_t len = runHeaderLength(runs[run]);
                    const auto bucket =
                        static_cast<uint8_t>(runHeaderBucket(runs[run]));
                    std::stable_sort(rec, rec + len,
                                     [](const DeliveryRecord &a,
                                        const DeliveryRecord &b) {
                                         return a.cell < b.cell;
                                     });
                    encodeRun(bucket, rec, len);
                    if (masksExact_)
                        mask_[src * sc + s] |= uint64_t{1} << bucket;
                    rec += len;
                }
                rowOffset_[src * sc + s + 1] = blob_.size();
            }
        }
        blob_.shrink_to_fit();
        if (masksExact_)
            maskData_ = mask_.data();
        publishFootprint();
    }

    RowView
    rowSpan(uint32_t src, size_t shard,
            RowScratch &scratch) const override
    {
        if (allPatched_ || patched_[src] != 0) {
            // Weight-mutated row: decode from the network, which
            // serves current weights in either storage mode.
            return decodeRowForShard(
                net_.rowFor(src, scratch.synapses), shard, geo_,
                scratch);
        }
        const uint8_t *p =
            blob_.data() + rowOffset_[src * geo_.shardCount + shard];
        const uint8_t *const end =
            blob_.data() +
            rowOffset_[src * geo_.shardCount + shard + 1];
        scratch.runs.clear();
        scratch.records.clear();
        while (p < end) {
            const uint8_t bucket = *p++;
            const uint8_t mode = *p++;
            const auto count = static_cast<uint32_t>(getVarint(p));
            scratch.runs.push_back(packRunHeader(bucket, count));
            const size_t base = scratch.records.size();
            scratch.records.resize(base + count);
            DeliveryRecord *const rec = scratch.records.data() + base;
            if ((mode & 1) != 0) {
                const uint8_t type = *p++;
                uint64_t target = getVarint(p);
                rec[0].cell = static_cast<uint32_t>(
                    target * maxSynapseTypes + type);
                for (uint32_t k = 1; k < count; ++k) {
                    target += getVarint(p);
                    rec[k].cell = static_cast<uint32_t>(
                        target * maxSynapseTypes + type);
                }
            } else {
                uint64_t cell = getVarint(p);
                rec[0].cell = static_cast<uint32_t>(cell);
                for (uint32_t k = 1; k < count; ++k) {
                    cell += getVarint(p);
                    rec[k].cell = static_cast<uint32_t>(cell);
                }
            }
            if ((mode & 2) != 0) {
                float w;
                std::memcpy(&w, p, sizeof w);
                p += sizeof w;
                for (uint32_t k = 0; k < count; ++k)
                    rec[k].weight = w;
            } else {
                for (uint32_t k = 0; k < count; ++k) {
                    std::memcpy(&rec[k].weight, p,
                                sizeof rec[k].weight);
                    p += sizeof rec[k].weight;
                }
            }
        }
        return {std::span<const uint32_t>(scratch.runs),
                scratch.records.data()};
    }

    size_t
    connectivityBytes() const override
    {
        return blob_.capacity() +
               rowOffset_.capacity() * sizeof(uint64_t) +
               patched_.capacity() +
               mask_.capacity() * sizeof(uint64_t) +
               geometryBytes(geo_);
    }

  private:
    // Blobs are immutable; rows whose weights changed are remembered
    // and served from the network, which has the current weights.
    void
    replayWeights(uint64_t first, uint64_t end) override
    {
        for (uint64_t m = first; m < end; ++m)
            patched_[net_.sourceOfSynapse(net_.weightLogEntry(m))] = 1;
    }

    void mirrorAllWeights() override { allPatched_ = true; }

    /** Append one run of `count` cell-ascending records. */
    void
    encodeRun(uint8_t bucket, const DeliveryRecord *rec, uint32_t count)
    {
        const auto type =
            static_cast<uint8_t>(rec[0].cell % maxSynapseTypes);
        bool uniformType = true;
        bool uniformWeight = true;
        uint32_t weightBits0;
        std::memcpy(&weightBits0, &rec[0].weight, sizeof weightBits0);
        for (uint32_t k = 1; k < count; ++k) {
            if (rec[k].cell % maxSynapseTypes != type)
                uniformType = false;
            uint32_t bits;
            std::memcpy(&bits, &rec[k].weight, sizeof bits);
            if (bits != weightBits0)
                uniformWeight = false;
        }
        blob_.push_back(bucket);
        blob_.push_back(static_cast<uint8_t>(
            (uniformType ? 1 : 0) | (uniformWeight ? 2 : 0)));
        putVarint(blob_, count);
        if (uniformType) {
            // Delta over target ids: with one type per run the
            // targets ascend alongside the cells, and target gaps
            // are maxSynapseTypes times smaller than cell gaps —
            // usually a single varint byte at cortical densities.
            blob_.push_back(type);
            uint32_t prev = rec[0].cell / maxSynapseTypes;
            putVarint(blob_, prev);
            for (uint32_t k = 1; k < count; ++k) {
                const uint32_t target = rec[k].cell / maxSynapseTypes;
                putVarint(blob_, target - prev);
                prev = target;
            }
        } else {
            uint32_t prev = rec[0].cell;
            putVarint(blob_, prev);
            for (uint32_t k = 1; k < count; ++k) {
                putVarint(blob_, rec[k].cell - prev);
                prev = rec[k].cell;
            }
        }
        const uint32_t weights = uniformWeight ? 1 : count;
        for (uint32_t k = 0; k < weights; ++k) {
            const size_t at = blob_.size();
            blob_.resize(at + sizeof(float));
            std::memcpy(blob_.data() + at, &rec[k].weight,
                        sizeof(float));
        }
    }

    std::vector<uint8_t> blob_;
    /** (src * shardCount + shard) -> blob offset; +1 sentinel. */
    std::vector<uint64_t> rowOffset_;
    /** Per source: 1 when a weight mutation invalidated the blob. */
    std::vector<uint8_t> patched_;
    bool allPatched_ = false;
    std::vector<uint64_t> mask_;
};

// ---- Procedural -----------------------------------------------------

/** Hot-row cache budget (bytes). */
constexpr size_t kRowCacheBytes = size_t{16} << 20;

class ProceduralProvider final : public ConnectivityProvider
{
    /** One fully decoded source row: per-shard (runs, records)
     *  slices of two contiguous arrays. */
    struct CachedRow
    {
        std::vector<uint32_t> runs;
        std::vector<DeliveryRecord> records;
        std::vector<uint32_t> runBegin; ///< shardCount + 1
        std::vector<uint32_t> recBegin; ///< shardCount + 1
        uint64_t lastUse = 0;

        size_t
        bytes() const
        {
            return sizeof(CachedRow) +
                   runs.capacity() * sizeof(uint32_t) +
                   records.capacity() * sizeof(DeliveryRecord) +
                   runBegin.capacity() * sizeof(uint32_t) +
                   recBegin.capacity() * sizeof(uint32_t);
        }
    };

  public:
    ProceduralProvider(const Network &network, size_t shardCount,
                       telemetry::Registry *metrics)
        : ConnectivityProvider(
              buildConnectivityGeometry(network, shardCount), network,
              metrics)
    {
        if (metrics != nullptr) {
            hits_ = &metrics->counter(
                "snn.connectivity.row_cache_hits",
                "procedural hot-row cache hits");
            misses_ = &metrics->counter(
                "snn.connectivity.row_cache_misses",
                "procedural hot-row cache misses (rows decoded)");
        }
        buildMasks();
        publishFootprint();
    }

    RowView
    rowSpan(uint32_t src, size_t shard, RowScratch &) const override
    {
        // Lanes only read the cache; prepareStep() is where it
        // mutates (serial), and it caches every row of the step.
        const auto it = cache_.find(src);
        flexon_assert(it != cache_.end());
        const CachedRow &c = it->second;
        return {std::span<const uint32_t>(
                    c.runs.data() + c.runBegin[shard],
                    c.runBegin[shard + 1] - c.runBegin[shard]),
                c.records.data() + c.recBegin[shard]};
    }

    void
    prepareStep(std::span<const uint32_t> fired) override
    {
        ++tick_;
        uint64_t misses = 0;
        for (const uint32_t src : fired) {
            const auto it = cache_.find(src);
            if (it != cache_.end()) {
                it->second.lastUse = tick_;
                continue;
            }
            ++misses;
            CachedRow row = decodeAllShards(src);
            row.lastUse = tick_;
            cacheBytes_ += row.bytes();
            cache_.emplace(src, std::move(row));
        }
        if (cacheBytes_ > kRowCacheBytes)
            evict();
        if (hits_ != nullptr) {
            hits_->add(fired.size() - misses);
            misses_->add(misses);
        }
        if (misses > 0)
            publishFootprint();
    }

    size_t
    connectivityBytes() const override
    {
        return cacheBytes_ + mask_.capacity() * sizeof(uint64_t) +
               geometryBytes(geo_);
    }

    void
    reset() override
    {
        cache_.clear();
        cacheBytes_ = 0;
        tick_ = 0;
        ConnectivityProvider::reset();
    }

  private:
    // rowFor() always serves current weights (the overlay is the
    // network's); only cached decodes can go stale.
    void
    replayWeights(uint64_t first, uint64_t end) override
    {
        for (uint64_t m = first; m < end; ++m)
            dropCached(net_.sourceOfSynapse(net_.weightLogEntry(m)));
    }

    void
    mirrorAllWeights() override
    {
        cache_.clear();
        cacheBytes_ = 0;
    }

    void
    buildMasks()
    {
        // Conservative per-(source, shard) bucket masks straight
        // from the spec — no generation pass. A set bit only means
        // "may deliver there": the mask-directed dispatch then
        // decodes a row that contributes nothing, which is wasted
        // work but identical arithmetic. Bits are restricted to
        // realized delays so bucketOf stays well-defined.
        const size_t buckets = geo_.bucketDelay.size();
        masksExact_ = buckets <= 64;
        if (!masksExact_)
            return;
        const size_t n = net_.numNeurons();
        const size_t sc = geo_.shardCount;
        mask_.assign(n * sc, 0);
        const std::array<bool, 256> &used = net_.delaysUsed();
        for (const Projection &p :
             net_.connectivitySpec().projections) {
            if (p.srcCount == 0 || p.dstCount == 0)
                continue;
            if (p.rule == Projection::Rule::Bernoulli &&
                p.probability <= 0.0)
                continue;
            if (p.rule == Projection::Rule::FixedFanout &&
                p.fanout == 0)
                continue;
            uint64_t bits = 0;
            for (uint32_t d = p.delayMin; d <= p.delayMax; ++d)
                if (used[d])
                    bits |= uint64_t{1} << geo_.bucketOf[d];
            if (bits == 0)
                continue;
            const uint32_t sLo = geo_.shardOf[p.dstBase];
            const uint32_t sHi =
                geo_.shardOf[p.dstBase + p.dstCount - 1];
            for (uint32_t src = p.srcBase;
                 src < p.srcBase + p.srcCount; ++src)
                for (uint32_t s = sLo; s <= sHi; ++s)
                    mask_[static_cast<size_t>(src) * sc + s] |= bits;
        }
        maskData_ = mask_.data();
    }

    CachedRow
    decodeAllShards(uint32_t src)
    {
        // All shards of a row decode together (one generation pass),
        // each shard's slice starting where the previous one ended.
        const size_t sc = geo_.shardCount;
        CachedRow c;
        c.runBegin.assign(sc + 1, 0);
        c.recBegin.assign(sc + 1, 0);
        sortRow(net_.rowFor(src, rowScratch_), geo_, 0, sc, counts_,
                c.runs, c.records, c.runBegin.data() + 1,
                c.recBegin.data() + 1, nullptr);
        c.runs.shrink_to_fit();
        return c;
    }

    void
    evict()
    {
        // One sorted scan, oldest first; rows decoded for the
        // current step are pinned (their views are about to be read
        // by the delivery lanes).
        evictScratch_.clear();
        for (const auto &[src, row] : cache_)
            if (row.lastUse != tick_)
                evictScratch_.emplace_back(row.lastUse, src);
        std::sort(evictScratch_.begin(), evictScratch_.end());
        for (const auto &[use, src] : evictScratch_) {
            if (cacheBytes_ <= kRowCacheBytes)
                break;
            dropCached(src);
        }
    }

    void
    dropCached(uint32_t src)
    {
        const auto it = cache_.find(src);
        if (it == cache_.end())
            return;
        cacheBytes_ -= it->second.bytes();
        cache_.erase(it);
    }

    std::unordered_map<uint32_t, CachedRow> cache_;
    size_t cacheBytes_ = 0;
    uint64_t tick_ = 0;
    std::vector<uint64_t> mask_;
    // prepareStep() scratch (serial use only).
    std::vector<Synapse> rowScratch_;
    std::vector<uint32_t> counts_;
    std::vector<std::pair<uint64_t, uint32_t>> evictScratch_;
};

} // namespace

std::unique_ptr<ConnectivityProvider>
makeConnectivityProvider(ConnectivityKind kind, const Network &network,
                         size_t shardCount,
                         telemetry::Registry *metrics)
{
    switch (kind) {
    case ConnectivityKind::Materialized:
        if (network.procedural())
            fatal("materialized connectivity requires stored synapse "
                  "rows; this network is procedural — use "
                  "--connectivity=procedural or compressed");
        return std::make_unique<MaterializedProvider>(
            network, shardCount, metrics);
    case ConnectivityKind::Compressed:
        return std::make_unique<CompressedProvider>(
            network, shardCount, metrics);
    case ConnectivityKind::Procedural:
        if (!network.hasSpec())
            fatal("procedural connectivity requires a generative "
                  "network spec (Network::buildFromSpec)");
        return std::make_unique<ProceduralProvider>(
            network, shardCount, metrics);
    }
    fatal("unknown connectivity kind");
}

} // namespace flexon
