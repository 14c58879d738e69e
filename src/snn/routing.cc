#include "snn/routing.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <string>

#include "common/logging.hh"
#include "common/text_number.hh"
#include "common/thread_pool.hh"

namespace flexon {

SpikeRouter::SpikeRouter(const Network &network, size_t shardCount,
                         telemetry::Registry *metrics,
                         ConnectivityKind kind)
    : SpikeRouter(network,
                  makeConnectivityProvider(kind, network, shardCount,
                                           metrics),
                  metrics)
{
}

SpikeRouter::SpikeRouter(const Network &network,
                         std::unique_ptr<ConnectivityProvider> provider,
                         telemetry::Registry *metrics)
    : SpikeRouter(network, *provider, metrics)
{
    ownConn_ = std::move(provider);
}

SpikeRouter::SpikeRouter(const Network &network,
                         ConnectivityProvider &provider,
                         telemetry::Registry *metrics)
    : ownMetrics_(metrics == nullptr
                      ? std::make_unique<telemetry::Registry>()
                      : nullptr),
      metrics_(metrics != nullptr ? *metrics : *ownMetrics_),
      events_(synapseEventsCounter(metrics_)),
      bucketsVisited_(metrics_.counter(
          "snn.router.buckets_visited",
          "(source, shard, delay-bucket) runs streamed by delivery")),
      conn_(provider), shards_(conn_.shardCount()),
      ringDepth_(static_cast<size_t>(network.maxDelay()) + 1),
      slotSize_(network.numNeurons() * maxSynapseTypes)
{
    ring_.assign(ringDepth_ * slotSize_, 0.0);
    slotBase_.assign(ringDepth_, nullptr);
    scratch_.resize(shards_);
    laneEvents_.assign(shards_, 0);
    laneBuckets_.assign(shards_, 0);
    routeMask_.assign(shards_, 0);
}

std::span<double>
SpikeRouter::slot(uint64_t t)
{
    return {ring_.data() + (t % ringDepth_) * slotSize_, slotSize_};
}

std::span<const double>
SpikeRouter::slot(uint64_t t) const
{
    return {ring_.data() + (t % ringDepth_) * slotSize_, slotSize_};
}

void
SpikeRouter::laneRoute(size_t shard, std::span<const uint32_t> fired)
{
    const bool exact = conn_.rowMasksExact();
    uint64_t events = 0;
    uint64_t streams = 0;
    RowScratch &scratch = scratch_[shard];
    for (const uint32_t n : fired) {
        if (exact && conn_.rowMask(n, shard) == 0)
            continue;
        const RowView row = conn_.rowSpan(n, shard, scratch);
        const DeliveryRecord *rec = row.records;
        streams += row.runs.size();
        for (const uint32_t header : row.runs) {
            const uint32_t len = runHeaderLength(header);
            const uint8_t delay =
                conn_.bucketDelay(runHeaderBucket(header));
            double *const base = slotBase_[delay];
            events += len;
            for (uint32_t k = 0; k < len; ++k, ++rec)
                base[rec->cell] += rec->weight;
        }
    }
    laneEvents_[shard] = events;
    laneBuckets_[shard] = streams;
}

void
SpikeRouter::routeStep(uint64_t t, std::span<const uint32_t> fired)
{
    const size_t slotIdx = t % ringDepth_;
    const size_t shards = shards_;

    // Serial provider hook before any lane touches rowSpan(): the
    // procedural provider decodes this step's fired rows into its
    // hot-row cache here, where mutation is single-threaded.
    if (!fired.empty())
        conn_.prepareStep(fired);

    // Route-activity masks: OR the fired sources' per-shard bucket
    // bitmaps. Without exact masks (> 64 delay buckets) any firing
    // marks every shard active.
    const bool haveRoute =
        !fired.empty() && conn_.bucketCount() > 0;
    std::fill(routeMask_.begin(), routeMask_.end(), 0);
    if (haveRoute) {
        if (conn_.rowMasksExact()) {
            for (const uint32_t n : fired) {
                const uint64_t *const m = conn_.rowMaskRow(n);
                for (size_t s = 0; s < shards; ++s)
                    routeMask_[s] |= m[s];
            }
        } else {
            std::fill(routeMask_.begin(), routeMask_.end(),
                      ~uint64_t{0});
        }
        for (size_t d = 0; d < ringDepth_; ++d)
            slotBase_[d] = ring_.data() + ((t + d) % ringDepth_) *
                                              slotSize_;
    }

    // Each lane zeroes its own cells of the consumed slot, then
    // routes into its shard; no other lane writes those cells.
    double *const consumed = ring_.data() + slotIdx * slotSize_;
    const auto &targetBegin = conn_.shardTargetBegin();
    auto laneWork = [&](size_t s) {
        laneEvents_[s] = 0;
        laneBuckets_[s] = 0;
        std::fill(consumed + targetBegin[s] * maxSynapseTypes,
                  consumed + targetBegin[s + 1] * maxSynapseTypes, 0.0);
        if (routeMask_[s] != 0)
            laneRoute(s, fired);
    };
    if (!haveRoute) {
        // Clear-only step: stay inline, never worth a pool barrier.
        for (size_t s = 0; s < shards; ++s)
            laneWork(s);
    } else {
        ThreadPool::global().forEachLane(shards, laneWork);
    }
    uint64_t events = 0;
    uint64_t visited = 0;
    for (size_t s = 0; s < shards; ++s) {
        events += laneEvents_[s];
        visited += laneBuckets_[s];
    }
    events_.add(events);
    bucketsVisited_.add(visited);
}

namespace {

/**
 * Write `values` with runs of exact +0.0 encoded as `zN`. Only the
 * canonical positive zero is eligible: a negative zero (which the
 * delivery path never produces, but the encoder must not assume) is
 * written as a plain value so the bit pattern survives.
 */
void
writeRingRle(std::ostream &os, const std::vector<double> &values)
{
    size_t i = 0;
    while (i < values.size()) {
        const double x = values[i];
        if (x == 0.0 && !std::signbit(x)) {
            size_t run = 1;
            while (i + run < values.size() &&
                   values[i + run] == 0.0 &&
                   !std::signbit(values[i + run]))
                ++run;
            os << " z" << run;
            i += run;
        } else {
            os << ' ' << x;
            ++i;
        }
    }
}

void
readRingRle(std::istream &is, std::vector<double> &values)
{
    size_t i = 0;
    std::string token;
    while (i < values.size() && is >> token) {
        // A token is one value or a `zN` run of +0.0. strtoull throws
        // nothing; a token not consumed whole is corrupt.
        const bool zeros = token[0] == 'z';
        const char *const text = token.c_str() + (zeros ? 1 : 0);
        char *end = nullptr;
        size_t run = 1;
        double value = 0.0;
        bool ok = true;
        if (zeros) {
            run = std::strtoull(text, &end, 10);
            ok = end != text && *end == '\0';
        } else {
            ok = parseDouble(text, value);
        }
        if (!ok)
            fatal("malformed ring section in checkpoint");
        if (run == 0 || run > values.size() - i)
            fatal("corrupt ring run length in checkpoint");
        std::fill_n(values.begin() + i, run, value);
        i += run;
    }
    if (i != values.size())
        fatal("truncated delay-ring data in checkpoint");
}

/**
 * Read past one `touch <cost> <count> <keys...>` line of a pre-v5
 * router block. Nothing is sized from `count`: a count above the
 * tokens that follow is a truncated line.
 */
void
skipTouchLine(std::istream &is)
{
    std::string tag;
    uint64_t cost = 0, count = 0;
    is >> tag >> cost >> count;
    if (tag != "touch" || !is)
        fatal("malformed touch list in checkpoint");
    uint64_t key = 0;
    while (count > 0 && is >> key)
        --count;
    if (!is)
        fatal("truncated touch list in checkpoint");
}

} // namespace

void
SpikeRouter::saveState(std::ostream &os) const
{
    os << "router " << ringDepth_ << ' ' << slotSize_ << ' '
       << shards_ << '\n';
    os << "ring";
    writeRingRle(os, ring_);
    os << '\n';
    os << "counters " << events_.value() << ' '
       << bucketsVisited_.value() << '\n';
}

void
SpikeRouter::loadState(std::istream &is, int version)
{
    std::string tag;
    size_t depth = 0, slot = 0, shards = 0;
    is >> tag >> depth >> slot >> shards;
    if (tag != "router" || !is || depth != ringDepth_ ||
        slot != slotSize_ || shards != shards_) {
        fatal("checkpoint router geometry mismatch (expected "
              "%zu x %zu x %zu)",
              ringDepth_, slotSize_, shards_);
    }
    is >> tag;
    if (tag != "ring" || !is)
        fatal("malformed ring section in checkpoint");
    readRingRle(is, ring_);

    // Before v5 the block also held the undo clear's routed and
    // stimulus touch lists, one per (slot, shard) each, and the
    // counters line had the clear and skip counts between the event
    // and bucket counts. The ring alone restores the state.
    const bool older = version < 5;
    if (older)
        for (size_t i = 0; i < 2 * ringDepth_ * shards_; ++i)
            skipTouchLine(is);
    uint64_t events = 0, dropped = 0, buckets = 0;
    is >> tag >> events;
    for (int i = 0; older && i < 4; ++i)
        is >> dropped;
    is >> buckets;
    if (tag != "counters" || !is)
        fatal("truncated router counters in checkpoint");
    events_.reset();
    events_.add(events);
    bucketsVisited_.reset();
    bucketsVisited_.add(buckets);
}

void
SpikeRouter::reset()
{
    std::fill(ring_.begin(), ring_.end(), 0.0);
    events_.reset();
    bucketsVisited_.reset();
    if (ownConn_)
        ownConn_->reset();
}

} // namespace flexon
