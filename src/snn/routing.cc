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

namespace {

/** Touch key of a routed run: its delay bucket and fired source. */
constexpr uint64_t
touchKey(size_t bucket, uint32_t src)
{
    return (static_cast<uint64_t>(bucket) << 32) | src;
}

} // namespace

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
      denseClears_(metrics_.counter("snn.router.dense_clears",
                                    "ring-slot clears via dense fill")),
      sparseClears_(metrics_.counter(
          "snn.router.sparse_clears",
          "ring-slot clears via tracked-write undo")),
      cellsCleared_(metrics_.counter(
          "snn.router.cells_cleared",
          "cells zeroed by sparse clears (incl. duplicates)")),
      shardsSkipped_(metrics_.counter(
          "snn.router.shards_skipped",
          "target shards skipped entirely by sparse delivery")),
      bucketsVisited_(metrics_.counter(
          "snn.router.buckets_visited",
          "(source, shard, delay-bucket) runs streamed by delivery")),
      conn_(provider), shards_(conn_.shardCount()),
      ringDepth_(static_cast<size_t>(network.maxDelay()) + 1),
      slotSize_(network.numNeurons() * maxSynapseTypes)
{
    if (slotSize_ > 0) {
        touchedCellsCounter_ = &metrics_.counter(
            "route.touched_cells",
            "ring cells tracked as written, summed over steps");
        occupancyHist_ = &metrics_.histogram(
            "route.ring_occupancy", 0.0, 1.0, 20,
            "per-step fraction of the consumed slot's cells "
            "tracked as written (1.0 = saturated/dense)");
    }
    ring_.assign(ringDepth_ * slotSize_, 0.0);
    slotBase_.assign(ringDepth_, nullptr);
    touchBase_.assign(ringDepth_, nullptr);
    const size_t shards = shards_;
    scratch_.resize(shards);
    laneEvents_.assign(shards, 0);
    laneBuckets_.assign(shards, 0);
    laneDense_.assign(shards, 0);
    routeMask_.assign(shards, 0);
    activeShards_.reserve(shards);

    // Crossover between undoing tracked writes and a dense fill: the
    // sequential std::fill streams ~4x faster per cell than scattered
    // zeroing, so clear sparsely only below a quarter of the shard's
    // cell range. The touch lists share the budget, so a saturated
    // list always implies a dense clear for its shard.
    shardClearBudget_.assign(shards, 1);
    const auto &targetBegin = conn_.shardTargetBegin();
    touched_.reserve(ringDepth_ * shards);
    stimTouched_.reserve(ringDepth_ * shards);
    for (size_t s = 0; s < shards; ++s) {
        const uint64_t cells =
            static_cast<uint64_t>(targetBegin[s + 1] -
                                  targetBegin[s]) *
            maxSynapseTypes;
        shardClearBudget_[s] = cells / 4 + 1;
    }
    for (size_t slot = 0; slot < ringDepth_; ++slot)
        for (size_t s = 0; s < shards; ++s)
            touched_.emplace_back(shardClearBudget_[s]);
    for (size_t slot = 0; slot < ringDepth_; ++slot)
        for (size_t s = 0; s < shards; ++s)
            stimTouched_.emplace_back(shardClearBudget_[s]);
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
SpikeRouter::laneClear(size_t slotIdx, size_t shard, bool dense)
{
    double *const base = ring_.data() + slotIdx * slotSize_;

    if (dense) {
        const auto &targetBegin = conn_.shardTargetBegin();
        const uint32_t cellLo = targetBegin[shard] * maxSynapseTypes;
        const uint32_t cellHi =
            targetBegin[shard + 1] * maxSynapseTypes;
        std::fill(base + cellLo, base + cellHi, 0.0);
    } else {
        // Undo the tracked writes of this shard only; lanes never
        // touch another shard's cells. A routed key names one run of
        // a fired row; re-walking the row finds it again (topology is
        // immutable, so the row covers exactly the cells the delivery
        // wrote — decoding providers regenerate it into the lane's
        // scratch).
        for (const uint64_t cell : stimTouch(slotIdx, shard).keys())
            base[cell] = 0.0;
        RowScratch &scratch = scratch_[shard];
        for (const uint64_t key : touch(slotIdx, shard).keys()) {
            const auto bucket = static_cast<uint32_t>(key >> 32);
            const RowView row = conn_.rowSpan(
                static_cast<uint32_t>(key), shard, scratch);
            const DeliveryRecord *rec = row.records;
            for (const uint32_t header : row.runs) {
                const uint32_t len = runHeaderLength(header);
                if (runHeaderBucket(header) == bucket) {
                    for (uint32_t k = 0; k < len; ++k)
                        base[rec[k].cell] = 0.0;
                    break;
                }
                rec += len;
            }
        }
    }
    touch(slotIdx, shard).clear();
    stimTouch(slotIdx, shard).clear();
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
            const size_t b = runHeaderBucket(header);
            const uint32_t len = runHeaderLength(header);
            const uint8_t delay = conn_.bucketDelay(b);
            double *const base = slotBase_[delay];
            TouchList &pending = touchBase_[delay][shard];
            // A saturated slot is already committed to a dense clear,
            // so tracking further writes buys nothing.
            if (!pending.saturated())
                pending.add(touchKey(b, n), len);
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

    // Dense/sparse decision for the consumed slot, per shard:
    // tracked undo cost vs. the shard's crossover budget. Saturated
    // touch lists have cost >= budget, so an incomplete key list
    // always forces the dense path for its shard.
    uint64_t totalCost = 0;
    bool anyDense = false;
    for (size_t s = 0; s < shards; ++s) {
        const uint64_t cost =
            stimTouch(slotIdx, s).cost() + touch(slotIdx, s).cost();
        totalCost += cost;
        laneDense_[s] = cost >= shardClearBudget_[s] ? 1 : 0;
        anyDense = anyDense || laneDense_[s] != 0;
    }
    if (anyDense) {
        denseClears_.add(1);
    } else {
        sparseClears_.add(1);
        cellsCleared_.add(totalCost);
    }
    if (occupancyHist_ != nullptr && telemetry::detailEnabled()) {
        touchedCellsCounter_->add(totalCost);
        occupancyHist_->sample(static_cast<double>(totalCost) /
                               static_cast<double>(slotSize_));
    }

    // Route-activity masks: OR the fired sources' per-shard bucket
    // bitmaps. Without exact masks (> 64 delay buckets) any firing
    // marks every shard active.
    const bool exact = conn_.rowMasksExact();
    const bool haveRoute =
        !fired.empty() && conn_.bucketCount() > 0;
    std::fill(routeMask_.begin(), routeMask_.end(), 0);
    if (haveRoute) {
        if (exact) {
            for (const uint32_t n : fired) {
                const uint64_t *const m = conn_.rowMaskRow(n);
                for (size_t s = 0; s < shards; ++s)
                    routeMask_[s] |= m[s];
            }
        } else {
            std::fill(routeMask_.begin(), routeMask_.end(),
                      ~uint64_t{0});
        }
    }

    // Compact the shards that have any work: route deliveries or a
    // non-empty consumed slot. The rest are skipped outright — their
    // slot region is already zero and nothing routes into them.
    activeShards_.clear();
    for (size_t s = 0; s < shards; ++s) {
        const bool clearWork =
            stimTouch(slotIdx, s).cost() + touch(slotIdx, s).cost() >
            0;
        if (clearWork || routeMask_[s] != 0)
            activeShards_.push_back(static_cast<uint32_t>(s));
    }
    shardsSkipped_.add(shards - activeShards_.size());
    if (activeShards_.empty())
        return;

    if (haveRoute) {
        for (size_t d = 0; d < ringDepth_; ++d) {
            const size_t slot = (t + d) % ringDepth_;
            slotBase_[d] = ring_.data() + slot * slotSize_;
            touchBase_[d] = touched_.data() + slot * shards;
        }
    }

    auto laneWork = [&](size_t i) {
        const size_t s = activeShards_[i];
        laneEvents_[s] = 0;
        laneBuckets_[s] = 0;
        laneClear(slotIdx, s, laneDense_[s] != 0);
        if (routeMask_[s] != 0)
            laneRoute(s, fired);
    };
    if (!haveRoute) {
        // Clear-only step: stay inline regardless of shard count —
        // the undo work is tiny and never worth a pool barrier.
        for (size_t i = 0; i < activeShards_.size(); ++i)
            laneWork(i);
    } else {
        ThreadPool::global().forEachLane(activeShards_.size(),
                                         laneWork);
    }
    uint64_t events = 0;
    uint64_t visited = 0;
    for (const uint32_t s : activeShards_) {
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

void
writeTouchList(std::ostream &os, const TouchList &list)
{
    const auto keys = list.keys();
    os << "touch " << list.cost() << ' ' << keys.size();
    for (const uint64_t key : keys)
        os << ' ' << key;
    os << '\n';
}

/** One checkpointed touch list: its undo cost and stored keys. */
struct TouchLine
{
    uint64_t cost = 0;
    std::vector<uint64_t> keys;
};

/**
 * Read one `touch <cost> <count> <keys...>` line. A list stores keys
 * only while its cost is under `budget`, and every key costs at least
 * 1, so a count above the budget is corrupt — and must not size an
 * allocation.
 */
TouchLine
readTouchLine(std::istream &is, uint64_t budget)
{
    std::string tag;
    TouchLine line;
    uint64_t count = 0;
    is >> tag >> line.cost >> count;
    if (tag != "touch" || !is || count > budget)
        fatal("malformed touch list in checkpoint");
    line.keys.resize(count);
    for (uint64_t &key : line.keys)
        is >> key;
    if (!is)
        fatal("truncated touch list in checkpoint");
    return line;
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
    for (const TouchList &list : touched_)
        writeTouchList(os, list);
    for (const TouchList &list : stimTouched_)
        writeTouchList(os, list);
    os << "counters";
    for (const telemetry::Counter *c : counters())
        os << ' ' << c->value();
    os << '\n';
}

void
SpikeRouter::loadState(std::istream &is)
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

    // laneClear walks every restored key, so a key this router could
    // not have written would clear outside its shard or the ring.
    const uint64_t neurons = slotSize_ / maxSynapseTypes;
    for (size_t i = 0; i < touched_.size(); ++i) {
        const size_t shard = i % shards_;
        TouchLine line = readTouchLine(is, shardClearBudget_[shard]);
        bool rangeKey = false;
        for (const uint64_t key : line.keys) {
            if ((key >> 63) != 0) {
                rangeKey = true;
                continue;
            }
            const uint64_t bucket = key >> 32;
            const auto src = static_cast<uint32_t>(key);
            if (bucket >= conn_.bucketCount() || src >= neurons ||
                (conn_.rowMasksExact() &&
                 ((conn_.rowMask(src, shard) >> bucket) & 1) == 0)) {
                fatal("touch key %llu is outside shard %zu of the "
                      "routing geometry in checkpoint",
                      static_cast<unsigned long long>(key), shard);
            }
        }
        if (rangeKey) {
            // Older builds keyed runs by record ranges into arrays
            // this build does not have. Restored saturated, the list
            // forces a dense clear of its shard, which zeroes every
            // cell any of its keys could name.
            line.keys.clear();
            line.cost = std::max(line.cost, shardClearBudget_[shard]);
        }
        touched_[i].restore(std::move(line.keys), line.cost);
    }
    for (size_t i = 0; i < stimTouched_.size(); ++i) {
        const size_t shard = i % shards_;
        TouchLine line = readTouchLine(is, shardClearBudget_[shard]);
        for (const uint64_t cell : line.keys) {
            if (cell >= slotSize_ ||
                conn_.shardOfCell(static_cast<uint32_t>(cell)) !=
                    shard) {
                fatal("stimulus cell %llu is outside shard %zu of "
                      "the ring in checkpoint",
                      static_cast<unsigned long long>(cell), shard);
            }
        }
        stimTouched_[i].restore(std::move(line.keys), line.cost);
    }
    is >> tag;
    for (telemetry::Counter *c : counters()) {
        uint64_t value = 0;
        is >> value;
        c->reset();
        c->add(value);
    }
    if (tag != "counters" || !is)
        fatal("truncated router counters in checkpoint");
}

void
SpikeRouter::reset()
{
    std::fill(ring_.begin(), ring_.end(), 0.0);
    for (TouchList &list : touched_)
        list.clear();
    for (TouchList &list : stimTouched_)
        list.clear();
    for (telemetry::Counter *c : counters())
        c->reset();
    if (ownConn_)
        ownConn_->reset();
}

} // namespace flexon
