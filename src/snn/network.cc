#include "snn/network.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace flexon {

size_t
Network::addPopulation(std::string name, const NeuronParams &params,
                       size_t count)
{
    flexon_assert(!finalized_);
    flexon_assert(count > 0);
    const std::string err = params.validate();
    if (!err.empty()) {
        fatal("population '%s' has invalid parameters: %s",
              name.c_str(), err.c_str());
    }
    Population pop;
    pop.name = std::move(name);
    pop.params = params;
    pop.base = numNeurons_;
    pop.count = count;
    populations_.push_back(std::move(pop));
    numNeurons_ += count;
    return populations_.size() - 1;
}

namespace {

/** Draw a weight around the mean with 10 % sigma, preserving sign. */
float
drawWeight(double mean, Rng &rng)
{
    const double w = rng.normal(mean, 0.1 * std::abs(mean));
    if (mean >= 0.0)
        return static_cast<float>(std::max(0.0, w));
    return static_cast<float>(std::min(0.0, w));
}

uint8_t
drawDelay(uint8_t lo, uint8_t hi, Rng &rng)
{
    if (hi <= lo)
        return lo;
    return static_cast<uint8_t>(
        lo + rng.uniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

/**
 * Row seed for (spec seed, projection index, source id): one
 * splitmix64 finalization over the xored stream ids. The Rng ctor
 * runs its own splitmix expansion on top, so distinct inputs give
 * independent streams.
 */
uint64_t
rowSeed(uint64_t seed, uint64_t projection, uint64_t src)
{
    uint64_t x = seed ^ (projection * 0x9e3779b97f4a7c15ULL) ^
                 (src * 0xbf58476d1ce4e5b9ULL);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

} // namespace

void
Network::connectRandom(size_t src_pop, size_t dst_pop,
                       double probability, double weight_mean,
                       uint8_t delay_min, uint8_t delay_max,
                       uint8_t type, Rng &rng)
{
    flexon_assert(!finalized_);
    flexon_assert(src_pop < populations_.size());
    flexon_assert(dst_pop < populations_.size());
    flexon_assert(probability >= 0.0 && probability <= 1.0);
    flexon_assert(delay_min >= 1);
    flexon_assert(type < maxSynapseTypes);

    const Population &src = populations_[src_pop];
    const Population &dst = populations_[dst_pop];
    const uint64_t threshold = Rng::bernoulliThreshold(probability);
    for (size_t s = 0; s < src.count; ++s) {
        const auto src_id = static_cast<uint32_t>(src.base + s);
        for (size_t d = 0; d < dst.count; ++d) {
            const auto dst_id = static_cast<uint32_t>(dst.base + d);
            if (src_id == dst_id)
                continue;
            if (!rng.below(threshold))
                continue;
            staging_.push_back(
                {src_id,
                 {dst_id, drawWeight(weight_mean, rng),
                  drawDelay(delay_min, delay_max, rng), type}});
        }
    }
}

void
Network::connectFixedFanout(size_t src_pop, size_t dst_pop,
                            size_t fanout, double weight_mean,
                            uint8_t delay_min, uint8_t delay_max,
                            uint8_t type, Rng &rng)
{
    flexon_assert(!finalized_);
    flexon_assert(src_pop < populations_.size());
    flexon_assert(dst_pop < populations_.size());
    flexon_assert(delay_min >= 1);
    flexon_assert(type < maxSynapseTypes);

    const Population &src = populations_[src_pop];
    const Population &dst = populations_[dst_pop];
    flexon_assert(fanout <= dst.count);

    std::vector<uint32_t> candidates(dst.count);
    for (size_t s = 0; s < src.count; ++s) {
        const auto src_id = static_cast<uint32_t>(src.base + s);
        // Partial Fisher-Yates: pick `fanout` distinct targets.
        for (size_t i = 0; i < dst.count; ++i)
            candidates[i] = static_cast<uint32_t>(dst.base + i);
        size_t avail = candidates.size();
        for (size_t k = 0; k < fanout && avail > 0; ++k) {
            const size_t pick = rng.uniformInt(avail);
            const uint32_t dst_id = candidates[pick];
            candidates[pick] = candidates[--avail];
            if (dst_id == src_id)
                continue;
            staging_.push_back(
                {src_id,
                 {dst_id, drawWeight(weight_mean, rng),
                  drawDelay(delay_min, delay_max, rng), type}});
        }
    }
}

void
Network::connectFixedFanin(size_t src_pop, size_t dst_pop,
                           size_t fanin, double weight_mean,
                           uint8_t delay_min, uint8_t delay_max,
                           uint8_t type, Rng &rng)
{
    flexon_assert(!finalized_);
    flexon_assert(src_pop < populations_.size());
    flexon_assert(dst_pop < populations_.size());
    flexon_assert(delay_min >= 1);
    flexon_assert(type < maxSynapseTypes);

    const Population &src = populations_[src_pop];
    const Population &dst = populations_[dst_pop];
    for (size_t d = 0; d < dst.count; ++d) {
        const auto dst_id = static_cast<uint32_t>(dst.base + d);
        for (size_t k = 0; k < fanin; ++k) {
            const auto src_id = static_cast<uint32_t>(
                src.base + rng.uniformInt(src.count));
            if (src_id == dst_id)
                continue;
            staging_.push_back(
                {src_id,
                 {dst_id, drawWeight(weight_mean, rng),
                  drawDelay(delay_min, delay_max, rng), type}});
        }
    }
}

void
Network::addSynapse(uint32_t src, const Synapse &synapse)
{
    flexon_assert(!finalized_);
    flexon_assert(src < numNeurons_);
    flexon_assert(synapse.target < numNeurons_);
    flexon_assert(synapse.delay >= 1);
    flexon_assert(synapse.type < maxSynapseTypes);
    staging_.push_back({src, synapse});
}

void
Network::finalize()
{
    flexon_assert(!finalized_);
    rowPtr_.assign(numNeurons_ + 1, 0);
    incomingCount_.assign(numNeurons_, 0);
    delayUsed_ = {};
    for (const auto &[src, syn] : staging_) {
        ++rowPtr_[src + 1];
        maxDelay_ = std::max(maxDelay_, syn.delay);
        ++incomingCount_[syn.target];
        delayUsed_[syn.delay] = true;
    }
    for (size_t i = 1; i <= numNeurons_; ++i)
        rowPtr_[i] += rowPtr_[i - 1];

    // Counting sort by source. Walking the staged entries in order,
    // each goes to the next free slot of its row, so same-source
    // synapses keep their insertion order (what a stable sort by
    // source gives) and save/load round-trips reproduce the CSR.
    std::vector<uint64_t> cursor(rowPtr_.begin(), rowPtr_.end() - 1);
    synapses_.resize(staging_.size());
    for (const auto &[src, syn] : staging_)
        synapses_[cursor[src]++] = syn;

    staging_.clear();
    staging_.shrink_to_fit();
    finalized_ = true;
}

void
Network::buildFromSpec(const ConnectivitySpec &spec, bool procedural)
{
    flexon_assert(!finalized_);
    flexon_assert(staging_.empty());
    for (const Projection &p : spec.projections) {
        flexon_assert(static_cast<size_t>(p.srcBase) + p.srcCount <=
                      numNeurons_);
        flexon_assert(static_cast<size_t>(p.dstBase) + p.dstCount <=
                      numNeurons_);
        flexon_assert(p.delayMin >= 1);
        flexon_assert(p.delayMax >= p.delayMin);
        flexon_assert(p.type < maxSynapseTypes);
        if (p.rule == Projection::Rule::Bernoulli)
            flexon_assert(p.probability >= 0.0 &&
                          p.probability <= 1.0);
    }
    spec_ = spec;
    hasSpec_ = true;
    procedural_ = procedural;

    // Rows are generated in ascending source order, so appending each
    // one builds the CSR directly. A procedural network keeps only
    // the geometry; rowFor() regenerates its rows on demand.
    rowPtr_.assign(numNeurons_ + 1, 0);
    incomingCount_.assign(numNeurons_, 0);
    delayUsed_ = {};
    std::vector<Synapse> row;
    for (size_t src = 0; src < numNeurons_; ++src) {
        generateRow(static_cast<uint32_t>(src), row);
        rowPtr_[src + 1] = rowPtr_[src] + row.size();
        for (const Synapse &syn : row) {
            maxDelay_ = std::max(maxDelay_, syn.delay);
            ++incomingCount_[syn.target];
            delayUsed_[syn.delay] = true;
        }
        if (!procedural)
            synapses_.insert(synapses_.end(), row.begin(), row.end());
    }
    // Drop the growth slack: connectivityBytes() counts capacity.
    synapses_.shrink_to_fit();
    synapseCount_ = rowPtr_.back();
    finalized_ = true;
}

void
Network::generateRow(uint32_t src, std::vector<Synapse> &out) const
{
    flexon_assert(hasSpec_);
    out.clear();
    for (size_t pi = 0; pi < spec_.projections.size(); ++pi) {
        const Projection &p = spec_.projections[pi];
        if (src < p.srcBase || src >= p.srcBase + p.srcCount)
            continue;
        Rng rng(rowSeed(spec_.seed, pi, src));
        if (p.rule == Projection::Rule::Bernoulli) {
            if (p.probability <= 0.0 || p.dstCount == 0)
                continue;
            if (p.probability >= 1.0) {
                for (uint32_t d = 0; d < p.dstCount; ++d) {
                    const uint32_t dst = p.dstBase + d;
                    if (dst == src)
                        continue;
                    out.push_back(
                        {dst, drawWeight(p.weightMean, rng),
                         drawDelay(p.delayMin, p.delayMax, rng),
                         p.type});
                }
                continue;
            }
            // Geometric gap sampling: the number of misses before
            // the next Bernoulli(p) hit is floor(log(1-u)/log(1-p)),
            // one uniform per realized synapse instead of one per
            // candidate pair.
            const double logq = std::log1p(-p.probability);
            uint64_t idx = 0;
            while (idx < p.dstCount) {
                const double u = rng.uniform();
                const double gap = std::floor(std::log1p(-u) / logq);
                if (!(gap <
                      static_cast<double>(p.dstCount - idx)))
                    break;
                idx += static_cast<uint64_t>(gap);
                const uint32_t dst =
                    p.dstBase + static_cast<uint32_t>(idx);
                ++idx;
                if (dst == src)
                    continue; // autapse skipped, no extra draws
                out.push_back(
                    {dst, drawWeight(p.weightMean, rng),
                     drawDelay(p.delayMin, p.delayMax, rng),
                     p.type});
            }
        } else {
            if (p.dstCount == 0)
                continue;
            // Fixed out-degree with replacement (multapses kept, as
            // in the NEST fixed-degree rules); an autapse draw is
            // dropped without consuming the weight/delay draws.
            for (uint32_t k = 0; k < p.fanout; ++k) {
                const uint32_t dst =
                    p.dstBase + static_cast<uint32_t>(
                                    rng.uniformInt(p.dstCount));
                if (dst == src)
                    continue;
                out.push_back(
                    {dst, drawWeight(p.weightMean, rng),
                     drawDelay(p.delayMin, p.delayMax, rng),
                     p.type});
            }
        }
    }
}

std::span<const Synapse>
Network::rowFor(uint32_t src, std::vector<Synapse> &scratch) const
{
    if (!procedural_)
        return outgoing(src);
    flexon_assert(finalized_);
    flexon_assert(src < numNeurons_);
    generateRow(src, scratch);
    flexon_assert(scratch.size() ==
                  rowPtr_[src + 1] - rowPtr_[src]);
    if (!overlay_.empty()) {
        const uint64_t base = rowPtr_[src];
        for (size_t k = 0; k < scratch.size(); ++k) {
            const auto it = overlay_.find(base + k);
            if (it != overlay_.end())
                scratch[k].weight = it->second;
        }
    }
    return {scratch.data(), scratch.size()};
}

const ConnectivitySpec &
Network::connectivitySpec() const
{
    flexon_assert(hasSpec_);
    return spec_;
}

const Population &
Network::population(size_t i) const
{
    flexon_assert(i < populations_.size());
    return populations_[i];
}

const Population &
Network::populationOf(size_t neuron) const
{
    flexon_assert(neuron < numNeurons_);
    for (const Population &pop : populations_) {
        if (neuron >= pop.base && neuron < pop.base + pop.count)
            return pop;
    }
    panic("neuron %zu not covered by any population", neuron);
}

std::span<const Synapse>
Network::outgoing(uint32_t src) const
{
    flexon_assert(finalized_);
    flexon_assert(src < numNeurons_);
    if (procedural_)
        fatal("outgoing(): procedural networks store no synapse "
              "rows; use rowFor()");
    const uint64_t begin = rowPtr_[src];
    const uint64_t end = rowPtr_[src + 1];
    return {synapses_.data() + begin, end - begin};
}

uint64_t
Network::rowStart(uint32_t src) const
{
    flexon_assert(finalized_);
    flexon_assert(src < numNeurons_);
    return rowPtr_[src];
}

void
Network::logWeightMutation(uint64_t index)
{
    if (weightLog_.empty())
        weightLog_.resize(weightLogCapacity);
    weightLog_[weightMutations_ % weightLogCapacity] = index;
    ++weightMutations_;
}

const Synapse &
Network::synapseAt(uint64_t index) const
{
    flexon_assert(finalized_);
    if (procedural_)
        fatal("synapseAt(): procedural networks store no synapse "
              "rows; use rowFor()");
    flexon_assert(index < synapses_.size());
    return synapses_[index];
}

void
Network::setSynapseWeight(uint64_t index, float weight)
{
    flexon_assert(finalized_);
    flexon_assert(index < numSynapses());
    if (procedural_)
        overlay_[index] = weight;
    else
        synapses_[index].weight = weight;
    logWeightMutation(index);
}

bool
Network::overlayWeight(uint64_t index, float &weight) const
{
    const auto it = overlay_.find(index);
    if (it == overlay_.end())
        return false;
    weight = it->second;
    return true;
}

std::vector<std::pair<uint64_t, float>>
Network::sortedOverlay() const
{
    std::vector<std::pair<uint64_t, float>> entries(overlay_.begin(),
                                                    overlay_.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    return entries;
}

void
Network::clearWeightOverlay()
{
    overlay_.clear();
    // Flood the log: anything holding a pre-clear watermark is now
    // more than a ring behind and must refresh every weight.
    weightMutations_ += weightLogCapacity + 1;
    if (weightLog_.empty() && weightMutations_ > 0)
        weightLog_.resize(weightLogCapacity);
}

uint32_t
Network::sourceOfSynapse(uint64_t index) const
{
    flexon_assert(finalized_);
    flexon_assert(index < numSynapses());
    // First row whose end exceeds `index`.
    const auto it = std::upper_bound(rowPtr_.begin() + 1,
                                     rowPtr_.end(), index);
    return static_cast<uint32_t>(it - (rowPtr_.begin() + 1));
}

size_t
Network::connectivityBytes() const
{
    // unordered_map heap estimate: one node (pair + hash link) per
    // entry plus the bucket array.
    const size_t overlayBytes =
        overlay_.size() *
            (sizeof(std::pair<uint64_t, float>) + 2 * sizeof(void *)) +
        overlay_.bucket_count() * sizeof(void *);
    return synapses_.capacity() * sizeof(Synapse) +
           staging_.capacity() * sizeof(staging_[0]) +
           rowPtr_.capacity() * sizeof(uint64_t) +
           incomingCount_.capacity() * sizeof(uint32_t) +
           weightLog_.capacity() * sizeof(uint64_t) + overlayBytes;
}

} // namespace flexon
