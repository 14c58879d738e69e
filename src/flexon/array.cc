#include "flexon/array.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace flexon {

FlexonArray::FlexonArray(size_t width, double clockHz)
    : width_(width), clockHz_(clockHz)
{
    flexon_assert(width > 0);
    flexon_assert(clockHz > 0.0);
}

PopulationId
FlexonArray::addPopulation(const FlexonConfig &config, size_t count)
{
    flexon_assert(count > 0);
    flexon_assert(config.features.valid());
    populations_.push_back({numNeurons_, count, config});
    state_.emplace_back();
    state_.back().resize(count, config.numSynapseTypes);
    kernels_.push_back(selectStepKernel(config.features));

    // Dispatch-mix telemetry is keyed by feature mask, so every
    // population (and every array) with the same composition shares
    // one set of process-wide counters.
    auto &registry = telemetry::Registry::global();
    const std::string prefix =
        "kernel." + config.features.toString() +
        (kernels_.back().specialized ? "" : ".generic");
    popTelemetry_.push_back(
        {&registry.counter(prefix + ".calls",
                           "batch-kernel invocations"),
         &registry.counter(prefix + ".neurons",
                           "neuron slots stepped"),
         &registry.counter(prefix + ".blocked",
                           "refractory-blocked slots entering the "
                           "step"),
         &registry.counter(prefix + ".zero_input",
                           "all-zero input rows entering the fused "
                           "step")});

    numNeurons_ += count;
    return populations_.size() - 1;
}

uint64_t
FlexonArray::cyclesPerStep() const
{
    // Single-cycle design: each lane evaluates one neuron per cycle.
    return (numNeurons_ + width_ - 1) / width_;
}

void
FlexonArray::notePopulationSlice(size_t p, const double *input,
                                 size_t lo, size_t hi) const
{
    const PopulationInfo &pop = populations_[p];
    const PopulationTelemetry &pt = popTelemetry_[p];
    pt.calls->add(1);
    pt.neurons->add(hi - lo);
    // Sampled before the kernel runs: the kernel itself decrements
    // the refractory counters of the slots it skips.
    if (pop.config.features.has(Feature::AR)) {
        const uint32_t *const cnt = state_[p].cnt.data();
        uint64_t blocked = 0;
        for (size_t i = lo - pop.base; i < hi - pop.base; ++i)
            blocked += cnt[i] > 0 ? 1 : 0;
        if (blocked > 0)
            pt.blocked->add(blocked);
    }
    // Rows whose live synapse-type cells are all zero skip the
    // double->Fix conversion in the kernel.
    const size_t types = pop.config.numSynapseTypes;
    uint64_t zeroRows = 0;
    for (size_t i = lo; i < hi; ++i) {
        const double *const row = input + i * maxSynapseTypes;
        bool zero = true;
        for (size_t s = 0; s < types; ++s)
            zero = zero && row[s] == 0.0;
        zeroRows += zero ? 1 : 0;
    }
    if (zeroRows > 0)
        pt.zeroInput->add(zeroRows);
}

void
FlexonArray::step(std::span<const double> input,
                  std::vector<uint8_t> &fired)
{
    flexon_assert(input.size() >= numNeurons_ * maxSynapseTypes);
    const double *const in = input.data();
    fired.resize(numNeurons_);
    uint8_t *const flags = fired.data();
    // Chunks are intersected with population ranges, so every kernel
    // call stays inside one population and lane boundaries never
    // change which kernel touches which neuron.
    ThreadPool::global().parallelFor(
        numNeurons_, hostThreads_,
        [&](size_t, size_t begin, size_t end) {
            for (size_t p = 0; p < populations_.size(); ++p) {
                const PopulationInfo &pop = populations_[p];
                const size_t lo = std::max(begin, pop.base);
                const size_t hi = std::min(end, pop.base + pop.count);
                if (lo >= hi)
                    continue;
                if (telemetry::detailEnabled())
                    notePopulationSlice(p, in, lo, hi);
                KernelArgs args;
                args.config = &pop.config;
                args.soa = &state_[p];
                args.refInput = in + pop.base * maxSynapseTypes;
                args.fired = flags + pop.base;
                kernels_[p].step(args, lo - pop.base, hi - pop.base);
            }
        });
    cycles_ += cyclesPerStep();
}

std::pair<size_t, size_t>
FlexonArray::locate(size_t idx) const
{
    flexon_assert(idx < numNeurons_);
    for (size_t p = 0; p < populations_.size(); ++p) {
        const PopulationInfo &pop = populations_[p];
        if (idx < pop.base + pop.count)
            return {p, idx - pop.base};
    }
    panic("neuron index %zu outside every population", idx);
}

FlexonNeuronView
FlexonArray::neuron(size_t idx) const
{
    const auto [p, i] = locate(idx);
    return {populations_[p].config, state_[p], i};
}

void
FlexonArray::setNeuron(size_t idx, const FlexonState &state,
                       Fix preResetV)
{
    const auto [p, i] = locate(idx);
    PopulationSoA &soa = state_[p];
    soa.v[i] = state.v;
    soa.w[i] = state.w;
    soa.r[i] = state.r;
    soa.cnt[i] = state.cnt;
    soa.preResetV[i] = preResetV;
    for (size_t t = 0; t < soa.numTypes; ++t) {
        soa.y[t * soa.count + i] = state.y[t];
        soa.g[t * soa.count + i] = state.g[t];
    }
}

bool
FlexonArray::populationSpecialized(PopulationId p) const
{
    flexon_assert(p < kernels_.size());
    return kernels_[p].specialized;
}

void
FlexonArray::resetState()
{
    for (auto &soa : state_)
        soa.reset();
}

namespace {

void
writeFixArray(std::ostream &os, const std::vector<Fix> &a)
{
    for (const Fix x : a)
        os << ' ' << x.raw();
}

void
readFixArray(std::istream &is, std::vector<Fix> &a)
{
    for (Fix &x : a) {
        int64_t raw = 0;
        is >> raw;
        x = Fix::fromRaw(raw);
    }
}

/** Write a type-major y/g array in neuron-major order. */
void
writeTypeArray(std::ostream &os, const PopulationSoA &soa,
               const std::vector<Fix> &a)
{
    for (size_t i = 0; i < soa.count; ++i) {
        for (size_t t = 0; t < soa.numTypes; ++t)
            os << ' ' << a[t * soa.count + i].raw();
    }
}

/** Read a neuron-major y/g array into type-major storage. */
void
readTypeArray(std::istream &is, const PopulationSoA &soa,
              std::vector<Fix> &a)
{
    for (size_t i = 0; i < soa.count; ++i) {
        for (size_t t = 0; t < soa.numTypes; ++t) {
            int64_t raw = 0;
            is >> raw;
            a[t * soa.count + i] = Fix::fromRaw(raw);
        }
    }
}

} // namespace

void
FlexonArray::saveState(std::ostream &os) const
{
    os << "flexon-array " << state_.size() << ' ' << cycles_ << '\n';
    for (const PopulationSoA &soa : state_) {
        os << "soa " << soa.count << ' ' << soa.numTypes;
        writeFixArray(os, soa.v);
        writeFixArray(os, soa.w);
        writeFixArray(os, soa.r);
        writeFixArray(os, soa.preResetV);
        writeTypeArray(os, soa, soa.y);
        writeTypeArray(os, soa, soa.g);
        for (const uint32_t c : soa.cnt)
            os << ' ' << c;
        os << '\n';
    }
}

void
FlexonArray::loadState(std::istream &is)
{
    std::string tag;
    size_t pops = 0;
    is >> tag >> pops >> cycles_;
    if (tag != "flexon-array" || !is || pops != state_.size())
        fatal("checkpoint flexon-array shape mismatch (expected %zu "
              "populations)",
              state_.size());
    for (PopulationSoA &soa : state_) {
        size_t count = 0, stride = 0;
        is >> tag >> count >> stride;
        if (tag != "soa" || !is || count != soa.count ||
            stride != soa.numTypes) {
            fatal("checkpoint population shape mismatch (expected "
                  "%zu x %zu)",
                  soa.count, soa.numTypes);
        }
        readFixArray(is, soa.v);
        readFixArray(is, soa.w);
        readFixArray(is, soa.r);
        readFixArray(is, soa.preResetV);
        readTypeArray(is, soa, soa.y);
        readTypeArray(is, soa, soa.g);
        for (uint32_t &c : soa.cnt)
            is >> c;
    }
    if (!is)
        fatal("truncated flexon-array state in checkpoint");
}

} // namespace flexon
