#include "snn/backend.hh"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <string>

#include "common/health.hh"
#include "common/logging.hh"
#include "common/text_number.hh"
#include "common/thread_pool.hh"
#include "flexon/array.hh"
#include "folded/array.hh"
#include "models/ode_neuron.hh"
#include "models/reference_batch.hh"

namespace flexon {

const char *
backendName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Reference: return "reference";
      case BackendKind::Flexon: return "flexon";
      case BackendKind::Folded: return "folded-flexon";
      default: panic("invalid backend kind %d", static_cast<int>(kind));
    }
}

void
NeuronBackend::healthProbe(size_t begin, size_t end,
                           health::HealthScan &scan) const
{
    for (size_t n = begin; n < end; ++n) {
        ++scan.checked;
        if (!std::isfinite(membrane(n))) {
            ++scan.nonFinite;
            if (scan.firstBad < 0)
                scan.firstBad = static_cast<int64_t>(n);
        }
    }
}

namespace {

/**
 * Software backend. Discrete mode runs one ReferenceBatch per
 * population (shared parameters, SoA state — see
 * models/reference_batch.hh); continuous mode keeps per-neuron
 * OdeNeuron instances, whose solver state is inherently per-neuron.
 */
class ReferenceBackend : public NeuronBackend
{
  public:
    ReferenceBackend(const Network &network, IntegrationMode mode,
                     SolverKind solver, size_t threads)
        : mode_(mode), threads_(threads == 0 ? 1 : threads)
    {
        for (size_t p = 0; p < network.numPopulations(); ++p) {
            const Population &pop = network.population(p);
            if (mode_ == IntegrationMode::Discrete) {
                bases_.push_back(numNeurons_);
                batches_.emplace_back(pop.params, pop.count);
            } else {
                for (size_t i = 0; i < pop.count; ++i)
                    continuous_.emplace_back(pop.params, solver);
            }
            numNeurons_ += pop.count;
        }
    }

    const char *name() const override { return "reference"; }

    void
    step(std::span<const double> input,
         std::vector<uint8_t> &fired) override
    {
        flexon_assert(input.size() >= numNeurons_ * maxSynapseTypes);
        // Chunked parallel neuron update on the persistent pool.
        // Each neuron's state is private and every lane writes a
        // disjoint byte range of `fired`, so no intermediate
        // flag buffer (and no per-step allocation) is needed.
        fired.resize(numNeurons_);
        uint8_t *const flags = fired.data();
        const double *const in = input.data();
        ThreadPool::global().parallelFor(
            numNeurons_, threads_,
            [&](size_t, size_t begin, size_t end) {
                if (mode_ == IntegrationMode::Discrete) {
                    // Intersect the lane's chunk with each batch, so
                    // kernel calls never straddle populations.
                    for (size_t b = 0; b < batches_.size(); ++b) {
                        const size_t base = bases_[b];
                        const size_t lo = std::max(begin, base);
                        const size_t hi = std::min(
                            end, base + batches_[b].size());
                        if (lo >= hi)
                            continue;
                        batches_[b].step(
                            in + base * maxSynapseTypes,
                            flags + base, lo - base, hi - base);
                    }
                } else {
                    for (size_t i = begin; i < end; ++i) {
                        flags[i] = continuous_[i].step(
                            input.subspan(i * maxSynapseTypes,
                                          maxSynapseTypes));
                    }
                }
            });
    }

    void
    reset() override
    {
        for (auto &batch : batches_)
            batch.reset();
        for (auto &neuron : continuous_)
            neuron.reset();
    }

    double
    membrane(size_t neuron) const override
    {
        if (mode_ != IntegrationMode::Discrete)
            return continuous_.at(neuron).state().v;
        for (size_t b = 0; b < batches_.size(); ++b) {
            if (neuron < bases_[b] + batches_[b].size())
                return batches_[b].membrane(neuron - bases_[b]);
        }
        panic("neuron index %zu outside every population", neuron);
    }

    void
    saveState(std::ostream &os) const override
    {
        os << "backend reference "
           << (mode_ == IntegrationMode::Discrete ? "discrete"
                                                  : "continuous")
           << ' ' << numNeurons_ << '\n';
        for (const ReferenceBatch &batch : batches_)
            batch.saveState(os);
        for (const OdeNeuron &neuron : continuous_) {
            const NeuronState &s = neuron.state();
            os << s.v;
            for (const double y : s.y)
                os << ' ' << y;
            for (const double g : s.g)
                os << ' ' << g;
            os << ' ' << s.w << ' ' << s.r << ' ' << s.cnt << '\n';
        }
    }

    void
    loadState(std::istream &is) override
    {
        std::string tag, name, mode;
        size_t count = 0;
        is >> tag >> name >> mode >> count;
        const char *const expected =
            mode_ == IntegrationMode::Discrete ? "discrete"
                                               : "continuous";
        if (tag != "backend" || name != "reference" ||
            mode != expected || !is || count != numNeurons_) {
            fatal("checkpoint backend state is not a %s reference "
                  "backend with %zu neurons",
                  expected, numNeurons_);
        }
        for (ReferenceBatch &batch : batches_)
            batch.loadState(is);
        for (OdeNeuron &neuron : continuous_) {
            NeuronState s;
            readDouble(is, s.v);
            for (double &y : s.y)
                readDouble(is, y);
            for (double &g : s.g)
                readDouble(is, g);
            readDouble(is, s.w);
            readDouble(is, s.r);
            is >> s.cnt;
            neuron.setState(s);
        }
        if (!is)
            fatal("truncated reference-backend state in checkpoint");
    }

    bool
    setThresholdOffset(size_t neuron, double offset) override
    {
        if (mode_ != IntegrationMode::Discrete ||
            neuron >= numNeurons_)
            return false;
        for (size_t b = 0; b < batches_.size(); ++b) {
            if (neuron < bases_[b] + batches_[b].size()) {
                batches_[b].setThresholdOffset(neuron - bases_[b],
                                               offset);
                ++parameterMutations_;
                return true;
            }
        }
        return false;
    }

    double
    thresholdOffset(size_t neuron) const override
    {
        if (mode_ != IntegrationMode::Discrete ||
            neuron >= numNeurons_)
            return 0.0;
        for (size_t b = 0; b < batches_.size(); ++b) {
            if (neuron < bases_[b] + batches_[b].size())
                return batches_[b].thresholdOffset(neuron - bases_[b]);
        }
        return 0.0;
    }

    uint64_t
    parameterMutations() const override
    {
        return parameterMutations_;
    }

    bool
    debugPoisonMembrane(size_t neuron) override
    {
        if (neuron >= numNeurons_)
            return false;
        if (mode_ != IntegrationMode::Discrete) {
            OdeNeuron &target = continuous_[neuron];
            NeuronState s = target.state();
            s.v = std::numeric_limits<double>::quiet_NaN();
            target.setState(s);
            return true;
        }
        for (size_t b = 0; b < batches_.size(); ++b) {
            const size_t base = bases_[b];
            if (neuron >= base + batches_[b].size())
                continue;
            batches_[b].setMembrane(
                neuron - base, std::numeric_limits<double>::quiet_NaN());
            return true;
        }
        return false;
    }

  private:
    IntegrationMode mode_;
    size_t threads_;
    size_t numNeurons_ = 0;
    uint64_t parameterMutations_ = 0;
    std::vector<size_t> bases_;
    std::vector<ReferenceBatch> batches_;
    std::vector<OdeNeuron> continuous_;
};

/**
 * Fixed-point array backend: the baseline Flexon array or the
 * spatially folded one. Input scaling is fused into the arrays'
 * per-population batch kernels, so the reference-unit input goes
 * straight to the array.
 */
template <typename Array>
class FixArrayBackend : public NeuronBackend
{
  public:
    FixArrayBackend(const char *name, const Network &network,
                    size_t width, double clock_hz, size_t threads)
        : name_(name), array_(width, clock_hz)
    {
        array_.setHostThreads(threads);
        for (size_t p = 0; p < network.numPopulations(); ++p) {
            const Population &pop = network.population(p);
            array_.addPopulation(FlexonConfig::fromParams(pop.params),
                                 pop.count);
        }
    }

    const char *name() const override { return name_; }

    void
    step(std::span<const double> input,
         std::vector<uint8_t> &fired) override
    {
        array_.step(input, fired);
    }

    void reset() override { array_.resetState(); }

    double
    modelSecondsPerStep() const override
    {
        return static_cast<double>(array_.cyclesPerStep()) /
               array_.clockHz();
    }

    double
    membrane(size_t neuron) const override
    {
        return array_.neuron(neuron).state().v.toDouble();
    }

    void
    saveState(std::ostream &os) const override
    {
        os << "backend " << name_ << '\n';
        array_.saveState(os);
    }

    void
    loadState(std::istream &is) override
    {
        std::string tag, name;
        is >> tag >> name;
        if (tag != "backend" || name != name_ || !is)
            fatal("checkpoint backend state is not a %s backend",
                  name_);
        array_.loadState(is);
    }

    /** Rail check of the stored fixed-point membranes. */
    void
    healthProbe(size_t begin, size_t end,
                health::HealthScan &scan) const override
    {
        for (size_t n = begin; n < end; ++n) {
            ++scan.checked;
            const int64_t raw = array_.neuron(n).state().v.raw();
            if (raw == Fix::rawMax || raw == Fix::rawMin) {
                ++scan.saturated;
                if (scan.firstBad < 0)
                    scan.firstBad = static_cast<int64_t>(n);
            }
        }
    }

  private:
    const char *name_;
    Array array_;
};

} // namespace

std::unique_ptr<NeuronBackend>
makeReferenceBackend(const Network &network, IntegrationMode mode,
                     SolverKind solver, size_t threads)
{
    return std::make_unique<ReferenceBackend>(network, mode, solver,
                                              threads);
}

std::unique_ptr<NeuronBackend>
makeFlexonBackend(const Network &network, size_t width,
                  double clock_hz, size_t threads)
{
    return std::make_unique<FixArrayBackend<FlexonArray>>(
        "flexon", network, width, clock_hz, threads);
}

std::unique_ptr<NeuronBackend>
makeFoldedBackend(const Network &network, size_t width,
                  double clock_hz, size_t threads)
{
    return std::make_unique<FixArrayBackend<FoldedFlexonArray>>(
        "folded-flexon", network, width, clock_hz, threads);
}

std::unique_ptr<NeuronBackend>
makeBackend(BackendKind kind, const Network &network,
            IntegrationMode mode, SolverKind solver, size_t threads)
{
    switch (kind) {
      case BackendKind::Reference:
        return makeReferenceBackend(network, mode, solver, threads);
      case BackendKind::Flexon:
        return makeFlexonBackend(network, FlexonArray::defaultWidth,
                                 FlexonArray::defaultClockHz, threads);
      case BackendKind::Folded:
        return makeFoldedBackend(network,
                                 FoldedFlexonArray::defaultWidth,
                                 FoldedFlexonArray::defaultClockHz,
                                 threads);
      default:
        panic("invalid backend kind %d", static_cast<int>(kind));
    }
}

} // namespace flexon
