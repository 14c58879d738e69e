#include "snn/simulator.hh"

#include "common/logging.hh"

namespace flexon {

DenseEngine::DenseEngine(const Network &network,
                         const SimulatorOptions &options,
                         ConnectivityProvider &connectivity,
                         telemetry::Registry &metrics)
    : network_(network), backendKind_(options.backend),
      connectivity_(options.connectivity),
      backend_(makeBackend(options.backend, network, options.mode,
                           options.solver, options.threads)),
      router_(network, connectivity, &metrics)
{
}

void
DenseEngine::injectStimulus(uint64_t t,
                            std::span<const StimulusSpike> spikes)
{
    auto current = router_.slot(t);
    for (const StimulusSpike &s : spikes) {
        flexon_assert(s.target < network_.numNeurons());
        flexon_assert(s.type < maxSynapseTypes);
        const uint32_t cell = s.target * maxSynapseTypes + s.type;
        current[cell] += s.weight;
        router_.noteStimulus(t, cell);
    }
}

void
DenseEngine::stepNeurons(uint64_t t, std::vector<uint8_t> &fired)
{
    backend_->step(router_.slot(t), fired);
}

void
DenseEngine::deliverSpikes(uint64_t t, std::span<const uint32_t> fired)
{
    // Clear the consumed slot (activity-proportionally) and stream
    // the fired rows' delivery records into the t + delay slots —
    // bit-identical to the serial scan at any thread count (see
    // snn/routing.hh).
    router_.routeStep(t, fired);
}

void
DenseEngine::reset()
{
    backend_->reset();
    router_.reset();
}

double
DenseEngine::modelSecondsPerStep() const
{
    return backend_->modelSecondsPerStep();
}

void
DenseEngine::reportConfig(telemetry::ReportFields &config) const
{
    config.emplace_back("backend",
                        telemetry::jsonQuoted(backendName(backendKind_)));
    config.emplace_back("connectivity",
                        telemetry::jsonQuoted(
                            connectivityKindName(connectivity_)));
}

void
DenseEngine::saveState(std::ostream &os) const
{
    backend_->saveState(os);
    router_.saveState(os);
}

void
DenseEngine::loadState(std::istream &is, uint64_t)
{
    backend_->loadState(is);
    router_.loadState(is);
}

void
DenseEngine::healthScan(uint64_t begin, uint64_t end,
                        health::HealthScan &scan) const
{
    backend_->healthProbe(static_cast<size_t>(begin),
                          static_cast<size_t>(end), scan);
}

double
DenseEngine::membrane(uint32_t neuron, uint64_t) const
{
    return backend_->membrane(neuron);
}

bool
DenseEngine::debugPoisonMembrane(uint32_t neuron)
{
    return backend_->debugPoisonMembrane(neuron);
}

void
DenseEngine::exportTransfer(uint64_t now, EngineTransfer &out) const
{
    const bool exported =
        backend_->exportLlifState(out.v, out.refractory);
    flexon_assert(exported);
    out.t = now;
    router_.exportRing(out.t, out.ring);
}

void
DenseEngine::importTransfer(const EngineTransfer &in)
{
    const bool imported = backend_->importLlifState(in.v, in.refractory);
    flexon_assert(imported);
    router_.importRing(in.t, in.ring);
}

} // namespace flexon
