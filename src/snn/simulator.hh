/**
 * @file
 * The dense delivery engine: evaluates the three per-step phases of
 * Section II-C — stimulus generation, neuron computation, synapse
 * calculation — for every neuron every step. Orchestration (stimulus
 * stream, recording, stats, reports, reset, checkpointing) lives in
 * the session (snn/session.hh), which owns this engine; the engine
 * supplies the dense phase bodies: a pluggable NeuronBackend
 * evaluates every neuron each step, and a SpikeRouter delivers spikes
 * from the rows of a connectivity provider.
 *
 * Spike propagation uses a delay ring buffer: a fired neuron's
 * synaptic weights are accumulated into the input buffer of time step
 * t + delay; the neuron-computation phase of step t consumes buffer
 * slot t mod D, where D is the network's maximum delay + 1.
 */

#ifndef FLEXON_SNN_SIMULATOR_HH
#define FLEXON_SNN_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "snn/backend.hh"
#include "snn/network.hh"
#include "snn/routing.hh"
#include "snn/session.hh"
#include "snn/stimulus.hh"

namespace flexon {

/** The dense engine: NeuronBackend + SpikeRouter. */
class DenseEngine : public DeliveryEngine
{
  public:
    /** Builds the backend and a router over `connectivity`, the
     *  session's provider. `network`, `connectivity` and `metrics`
     *  (where the router's counters live) must outlive the engine. */
    DenseEngine(const Network &network, const SimulatorOptions &options,
                ConnectivityProvider &connectivity,
                telemetry::Registry &metrics);

    NeuronBackend &backend() { return *backend_; }
    const SpikeRouter &router() const { return router_; }

    const char *kind() const override { return "dense"; }
    void injectStimulus(uint64_t t,
                        std::span<const StimulusSpike> spikes) override;
    void stepNeurons(uint64_t t, std::vector<uint8_t> &fired) override;
    void deliverSpikes(uint64_t t,
                       std::span<const uint32_t> fired) override;
    void reset() override;
    double modelSecondsPerStep() const override;
    void reportConfig(telemetry::ReportFields &config) const override;
    void saveState(std::ostream &os) const override;
    void loadState(std::istream &is, uint64_t now) override;
    void healthScan(uint64_t begin, uint64_t end,
                    health::HealthScan &scan) const override;
    double membrane(uint32_t neuron, uint64_t now) const override;
    bool debugPoisonMembrane(uint32_t neuron) override;

    /**
     * Engine hand-off: the backend expresses its neuron state as LLIF
     * (v, refractory) arrays — the Reference backend in discrete
     * mode. The ring is exchanged as accumulated per-cell doubles, so
     * the receiving engine continues the exact addition sequence.
     */
    void exportTransfer(uint64_t now, EngineTransfer &out) const override;
    void importTransfer(const EngineTransfer &in) override;

  private:
    const Network &network_;
    BackendKind backendKind_;
    ConnectivityKind connectivity_;
    std::unique_ptr<NeuronBackend> backend_;
    /**
     * Spike delivery from the session's provider: delay ring and
     * activity-proportional ring maintenance (snn/routing.hh).
     * Shard count == configured threads; results are bit-identical
     * to serial at any thread count.
     */
    SpikeRouter router_;
};

} // namespace flexon

#endif // FLEXON_SNN_SIMULATOR_HH
