/**
 * @file
 * The dense SNN simulation engine: evaluates the three per-step
 * phases of Section II-C — stimulus generation, neuron computation,
 * synapse calculation — and times each phase (the Figure 3
 * breakdown). Orchestration (stimulus stream, recording, stats,
 * reports, reset, checkpointing) lives in the shared
 * SimulationSession core; this class supplies the dense phase
 * bodies: a pluggable NeuronBackend evaluates every neuron each
 * step, and a SpikeRouter delivers spikes from the rows of a
 * connectivity provider.
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

/** Options controlling a simulation run: the session options plus
 *  the dense engine's backend and connectivity choices. */
struct SimulatorOptions : SessionOptions
{
    BackendKind backend = BackendKind::Reference;
    IntegrationMode mode = IntegrationMode::Discrete;
    SolverKind solver = SolverKind::Euler;
    /**
     * Connectivity representation spikes are delivered from
     * (snn/connectivity.hh). Materialized is the precompiled
     * record array; compressed and procedural trade delivery-time
     * decoding for 4-100x smaller memory footprints, bit-identical
     * results.
     */
    ConnectivityKind connectivity = ConnectivityKind::Materialized;
};

/** The dense three-phase SNN simulation engine. */
class Simulator : public SimulationSession
{
  public:
    /**
     * @param network finalized network topology (kept by reference;
     *        must outlive the simulator)
     * @param stimulus stimulus sources (copied)
     */
    Simulator(const Network &network, StimulusGenerator stimulus,
              const SimulatorOptions &options = {});

    NeuronBackend &backend() { return *backend_; }

    /**
     * Membrane potential of one neuron as of the last completed
     * step, in reference units.
     */
    double membrane(uint32_t neuron) const override
    {
        return backend_->membrane(neuron);
    }

    /**
     * The delivery engine: connectivity provider + delay ring
     * (read-only; for tests, benchmarks and diagnostics).
     */
    const SpikeRouter &router() const { return *router_; }

    /** The raw delay ring (for equivalence tests). */
    const std::vector<double> &ringBuffer() const
    {
        return router_->ringBuffer();
    }

    /** Test/CI hook: NaN-poison one neuron (see NeuronBackend). */
    bool debugPoisonMembrane(uint32_t neuron) override
    {
        return backend_->debugPoisonMembrane(neuron);
    }

  protected:
    const char *engineKind() const override { return "dense"; }
    void engineInjectStimulus(
        uint64_t t, std::span<const StimulusSpike> spikes) override;
    void engineStepNeurons(uint64_t t,
                           std::vector<uint8_t> &fired) override;
    void enginePrepareDelivery() override;
    void engineDeliverSpikes(
        uint64_t t, std::span<const uint32_t> fired) override;
    void engineReset() override;
    double engineModelSecondsPerStep() const override;
    void engineReportConfig(
        telemetry::ReportFields &config) const override;
    void engineSaveState(std::ostream &os) const override;
    void engineLoadState(std::istream &is) override;
    void engineHealthScan(uint64_t begin, uint64_t end,
                          health::HealthScan &scan) const override;

  public:
    /**
     * Engine hand-off (rate-adaptive switch): supported when the
     * backend can express its neuron state as LLIF (v, refractory)
     * arrays — the Reference backend in discrete mode. The ring is
     * exchanged as accumulated per-cell doubles, so the receiving
     * engine continues the exact addition sequence.
     */
    bool engineExportTransfer(EngineTransfer &out) const override;
    bool engineImportTransfer(const EngineTransfer &in) override;

  private:
    SimulatorOptions options_;
    std::unique_ptr<NeuronBackend> backend_;
    /**
     * Spike delivery: connectivity provider, delay ring, and
     * activity-proportional ring maintenance (snn/routing.hh).
     * Shard count == configured threads; results are bit-identical
     * to serial at any thread count.
     */
    std::unique_ptr<SpikeRouter> router_;
};

} // namespace flexon

#endif // FLEXON_SNN_SIMULATOR_HH
