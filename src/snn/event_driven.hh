/**
 * @file
 * Event-driven simulation for LLIF networks (Section IV-A: linear
 * decay "is suitable for event-driven execution", the property
 * TrueNorth-class designs exploit).
 *
 * A silent LLIF neuron reaches the resting floor after finitely many
 * steps and then stays there *exactly*, so the engine only touches
 * neurons in its active set: those with non-zero state, a pending
 * refractory countdown, or an arriving input. A skipped neuron is
 * silent, so on wake-up the engine replays the dense kernel's
 * per-step max(0, v - vLeak) until v rests; membranes and spikes are
 * bit-identical to the dense engine's, which the test suite asserts
 * at every step.
 *
 * The engine is a DeliveryEngine: the session (snn/session.hh) keeps
 * the orchestration (stimulus stream, spike recording, membrane
 * probes, printStats, run reports, reset, checkpoint/restore), and
 * the engine plugs in sparse phase bodies — stimulus and pending
 * deliveries fold into per-neuron accumulators, and only the touched
 * set is updated.
 *
 * Restrictions (eventDrivenEligible): every population must be LID +
 * CUB (+ optional AR) with a non-negative leak — exactly the
 * TrueNorth-style LLIF configuration — on the reference backend's
 * discrete path. Spikes are delivered from the session's connectivity
 * provider, whichever kind and shard count it has.
 */

#ifndef FLEXON_SNN_EVENT_DRIVEN_HH
#define FLEXON_SNN_EVENT_DRIVEN_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/telemetry.hh"
#include "snn/connectivity.hh"
#include "snn/network.hh"
#include "snn/session.hh"
#include "snn/stimulus.hh"

namespace flexon {

/**
 * True when the event-driven engine can run `network` under
 * `options`, and so take part in a hand-off: the reference backend
 * in discrete mode, and every population LID + CUB (+ optional AR)
 * with vLeak >= 0. When false and `why`
 * is non-null, *why receives a human-readable reason. The one
 * eligibility test: the session resolves SimulatorOptions::engine
 * with it, and flexon_sim --plan=auto degrades to dense on it.
 */
bool eventDrivenEligible(const Network &network,
                         const SimulatorOptions &options,
                         std::string *why = nullptr);

/**
 * The event-driven LLIF engine. It counts "ev.updates" (neuron
 * updates performed) and "ev.dense_updates" (updates a dense engine
 * would have performed) in the session registry.
 */
class EventEngine : public DeliveryEngine
{
  public:
    /**
     * @param network finalized and eventDrivenEligible()
     * @param rows the session's connectivity provider
     * @param metrics session registry
     * All three must outlive the engine.
     */
    EventEngine(const Network &network, ConnectivityProvider &rows,
                telemetry::Registry &metrics);

    const char *kind() const override { return "event-driven"; }
    void injectStimulus(uint64_t t,
                        std::span<const StimulusSpike> spikes) override;
    void stepNeurons(uint64_t t, std::vector<uint8_t> &fired) override;
    void deliverSpikes(uint64_t t,
                       std::span<const uint32_t> fired) override;
    void reset() override;
    void reportConfig(telemetry::ReportFields &config) const override;
    void saveState(std::ostream &os) const override;
    void loadState(std::istream &is, uint64_t now) override;

    /** Membrane potential of a neuron as of step `now`. */
    double membrane(uint32_t neuron, uint64_t now) const override;

    /** Test/CI hook: NaN-poison one neuron's stored state. */
    bool
    debugPoisonMembrane(uint32_t neuron) override
    {
        if (neuron >= state_.size())
            return false;
        state_[neuron].v = std::numeric_limits<double>::quiet_NaN();
        return true;
    }

    /**
     * Health sweep: check the *stored* membrane values (a catch-up's
     * max() would mask a NaN when reconstructing).
     */
    void
    healthScan(uint64_t begin, uint64_t end,
               health::HealthScan &scan) const override
    {
        for (uint64_t n = begin; n < end; ++n) {
            ++scan.checked;
            if (!std::isfinite(state_[n].v)) {
                ++scan.nonFinite;
                if (scan.firstBad < 0)
                    scan.firstBad = static_cast<int64_t>(n);
            }
        }
    }

    void exportTransfer(uint64_t now, EngineTransfer &out) const override;
    void importTransfer(const EngineTransfer &in) override;

  private:
    struct NeuronState
    {
        double v = 0.0;
        uint32_t refractory = 0; ///< remaining AR steps
        uint64_t lastUpdate = 0; ///< step the state was valid at
    };

    /** A neuron's state after silent steps up to `now`. */
    NeuronState silentUntil(uint32_t neuron, uint64_t now) const;

    /** Bring a neuron's stored state up to `now` (silentUntil). */
    void catchUp(uint32_t neuron, uint64_t now);

    /** Evaluate one neuron that has input this step. */
    void updateNeuron(uint32_t neuron, double input, uint64_t now,
                      std::vector<uint8_t> &fired);

    const Network &network_;
    /**
     * Packed delivery rows (the session's provider): a fired
     * neuron's bucket runs are appended to the pending ring as-is,
     * so delivery streams 8-byte records instead of gathering
     * Synapse structs.
     */
    ConnectivityProvider &rows_;
    RowScratch rowScratch_;
    std::vector<NeuronState> state_;
    /** Per-neuron cached parameters. */
    std::vector<double> vLeak_;
    std::vector<uint32_t> arSteps_;
    /** Synapse types the neuron's population sums (>= 1). */
    std::vector<uint8_t> synapseTypes_;

    /**
     * Pending inputs: ring of DeliveryRecords (cell = target *
     * maxSynapseTypes + type) in arrival order.
     */
    size_t ringDepth_;
    std::vector<std::vector<DeliveryRecord>> ring_;

    /**
     * Carried-over slot values from an engine hand-off: per ring
     * slot, ascending (cell, value) pairs holding the *accumulated
     * doubles* the dense ring contained at the switch point. Folded
     * into the accumulators before the slot's records (they arrived
     * strictly earlier), then cleared with the slot — so a switch
     * loses neither precision nor arrival order. Checkpointed.
     */
    std::vector<std::vector<std::pair<uint32_t, double>>> carry_;

    /**
     * Per-step scratch, members so checkpoints never have to capture
     * them (they are empty/zero between steps): per-neuron per-type
     * accumulators summed in type order — exactly as the dense
     * engine's ring slot is — a queued flag per neuron, and the
     * touched set in discovery order.
     */
    std::vector<std::array<double, maxSynapseTypes>> acc_;
    std::vector<uint8_t> queued_;
    std::vector<uint32_t> touched_;

    /** Delivery records appended to the pending ring. */
    telemetry::Counter &synapseEvents_;
    telemetry::Counter &updatesCounter_;
    telemetry::Counter &denseUpdatesCounter_;
};

} // namespace flexon

#endif // FLEXON_SNN_EVENT_DRIVEN_HH
