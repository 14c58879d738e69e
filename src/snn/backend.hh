/**
 * @file
 * Neuron-computation backends for the SNN simulator.
 *
 * The simulator's neuron-computation phase is pluggable: the same
 * network can run on the software reference models (the NEST/GeNN
 * stand-in), on a baseline Flexon array, or on a spatially folded
 * Flexon array. Hardware backends additionally report modelled
 * execution time (cycles / clock) for the Figure 13 comparisons.
 */

#ifndef FLEXON_SNN_BACKEND_HH
#define FLEXON_SNN_BACKEND_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "common/health.hh"
#include "snn/network.hh"
#include "solvers/solver.hh"

namespace flexon {

/** Which engine evaluates the neuron-computation phase. */
enum class BackendKind {
    Reference, ///< software double-precision models
    Flexon,    ///< baseline Flexon array (single-cycle)
    Folded,    ///< spatially folded Flexon array (2-stage pipeline)
};

/** Printable backend name. */
const char *backendName(BackendKind kind);

/** How the reference backend integrates its neurons. */
enum class IntegrationMode {
    Discrete,   ///< exact discrete equations (Equations 3-8)
    Continuous, ///< hybrid ODE integration with a SolverKind
};

/**
 * A neuron-computation engine stepping every neuron of a network.
 *
 * The input is the synapse-calculation output: row-major
 * [neuron][synapseType] accumulated weights with stride
 * maxSynapseTypes, in reference (unscaled) units. Backends perform
 * any representation conversion internally.
 */
class NeuronBackend
{
  public:
    virtual ~NeuronBackend() = default;

    virtual const char *name() const = 0;

    /**
     * Evaluate one time step; fills `fired` (one 0/1 flag per
     * neuron). Plain bytes rather than std::vector<bool> so worker
     * threads can write disjoint index ranges directly (bit proxies
     * would race on shared words) and the spike-routing loop reads
     * without bit extraction.
     */
    virtual void step(std::span<const double> input,
                      std::vector<uint8_t> &fired) = 0;

    /** Reset all neuron state to rest. */
    virtual void reset() = 0;

    /**
     * Modelled hardware seconds per simulation step (array cycles over
     * clock); 0 for software backends, whose cost is wall-clock time.
     */
    virtual double modelSecondsPerStep() const { return 0.0; }

    /** Membrane potential of one neuron, in reference units. */
    virtual double membrane(size_t neuron) const = 0;

    /**
     * Checkpoint the backend's complete dynamic neuron state to /
     * from the exact text format (snn/serialize.hh checkpoint
     * framing: the stream carries 17 significant digits). After
     * loadState, stepping is bit-identical to the uninterrupted run
     * the state was captured from. loadState fatal()s on a state
     * blob recorded by a different backend or network shape.
     */
    virtual void saveState(std::ostream &os) const = 0;
    virtual void loadState(std::istream &is) = 0;

    /**
     * Intrinsic-excitability hook: offset one neuron's firing
     * threshold (the spike check compares against
     * params.threshold() + offset). Returns false when the backend
     * cannot mutate per-neuron thresholds (the default; the
     * fixed-point arrays share one threshold constant per
     * population). Successful writes count into
     * parameterMutations() — the per-neuron parameter analogue of
     * Network's weight-mutation log — so consumers (reports, tests)
     * can tell whether any run-time parameter adaptation happened.
     */
    virtual bool setThresholdOffset(size_t neuron, double offset)
    {
        (void)neuron;
        (void)offset;
        return false;
    }

    /** Current threshold offset of one neuron (0 when unsupported). */
    virtual double thresholdOffset(size_t neuron) const
    {
        (void)neuron;
        return 0.0;
    }

    /** Monotone count of successful per-neuron parameter writes. */
    virtual uint64_t parameterMutations() const { return 0; }

    /**
     * Health-sweep probe: examine neurons [begin, end) and tally
     * anomalies into `scan`. The default checks membrane() for
     * non-finite values (what double backends can produce); the
     * fixed-point backends override it to look for values pinned at
     * a representation rail instead (Fix can never be NaN). Called
     * only at the health-sweep cadence, never per step.
     */
    virtual void healthProbe(size_t begin, size_t end,
                             health::HealthScan &scan) const;

    /**
     * Test/CI hook: overwrite one neuron's membrane with NaN so the
     * NaN detector has something real to find. Returns false when
     * the backend cannot represent NaN (fixed-point arrays).
     */
    virtual bool debugPoisonMembrane(size_t neuron)
    {
        (void)neuron;
        return false;
    }
};

/**
 * Build a software reference backend.
 *
 * @param mode discrete equations or continuous ODE integration
 * @param solver solver for continuous mode (Table I column)
 * @param threads worker threads for the neuron-update loop
 *        (<= 1 = single-threaded); neurons are split into
 *        contiguous chunks, as NEST does across cores
 */
std::unique_ptr<NeuronBackend>
makeReferenceBackend(const Network &network,
                     IntegrationMode mode = IntegrationMode::Discrete,
                     SolverKind solver = SolverKind::Euler,
                     size_t threads = 1);

/**
 * Build a baseline Flexon array backend.
 *
 * @param threads host worker threads for the functional neuron loop
 *        (the modelled hardware timing is unaffected)
 */
std::unique_ptr<NeuronBackend>
makeFlexonBackend(const Network &network, size_t width = 12,
                  double clock_hz = 250.0e6, size_t threads = 1);

/** Build a spatially folded Flexon array backend. */
std::unique_ptr<NeuronBackend>
makeFoldedBackend(const Network &network, size_t width = 72,
                  double clock_hz = 500.0e6, size_t threads = 1);

/** Dispatch on BackendKind with the default array shapes. */
std::unique_ptr<NeuronBackend>
makeBackend(BackendKind kind, const Network &network,
            IntegrationMode mode = IntegrationMode::Discrete,
            SolverKind solver = SolverKind::Euler,
            size_t threads = 1);

} // namespace flexon

#endif // FLEXON_SNN_BACKEND_HH
