/**
 * @file
 * The simulation session: the paper's Section II-C three-phase loop
 * (stimulus generation, neuron computation, synapse calculation),
 * evaluated for every neuron every step.
 *
 * SimulationSession owns the whole run: the stimulus stream, the
 * run's one ConnectivityProvider, the NeuronBackend that evaluates
 * the neuron phase and the SpikeRouter that delivers spikes from the
 * provider's rows, plus fired bookkeeping, spike counters and event
 * recording, membrane probes, per-phase telemetry, printStats, run
 * reports and reset.
 *
 * Spike propagation uses a delay ring buffer: a fired neuron's
 * synaptic weights are accumulated into the input buffer of time step
 * t + delay; the neuron-computation phase of step t consumes buffer
 * slot t mod D, where D is the network's maximum delay + 1.
 *
 * On top of the loop the session implements versioned, bit-exact
 * checkpoint/restore: a snapshot captures the step counter, the
 * session's recording state (spike counts, probe traces, recorded
 * spike events), the stimulus RNG stream, any plasticity-mutated
 * weights, and the backend's and router's dynamic state (neuron
 * arrays, delay ring). Restoring a snapshot into a
 * freshly built session and running the remaining steps is
 * bit-identical — spike for spike, probe sample for probe sample — to
 * the uninterrupted run (tests/test_session.cc).
 *
 * Format: text, "flexon-checkpoint v5" framing (snn/serialize.hh),
 * doubles at 17 significant digits and fixed-point values as raw
 * integers, so every value round trips exactly. Wall-clock phase
 * timers are deliberately *not* checkpointed — host seconds are not
 * simulation state — so timer-derived stats restart from zero while
 * all step/spike/event counters continue.
 */

#ifndef FLEXON_SNN_SESSION_HH
#define FLEXON_SNN_SESSION_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/health.hh"
#include "common/telemetry.hh"
#include "snn/backend.hh"
#include "snn/connectivity.hh"
#include "snn/network.hh"
#include "snn/routing.hh"
#include "snn/stimulus.hh"

namespace flexon {

class PlasticityRule;

/** Options controlling a simulation run. */
struct SimulatorOptions
{
    uint64_t stimulusSeed = 1;
    /** Worker threads for the parallel phases. */
    size_t threads = 1;
    /** Record (step, neuron) spike events (memory-heavy). */
    bool recordSpikes = false;
    /** Neurons whose membrane potential is sampled every step. */
    std::vector<uint32_t> probes;
    /** Runtime health monitoring (invariant detectors). */
    health::HealthOptions health;
    /** Live metrics export target ("" = off): Prometheus text at
     *  this path (atomically replaced) + JSONL history alongside. */
    std::string metricsOut;
    /** Steps between metric snapshots (when metricsOut is set). */
    uint64_t metricsEvery = 256;
    /** Session label stamped on exported metrics. */
    std::string label = "flexon";
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

/**
 * A typed view of the session's core metrics. The telemetry registry
 * stores every run statistic once; stats() copies these from cached
 * registry handles. printStats and the run report read the registry
 * itself, so a new metric reaches them without touching this struct,
 * and router counters are read where they live (registry names, or
 * accessors such as SpikeRouter::bucketsVisited()).
 *
 * Units: every `*Sec` field is host wall-clock seconds accumulated
 * since the timers last started (construction, reset or restore);
 * counter fields are event counts since step 0.
 */
struct PhaseStats
{
    /** Host seconds in stimulus generation (phase 1). */
    double stimulusSec = 0.0;
    /** Host seconds in neuron computation (phase 2). */
    double neuronSec = 0.0;
    /** Host seconds in synapse calculation (phase 3). */
    double synapseSec = 0.0;
    /**
     * Host seconds of synapseSec spent inside the router (ring
     * clear + routing). Strictly nested within the synapse
     * phase interval, so synapseRouteSec <= synapseSec up to clock
     * resolution (debug-asserted in stats()).
     */
    double synapseRouteSec = 0.0;
    /** Host seconds sampling membrane probes (0 without probes). */
    double probeSec = 0.0;
    /** Time steps completed. */
    uint64_t steps = 0;
    /** Output spikes fired (sum over neurons). */
    uint64_t spikes = 0;
    /** Synaptic weight deliveries into the delay ring. */
    uint64_t synapseEvents = 0;
    /** Modelled hardware seconds (Flexon/folded backends only). */
    double modelNeuronSec = 0.0;

    /** Host seconds in the four phases above (the registry's
     *  phase.plasticity/health/export timers are not in the view). */
    double totalSec() const
    {
        return stimulusSec + neuronSec + synapseSec + probeSec;
    }
};

/** A recorded spike event. */
struct SpikeEvent
{
    uint64_t step;
    uint32_t neuron;
};

/**
 * Descriptive execution-plan record for the run report's "plan"
 * section: what the cost model predicted for a step and which
 * calibration the prediction came from, so predicted-vs-measured
 * step cost is auditable from the report alone.
 */
struct PlanInfo
{
    /** True when the planner chose the thread count (--plan=auto). */
    bool planned = false;
    /** Predicted seconds per step. */
    double predictedStepSec = 0.0;
    /** Version tag of the calibration the plan derives from. */
    std::string calibrationVersion;
};

/**
 * The simulation session: the per-step loop over the backend and the
 * router it owns, plus recording, statistics, reports, reset and
 * checkpointing.
 */
class SimulationSession
{
  public:
    /**
     * @param network finalized network topology (kept by reference;
     *        must outlive the session)
     * @param stimulus stimulus sources (copied)
     */
    SimulationSession(const Network &network,
                      StimulusGenerator stimulus,
                      const SimulatorOptions &options = {});
    ~SimulationSession();

    SimulationSession(const SimulationSession &) = delete;
    SimulationSession &operator=(const SimulationSession &) = delete;

    /** Run `steps` time steps. */
    void run(uint64_t steps);

    /** Run a single time step. */
    void stepOnce();

    /**
     * The core metrics as of now (sums the sharded telemetry slots;
     * cheap, but not free — keep the copy rather than calling per
     * step in hot loops).
     */
    PhaseStats stats() const;
    const Network &network() const { return network_; }

    /** Per-neuron output spike counts. */
    const std::vector<uint64_t> &spikeCounts() const
    {
        return spikeCounts_;
    }

    /**
     * The fired flags (0/1 bytes) of the most recent step (empty
     * before the first step). Plasticity engines consume this after
     * stepOnce().
     */
    const std::vector<uint8_t> &lastFired() const { return fired_; }

    /**
     * Attach a plasticity rule: the session calls rule->onStep(fired)
     * at the end of every stepOnce() (in attachment order) and
     * carries the rule's state in checkpoints (the v4 plasticity
     * block), so save/restore resumes learning bit-identically. The
     * rule is borrowed, not owned — it must outlive the session.
     * Restore-time contract: loadCheckpoint requires the same rules
     * (count, kinds, order) the checkpoint was saved with.
     */
    void attachPlasticityRule(PlasticityRule *rule);

    /** Rules attached so far, in onStep order. */
    const std::vector<PlasticityRule *> &plasticityRules() const
    {
        return plasticityRules_;
    }

    /**
     * Membrane trace of the i-th probed neuron (options.probes),
     * one sample per completed step.
     */
    const std::vector<double> &probeTrace(size_t probe) const;

    /** Recorded spike events (empty unless recordSpikes). */
    const std::vector<SpikeEvent> &spikeEvents() const
    {
        return spikeEvents_;
    }

    /** Mean firing rate in spikes per neuron per step. */
    double meanRate() const;

    /**
     * Exponentially weighted moving average of the per-step firing
     * rate (spikes per neuron per step), alpha = plan::kEwmaAlpha
     * (1/64): the sim.ewma_rate gauge. Updated every step from the
     * fired sweep, checkpointed, and deterministic — it derives
     * purely from the spike history. The health rate detectors read
     * it.
     */
    double ewmaRate() const { return ewmaRateGauge_.value(); }

    /**
     * Dump a gem5-style statistics block generated from the
     * registry: one `name value # desc` line per counter, gauge and
     * timer (seconds), then the derived ratios that are not metrics
     * (firing rate, throughput, neuron share, modelled speedup).
     */
    void printStats(std::ostream &os) const;

    /**
     * Reset state, statistics and time to zero. Also zeroes every
     * metric in this session's telemetry registry, so two identical
     * runs separated by reset() report identical counters.
     */
    void reset();

    /** This session's private metrics registry. */
    telemetry::Registry &metrics() { return metrics_; }
    const telemetry::Registry &metrics() const { return metrics_; }

    /**
     * Write a "flexon-run-report-v8" JSON document (config,
     * checkpoint section, health section, plan section, this
     * registry — the run's statistics — under "metrics", the process
     * registry, pool lane accounting) to `path`. Returns false (after warn()) on
     * I/O failure.
     */
    bool writeRunReport(const std::string &path) const;

    uint64_t currentStep() const { return t_; }

    /**
     * Membrane potential of one neuron as of the last completed
     * step, in reference units.
     */
    double membrane(uint32_t neuron) const
    {
        return backend_->membrane(neuron);
    }

    /** The run's connectivity provider, built once at construction;
     *  the router delivers from it. */
    const ConnectivityProvider &connectivity() const
    {
        return *connectivity_;
    }

    /** The neuron backend evaluating the neuron phase. */
    NeuronBackend &backend() { return *backend_; }

    /**
     * The delay ring and its delivery over the provider (read-only;
     * for tests, benchmarks and diagnostics).
     */
    const SpikeRouter &router() const { return router_; }

    /** The raw delay ring (equivalence tests). */
    const std::vector<double> &ringBuffer() const
    {
        return router_.ringBuffer();
    }

    // ---- Checkpoint/restore ------------------------------------

    /**
     * Write a bit-exact snapshot of the session: step counter,
     * session counters and recordings, stimulus stream state, the
     * network's plasticity-mutated weights (only when any exist),
     * and the backend's and router's dynamic state.
     */
    void saveCheckpoint(std::ostream &os) const;

    /**
     * Restore a snapshot previously written by saveCheckpoint() on a
     * session with the same configuration (network shape, probe set
     * — validated, fatal() on mismatch). The session is fully reset
     * first, so restoring onto a used session equals restoring
     * onto a fresh one.
     *
     * @param mutableNetwork the same Network this session simulates,
     *        passed non-const when the checkpoint carries mutated
     *        weights (STDP runs); fatal() if the checkpoint has a
     *        weights block and this is null or a different network.
     *        Weight writes go through Network::setSynapseWeight(),
     *        so the provider re-mirrors them automatically.
     */
    void loadCheckpoint(std::istream &is,
                        Network *mutableNetwork = nullptr);

    /** saveCheckpoint to a file; warn()s and returns false on I/O
     *  failure. */
    bool saveCheckpointFile(const std::string &path) const;

    /** loadCheckpoint from a file; fatal() on I/O errors. */
    void loadCheckpointFile(const std::string &path,
                            Network *mutableNetwork = nullptr);

    /** Snapshots written by this session (saveCheckpoint calls). */
    uint64_t checkpointSaves() const { return checkpointSaves_; }

    /** True once loadCheckpoint() has run. */
    bool restored() const { return restored_; }

    /** Step counter value at the last restore (0 if none). */
    uint64_t restoredStep() const { return restoredStep_; }

    /**
     * Record the checkpoint cadence for the run report's checkpoint
     * section (0 = checkpointing disabled). Purely descriptive: the
     * owner drives the actual saves.
     */
    void setCheckpointCadence(uint64_t every)
    {
        checkpointEvery_ = every;
    }

    /**
     * The execution plan for the run report's "plan" section. The
     * session records the builtin-rate prediction at its own thread
     * count at construction; a caller that planned the run
     * (flexon_sim --plan=auto) may overwrite the record.
     */
    void setPlanInfo(const PlanInfo &info) { planInfo_ = info; }
    const PlanInfo &planInfo() const { return planInfo_; }

    // ---- Health monitoring -------------------------------------

    /** Detector tallies accumulated so far: a view of the health.*
     *  registry counters (the report's metrics section). */
    health::HealthCounters healthCounters() const;

    /** True when the detectors actually run (session options AND the
     *  process-wide kill switch both allow it). */
    bool healthActive() const { return healthActive_; }

    // ---- Test-only fault injection -----------------------------

    /**
     * Overwrite one neuron's membrane with NaN (test/CI hook for the
     * NaN detector). Returns false when the backend cannot poison
     * state in place (e.g. fixed-point backends, which cannot
     * represent NaN at all).
     */
    bool debugPoisonMembrane(uint32_t neuron)
    {
        return backend_->debugPoisonMembrane(neuron);
    }

    /** Force the EWMA rate to 1.0 (rate-explosion detector hook). */
    void debugInjectRateExplosion() { ewmaRateGauge_.set(1.0); }

  private:
    void phaseStimulus();
    void phaseNeuron();
    void phaseSynapse();

    /**
     * Host seconds in every top-level phase timer ("phase.<name>";
     * nested intervals such as phase.synapse.route lie inside their
     * parent) over the steps they timed, i.e. the phase.neuron
     * interval count: timers restart at a restore, the step counter
     * does not. 0 before the first timed step.
     */
    double measuredStepSec() const;

    /** Run every enabled detector over one scan window. */
    void healthSweep();

    /** Apply one detector's policy after it tripped. */
    void healthApply(health::Policy policy, const char *detector,
                     uint64_t events, const std::string &message);

    const Network &network_;
    StimulusGenerator stimulus_;
    StimulusGenerator stimulusInitial_; ///< pristine copy for reset()
    SimulatorOptions options_;

    uint64_t t_ = 0;
    std::vector<uint8_t> fired_;
    std::vector<uint64_t> spikeCounts_;
    std::vector<SpikeEvent> spikeEvents_;
    std::vector<std::vector<double>> probeTraces_;

    /**
     * Private metrics registry plus cached handles for the hot
     * paths. Declared before the handles, the provider and the
     * router (initialization order; they register their metrics
     * here).
     */
    telemetry::Registry metrics_;
    telemetry::Timer &stimulusTimer_;
    telemetry::Timer &neuronTimer_;
    telemetry::Timer &synapseTimer_;
    telemetry::Timer &routeTimer_;
    telemetry::Timer &probeTimer_;
    telemetry::Timer &plasticityTimer_;
    telemetry::Timer &healthTimer_;
    telemetry::Timer &exportTimer_;
    telemetry::Counter &stepsCounter_;
    telemetry::Counter &spikesCounter_;
    /** Written by the router (synapseEventsCounter()). */
    telemetry::Counter &synapseEventsCounter_;
    telemetry::Gauge &modelNeuronSecGauge_;
    /** EWMA of the per-step firing rate (see ewmaRate()). */
    telemetry::Gauge &ewmaRateGauge_;

    /** The detector tallies, as "health.*" registry metrics. */
    struct HealthMetrics
    {
        explicit HealthMetrics(telemetry::Registry &metrics);
        telemetry::Counter &sweeps;
        telemetry::Counter &neuronsChecked;
        telemetry::Counter &nanEvents;
        telemetry::Counter &saturationEvents;
        telemetry::Counter &saturationHits;
        telemetry::Counter &rateExplosions;
        telemetry::Counter &rateSilences;
    };
    HealthMetrics health_;

    /** Fired neuron indices of the current step (capacity N). */
    std::vector<uint32_t> firedList_;

    /** Declared before the router, which borrows it. */
    std::unique_ptr<ConnectivityProvider> connectivity_;
    std::unique_ptr<NeuronBackend> backend_;
    /**
     * Spike delivery from the provider into the delay ring, each
     * lane clearing its shard of the consumed slot (snn/routing.hh).
     * Shard count == configured threads; results are bit-identical to
     * serial at any thread count.
     */
    SpikeRouter router_;

    // Checkpoint bookkeeping (saveCheckpoint is logically const).
    mutable uint64_t checkpointSaves_ = 0;
    bool restored_ = false;
    uint64_t restoredStep_ = 0;
    uint64_t checkpointEvery_ = 0;

    /** Report-only plan record (setPlanInfo). */
    PlanInfo planInfo_;

    // Health monitoring (constructor caches the effective switch so
    // the per-step gate is one bool test).
    bool healthActive_ = false;
    /** Next rotating scan-window start. */
    uint64_t healthCursor_ = 0;
    /** fixSaturations() watermark for per-sweep deltas. */
    uint64_t lastFixSaturations_ = 0;

    /** Live metrics exporter (null unless options.metricsOut). */
    std::unique_ptr<health::MetricsExporter> exporter_;

    /** Attached plasticity rules (borrowed), in onStep order. */
    std::vector<PlasticityRule *> plasticityRules_;
};

/** The session under the name callers construct it by. */
using Simulator = SimulationSession;

} // namespace flexon

#endif // FLEXON_SNN_SESSION_HH
