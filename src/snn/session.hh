/**
 * @file
 * The shared simulation-session layer.
 *
 * The paper's Section II-C three-phase loop (stimulus generation,
 * neuron computation, synapse calculation) is engine-independent:
 * only *how* each phase is evaluated differs between the dense engine
 * (snn/simulator.hh) and the event-driven LLIF engine
 * (snn/event_driven.hh). SimulationSession owns everything around the
 * phases — stimulus stream, fired bookkeeping, spike counters and
 * event recording, membrane probes, per-phase telemetry, printStats,
 * run reports, reset — and owns the run's one ConnectivityProvider
 * and the DeliveryEngine that evaluates the phase bodies from it.
 * One session lives for the whole run: the auto engine
 * (SimulatorOptions::engine) switches by replacing only the engine
 * inside it, handing the neuron state and the delay ring across
 * bit-exactly, so the provider, attached plasticity rules, the
 * metrics registry, the timers and the plan audit run on
 * uninterrupted.
 *
 * On top of the shared core the session implements versioned,
 * bit-exact checkpoint/restore: a snapshot captures the step
 * counter, the session's recording state (spike counts, probe
 * traces, recorded spike events), the stimulus RNG stream, any
 * plasticity-mutated weights, and the engine's own dynamic state
 * (neuron arrays, delay ring, pending deliveries). Restoring a
 * snapshot into a freshly built session and running the remaining
 * steps is bit-identical — spike for spike, probe sample for probe
 * sample — to the uninterrupted run (tests/test_session.cc).
 *
 * Format: text, "flexon-checkpoint v4" framing (snn/serialize.hh),
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
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/health.hh"
#include "common/telemetry.hh"
#include "plan/planner.hh"
#include "snn/backend.hh"
#include "snn/connectivity.hh"
#include "snn/network.hh"
#include "snn/stimulus.hh"

namespace flexon {

class PlasticityRule;
class SpikeRouter;

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
    /**
     * Delivery engine. Event and Auto need the event-driven engine's
     * setup (eventDrivenEligible): an Event request on any other
     * setup is fatal, and Auto pins the dense engine with a warning.
     */
    EngineKind engine = EngineKind::Dense;
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
 * and engine-specific counters are read where they live (registry
 * names, or accessors such as SpikeRouter::denseClears()).
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
     * Host seconds of synapseSec spent inside the delivery engine
     * (ring clear + routing). Strictly nested within the synapse
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

    /** Host seconds in the four engine phases above (the registry's
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
 * section: what engine was chosen, what the cost model predicted,
 * and which calibration the prediction came from, so
 * predicted-vs-measured step cost is auditable from the report alone.
 */
struct PlanInfo
{
    /** Effective engine: "dense" / "event" / "auto". */
    std::string strategy;
    /** True when the planner chose the strategy (--plan=auto). */
    bool planned = false;
    /** Predicted seconds per step for the chosen strategy. */
    double predictedStepSec = 0.0;
    /** Planned dense/event crossover rate (0 when not adaptive). */
    double crossoverRate = 0.0;
    /** Version tag of the calibration the plan derives from. */
    std::string calibrationVersion;
};

/**
 * One recorded ExecutionPlanner decision: what the planner saw (step,
 * EWMA rate), what the cost model predicted per engine, and what it
 * chose. An auto session records one per decision window; the session
 * stores them for the report's "plan_audit" section and mirrors each
 * as a trace instant, making the adaptive switching explainable from
 * the artifacts alone.
 */
struct PlanDecision
{
    /** Completed steps when the decision was evaluated. */
    uint64_t step = 0;
    /** EWMA firing rate the decision was based on. */
    double ewmaRate = 0.0;
    /** Predicted seconds/step for the dense strategy. */
    double predictedDenseSec = 0.0;
    /** Predicted seconds/step for the event-driven strategy. */
    double predictedEventSec = 0.0;
    /** Chosen strategy: "dense" or "event". */
    std::string chosen;
    /** True when the decision switched the active engine. */
    bool switched = false;
};

/**
 * The bit-exact engine hand-off bundle: everything one delivery
 * engine must pass to another so the simulation continues spike for
 * spike as if the target engine had run from step 0. Produced by
 * DeliveryEngine::exportTransfer() and consumed by importTransfer()
 * on a freshly built engine. Ring values are the accumulated doubles
 * (not the float weights), so the hand-off loses no precision.
 */
struct EngineTransfer
{
    /** Completed steps at the hand-off point. */
    uint64_t t = 0;
    /** Per-neuron membrane potential, reference units. */
    std::vector<double> v;
    /** Per-neuron absolute-refractory countdown, in steps. */
    std::vector<uint32_t> refractory;
    /** Pending deliveries per delay offset d from t: ascending
     *  (cell, value) pairs destined for step t + d. */
    std::vector<std::vector<std::pair<uint32_t, double>>> ring;
};

/**
 * A delivery engine: how the session's phase bodies are evaluated.
 * The session calls these hooks from its per-step loop and owns
 * everything around them, the connectivity provider the engine
 * delivers from included (it re-mirrors plasticity weight updates
 * into it once per step, before the fired sweep). Two engines
 * implement it: the dense engine (snn/simulator.hh) and the
 * event-driven LLIF engine (snn/event_driven.hh). `now` is always the
 * session's count of completed steps.
 */
class DeliveryEngine
{
  public:
    DeliveryEngine() = default;
    virtual ~DeliveryEngine() = default;
    DeliveryEngine(const DeliveryEngine &) = delete;
    DeliveryEngine &operator=(const DeliveryEngine &) = delete;

    /** Engine kind tag written into checkpoints and reports. */
    virtual const char *kind() const = 0;

    /**
     * Phase 1 body: fold this step's stimulus spikes (and any
     * pending deliveries the engine defers) into the engine's input
     * accumulation for step t. Targets are pre-validated.
     */
    virtual void injectStimulus(uint64_t t,
                                std::span<const StimulusSpike> spikes) = 0;

    /**
     * Phase 2 body: evaluate the neurons of step t and set
     * fired[n] = 1 for every spiking neuron. `fired` arrives sized
     * to the network with the previous step's flags cleared; engines
     * that evaluate every neuron may simply overwrite it.
     */
    virtual void stepNeurons(uint64_t t, std::vector<uint8_t> &fired) = 0;

    /**
     * Phase 3 delivery body: propagate the (ascending) fired list
     * into future steps' inputs. Runs inside the route timer.
     */
    virtual void deliverSpikes(uint64_t t,
                               std::span<const uint32_t> fired) = 0;

    /** Reset all engine-owned dynamic state (session reset()). */
    virtual void reset() = 0;

    /** Modelled hardware seconds of the step just evaluated. */
    virtual double modelSecondsPerStep() const { return 0.0; }

    /** Engine-specific run-report config fields ("backend", ...). */
    virtual void reportConfig(telemetry::ReportFields &config) const = 0;

    /** Checkpoint the engine's dynamic state (saveCheckpoint). */
    virtual void saveState(std::ostream &os) const = 0;

    /** Restore the engine's dynamic state (loadCheckpoint). */
    virtual void loadState(std::istream &is, uint64_t now) = 0;

    /**
     * Health-sweep hook: examine neurons [begin, end) and fill
     * `scan`. Called at the sweep cadence only, so implementations
     * may be O(window) without hurting the step loop.
     */
    virtual void healthScan(uint64_t begin, uint64_t end,
                            health::HealthScan &scan) const = 0;

    /** Membrane potential of one neuron as of step `now`, in
     *  reference units. */
    virtual double membrane(uint32_t neuron, uint64_t now) const = 0;

    /**
     * Overwrite one neuron's membrane with NaN (test/CI hook for the
     * NaN detector). Returns false when the engine cannot poison
     * state in place (fixed-point backends cannot represent NaN).
     */
    virtual bool debugPoisonMembrane(uint32_t neuron) = 0;

    /**
     * Hand-off: export the engine's dynamic state at step `now`.
     * Only called on setups that eventDrivenEligible() accepts.
     */
    virtual void exportTransfer(uint64_t now, EngineTransfer &out) const = 0;

    /** Seed a freshly built engine's state from a hand-off. */
    virtual void importTransfer(const EngineTransfer &in) = 0;
};

/**
 * The simulation session: the per-step loop, recording, statistics,
 * reports, reset and checkpointing, around the delivery engine it
 * owns. With SimulatorOptions::engine = Auto it also runs the
 * rate-adaptive policy: on every plan::kDecisionWindow boundary it
 * compares the EWMA firing rate with the planner's dense/event
 * crossover (with plan::kSwitchHysteresis) and, when the other
 * engine wins, replaces the engine. The EWMA derives only from the
 * spike history, so decisions are deterministic and survive
 * checkpoint/restore; spike trains, probe traces and pinned-engine
 * checkpoints are identical whichever engine runs.
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

    /** Run a single time step (an auto session decides its engine
     *  after every step that ends a decision window). */
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
     * A rule that holds the dense backend (intrinsic excitability)
     * needs a session pinned to the dense engine.
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
     * purely from the spike history, so it is safe to base
     * engine-selection decisions on without breaking bit-identity.
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
     * runs separated by reset() report identical counters. An auto
     * session returns to the engine a fresh one starts on.
     */
    void reset();

    /** This session's private metrics registry. */
    telemetry::Registry &metrics() { return metrics_; }
    const telemetry::Registry &metrics() const { return metrics_; }

    /**
     * Write a "flexon-run-report-v7" JSON document (config,
     * checkpoint section, health section, plan section, plan_audit
     * section when decisions were recorded, this registry — the
     * run's statistics — under "metrics", the process registry, pool
     * lane accounting) to `path`. Returns false (after warn()) on
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
        return engine_->membrane(neuron, t_);
    }

    // ---- Delivery engine -----------------------------------------

    /** Engine kind stepping now ("dense" / "event-driven"). */
    const char *activeEngine() const { return engine_->kind(); }

    /** True while the event-driven engine is active. */
    bool eventActive() const { return eventActive_; }

    /** True when rate-adaptive switching is in effect. */
    bool adaptive() const { return adaptive_; }

    /** The run's connectivity provider, built once at construction;
     *  every engine the session installs delivers from it. */
    const ConnectivityProvider &connectivity() const
    {
        return *connectivity_;
    }

    /**
     * Firing rate (spikes/neuron/step) above which the dense engine
     * is estimated cheaper (before hysteresis); 0 when not adaptive.
     */
    double crossoverRate() const { return crossoverRate_; }

    /** Engine switches since the last reset or restore (the
     *  sim.engine_switches counter). */
    uint64_t switches() const { return switchesCounter_.value(); }

    /** The dense engine's neuron backend (dense engine only). */
    NeuronBackend &backend();

    /**
     * The dense engine's connectivity provider + delay ring
     * (read-only; for tests, benchmarks and diagnostics; dense
     * engine only).
     */
    const SpikeRouter &router() const;

    /** The raw delay ring (equivalence tests; dense engine only). */
    const std::vector<double> &ringBuffer() const;

    // ---- Checkpoint/restore ------------------------------------

    /**
     * Write a bit-exact snapshot of the session: step counter,
     * session counters and recordings, stimulus stream state, the
     * network's plasticity-mutated weights (only when any exist),
     * and the engine's dynamic state.
     */
    void saveCheckpoint(std::ostream &os) const;

    /**
     * Restore a snapshot previously written by saveCheckpoint() on a
     * session with the same configuration (network shape, probe set
     * — validated, fatal() on mismatch). A pinned session requires a
     * snapshot of its own engine kind; an auto session switches to
     * the engine the snapshot was written by. The session is fully
     * reset first, so restoring onto a used session equals restoring
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
     * session records its own engine choice at construction; a
     * caller that planned the run (flexon_sim --plan=auto) may
     * overwrite the record.
     */
    void setPlanInfo(const PlanInfo &info) { planInfo_ = info; }
    const PlanInfo &planInfo() const { return planInfo_; }

    // ---- Health monitoring and plan audit ----------------------

    /** Detector tallies accumulated so far: a view of the health.*
     *  registry counters (the report's metrics section). */
    health::HealthCounters healthCounters() const;

    /** True when the detectors actually run (session options AND the
     *  process-wide kill switch both allow it). */
    bool healthActive() const { return healthActive_; }

    /** Retained audit records (at most kPlanAuditCapacity). */
    const std::vector<PlanDecision> &planDecisions() const
    {
        return planDecisions_;
    }

    /** All decisions ever recorded, including dropped ones. */
    uint64_t planDecisionsTotal() const { return planDecisionsTotal_; }

    /** Audit records kept before only counting (bounds report size). */
    static constexpr size_t kPlanAuditCapacity = 1024;

    // ---- Test-only fault injection -----------------------------

    /**
     * Overwrite one neuron's membrane with NaN (test/CI hook for the
     * NaN detector). Returns false when the engine/backend cannot
     * poison state in place (e.g. fixed-point backends, which cannot
     * represent NaN at all).
     */
    bool debugPoisonMembrane(uint32_t neuron)
    {
        return engine_->debugPoisonMembrane(neuron);
    }

    /** Force the EWMA rate to 1.0 (rate-explosion detector hook). */
    void debugInjectRateExplosion() { ewmaRateGauge_.set(1.0); }

  private:
    void phaseStimulus();
    void phaseNeuron();
    void phaseSynapse();

    /** Build the dense or the event-driven engine over the
     *  session's provider and make it the live one (dropping the
     *  previous engine). */
    void installEngine(bool event);

    /** Replace the live engine, handing its state across. */
    void switchEngine(bool toEvent);

    /** Decision-window boundary: switch if the other engine wins,
     *  then audit the decision. */
    void decide();

    /**
     * Append one decision at the current step to the audit trail
     * (also a "plan.decision" trace instant). Bounded: after
     * kPlanAuditCapacity decisions only the total keeps counting.
     */
    void recordDecision(double rate, bool switched);

    /** Zero the run state and the registry (reset(), restore). */
    void clearRun();

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
     * paths. Declared before the handles and the engine
     * (initialization order; engines register their metrics here).
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
    /** Written by the delivery engine (synapseEventsCounter()). */
    telemetry::Counter &synapseEventsCounter_;
    telemetry::Gauge &modelNeuronSecGauge_;
    /** EWMA of the per-step firing rate (see ewmaRate()). */
    telemetry::Gauge &ewmaRateGauge_;
    telemetry::Counter &switchesCounter_;

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

    // Engine selection. adaptive_ is resolved once at construction;
    // the planner and its crossover drive the auto policy.
    bool adaptive_ = false;
    bool eventActive_ = false;
    double crossoverRate_ = 0.0;
    plan::ExecutionPlanner planner_;
    /** Declared before the engine, which borrows it. */
    std::unique_ptr<ConnectivityProvider> connectivity_;
    std::unique_ptr<DeliveryEngine> engine_;

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

    // Plan-decision audit trail (recordDecision).
    std::vector<PlanDecision> planDecisions_;
    uint64_t planDecisionsTotal_ = 0;

    /** Attached plasticity rules (borrowed), in onStep order. */
    std::vector<PlasticityRule *> plasticityRules_;
};

/** The session under the name callers construct it by. */
using Simulator = SimulationSession;

} // namespace flexon

#endif // FLEXON_SNN_SESSION_HH
