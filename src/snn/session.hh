/**
 * @file
 * The shared simulation-session layer.
 *
 * The paper's Section II-C three-phase loop (stimulus generation,
 * neuron computation, synapse calculation) is engine-independent:
 * only *how* each phase is evaluated differs between the dense
 * Simulator and the event-driven LLIF engine. SimulationSession owns
 * everything around the phases — stimulus stream, fired bookkeeping,
 * spike counters and event recording, membrane probes, per-phase
 * telemetry, printStats, run reports, reset — and delegates the
 * phase bodies to a small engine hook interface. Engines therefore
 * get probes, spike recording, reset and run reports for free, and
 * the orchestration exists exactly once.
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
#include "snn/network.hh"
#include "snn/stimulus.hh"

namespace flexon {

class PlasticityRule;

/** Engine-independent options of a simulation session. */
struct SessionOptions
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
 * since the timers last started (construction, reset, restore or
 * engine hand-off); counter fields are event counts since step 0.
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
 * section (report v4). Purely informational — the owner (AutoSession
 * or the CLI) made the decisions; this records what was chosen, what
 * the cost model predicted, and which calibration the prediction
 * came from, so predicted-vs-measured step cost is auditable from
 * the report alone.
 */
struct PlanInfo
{
    /** False until setPlanInfo(): no "plan" section is emitted. */
    bool present = false;
    /** Effective strategy: "dense" / "event" / "auto". */
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
 * EWMA rate), what the cost model predicted per strategy, and what it
 * chose. AutoSession records one per decision window; the session
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
 * engineExportTransfer() and consumed by engineImportTransfer() on a
 * session whose core was adopted via adoptSessionCore(). Ring values
 * are the accumulated doubles (not the float weights), so the
 * hand-off loses no precision.
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
 * The engine-independent simulation core. Derive an engine, implement
 * the engine* hooks, and the session supplies the per-step loop,
 * recording, statistics, reports, reset and checkpointing.
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
                      const SessionOptions &options);
    virtual ~SimulationSession();

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
     * rule is borrowed, not owned — it must outlive the session — and
     * typically references this session's backend or network, so
     * attach only to the session those objects belong to.
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
     * Copy the engine-independent core — step counter, spike
     * counts/recordings, probe traces, fired state, stimulus stream
     * position, rate estimator and the checkpointed counters — from
     * `other` into this freshly built session. Both sessions must
     * simulate the same network with the same options. Wall-clock
     * phase timers restart from zero (the checkpoint contract). Used
     * together with engineExportTransfer()/engineImportTransfer()
     * to switch delivery engines mid-run.
     */
    void adoptSessionCore(const SimulationSession &other);

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
     * Write a "flexon-run-report-v6" JSON document (config,
     * checkpoint section, health section, plan section when
     * setPlanInfo() was called, plan_audit section when decisions
     * were recorded, this registry — the run's statistics — under
     * "metrics", the process registry, pool lane accounting) to
     * `path`. Returns false (after warn()) on I/O failure.
     */
    bool writeRunReport(const std::string &path) const;

    uint64_t currentStep() const { return t_; }

    /**
     * Membrane potential of one neuron as of the last completed
     * step, in reference units.
     */
    virtual double membrane(uint32_t neuron) const = 0;

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
     * session with the same configuration (engine kind, network
     * shape, probe set — validated, fatal() on mismatch). The
     * session is fully reset first, so restoring onto a used session
     * equals restoring onto a fresh one.
     *
     * @param mutableNetwork the same Network this session simulates,
     *        passed non-const when the checkpoint carries mutated
     *        weights (STDP runs); fatal() if the checkpoint has a
     *        weights block and this is null or a different network.
     *        Weight writes go through Network::synapseAt(), so
     *        routing tables re-mirror them automatically.
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
     * Record the execution plan for the run report's "plan" section.
     * Purely descriptive (like setCheckpointCadence): the owner made
     * the decisions. Carried across adoptSessionCore so an engine
     * hand-off keeps the plan provenance.
     */
    void setPlanInfo(const PlanInfo &info) { planInfo_ = info; }
    const PlanInfo &planInfo() const { return planInfo_; }

    // ---- Health monitoring and plan audit ----------------------

    /** Detector tallies accumulated so far (report "health"). */
    const health::HealthCounters &healthCounters() const
    {
        return healthCounters_;
    }

    /** True when the detectors actually run (session options AND the
     *  process-wide kill switch both allow it). */
    bool healthActive() const { return healthActive_; }

    /**
     * Append one planner decision to the audit trail (also emitted
     * as a "plan.decision" trace instant). Bounded: after
     * kPlanAuditCapacity decisions only the total keeps counting.
     */
    void recordPlanDecision(const PlanDecision &decision);

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
    virtual bool debugPoisonMembrane(uint32_t neuron)
    {
        (void)neuron;
        return false;
    }

    /** Force the EWMA rate to 1.0 (rate-explosion detector hook). */
    void debugInjectRateExplosion() { ewmaRateGauge_.set(1.0); }

  protected:
    /** Engine kind tag written into checkpoints and reports. */
    virtual const char *engineKind() const = 0;

    /**
     * Phase 1 body: fold this step's stimulus spikes (and any
     * pending deliveries the engine defers) into the engine's input
     * accumulation for step t. Targets are pre-validated.
     */
    virtual void
    engineInjectStimulus(uint64_t t,
                         std::span<const StimulusSpike> spikes) = 0;

    /**
     * Phase 2 body: evaluate the neurons of step t and set
     * fired[n] = 1 for every spiking neuron. `fired` arrives sized
     * to the network with the previous step's flags cleared; engines
     * that evaluate every neuron may simply overwrite it.
     */
    virtual void engineStepNeurons(uint64_t t,
                                   std::vector<uint8_t> &fired) = 0;

    /**
     * Start of phase 3, before the fired sweep: re-mirror plasticity
     * weight updates into the engine's delivery structures. Runs
     * inside the synapse-phase timer but outside the route timer.
     */
    virtual void enginePrepareDelivery() = 0;

    /**
     * Phase 3 delivery body: propagate the (ascending) fired list
     * into future steps' inputs. Runs inside the route timer.
     */
    virtual void
    engineDeliverSpikes(uint64_t t,
                        std::span<const uint32_t> fired) = 0;

    /** Reset all engine-owned dynamic state (session reset()). */
    virtual void engineReset() = 0;

    /** Modelled hardware seconds of the step just evaluated. */
    virtual double engineModelSecondsPerStep() const { return 0.0; }

    /** Engine-specific run-report config fields ("backend", ...). */
    virtual void
    engineReportConfig(telemetry::ReportFields &config) const = 0;

    /** Checkpoint the engine's dynamic state (saveCheckpoint). */
    virtual void engineSaveState(std::ostream &os) const = 0;

    /** Restore the engine's dynamic state (loadCheckpoint). */
    virtual void engineLoadState(std::istream &is) = 0;

    /**
     * Health-sweep hook: examine neurons [begin, end) plus the
     * engine's delivery structures and fill `scan`. The default
     * reports nothing (detectors simply see a clean engine). Called
     * at the sweep cadence only, so implementations may be O(window)
     * without hurting the step loop.
     */
    virtual void engineHealthScan(uint64_t begin, uint64_t end,
                                  health::HealthScan &scan) const
    {
        (void)begin;
        (void)end;
        (void)scan;
    }

  public:
    /**
     * Export the engine's dynamic state as an EngineTransfer for a
     * hand-off to another engine. Returns false when the engine does
     * not support hand-offs (the default).
     */
    virtual bool engineExportTransfer(EngineTransfer &out) const
    {
        (void)out;
        return false;
    }

    /**
     * Seed the engine's dynamic state from an EngineTransfer; call
     * only on a session that just adopted the matching core via
     * adoptSessionCore(). Returns false when unsupported.
     */
    virtual bool engineImportTransfer(const EngineTransfer &in)
    {
        (void)in;
        return false;
    }

  private:
    void phaseStimulus();
    void phaseNeuron();
    void phaseSynapse();

    /**
     * Host seconds in every top-level phase timer ("phase.<name>";
     * nested intervals such as phase.synapse.route lie inside their
     * parent) over the steps they timed, i.e. the phase.neuron
     * interval count: timers restart at a restore or hand-off, the
     * step counter does not. 0 before the first timed step.
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
    SessionOptions options_;

    uint64_t t_ = 0;
    std::vector<uint8_t> fired_;
    std::vector<uint64_t> spikeCounts_;
    std::vector<SpikeEvent> spikeEvents_;
    std::vector<std::vector<double>> probeTraces_;

    /**
     * Private metrics registry plus cached handles for the hot
     * paths. Declared before the handles (initialization order).
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

    /** Fired neuron indices of the current step (capacity N). */
    std::vector<uint32_t> firedList_;

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
    health::HealthCounters healthCounters_;
    /** Next rotating scan-window start. */
    uint64_t healthCursor_ = 0;
    /** fixSaturations() watermark for per-sweep deltas. */
    uint64_t lastFixSaturations_ = 0;

    /** Live metrics exporter (null unless options.metricsOut). */
    std::unique_ptr<health::MetricsExporter> exporter_;

    // Plan-decision audit trail (recordPlanDecision).
    std::vector<PlanDecision> planDecisions_;
    uint64_t planDecisionsTotal_ = 0;

    /** Attached plasticity rules (borrowed), in onStep order. */
    std::vector<PlasticityRule *> plasticityRules_;
};

} // namespace flexon

#endif // FLEXON_SNN_SESSION_HH
