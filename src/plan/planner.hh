/**
 * @file
 * Execution planner: calibrated per-engine step-cost prediction.
 *
 * The ExecutionPlanner turns a CalibrationData into decisions the
 * session layer used to hard-code: which engine (dense vs
 * event-driven) a given firing rate favors, where the adaptive
 * crossover sits, and how many worker lanes a population is worth.
 * Every prediction is a pure function of (calibration, NetworkStats,
 * rate, threads) — no clocks, no sampling — so planner-driven runs
 * are reproducible and bit-identical to the corresponding
 * fixed-engine runs: the planner only ever changes *which* engine
 * steps, never what an engine computes.
 *
 * Cost model (all times per step, rate r = fired fraction):
 *
 *   eff(T)       = 1 + (T - 1) * parallelEfficiency
 *   dispatch(T)  = (T > 1) ? T * dispatchNsPerLane : 0
 *   dense(r, T)  = stepOverhead + dispatch(T)
 *                  + N * denseNs / eff(T)                 [phase 2]
 *                  + r * N * K * (deliveryNs / eff(T)
 *                                 + ringClearNs)          [phase 3]
 *   event(r)     = stepOverhead
 *                  + r * N * ((K + 1) * eventNs
 *                             + K * (deliveryNs + ringClearNs))
 *
 * The event-driven engine is serial (one shard), so event() takes no
 * T. Both engines pay the same per-record delivery + ring-clear cost
 * once a spike fires; at T = 1 those terms cancel out of the
 * crossover, which reduces to denseNs / ((K + 1) * eventNs) — with
 * the builtin calibration exactly the hand-tuned 1 / (K + 1)
 * crossover (kBuiltinEventCostFactor = 1).
 */

#ifndef FLEXON_PLAN_PLANNER_HH
#define FLEXON_PLAN_PLANNER_HH

#include "plan/calibration.hh"

#include <cstdint>
#include <string>

namespace flexon {

/** Which delivery engine a run uses (or Auto to switch between the
 *  two at the planned crossover). */
enum class EngineKind {
    Dense, ///< dense per-step engine (NeuronBackend + SpikeRouter)
    Event, ///< event-driven LLIF engine
    Auto,  ///< rate-adaptive switch between the two
};

/** Printable engine-kind name ("dense" / "event" / "auto"). */
const char *engineKindName(EngineKind kind);

/** Parse "dense" / "event" / "auto"; returns false on anything
 *  else. */
bool parseEngineKind(const std::string &text, EngineKind &out);

namespace plan {

/**
 * Relative switch margin for the rate-adaptive engine: the engine
 * flips only when the EWMA rate clears the crossover by this factor
 * (event->dense at r > r* x (1 + h), dense->event at
 * r x (1 + h) < r*), leaving a dead band of (1 + h)^2 ~ 1.44x so a
 * rate hovering at the crossover cannot thrash hand-off costs.
 */
inline constexpr double kSwitchHysteresis = 0.2;

/**
 * Steps between engine-switch decisions. Spike output is
 * decision-window invariant (decisions land on absolute step
 * boundaries), so this only trades reaction latency against hand-off
 * frequency.
 */
inline constexpr uint64_t kDecisionWindow = 256;

/**
 * EWMA decay for the session firing-rate estimate
 * (SimulationSession::ewmaRate): rate += (observed - rate) / 64.
 * Time constant ~64 steps — long enough to ride out synchronous
 * bursts, short enough that a regime change registers within a
 * decision window.
 */
inline constexpr double kEwmaAlpha = 1.0 / 64.0;

/**
 * Default rate prior for planning before any steps have run (no EWMA
 * yet): a mid-activity guess biased toward dense, matching the
 * engines' pre-PR 8 default.
 */
inline constexpr double kDefaultRatePrior = 0.02;

/** What the planner needs to know about a network. Cheap to copy. */
struct NetworkStats
{
    uint64_t neurons = 0;
    uint64_t synapses = 0;

    /** Mean fan-out K (synapses per neuron); 0 for an empty net. */
    double meanFanOut() const
    {
        return neurons == 0
                   ? 0.0
                   : static_cast<double>(synapses) /
                         static_cast<double>(neurons);
    }
};

/** A concrete plan for one run: engine + tuning + provenance. */
struct EnginePlan
{
    EngineKind engine = EngineKind::Dense;
    /** Worker lanes the planner predicts are worth their dispatch. */
    unsigned threads = 1;
    /** Planned crossover rate for the adaptive engine. */
    double crossoverRate = 0.0;
    /** Predicted seconds per step for the chosen engine. */
    double predictedStepSec = 0.0;
    /** Per-engine predictions backing the choice (diagnostics). */
    double predictedDenseStepSec = 0.0;
    double predictedEventStepSec = 0.0;
    /** Version of the calibration the plan was derived from. */
    std::string calibrationVersion;
};

/**
 * Predicts per-engine step cost from a calibration and picks the
 * cheapest. Holds a copy of the calibration: a planner's decisions
 * never change behind its back.
 */
class ExecutionPlanner
{
  public:
    /** Plans from activeCalibration(). */
    ExecutionPlanner();
    explicit ExecutionPlanner(const CalibrationData &cal);

    const CalibrationData &calibration() const { return cal_; }

    /** Predicted dense-engine seconds per step at rate r, T lanes. */
    double predictDenseStepSec(const NetworkStats &net, double rate,
                               unsigned threads) const;
    /** Predicted event-driven seconds per step at rate r (serial). */
    double predictEventStepSec(const NetworkStats &net,
                               double rate) const;

    /**
     * Rate at which predicted dense and event-driven step costs tie
     * at T = 1, clamped to [0, 1]. Below it the event-driven engine
     * is predicted cheaper; above it the dense engine is. Returns 0
     * (never favor event-driven) when the model says dense wins at
     * every rate.
     */
    double crossoverRate(const NetworkStats &net) const;

    /**
     * Worker lanes predicted to be worth their dispatch overhead for
     * a dense step at `rate`, searched over 1..maxThreads: the T
     * minimizing predictDenseStepSec, preferring the smallest T
     * within 2% of the optimum so marginal lanes are not engaged on
     * noise.
     */
    unsigned planThreads(const NetworkStats &net, double rate,
                         unsigned maxThreads) const;

    /**
     * Full plan for a run: per-engine predictions at `rate` (use
     * kDefaultRatePrior before any steps have run), thread choice,
     * and the adaptive crossover. `maxThreads` caps the thread
     * search (e.g. a --threads flag or hardware_concurrency).
     */
    EnginePlan plan(const NetworkStats &net, double rate,
                    unsigned maxThreads) const;

  private:
    CalibrationData cal_;
};

} // namespace plan
} // namespace flexon

#endif // FLEXON_PLAN_PLANNER_HH
