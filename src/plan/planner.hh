/**
 * @file
 * Execution planner: calibrated step-cost prediction and the thread
 * choice.
 *
 * The ExecutionPlanner turns a CalibrationData into a predicted cost
 * of one simulation step and into the number of worker lanes a
 * network is worth. Every prediction is a pure function of
 * (calibration, NetworkStats, rate, threads) — no clocks, no
 * sampling — so planner-driven runs are reproducible and
 * bit-identical to the corresponding fixed-thread runs: the planner
 * only ever changes how many lanes step, never what a step computes.
 *
 * Cost model (all times per step, rate r = fired fraction, C =
 * maxSynapseTypes ring cells per neuron):
 *
 *   eff(T)       = 1 + (T - 1) * parallelEfficiency
 *   dispatch(T)  = (T > 1) ? T * dispatchNsPerLane : 0
 *   step(r, T)   = stepOverhead + N * serialNs + dispatch(T)
 *                  + N * denseNs / eff(T)                 [phase 2]
 *                  + (N * C * ringClearNs
 *                     + r * N * K * deliveryNs) / eff(T)  [phase 3]
 *
 * Phase 3 clears the whole consumed slot every step, each lane its
 * own shard, so the clear scales with N, not with the activity.
 */

#ifndef FLEXON_PLAN_PLANNER_HH
#define FLEXON_PLAN_PLANNER_HH

#include "plan/calibration.hh"

#include <cstdint>
#include <string>

namespace flexon {
namespace plan {

/**
 * EWMA decay for the session firing-rate estimate
 * (SimulationSession::ewmaRate, read by the health rate detectors):
 * rate += (observed - rate) / 64. Time constant ~64 steps — long
 * enough to ride out synchronous bursts, short enough that a regime
 * change registers within a few hundred steps.
 */
inline constexpr double kEwmaAlpha = 1.0 / 64.0;

/**
 * Default rate prior for planning before any steps have run (no EWMA
 * yet): a mid-activity guess for the delivery term of the step cost.
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

/** A concrete plan for one run: threads + prediction + provenance. */
struct EnginePlan
{
    /** Worker lanes the planner predicts are worth their dispatch. */
    unsigned threads = 1;
    /** Predicted seconds per step at `threads`. */
    double predictedStepSec = 0.0;
    /** Version of the calibration the plan was derived from. */
    std::string calibrationVersion;
};

/**
 * Predicts step cost from a calibration and picks the thread count.
 * Holds a copy of the calibration: a planner's decisions never change
 * behind its back.
 */
class ExecutionPlanner
{
  public:
    /** Plans from activeCalibration(). */
    ExecutionPlanner();
    explicit ExecutionPlanner(const CalibrationData &cal);

    const CalibrationData &calibration() const { return cal_; }

    /** Predicted seconds per step at rate r, T lanes. */
    double predictDenseStepSec(const NetworkStats &net, double rate,
                               unsigned threads) const;

    /**
     * Worker lanes predicted to be worth their dispatch overhead for
     * a step at `rate`, searched over 1..maxThreads: the T minimizing
     * predictDenseStepSec, preferring the smallest T within 2% of the
     * optimum so marginal lanes are not engaged on noise.
     */
    unsigned planThreads(const NetworkStats &net, double rate,
                         unsigned maxThreads) const;

    /**
     * Full plan for a run: thread choice and the prediction at `rate`
     * (use kDefaultRatePrior before any steps have run). `maxThreads`
     * caps the thread search (e.g. a --threads flag or
     * hardware_concurrency).
     */
    EnginePlan plan(const NetworkStats &net, double rate,
                    unsigned maxThreads) const;

  private:
    CalibrationData cal_;
};

} // namespace plan
} // namespace flexon

#endif // FLEXON_PLAN_PLANNER_HH
