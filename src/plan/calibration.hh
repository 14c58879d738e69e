/**
 * @file
 * Calibrated per-operation cost data for the execution planner.
 *
 * The planner's step-cost prediction and worker-lane choice, and the
 * Figure 13 CPU baseline, rest on per-operation cost constants:
 * nanoseconds per neuron update, per delivery record, per ring-cell
 * clear, per pool dispatch. Hand-anchored constants are only honest
 * on the machine they were tuned on; this module holds the measured
 * replacement (the Hyrise cost-model-calibration idea ported to the
 * simulator).
 *
 * `tools/calibrate` sweeps parametrized microbenches (population
 * size x firing rate x thread count), fits the cost curves by robust
 * slopes, and writes a versioned `calibration.json`. This module
 * loads that document (a deliberately tiny JSON subset parser — flat
 * objects of numbers and strings — so no third-party dependency is
 * needed) and exposes it process-wide via activeCalibration().
 * When no calibration file has been installed, builtinCalibration()
 * supplies hand-anchored defaults (see the CostModel fields).
 *
 * Planner decisions derived from a CalibrationData are pure
 * functions of (this data, network stats, rate), so runs stay
 * reproducible: the calibration changes how many worker lanes a
 * planned run uses and what its report predicts, never what a step
 * computes.
 */

#ifndef FLEXON_PLAN_CALIBRATION_HH
#define FLEXON_PLAN_CALIBRATION_HH

#include <cstdint>
#include <iosfwd>
#include <string>

namespace flexon {
namespace plan {

/** Schema tag written into (and required of) calibration files. */
inline constexpr const char *kCalibrationSchema =
    "flexon-calibration-v1";

/** Version string of the hand-anchored defaults. */
inline constexpr const char *kBuiltinCalibrationVersion = "builtin";

/**
 * Fitted per-operation costs, all in nanoseconds on the calibrated
 * host. The builtin defaults are the hand anchors described on each
 * field; tools/calibrate overwrites every one of them with a
 * least-squares fit over its sweep grid.
 */
struct CostModel
{
    /**
     * Serial reference LLIF neuron update (phase 2), per neuron per
     * step. It feeds three things: the thread choice (planThreads),
     * the plan's predicted step cost, and the Figure 13 CPU baseline,
     * where the modelled NEST/Xeon per-neuron cost is this value
     * times a per-benchmark complexity factor (hwmodel/baselines.cc).
     * The builtin 4.0 is that baseline's anchor: it reproduces the
     * paper's 12 ns Brunel figure through the 3x host-to-NEST
     * factor. The vectorized reference kernel measures below it
     * (tools/calibrate), so an uncalibrated plan overstates the
     * neuron phase; a measured calibration replaces it.
     */
    double denseNsPerNeuron = 4.0;
    /** One routed delivery record (ring accumulate), phase 3. */
    double deliveryNsPerRecord = 1.0;
    /**
     * One ring cell zeroed by the slot clear, which every step runs
     * over the whole consumed slot (N x maxSynapseTypes cells). The
     * builtin 0.15 is what `calibrate --quick` measures on a 4-vCPU
     * Xeon (AVX-512) with the default RelWithDebInfo build: 0.141 to
     * 0.150 ns in eight runs.
     */
    double ringClearNsPerCell = 0.15;
    /** Fixed per-step orchestration cost (phase setup, serial). */
    double stepOverheadNs = 400.0;
    /**
     * Serial per-neuron work outside the neuron phase (the stimulus
     * draw and the fired sweep), per neuron per step, paid by no
     * worker lane. Builtin 0: the hand anchors fold it into
     * stepOverheadNs.
     */
    double serialNsPerNeuron = 0.0;
    /**
     * Added per-step cost per engaged worker lane (pool dispatch +
     * barrier). This is what makes the planner keep small
     * populations serial.
     */
    double dispatchNsPerLane = 1500.0;
    /**
     * Marginal yield of each added worker lane: effective lanes of T
     * workers = 1 + (T - 1) x this. 1.0 = perfect scaling.
     */
    double parallelEfficiency = 0.7;
};

/** A calibration document: the fitted model plus its provenance. */
struct CalibrationData
{
    /**
     * "builtin" for the defaults, the schema tag (plus whatever
     * tools/calibrate appends) for measured documents. Echoed into
     * run reports and bench-record contexts so mismatched
     * comparisons are detectable.
     */
    std::string version = kBuiltinCalibrationVersion;
    /** Free-form host identification (informational). */
    std::string host;
    CostModel model;
    /** Worst relative residual across the least-squares fits. */
    double maxResidual = 0.0;
    /** Sweep-grid points the fits were computed from. */
    uint64_t gridPoints = 0;
};

/** The hand-anchored defaults (see CostModel field docs). */
const CalibrationData &builtinCalibration();

/**
 * Parse a calibration JSON document. Returns false (with a
 * diagnostic in *error when non-null) on I/O failure, malformed
 * JSON, a wrong schema tag, or non-finite / non-positive
 * coefficients.
 */
bool loadCalibrationFile(const std::string &path,
                         CalibrationData &out,
                         std::string *error = nullptr);

/** Serialize `cal` as a calibration JSON document. */
void writeCalibrationJson(std::ostream &os,
                          const CalibrationData &cal);

/** writeCalibrationJson to a file; false on I/O failure. */
bool saveCalibrationFile(const std::string &path,
                         const CalibrationData &cal);

/**
 * Structural validation shared by the loader and `calibrate
 * --check`: every coefficient finite and positive,
 * parallelEfficiency in (0, 1], residual below `maxResidual`.
 * Returns false with a diagnostic in *error.
 */
bool validateCalibration(const CalibrationData &cal,
                         double maxResidual,
                         std::string *error = nullptr);

/**
 * The process-wide calibration consumed by default-constructed
 * planners and the hwmodel CPU baseline. builtinCalibration() until
 * setActiveCalibration() installs a measured one (flexon_sim
 * --calibration, FLEXON_CALIBRATION in the bench mains). Not
 * thread-safe against concurrent simulation — install before
 * building sessions.
 */
const CalibrationData &activeCalibration();
void setActiveCalibration(const CalibrationData &cal);

/**
 * Convenience for tool/bench mains: when the FLEXON_CALIBRATION
 * environment variable names a file, load and install it; a bad file
 * terminates the process with a diagnostic (benchmarking under a
 * silently-ignored calibration would poison the record). Returns the
 * active calibration's version either way — "builtin" when the
 * variable is unset — for echoing into record contexts.
 */
std::string installCalibrationFromEnv();

} // namespace plan
} // namespace flexon

#endif // FLEXON_PLAN_CALIBRATION_HH
