#include "plan/planner.hh"

#include <algorithm>

#include "features/params.hh"

namespace flexon {
namespace plan {

namespace {

constexpr double kNsToSec = 1e-9;

double
effectiveLanes(unsigned threads, double parallelEfficiency)
{
    if (threads <= 1)
        return 1.0;
    return 1.0 + (threads - 1) * parallelEfficiency;
}

} // namespace

ExecutionPlanner::ExecutionPlanner()
    : ExecutionPlanner(activeCalibration())
{
}

ExecutionPlanner::ExecutionPlanner(const CalibrationData &cal)
    : cal_(cal)
{
}

double
ExecutionPlanner::predictDenseStepSec(const NetworkStats &net,
                                      double rate,
                                      unsigned threads) const
{
    const CostModel &m = cal_.model;
    const double n = static_cast<double>(net.neurons);
    const double eff =
        effectiveLanes(threads, m.parallelEfficiency);
    const double dispatch =
        threads > 1 ? threads * m.dispatchNsPerLane : 0.0;
    const double neuronPhase = n * m.denseNsPerNeuron / eff;
    // Every step clears the consumed slot, split across the lanes,
    // and delivers the fired rows' records.
    const double synapsePhase =
        (n * maxSynapseTypes * m.ringClearNsPerCell +
         rate * n * net.meanFanOut() * m.deliveryNsPerRecord) /
        eff;
    return (m.stepOverheadNs + n * m.serialNsPerNeuron + dispatch +
            neuronPhase + synapsePhase) *
           kNsToSec;
}

unsigned
ExecutionPlanner::planThreads(const NetworkStats &net, double rate,
                              unsigned maxThreads) const
{
    maxThreads = std::max(1u, maxThreads);
    unsigned best = 1;
    double bestSec = predictDenseStepSec(net, rate, 1);
    for (unsigned t = 2; t <= maxThreads; ++t) {
        const double sec = predictDenseStepSec(net, rate, t);
        // Prefer fewer lanes unless the gain clears 2%: predicted
        // near-ties go to the cheaper (serial-ward) configuration.
        if (sec < bestSec * 0.98) {
            best = t;
            bestSec = sec;
        }
    }
    return best;
}

EnginePlan
ExecutionPlanner::plan(const NetworkStats &net, double rate,
                       unsigned maxThreads) const
{
    EnginePlan p;
    p.calibrationVersion = cal_.version;
    p.threads = planThreads(net, rate, maxThreads);
    p.predictedStepSec = predictDenseStepSec(net, rate, p.threads);
    return p;
}

} // namespace plan
} // namespace flexon
