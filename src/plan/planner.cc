#include "plan/planner.hh"

#include <algorithm>
#include <cmath>

namespace flexon {

const char *
engineKindName(EngineKind kind)
{
    switch (kind) {
    case EngineKind::Dense:
        return "dense";
    case EngineKind::Event:
        return "event";
    case EngineKind::Auto:
        return "auto";
    }
    return "?";
}

bool
parseEngineKind(const std::string &text, EngineKind &out)
{
    if (text == "dense")
        out = EngineKind::Dense;
    else if (text == "event")
        out = EngineKind::Event;
    else if (text == "auto")
        out = EngineKind::Auto;
    else
        return false;
    return true;
}

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
    const double synapsePhase =
        rate * n * net.meanFanOut() *
        (m.deliveryNsPerRecord / eff + m.ringClearNsPerCell);
    return (m.stepOverheadNs + n * m.serialNsPerNeuron + dispatch +
            neuronPhase + synapsePhase) *
           kNsToSec;
}

double
ExecutionPlanner::predictEventStepSec(const NetworkStats &net,
                                      double rate) const
{
    const CostModel &m = cal_.model;
    const double n = static_cast<double>(net.neurons);
    const double k = net.meanFanOut();
    const double perSpike =
        (k + 1.0) * m.eventNsPerUnit +
        k * (m.deliveryNsPerRecord + m.ringClearNsPerCell);
    return (m.stepOverheadNs + n * m.serialNsPerNeuron +
            rate * n * perSpike) *
           kNsToSec;
}

double
ExecutionPlanner::crossoverRate(const NetworkStats &net) const
{
    // Solve dense(r, 1) = event(r) for r. With
    //   dense(r, 1) = A + B r,  A = overhead + N * denseNs,
    //                           B = N K (deliveryNs + ringClearNs)
    //   event(r)    = C + D r,  C = overhead,
    //                           D = N ((K+1) eventNs
    //                                  + K (deliveryNs + ringClearNs))
    // the common-mode delivery terms cancel:
    //   r* = (A - C) / (D - B) = denseNs / ((K + 1) * eventNs).
    const double k = net.meanFanOut();
    const double denom = (k + 1.0) * cal_.model.eventNsPerUnit;
    if (denom <= 0.0)
        return 0.0;
    const double r = cal_.model.denseNsPerNeuron / denom;
    return std::clamp(r, 0.0, 1.0);
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
    p.crossoverRate = crossoverRate(net);
    p.threads = planThreads(net, rate, maxThreads);
    p.predictedDenseStepSec =
        predictDenseStepSec(net, rate, p.threads);
    p.predictedEventStepSec = predictEventStepSec(net, rate);

    // A rate inside the hysteresis dead band around the crossover is
    // expected to wander across it; the adaptive engine is the right
    // choice there. Outside the band one engine dominates, and
    // pinning it avoids the auto layer's decision bookkeeping.
    const double margin = 1.0 + kSwitchHysteresis;
    const double r = std::max(rate, 0.0);
    if (p.crossoverRate > 0.0 && r < p.crossoverRate * margin &&
        r * margin > p.crossoverRate) {
        p.engine = EngineKind::Auto;
        p.predictedStepSec = std::min(p.predictedDenseStepSec,
                                      p.predictedEventStepSec);
    } else if (p.predictedEventStepSec < p.predictedDenseStepSec) {
        p.engine = EngineKind::Event;
        p.predictedStepSec = p.predictedEventStepSec;
    } else {
        p.engine = EngineKind::Dense;
        p.predictedStepSec = p.predictedDenseStepSec;
    }
    return p;
}

} // namespace plan
} // namespace flexon
