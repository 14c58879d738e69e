#include "snn/auto_engine.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "snn/event_driven.hh"
#include "snn/serialize.hh"

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

AutoSession::AutoSession(const Network &network,
                         StimulusGenerator stimulus,
                         const SimulatorOptions &options,
                         const AutoEngineOptions &autoOptions)
    : network_(network), stimulus_(std::move(stimulus)),
      options_(options), auto_(autoOptions)
{
    bool startEvent = auto_.engine == EngineKind::Event;

    if (options_.connectivity != ConnectivityKind::Materialized &&
        auto_.engine == EngineKind::Event) {
        // The event-driven engine walks stored rows through its own
        // materialized table; running it would silently ignore the
        // requested representation.
        fatal("engine=event requires materialized connectivity "
              "(requested %s)",
              connectivityKindName(options_.connectivity));
    }

    if (auto_.engine == EngineKind::Auto) {
        // Adaptivity requires the bit-exact hand-off, which exists
        // for the Reference backend's discrete LLIF path only.
        std::string why;
        if (options_.backend != BackendKind::Reference)
            why = "the " +
                  std::string(backendName(options_.backend)) +
                  " backend models hardware timing and cannot hand "
                  "off neuron state";
        else if (options_.mode != IntegrationMode::Discrete)
            why = "continuous integration carries solver state the "
                  "event-driven engine cannot reproduce";
        else if (options_.connectivity !=
                 ConnectivityKind::Materialized)
            why = std::string(connectivityKindName(
                      options_.connectivity)) +
                  " connectivity has no event-driven delivery path";
        else
            eventDrivenEligible(network_, &why);
        adaptive_ = why.empty();
        if (!adaptive_)
            warn("engine=auto: pinned to the dense engine (%s)",
                 why.c_str());
    }

    // Plan from the caller's planner, or from the process-wide
    // active calibration when none was supplied. The plan is copied
    // — later setActiveCalibration() calls do not move a live
    // session's crossover.
    const plan::ExecutionPlanner fallback;
    const plan::ExecutionPlanner &planner =
        auto_.planner != nullptr ? *auto_.planner : fallback;
    const plan::NetworkStats netStats{network_.numNeurons(),
                                      network_.numSynapses()};
    const unsigned maxThreads = static_cast<unsigned>(
        std::max<size_t>(1, options_.threads));
    plan_ = planner.plan(netStats, plan::kDefaultRatePrior,
                         maxThreads);
    planner_ = planner;
    netStats_ = netStats;

    if (adaptive_) {
        // Rate at which the planner predicts dense and event-driven
        // step costs tie (common delivery terms cancel; with the
        // builtin calibration this is the tuned 1 / (K + 1)).
        crossoverRate_ = plan_.crossoverRate;
        // A fresh network is silent: start event-driven.
        startEvent = true;
    }

    child_ = makeEngine(startEvent);
    eventActive_ = startEvent;
    applyPlanInfo();
    if (adaptive_) {
        // Audit the implicit step-0 decision (the silent-network
        // prior picking the event engine) alongside the windowed
        // ones.
        recordDecision(plan::kDefaultRatePrior, false);
    }
}

void
AutoSession::recordDecision(double rate, bool switched)
{
    const unsigned threads = static_cast<unsigned>(
        std::max<size_t>(1, options_.threads));
    PlanDecision d;
    d.step = child_->currentStep();
    d.ewmaRate = rate;
    d.predictedDenseSec =
        planner_.predictDenseStepSec(netStats_, rate, threads);
    d.predictedEventSec =
        planner_.predictEventStepSec(netStats_, rate);
    d.chosen = eventActive_ ? "event" : "dense";
    d.switched = switched;
    child_->recordPlanDecision(d);
}

void
AutoSession::applyPlanInfo()
{
    PlanInfo info;
    info.present = true;
    info.strategy = adaptive_ ? "auto"
                    : eventActive_
                        ? "event"
                        : "dense";
    info.planned = false; // flexon_sim --plan=auto overrides
    info.predictedStepSec =
        eventActive_ ? plan_.predictedEventStepSec
                     : plan_.predictedDenseStepSec;
    info.crossoverRate = adaptive_ ? crossoverRate_ : 0.0;
    info.calibrationVersion = plan_.calibrationVersion;
    child_->setPlanInfo(info);
}

std::unique_ptr<SimulationSession>
AutoSession::makeEngine(bool event) const
{
    if (event)
        return std::make_unique<EventDrivenSimulator>(
            network_, stimulus_, options_);
    return std::make_unique<Simulator>(network_, stimulus_, options_);
}

const char *
AutoSession::activeEngine() const
{
    return eventActive_ ? "event-driven" : "dense";
}

void
AutoSession::switchEngine(bool toEvent)
{
    if (toEvent == eventActive_)
        return;
    EngineTransfer xfer;
    if (!child_->engineExportTransfer(xfer)) {
        warn("engine=auto: %s engine cannot export its state; "
             "switching disabled",
             activeEngine());
        adaptive_ = false;
        return;
    }
    std::unique_ptr<SimulationSession> next = makeEngine(toEvent);
    next->adoptSessionCore(*child_);
    if (!next->engineImportTransfer(xfer)) {
        warn("engine=auto: hand-off import failed; switching "
             "disabled");
        adaptive_ = false;
        return;
    }
    child_ = std::move(next);
    eventActive_ = toEvent;
    ++switches_;
}

void
AutoSession::decide()
{
    const double rate = child_->ewmaRate();
    const double margin = 1.0 + auto_.hysteresis;
    const bool wasEvent = eventActive_;
    if (eventActive_) {
        if (rate > crossoverRate_ * margin)
            switchEngine(false);
    } else {
        if (rate * margin < crossoverRate_)
            switchEngine(true);
    }
    // Record after any switch so the entry lands in the session
    // core the run continues with (adoptSessionCore carries the
    // trail across a hand-off).
    recordDecision(rate, eventActive_ != wasEvent);
}

void
AutoSession::run(uint64_t steps)
{
    if (!adaptive_ || auto_.decisionWindow == 0) {
        child_->run(steps);
        return;
    }
    while (steps > 0) {
        // Decide on absolute window boundaries, so a restored run
        // re-evaluates at the same steps as the original.
        const uint64_t window = auto_.decisionWindow;
        const uint64_t toBoundary =
            window - child_->currentStep() % window;
        const uint64_t chunk = std::min(steps, toBoundary);
        child_->run(chunk);
        steps -= chunk;
        if (child_->currentStep() % window == 0)
            decide();
    }
}

bool
AutoSession::saveCheckpointFile(const std::string &path) const
{
    return child_->saveCheckpointFile(path);
}

void
AutoSession::loadCheckpointFile(const std::string &path,
                                Network *mutableNetwork)
{
    if (adaptive_) {
        // Resume on the engine that wrote the snapshot; the rate
        // estimator it carries drives later decisions as usual.
        const std::string kind = peekCheckpointFileEngine(path);
        const bool wantEvent = kind == "event-driven";
        if (wantEvent != eventActive_) {
            const PlanInfo planInfo = child_->planInfo();
            child_ = makeEngine(wantEvent);
            eventActive_ = wantEvent;
            child_->setPlanInfo(planInfo);
        }
    }
    child_->loadCheckpointFile(path, mutableNetwork);
}

} // namespace flexon
