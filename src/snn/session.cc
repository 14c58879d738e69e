#include "snn/session.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <span>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "common/text_number.hh"
#include "plan/planner.hh"
#include "snn/plasticity.hh"
#include "snn/serialize.hh"

namespace flexon {

namespace {

const Network &
finalizedNetwork(const Network &network)
{
    if (!network.finalized())
        fatal("network must be finalized before simulation");
    return network;
}

unsigned
laneCount(size_t threads)
{
    return static_cast<unsigned>(std::max<size_t>(1, threads));
}

} // namespace

SimulationSession::HealthMetrics::HealthMetrics(
    telemetry::Registry &metrics)
    : sweeps(metrics.counter("health.sweeps",
                             "health detector sweeps executed")),
      neuronsChecked(metrics.counter(
          "health.neurons_checked",
          "membrane values examined by health sweeps")),
      nanEvents(metrics.counter(
          "health.nan_events", "sweeps that saw non-finite values")),
      saturationEvents(metrics.counter(
          "health.saturation_events",
          "sweeps that saw new fixed-point rail hits")),
      saturationHits(metrics.counter(
          "health.saturation_hits",
          "fixed-point rail hits tallied by health sweeps")),
      rateExplosions(metrics.counter(
          "health.rate_explosions",
          "sweeps with the EWMA rate above the explosion threshold")),
      rateSilences(metrics.counter(
          "health.rate_silences",
          "sweeps with the EWMA rate below the silence threshold"))
{
}

SimulationSession::SimulationSession(const Network &network,
                                     StimulusGenerator stimulus,
                                     const SimulatorOptions &options)
    : network_(finalizedNetwork(network)),
      stimulus_(std::move(stimulus)), stimulusInitial_(stimulus_),
      options_(options),
      stimulusTimer_(metrics_.timer(
          "phase.stimulus", "host seconds in stimulus generation")),
      neuronTimer_(metrics_.timer(
          "phase.neuron", "host seconds in neuron computation")),
      synapseTimer_(metrics_.timer(
          "phase.synapse", "host seconds in synapse calculation")),
      routeTimer_(metrics_.timer(
          "phase.synapse.route",
          "host seconds in the delivery engine (clear + route)")),
      probeTimer_(metrics_.timer(
          "phase.probe", "host seconds sampling membrane probes")),
      plasticityTimer_(metrics_.timer(
          "phase.plasticity",
          "host seconds in attached plasticity rules")),
      healthTimer_(metrics_.timer(
          "phase.health", "host seconds in sampled health sweeps")),
      exportTimer_(metrics_.timer(
          "phase.export", "host seconds in live metrics export")),
      stepsCounter_(
          metrics_.counter("sim.steps", "time steps simulated")),
      spikesCounter_(
          metrics_.counter("sim.spikes", "output spikes fired")),
      synapseEventsCounter_(synapseEventsCounter(metrics_)),
      modelNeuronSecGauge_(metrics_.gauge(
          "hw.model_neuron_sec",
          "modelled hardware neuron-phase seconds")),
      ewmaRateGauge_(metrics_.gauge(
          "sim.ewma_rate",
          "EWMA firing rate (spikes per neuron per step)")),
      health_(metrics_),
      connectivity_(makeConnectivityProvider(
          options.connectivity, network_, laneCount(options.threads),
          &metrics_)),
      backend_(makeBackend(options.backend, network_, options.mode,
                           options.solver, options.threads)),
      router_(network_, *connectivity_, &metrics_)
{
    spikeCounts_.assign(network_.numNeurons(), 0);
    for (uint32_t probe : options_.probes)
        flexon_assert(probe < network_.numNeurons());
    probeTraces_.resize(options_.probes.size());
    firedList_.reserve(network_.numNeurons());

    // Health monitoring: resolve the effective switch once (the
    // per-step gate is then a single bool) and defend against
    // degenerate cadences.
    if (options_.health.samplePeriod == 0)
        options_.health.samplePeriod = 1;
    if (options_.metricsEvery == 0)
        options_.metricsEvery = 1;
    healthActive_ =
        options_.health.enabled && !health::globallyDisabled();
    lastFixSaturations_ = health::fixSaturations();
    if (!options_.metricsOut.empty())
        exporter_ = std::make_unique<health::MetricsExporter>(
            options_.metricsOut, options_.label);

    // Predict from the active calibration at the builtin rate prior:
    // a later setActiveCalibration() does not move this record.
    const plan::ExecutionPlanner planner;
    planInfo_.predictedStepSec = planner.predictDenseStepSec(
        {network_.numNeurons(), network_.numSynapses()},
        plan::kDefaultRatePrior, laneCount(options_.threads));
    planInfo_.calibrationVersion = planner.calibration().version;
}

SimulationSession::~SimulationSession()
{
    // If this session's registry was registered for crash dumps,
    // unregister it — a dump taken later must not read freed memory.
    health::clearCrashDumpRegistry(&metrics_);
}

const std::vector<double> &
SimulationSession::probeTrace(size_t probe) const
{
    flexon_assert(probe < probeTraces_.size());
    return probeTraces_[probe];
}

void
SimulationSession::attachPlasticityRule(PlasticityRule *rule)
{
    flexon_assert(rule != nullptr);
    plasticityRules_.push_back(rule);
}

void
SimulationSession::phaseStimulus()
{
    telemetry::ScopedTimer scope(stimulusTimer_, "sim.stimulus");
    // Accumulate into step t's ring slot.
    const std::span<double> current = router_.slot(t_);
    for (const StimulusSpike &s : stimulus_.generate(t_)) {
        flexon_assert(s.target < network_.numNeurons());
        flexon_assert(s.type < maxSynapseTypes);
        current[s.target * maxSynapseTypes + s.type] += s.weight;
    }
}

void
SimulationSession::phaseNeuron()
{
    {
        telemetry::ScopedTimer scope(neuronTimer_, "sim.neuron");
        backend_->step(router_.slot(t_), fired_);
    }
    modelNeuronSecGauge_.add(backend_->modelSecondsPerStep());
}

void
SimulationSession::phaseSynapse()
{
    telemetry::ScopedTimer scope(synapseTimer_, "sim.synapse");

    // Re-mirror any plasticity weight updates into the delivery
    // rows (one counter compare when nothing changed).
    connectivity_->refreshWeights();

    // Serial bookkeeping sweep: spike counters, optional event
    // recording, and the ascending fired list delivery iterates. It
    // reads eight flags per load and skips the all-zero words; the
    // last numNeurons % 8 flags are read one by one.
    firedList_.clear();
    const uint32_t numNeurons =
        static_cast<uint32_t>(network_.numNeurons());
    const auto noteFired = [&](uint32_t n) {
        firedList_.push_back(n);
        ++spikeCounts_[n];
        if (options_.recordSpikes)
            spikeEvents_.push_back({t_, n});
    };
    const uint8_t *flags = fired_.data();
    const uint32_t wordEnd = numNeurons & ~uint32_t{7};
    for (uint32_t base = 0; base < wordEnd; base += 8) {
        uint64_t word;
        std::memcpy(&word, flags + base, sizeof word);
        // Flag base + i is byte i counted from the low end.
        if constexpr (std::endian::native == std::endian::big)
            word = __builtin_bswap64(word);
        while (word != 0) {
            const unsigned byte = std::countr_zero(word) / 8;
            noteFired(base + byte);
            word &= ~(uint64_t{0xff} << (8 * byte));
        }
    }
    for (uint32_t n = wordEnd; n < numNeurons; ++n) {
        if (flags[n])
            noteFired(n);
    }
    spikesCounter_.add(firedList_.size());

    // Rate estimator for the health detectors: a pure function of
    // the spike history, so it stays deterministic and restorable.
    if (numNeurons > 0) {
        const double inst = static_cast<double>(firedList_.size()) /
                            static_cast<double>(numNeurons);
        const double ewma = ewmaRate();
        ewmaRateGauge_.set(ewma + (inst - ewma) * plan::kEwmaAlpha);
    }

    // Clear the consumed slot and stream the fired rows' delivery
    // records into the t + delay slots — bit-identical to the serial
    // scan at any thread count (see snn/routing.hh).
    telemetry::ScopedTimer routeScope(routeTimer_,
                                      "sim.synapse.route");
    router_.routeStep(t_, firedList_);
}

void
SimulationSession::stepOnce()
{
    telemetry::TraceScope step("sim.step");
    // The backend writes every neuron's fired flag each step.
    phaseStimulus();
    phaseNeuron();
    phaseSynapse();
    // Plasticity observes the completed step: same ordering as the
    // external convention (run a step, then onStep(lastFired())), so
    // attached and hand-driven rules learn identically.
    if (!plasticityRules_.empty()) {
        telemetry::ScopedTimer scope(plasticityTimer_,
                                     "sim.plasticity");
        for (PlasticityRule *rule : plasticityRules_)
            rule->onStep(fired_);
    }
    ++t_;
    stepsCounter_.add(1);
    if (!options_.probes.empty()) {
        telemetry::ScopedTimer scope(probeTimer_, "sim.probe");
        for (size_t i = 0; i < options_.probes.size(); ++i)
            probeTraces_[i].push_back(membrane(options_.probes[i]));
    }
    // Health layer: a sampled detector sweep, the watchdog
    // heartbeat, and the live exporter. All three gates are a bool
    // test / relaxed load on the default path.
    if (healthActive_ && t_ % options_.health.samplePeriod == 0) {
        telemetry::ScopedTimer scope(healthTimer_, "sim.health");
        healthSweep();
    }
    if (health::watchdogArmed())
        health::heartbeat(t_);
    if (exporter_ && t_ % options_.metricsEvery == 0) {
        telemetry::ScopedTimer scope(exportTimer_, "sim.export");
        exporter_->exportNow(metrics_, t_);
    }
}

void
SimulationSession::healthApply(health::Policy policy,
                               const char *detector, uint64_t events,
                               const std::string &message)
{
    switch (policy) {
      case health::Policy::Off:
      case health::Policy::Report:
        break;
      case health::Policy::Warn:
        // Rate-limited: the first few firings in full, then every
        // 64th — a persistent fault must not flood stderr.
        if (events <= 5 || events % 64 == 0)
            logTagged(LogLevel::Warn, "health", "%s: %s", detector,
                      message.c_str());
        break;
      case health::Policy::Abort:
        logTagged(LogLevel::Warn, "health",
                  "%s: %s (policy abort, exit %d)", detector,
                  message.c_str(), health::kDetectorExitCode);
        health::heartbeat(t_);
        health::writeCrashDump(detector);
        std::exit(health::kDetectorExitCode);
    }
    if (telemetry::traceEnabled())
        telemetry::traceInstant("health.detector");
}

void
SimulationSession::healthSweep()
{
    const health::HealthOptions &ho = options_.health;
    health_.sweeps.add(1);

    // Backend state scan over a rotating window, so big populations
    // are covered incrementally at O(window) per sweep.
    health::HealthScan scan;
    const uint64_t numNeurons = network_.numNeurons();
    const bool wantScan = ho.nan != health::Policy::Off ||
                          ho.saturation != health::Policy::Off;
    if (wantScan && numNeurons > 0) {
        uint64_t begin = 0;
        uint64_t end = numNeurons;
        if (numNeurons > health::kMaxScanNeurons) {
            begin = healthCursor_;
            end = std::min(begin + health::kMaxScanNeurons, numNeurons);
            healthCursor_ = end < numNeurons ? end : 0;
        }
        backend_->healthProbe(static_cast<size_t>(begin),
                              static_cast<size_t>(end), scan);
        health_.neuronsChecked.add(scan.checked);
    }

    if (ho.nan != health::Policy::Off && scan.nonFinite > 0) {
        health_.nanEvents.add(1);
        std::ostringstream msg;
        msg << scan.nonFinite << " non-finite membrane value(s), "
            << "first at neuron " << scan.firstBad << ", step " << t_;
        healthApply(ho.nan, "nan", health_.nanEvents.value(),
                    msg.str());
    }

    // Fix saturation: the kernels tally rails process-wide; the
    // sweep attributes the delta since the previous sweep, plus any
    // membranes the scan found pinned at a rail.
    const uint64_t satNow = health::fixSaturations();
    const uint64_t satDelta = satNow - lastFixSaturations_;
    lastFixSaturations_ = satNow;
    if (ho.saturation != health::Policy::Off &&
        (satDelta > 0 || scan.saturated > 0)) {
        health_.saturationHits.add(satDelta + scan.saturated);
        health_.saturationEvents.add(1);
        std::ostringstream msg;
        msg << satDelta << " fixed-point saturation(s)";
        if (scan.saturated > 0)
            msg << " + " << scan.saturated << " railed membrane(s)";
        msg << " since last sweep, step " << t_;
        healthApply(ho.saturation, "saturation",
                    health_.saturationEvents.value(), msg.str());
    }

    // Rate anomalies engage after the warmup transient: the EWMA
    // needs history before "explosion" or "silence" means anything.
    const double ewma = ewmaRate();
    if (ho.rate != health::Policy::Off && t_ >= ho.rateWarmupSteps) {
        if (ewma > health::kRateExplosion) {
            health_.rateExplosions.add(1);
            std::ostringstream msg;
            msg << "EWMA firing rate " << ewma
                << " above explosion threshold " << health::kRateExplosion
                << ", step " << t_;
            healthApply(ho.rate, "rate-explosion",
                        health_.rateExplosions.value(), msg.str());
        } else if (ewma < health::kRateSilence) {
            health_.rateSilences.add(1);
            std::ostringstream msg;
            msg << "EWMA firing rate " << ewma
                << " below silence threshold " << health::kRateSilence
                << ", step " << t_;
            healthApply(ho.rate, "rate-silence",
                        health_.rateSilences.value(), msg.str());
        }
    }
}

health::HealthCounters
SimulationSession::healthCounters() const
{
    return {.sweeps = health_.sweeps.value(),
            .neuronsChecked = health_.neuronsChecked.value(),
            .nanEvents = health_.nanEvents.value(),
            .saturationEvents = health_.saturationEvents.value(),
            .saturationHits = health_.saturationHits.value(),
            .rateExplosions = health_.rateExplosions.value(),
            .rateSilences = health_.rateSilences.value()};
}

void
SimulationSession::run(uint64_t steps)
{
    if (steps == 0)
        return;
    // Reserve recording capacity up front so per-step push_backs do
    // not reallocate mid-run. Spike-event growth is estimated from
    // the observed rate (a modest prior on a fresh session) and
    // capped so absurd step counts cannot over-commit memory.
    if (options_.recordSpikes && network_.numNeurons() > 0) {
        constexpr uint64_t maxReserveAhead = uint64_t{1} << 22;
        const double rate =
            stepsCounter_.value() > 0 ? meanRate() : 0.02;
        const double expected =
            1.25 * rate * static_cast<double>(steps) *
            static_cast<double>(network_.numNeurons());
        const auto ahead = static_cast<uint64_t>(
            std::min(expected, 1e18));
        spikeEvents_.reserve(spikeEvents_.size() +
                             std::min(ahead, maxReserveAhead));
    }
    for (auto &trace : probeTraces_)
        trace.reserve(trace.size() + steps);

    for (uint64_t i = 0; i < steps; ++i)
        stepOnce();
}

double
SimulationSession::meanRate() const
{
    const uint64_t steps = stepsCounter_.value();
    if (steps == 0 || network_.numNeurons() == 0)
        return 0.0;
    return static_cast<double>(spikesCounter_.value()) /
           (static_cast<double>(steps) *
            static_cast<double>(network_.numNeurons()));
}

PhaseStats
SimulationSession::stats() const
{
    PhaseStats view;
    view.stimulusSec = stimulusTimer_.seconds();
    view.neuronSec = neuronTimer_.seconds();
    view.synapseSec = synapseTimer_.seconds();
    view.synapseRouteSec = routeTimer_.seconds();
    view.probeSec = probeTimer_.seconds();
    view.steps = stepsCounter_.value();
    view.spikes = spikesCounter_.value();
    view.synapseEvents = synapseEventsCounter_.value();
    view.modelNeuronSec = modelNeuronSecGauge_.value();
    // The route interval is strictly nested inside the synapse-phase
    // interval on the same steady clock.
    flexon_debug_assert(view.synapseRouteSec <= view.synapseSec);
    return view;
}

double
SimulationSession::measuredStepSec() const
{
    const uint64_t timedSteps = neuronTimer_.count();
    if (timedSteps == 0)
        return 0.0;
    double seconds = 0.0;
    for (const auto &[name, value] : metrics_.snapshot().timers) {
        if (name.starts_with("phase.") &&
            name.find('.', 6) == std::string::npos)
            seconds += value.seconds;
    }
    return seconds / static_cast<double>(timedSteps);
}

void
SimulationSession::printStats(std::ostream &os) const
{
    os << "---------- simulation statistics ----------\n";
    metrics_.writeText(os);

    // Derived ratios, not metrics. Host seconds are per timed step
    // (timers restart at a restore); counters are per simulated step.
    auto line = [&os](const char *name, double value,
                      const char *desc) {
        telemetry::writeStatLine(os, name, telemetry::jsonNumber(value),
                                 desc);
    };
    const PhaseStats &view = stats();
    line("sim.rate", meanRate(), "spikes per neuron per step");
    const double stepSec = measuredStepSec();
    if (stepSec > 0.0) {
        const double timedSteps =
            static_cast<double>(neuronTimer_.count());
        line("sim.steps_per_sec", 1.0 / stepSec,
             "simulated steps per host second");
        line("sim.synapse_events_per_sec",
             static_cast<double>(view.synapseEvents) /
                 static_cast<double>(view.steps) / stepSec,
             "synaptic deliveries per host second");
        line("phase.neuron_share",
             view.neuronSec / timedSteps / stepSec,
             "neuron-computation fraction of the step (Figure 3)");
        if (view.modelNeuronSec > 0.0) {
            line("hw.speedup_vs_host",
                 (view.neuronSec / timedSteps) /
                     (view.modelNeuronSec /
                      static_cast<double>(view.steps)),
                 "modelled hardware speedup over this host");
        }
    }
    os << "--------------------------------------------\n";
}

void
SimulationSession::reset()
{
    // Registry first: the provider republishes its footprint gauges
    // when it resets.
    metrics_.reset();
    connectivity_->reset();
    backend_->reset();
    router_.reset();
    std::fill(spikeCounts_.begin(), spikeCounts_.end(), 0);
    // Drop the previous run's fired flags too: lastFired() must
    // report "no step taken yet" after a reset, not stale spikes.
    fired_.clear();
    firedList_.clear();
    spikeEvents_.clear();
    for (auto &trace : probeTraces_)
        trace.clear();
    t_ = 0;
    stimulus_ = stimulusInitial_;
    restored_ = false;
    restoredStep_ = 0;
    healthCursor_ = 0;
    lastFixSaturations_ = health::fixSaturations();
}

bool
SimulationSession::writeRunReport(const std::string &path) const
{
    telemetry::ReportContext context;
    auto &config = context.config;
    config.emplace_back(
        "backend", telemetry::jsonQuoted(backendName(options_.backend)));
    config.emplace_back("connectivity",
                        telemetry::jsonQuoted(connectivityKindName(
                            options_.connectivity)));
    config.emplace_back(
        "threads",
        std::to_string(options_.threads == 0 ? 1 : options_.threads));
    config.emplace_back("stimulus_seed",
                        std::to_string(options_.stimulusSeed));
    config.emplace_back("neurons",
                        std::to_string(network_.numNeurons()));
    config.emplace_back("synapses",
                        std::to_string(network_.numSynapses()));
    config.emplace_back("probes",
                        std::to_string(options_.probes.size()));
    config.emplace_back("record_spikes",
                        options_.recordSpikes ? "true" : "false");

    auto num = [](double x) { return telemetry::jsonNumber(x); };

    telemetry::ReportFields checkpoint;
    checkpoint.emplace_back(
        "enabled", checkpointEvery_ > 0 ? "true" : "false");
    checkpoint.emplace_back("every",
                            std::to_string(checkpointEvery_));
    checkpoint.emplace_back("saves",
                            std::to_string(checkpointSaves_));
    checkpoint.emplace_back("restored",
                            restored_ ? "true" : "false");
    checkpoint.emplace_back("restored_step",
                            std::to_string(restoredStep_));
    context.sections.emplace_back("checkpoint",
                                  std::move(checkpoint));

    // Health section: what the detectors were configured to do. What
    // they saw is the health.* counters under "metrics"; the watchdog
    // count is process-wide, not a session metric.
    telemetry::ReportFields healthFields;
    healthFields.emplace_back("enabled",
                              healthActive_ ? "true" : "false");
    healthFields.emplace_back(
        "policy",
        telemetry::jsonQuoted(health::specString(options_.health)));
    healthFields.emplace_back(
        "sample_every", std::to_string(options_.health.samplePeriod));
    healthFields.emplace_back(
        "watchdog_stalls", std::to_string(health::watchdogStalls()));
    context.sections.emplace_back("health",
                                  std::move(healthFields));

    telemetry::ReportFields planFields;
    planFields.emplace_back("planned",
                            planInfo_.planned ? "true" : "false");
    planFields.emplace_back("predicted_step_sec",
                            num(planInfo_.predictedStepSec));
    planFields.emplace_back("measured_step_sec",
                            num(measuredStepSec()));
    planFields.emplace_back(
        "calibration_version",
        telemetry::jsonQuoted(planInfo_.calibrationVersion));
    context.sections.emplace_back("plan", std::move(planFields));

    context.metrics = &metrics_;
    return telemetry::writeReportFile(path, context);
}

// ---- Checkpoint/restore ----------------------------------------

void
SimulationSession::saveCheckpoint(std::ostream &os) const
{
    // Arms the stream: 17 significant digits from here on.
    writeCheckpointHeader(os);

    os << "session " << network_.numNeurons() << ' ' << t_ << '\n';
    // Only simulation-meaningful counters are captured; wall-clock
    // phase timers are host-specific and restart from zero. The EWMA
    // rate rides along so the rate detectors continue
    // deterministically after a restore.
    os << "counters " << stepsCounter_.value() << ' '
       << spikesCounter_.value() << ' '
       << modelNeuronSecGauge_.value() << ' ' << ewmaRate() << '\n';

    os << "spike_counts";
    for (const uint64_t c : spikeCounts_)
        os << ' ' << c;
    os << '\n';

    os << "probes " << probeTraces_.size() << '\n';
    for (const auto &trace : probeTraces_) {
        os << "trace " << trace.size();
        for (const double v : trace)
            os << ' ' << v;
        os << '\n';
    }

    os << "spike_events " << spikeEvents_.size();
    for (const SpikeEvent &e : spikeEvents_)
        os << ' ' << e.step << ' ' << e.neuron;
    os << '\n';

    stimulus_.saveState(os);

    // Plasticity-mutated weights. The watermark is informational
    // (diagnostics); restore rewrites the weights through the
    // logging mutators, which floods the network's mutation log and
    // lets delivery providers re-mirror on their next
    // refreshWeights(). Materialized networks snapshot the full
    // weight vector (form 1); procedural networks snapshot the spec
    // seed plus the sparse overlay (form 2) — the generator
    // reproduces every untouched weight, so the checkpoint stays
    // O(mutated) instead of O(synapses).
    const bool haveWeights = network_.weightMutations() > 0;
    if (!haveWeights) {
        os << "weights 0\n";
    } else if (network_.procedural()) {
        const auto overlay = network_.sortedOverlay();
        os << "weights 2\n";
        os << network_.connectivitySpec().seed << ' '
           << overlay.size();
        for (const auto &[idx, w] : overlay)
            os << ' ' << idx << ' ' << w;
        os << '\n';
    } else {
        os << "weights 1\n";
        os << network_.weightMutations() << ' '
           << network_.numSynapses();
        for (uint64_t i = 0; i < network_.numSynapses(); ++i)
            os << ' ' << network_.synapseAt(i).weight;
        os << '\n';
    }

    // Attached plasticity rules (v4): one tagged state record per
    // rule, in attachment order. Rules driven externally (never
    // attached) keep checkpointing their state beside the session's,
    // as before.
    os << "plasticity " << plasticityRules_.size() << '\n';
    for (const PlasticityRule *rule : plasticityRules_) {
        os << "rule " << rule->kind() << '\n';
        rule->saveState(os);
    }

    os << "engine\n";
    backend_->saveState(os);
    router_.saveState(os);
    os << "end\n";

    ++checkpointSaves_;
}

void
SimulationSession::loadCheckpoint(std::istream &is,
                                  Network *mutableNetwork)
{
    // Restoring onto a used session must equal restoring onto a
    // fresh one: wipe everything first (also zeroes the registry the
    // counters below are re-seeded into).
    reset();

    const int version = parseCheckpointHeader(is);

    std::string tag;
    uint64_t neurons = 0;
    is >> tag >> neurons >> t_;
    if (tag != "session" || !is)
        fatal("malformed checkpoint session line");
    if (neurons != network_.numNeurons()) {
        fatal("checkpoint is for %llu neurons, this network has "
              "%llu",
              static_cast<unsigned long long>(neurons),
              static_cast<unsigned long long>(
                  network_.numNeurons()));
    }

    uint64_t steps = 0, spikes = 0;
    double modelSec = 0.0, ewma = 0.0;
    is >> tag >> steps >> spikes >> modelSec >> ewma;
    if (tag != "counters" || !is)
        fatal("malformed checkpoint counters line");
    stepsCounter_.add(steps);
    spikesCounter_.add(spikes);
    modelNeuronSecGauge_.add(modelSec);
    ewmaRateGauge_.set(ewma);

    is >> tag;
    if (tag != "spike_counts")
        fatal("malformed checkpoint spike_counts block");
    for (uint64_t &c : spikeCounts_)
        is >> c;

    size_t numProbes = 0;
    is >> tag >> numProbes;
    if (tag != "probes" || !is)
        fatal("malformed checkpoint probes block");
    if (numProbes != probeTraces_.size()) {
        fatal("checkpoint has %zu probe traces, session is "
              "configured with %zu probes",
              numProbes, probeTraces_.size());
    }
    // Counts read from the file are bounded by what t_ steps could
    // have produced before they size an allocation.
    for (auto &trace : probeTraces_) {
        uint64_t len = 0;
        is >> tag >> len;
        if (tag != "trace" || !is)
            fatal("malformed checkpoint probe trace");
        if (len > t_)
            fatal("checkpoint probe trace has %llu samples after %llu "
                  "steps",
                  static_cast<unsigned long long>(len),
                  static_cast<unsigned long long>(t_));
        trace.resize(len);
        for (double &v : trace)
            readDouble(is, v);
    }

    uint64_t numEvents = 0;
    is >> tag >> numEvents;
    if (tag != "spike_events" || !is)
        fatal("malformed checkpoint spike_events block");
    if (numEvents > 0 &&
        (neurons == 0 || (numEvents - 1) / neurons >= t_))
        fatal("checkpoint has %llu spike events, more than %llu steps "
              "of %llu neurons can fire",
              static_cast<unsigned long long>(numEvents),
              static_cast<unsigned long long>(t_),
              static_cast<unsigned long long>(neurons));
    spikeEvents_.resize(numEvents);
    for (SpikeEvent &e : spikeEvents_)
        is >> e.step >> e.neuron;

    stimulus_.loadState(is);

    int haveWeights = 0;
    is >> tag >> haveWeights;
    if (tag != "weights" || !is)
        fatal("malformed checkpoint weights block");
    if (haveWeights != 0 && mutableNetwork != &network_) {
        fatal("checkpoint carries mutated synapse weights; "
              "loadCheckpoint needs the session's own Network "
              "passed as mutableNetwork");
    }
    if (haveWeights == 1) {
        if (network_.procedural())
            fatal("checkpoint carries a full weight vector "
                  "(materialized storage); this network is "
                  "procedural — restore with the connectivity mode "
                  "that wrote it");
        uint64_t watermark = 0, numSynapses = 0;
        is >> watermark >> numSynapses;
        if (!is || numSynapses != network_.numSynapses())
            fatal("checkpoint weight vector does not match the "
                  "network's synapse count");
        for (uint64_t i = 0; i < numSynapses; ++i) {
            float w = 0.0f;
            is >> w;
            // Through the logging mutator: the provider notices and
            // re-mirrors on its next refreshWeights().
            mutableNetwork->setSynapseWeight(i, w);
        }
    } else if (haveWeights == 2) {
        if (!network_.procedural())
            fatal("checkpoint carries a procedural weight overlay; "
                  "this network stores its synapses — restore with "
                  "--connectivity=procedural");
        uint64_t seed = 0, count = 0;
        is >> seed >> count;
        if (!is || seed != network_.connectivitySpec().seed)
            fatal("checkpoint overlay was generated from spec seed "
                  "%llu, this network uses %llu",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(
                      network_.connectivitySpec().seed));
        // Start from generated weights, then re-apply the deltas
        // (both through log-flooding mutators, so caches refresh).
        mutableNetwork->clearWeightOverlay();
        for (uint64_t i = 0; i < count; ++i) {
            uint64_t idx = 0;
            float w = 0.0f;
            is >> idx >> w;
            if (!is || idx >= network_.numSynapses())
                fatal("malformed checkpoint overlay entry %llu",
                      static_cast<unsigned long long>(i));
            mutableNetwork->setSynapseWeight(idx, w);
        }
    } else if (haveWeights != 0) {
        fatal("unknown checkpoint weights form %d", haveWeights);
    }

    // Plasticity block (v4+). Older snapshots have none: any rules
    // attached to this session keep their current state, matching
    // the historical external convention.
    if (version >= 4) {
        size_t numRules = 0;
        is >> tag >> numRules;
        if (tag != "plasticity" || !is)
            fatal("malformed checkpoint plasticity block");
        if (numRules != plasticityRules_.size()) {
            fatal("checkpoint carries %zu plasticity rules, this "
                  "session has %zu attached",
                  numRules, plasticityRules_.size());
        }
        for (PlasticityRule *rule : plasticityRules_) {
            std::string kind;
            is >> tag >> kind;
            if (tag != "rule" || !is || kind != rule->kind()) {
                fatal("checkpoint plasticity rule '%s' does not "
                      "match attached rule '%s'",
                      kind.c_str(), rule->kind());
            }
            rule->loadState(is);
        }
    }

    is >> tag;
    if (tag != "engine" || !is)
        fatal("malformed checkpoint engine block");
    backend_->loadState(is);
    router_.loadState(is, version);

    is >> tag;
    if (tag != "end" || !is)
        fatal("truncated checkpoint (missing end marker)");

    restored_ = true;
    restoredStep_ = t_;
}

bool
SimulationSession::saveCheckpointFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot open checkpoint file '%s' for writing",
             path.c_str());
        return false;
    }
    saveCheckpoint(os);
    os.flush();
    if (!os) {
        warn("failed writing checkpoint file '%s'", path.c_str());
        return false;
    }
    return true;
}

void
SimulationSession::loadCheckpointFile(const std::string &path,
                                      Network *mutableNetwork)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open checkpoint file '%s'", path.c_str());
    loadCheckpoint(is, mutableNetwork);
}

} // namespace flexon
