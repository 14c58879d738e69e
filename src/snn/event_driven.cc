#include "snn/event_driven.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace flexon {

bool
eventDrivenEligible(const Network &network,
                    const SimulatorOptions &options, std::string *why)
{
    // The hand-off moves LLIF (v, refractory) arrays, which only the
    // reference backend's discrete path can export and import.
    if (options.backend != BackendKind::Reference) {
        if (why)
            *why = "the event-driven engine runs the reference "
                   "backend's arithmetic only; the " +
                   std::string(backendName(options.backend)) +
                   " backend cannot hand off its neuron state";
        return false;
    }
    if (options.mode != IntegrationMode::Discrete) {
        if (why)
            *why = "continuous integration carries solver state the "
                   "event-driven engine cannot reproduce";
        return false;
    }
    for (size_t p = 0; p < network.numPopulations(); ++p) {
        const Population &pop = network.population(p);
        const FeatureSet &f = pop.params.features;
        if (!f.has(Feature::LID) || !f.has(Feature::CUB)) {
            if (why)
                *why = "the engine requires LLIF (LID + CUB) "
                       "populations; '" +
                       pop.name + "' is " + f.toString();
            return false;
        }
        const FeatureSet allowed{Feature::LID, Feature::CUB,
                                 Feature::AR};
        for (Feature feat : f.list()) {
            if (!allowed.has(feat)) {
                if (why)
                    *why = "population '" + pop.name + "' uses " +
                           featureName(feat) +
                           ", which the event-driven engine does "
                           "not support";
                return false;
            }
        }
        if (pop.params.vLeak < 0.0) {
            // A negative leak drives silent neurons upward, through
            // threshold, between the steps the engine skips.
            if (why)
                *why = "population '" + pop.name +
                       "' has a negative leak (v_leak < 0); the "
                       "engine's catch-up decays toward rest only";
            return false;
        }
    }
    return true;
}

EventEngine::EventEngine(const Network &network,
                         ConnectivityProvider &rows,
                         telemetry::Registry &metrics)
    : network_(network), rows_(rows),
      synapseEvents_(synapseEventsCounter(metrics)),
      updatesCounter_(metrics.counter(
          "ev.updates", "neuron updates actually performed")),
      denseUpdatesCounter_(metrics.counter(
          "ev.dense_updates",
          "updates a dense per-step engine would have performed"))
{
    // Cache the per-neuron LLIF parameters.
    state_.resize(network.numNeurons());
    vLeak_.resize(network.numNeurons());
    arSteps_.resize(network.numNeurons());
    synapseTypes_.resize(network.numNeurons());
    for (size_t p = 0; p < network.numPopulations(); ++p) {
        const Population &pop = network.population(p);
        const FeatureSet &f = pop.params.features;
        // The dense kernel reads the population's own synapse types
        // (at least one); deliveries of any other type are dropped.
        const size_t types = std::clamp<size_t>(
            pop.params.numSynapseTypes, 1, maxSynapseTypes);
        for (size_t i = 0; i < pop.count; ++i) {
            vLeak_[pop.base + i] = pop.params.vLeak;
            arSteps_[pop.base + i] =
                f.has(Feature::AR) ? pop.params.arSteps : 0;
            synapseTypes_[pop.base + i] = static_cast<uint8_t>(types);
        }
    }

    ringDepth_ = static_cast<size_t>(network.maxDelay()) + 1;
    ring_.resize(ringDepth_);
    carry_.resize(ringDepth_);
    acc_.assign(network.numNeurons(),
                std::array<double, maxSynapseTypes>{});
    queued_.assign(network.numNeurons(), 0);
    touched_.reserve(network.numNeurons());
}

EventEngine::NeuronState
EventEngine::silentUntil(uint32_t neuron, uint64_t now) const
{
    NeuronState s = state_[neuron];
    const uint64_t elapsed = now - std::min(now, s.lastUpdate);
    // The dense kernel computes max(0, v - vLeak) once per silent
    // step; one batched max(0, v - k * vLeak) rounds differently, so
    // the steps are replayed. A silent v never rises, so the replay
    // stops once v rests (or under a leak too small to move it): at
    // most the subtractions the dense kernel made, and never more
    // than v / vLeak + 1. Only the subtraction is on the loop's
    // dependency chain; the floor is a branch out of it.
    const double leak = vLeak_[neuron];
    for (uint64_t k = 0; k < elapsed; ++k) {
        const double next = s.v - leak;
        if (!(next > 0.0)) { // max(0, next), a NaN included
            s.v = 0.0;
            break;
        }
        if (next == s.v)
            break;
        s.v = next;
    }
    s.refractory = elapsed >= s.refractory
                       ? 0
                       : s.refractory - static_cast<uint32_t>(elapsed);
    s.lastUpdate = std::max(now, s.lastUpdate);
    return s;
}

void
EventEngine::catchUp(uint32_t neuron, uint64_t now)
{
    flexon_assert(now >= state_[neuron].lastUpdate);
    state_[neuron] = silentUntil(neuron, now);
}

void
EventEngine::updateNeuron(uint32_t neuron, double input,
                                   uint64_t now,
                                   std::vector<uint8_t> &fired)
{
    // Bring the state to the entry of step `now`, then apply the
    // dense engine's per-step semantics (Equations 3 + 7).
    catchUp(neuron, now);
    NeuronState &s = state_[neuron];

    const bool blocked = s.refractory > 0;
    if (s.refractory > 0)
        --s.refractory;
    const double in = blocked ? 0.0 : input;
    s.v = std::max(0.0, s.v + in - vLeak_[neuron]);
    s.lastUpdate = now + 1;

    if (s.v > 1.0) {
        s.v = 0.0;
        s.refractory = arSteps_[neuron];
        fired[neuron] = 1;
    }
}

void
EventEngine::injectStimulus(uint64_t t,
                            std::span<const StimulusSpike> spikes)
{
    touched_.clear();

    // Hand-off carry first (those doubles were accumulated strictly
    // before the switch), then pending deliveries, then this step's
    // stimulus — the same per-cell arrival order as the dense
    // engine's ring slot (ring writes land in earlier steps,
    // stimulus in phase 1 of step t).
    auto &carry = carry_[t % ringDepth_];
    for (const auto &[cell, value] : carry) {
        const uint32_t target = cell / maxSynapseTypes;
        const uint32_t type = cell % maxSynapseTypes;
        if (!queued_[target]) {
            queued_[target] = 1;
            touched_.push_back(target);
        }
        acc_[target][type] += value;
    }
    carry.clear();

    auto &slot = ring_[t % ringDepth_];
    for (const DeliveryRecord &rec : slot) {
        const uint32_t target = rec.cell / maxSynapseTypes;
        const uint32_t type = rec.cell % maxSynapseTypes;
        if (!queued_[target]) {
            queued_[target] = 1;
            touched_.push_back(target);
        }
        acc_[target][type] += rec.weight;
    }
    slot.clear();

    for (const StimulusSpike &s : spikes) {
        if (!queued_[s.target]) {
            queued_[s.target] = 1;
            touched_.push_back(s.target);
        }
        acc_[s.target][s.type] += s.weight;
    }
}

void
EventEngine::stepNeurons(uint64_t t, std::vector<uint8_t> &fired)
{
    // Per-type buckets summed in type order over the population's
    // types, exactly as the dense engine's synapse-calculation slot
    // does — so the floating-point accumulation order (and hence
    // every spike) matches bit for bit.
    for (const uint32_t neuron : touched_) {
        std::array<double, maxSynapseTypes> &acc = acc_[neuron];
        double input = 0.0;
        for (size_t type = 0; type < synapseTypes_[neuron]; ++type)
            input += acc[type];
        acc.fill(0.0);
        updateNeuron(neuron, input, t, fired);
        queued_[neuron] = 0;
    }

    // Refractory neurons must tick even without input (their
    // countdown is part of the dense semantics, and a spike is
    // impossible for them, so the catch-up in the next touch is
    // exact). Nothing to do here: catchUp handles both the decay and
    // the countdown lazily.

    updatesCounter_.add(touched_.size());
    denseUpdatesCounter_.add(network_.numNeurons());
}

void
EventEngine::deliverSpikes(uint64_t t, std::span<const uint32_t> fired)
{
    // Append the fired rows' packed delivery records per delay
    // bucket, sources ascending and each row shard by shard. A cell
    // lives in one shard and runs keep row order, so every cell sees
    // the dense router's per-slot arrival order at any shard count.
    if (!fired.empty())
        rows_.prepareStep(fired);
    uint64_t events = 0;
    for (const uint32_t neuron : fired) {
        for (size_t shard = 0; shard < rows_.shardCount(); ++shard) {
            const RowView row = rows_.rowSpan(neuron, shard, rowScratch_);
            const DeliveryRecord *rec = row.records;
            for (const uint32_t header : row.runs) {
                const uint32_t len = runHeaderLength(header);
                auto &slot = ring_[(t + rows_.bucketDelay(
                                            runHeaderBucket(header))) %
                                   ringDepth_];
                slot.insert(slot.end(), rec, rec + len);
                rec += len;
                events += len;
            }
        }
    }
    synapseEvents_.add(events);
}

void
EventEngine::reset()
{
    state_.assign(state_.size(), NeuronState{});
    for (auto &slot : ring_)
        slot.clear();
    for (auto &carry : carry_)
        carry.clear();
    acc_.assign(acc_.size(), std::array<double, maxSynapseTypes>{});
    std::fill(queued_.begin(), queued_.end(), 0);
    touched_.clear();
}

void
EventEngine::reportConfig(telemetry::ReportFields &config) const
{
    config.emplace_back("backend",
                        telemetry::jsonQuoted("event-driven"));
}

double
EventEngine::membrane(uint32_t neuron, uint64_t now) const
{
    flexon_assert(neuron < network_.numNeurons());
    return silentUntil(neuron, now).v;
}

void
EventEngine::saveState(std::ostream &os) const
{
    os << "ev " << state_.size() << ' ' << ringDepth_ << ' '
       << synapseEvents_.value() << ' ' << updatesCounter_.value()
       << ' ' << denseUpdatesCounter_.value() << '\n';
    os << "states";
    for (const NeuronState &s : state_)
        os << ' ' << s.v << ' ' << s.refractory << ' '
           << s.lastUpdate;
    os << '\n';
    // Pending deliveries, in arrival order (the order is part of the
    // bit-identity contract: per-cell accumulation replays it).
    for (const auto &slot : ring_) {
        os << "slot " << slot.size();
        for (const DeliveryRecord &rec : slot)
            os << ' ' << rec.cell << ' ' << rec.weight;
        os << '\n';
    }
    // Hand-off carry values (usually empty; non-empty only between
    // an engine switch and the next pass of the ring).
    for (const auto &carry : carry_) {
        os << "carry " << carry.size();
        for (const auto &[cell, value] : carry)
            os << ' ' << cell << ' ' << value;
        os << '\n';
    }
}

void
EventEngine::loadState(std::istream &is, uint64_t now)
{
    std::string tag;
    size_t numNeurons = 0, ringDepth = 0;
    uint64_t events = 0, updates = 0, denseUpdates = 0;
    is >> tag >> numNeurons >> ringDepth >> events >> updates >>
        denseUpdates;
    if (tag != "ev" || !is || numNeurons != state_.size() ||
        ringDepth != ringDepth_) {
        fatal("checkpoint event-driven state does not match this "
              "engine (%zu neurons, ring depth %zu)",
              state_.size(), ringDepth_);
    }
    synapseEvents_.add(events);
    updatesCounter_.add(updates);
    denseUpdatesCounter_.add(denseUpdates);

    // The next step catches every neuron up from lastUpdate to the
    // restored step, and indexes queued_ / acc_ by each pending cell.
    const size_t cells = state_.size() * maxSynapseTypes;
    auto checkCell = [cells](uint32_t cell) {
        if (cell >= cells)
            fatal("checkpoint event-driven cell %u is outside the %zu "
                  "cells of this network",
                  cell, cells);
    };

    is >> tag;
    if (tag != "states")
        fatal("malformed checkpoint event-driven states block");
    for (NeuronState &s : state_) {
        is >> s.v >> s.refractory >> s.lastUpdate;
        if (is && s.lastUpdate > now)
            fatal("checkpoint event-driven neuron was updated at step "
                  "%llu, after the restored step %llu",
                  static_cast<unsigned long long>(s.lastUpdate),
                  static_cast<unsigned long long>(now));
    }

    // Counts read from the file are bounded by what a run could have
    // pended before they size an allocation: one record per synapse
    // per slot, one carry value per cell.
    const uint64_t maxPending =
        network_.numSynapses() * static_cast<uint64_t>(ringDepth_);
    for (auto &slot : ring_) {
        uint64_t count = 0;
        is >> tag >> count;
        if (tag != "slot" || !is)
            fatal("malformed checkpoint event-driven slot block");
        if (count > maxPending)
            fatal("checkpoint event-driven slot holds %llu records, "
                  "more than the %llu this network can pend",
                  static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(maxPending));
        slot.resize(count);
        for (DeliveryRecord &rec : slot) {
            is >> rec.cell >> rec.weight;
            checkCell(rec.cell);
        }
    }
    for (auto &carry : carry_) {
        uint64_t count = 0;
        is >> tag >> count;
        if (tag != "carry" || !is)
            fatal("malformed checkpoint event-driven carry block");
        if (count > cells)
            fatal("checkpoint event-driven carry holds %llu values, "
                  "more than the %zu cells of this network",
                  static_cast<unsigned long long>(count), cells);
        carry.resize(count);
        for (auto &[cell, value] : carry) {
            is >> cell >> value;
            checkCell(cell);
        }
    }
    if (!is)
        fatal("truncated event-driven state in checkpoint");
}

void
EventEngine::exportTransfer(uint64_t now, EngineTransfer &out) const
{
    out.t = now;

    // Materialize every neuron's state at step `now` without
    // mutating: the same silent steps catchUp replays.
    const size_t n = state_.size();
    out.v.resize(n);
    out.refractory.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
        const NeuronState s = silentUntil(i, now);
        out.v[i] = s.v;
        out.refractory[i] = s.refractory;
    }

    // Fold each pending slot (carry first, then records, both in
    // arrival order) into per-cell doubles — exactly the additions
    // the dense ring would have performed, so the importer receives
    // bit-identical slot values. Cells whose total is exactly 0.0
    // are dropped: the delivery path never produces -0.0, and an
    // absent cell reconstructs as +0.0 on the other side.
    out.ring.assign(ringDepth_, {});
    std::vector<double> scratch(n * maxSynapseTypes, 0.0);
    for (size_t d = 0; d < ringDepth_; ++d) {
        const size_t idx = (now + d) % ringDepth_;
        for (const auto &[cell, value] : carry_[idx])
            scratch[cell] += value;
        for (const DeliveryRecord &rec : ring_[idx])
            scratch[rec.cell] += rec.weight;
        auto &slot = out.ring[d];
        for (uint32_t cell = 0;
             cell < static_cast<uint32_t>(scratch.size()); ++cell) {
            if (scratch[cell] != 0.0) {
                slot.emplace_back(cell, scratch[cell]);
                scratch[cell] = 0.0;
            }
        }
    }
}

void
EventEngine::importTransfer(const EngineTransfer &in)
{
    flexon_assert(in.v.size() == state_.size() &&
                  in.refractory.size() == state_.size() &&
                  in.ring.size() <= ringDepth_);

    for (size_t i = 0; i < state_.size(); ++i)
        state_[i] = NeuronState{in.v[i], in.refractory[i], in.t};
    for (auto &slot : ring_)
        slot.clear();
    for (auto &carry : carry_)
        carry.clear();
    for (size_t d = 0; d < in.ring.size(); ++d)
        carry_[(in.t + d) % ringDepth_] = in.ring[d];
}

} // namespace flexon
