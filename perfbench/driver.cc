/**
 * @file
 * The repository benchmark driver. Runs one named SNN workload through
 * the public library API and prints one JSON line on stdout.
 *
 * Every invocation does three things:
 *
 *  1. Untraced run: builds the network and a Simulator with the
 *     options flexon_sim uses by default (health monitors on), steps
 *     it `checkSteps` steps (the digest window, which doubles as
 *     warm-up) and then times stepOnce() over a wall-clock window,
 *     correcting each block of steps for core sharing (ContentionProbe).
 *     The set-up is then repeated for a stable setup_s median. This
 *     gives the end-to-end metrics.
 *  2. Composed run: rebuilds the same workload from its layers
 *     (NeuronBackend, SpikeRouter, StimulusGenerator, StdpEngine) and
 *     replays the dense step from their public calls, with a span
 *     around each call. Its digest over the same `checkSteps` must
 *     equal the untraced one.
 *  3. With --trace 1, the composed run continues over a timed window
 *     and reports the per-layer ledger; the untraced window is then
 *     shortened to a third of --seconds to leave it the rest.
 *
 * Usage:
 *   flexon_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *   flexon_perfbench --list
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/telemetry.hh"
#include "common/thread_pool.hh"
#include "nets/potjans_diesmann.hh"
#include "nets/table1.hh"
#include "snn/backend.hh"
#include "snn/routing.hh"
#include "snn/simulator.hh"
#include "snn/stdp.hh"

namespace {

using namespace flexon;
using Clock = std::chrono::steady_clock;

uint64_t
nanosBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

double
secondsSince(Clock::time_point start)
{
    return nanosBetween(start, Clock::now()) * 1e-9;
}

enum class NetKind { VogelsAbbott, Microcircuit, Izhikevich };

/** One named workload. Sizes and shares are for --list only. */
struct Workload
{
    const char *name;
    NetKind net;
    /** Microcircuit external-drive multiplier (ignored otherwise). */
    double rateScale;
    BackendKind backend;
    /** Source module of the backend's neuron kernel. */
    const char *module;
    size_t threads;
    bool stdp;
    /** Steps covered by the correctness digest; also the warm-up past
     *  the start-up transient. */
    uint64_t checkSteps;
    /** Set-ups timed for the setup_s median. */
    uint64_t setupReps;
    const char *size;
    const char *shares;
};

const Workload kWorkloads[] = {
    {"va_stdp", NetKind::VogelsAbbott, 1.0, BackendKind::Flexon,
     "flexon", 1, true, 2000, 15,
     "Vogels-Abbott, 4000 DLIF neurons, 320k synapses, pair STDP",
     "flexon 50%, stdp 24%, refresh 13%, route 8%, stimulus 5%, sweep 2%"},
    {"mc_x1", NetKind::Microcircuit, 1.0, BackendKind::Reference,
     "models", 1, false, 4000, 5,
     "PD microcircuit 1/10, 7718 LLIF neurons, 3.0M synapses, x1 drive",
     "models 51%, stimulus 28%, route 17%, sweep 4%"},
    {"mc_x8", NetKind::Microcircuit, 8.0, BackendKind::Reference,
     "models", 3, false, 4000, 5,
     "PD microcircuit 1/10, 7718 LLIF neurons, 3.0M synapses, x8 drive",
     "route 45%, stimulus 32%, models 19%, sweep 4%"},
    {"izh_folded", NetKind::Izhikevich, 1.0, BackendKind::Folded,
     "folded", 1, false, 1000, 3,
     "Izhikevich, 10000 neurons, 10.0M synapses",
     "folded 88%, route 8%, stimulus 3%, sweep 1%; set-up ~2 s"},
};

const char *const kModules[] = {"flexon", "models", "folded"};

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

/** A generated network with its stimulus (stable address). */
struct Instance
{
    Network network;
    StimulusGenerator stimulus;
};

std::unique_ptr<Instance>
buildNetwork(const Workload &w, uint64_t seed)
{
    auto out = std::make_unique<Instance>();
    if (w.net == NetKind::Microcircuit) {
        MicrocircuitOptions mc;
        mc.scale = 10.0;
        mc.seed = seed;
        mc.rateScale = w.rateScale;
        MicrocircuitInstance inst = buildMicrocircuit(mc);
        out->network = std::move(inst.network);
        out->stimulus = std::move(inst.stimulus);
    } else {
        const char *spec = w.net == NetKind::VogelsAbbott
                               ? "Vogels-Abbott"
                               : "Izhikevich";
        BenchmarkInstance inst =
            buildBenchmark(findBenchmark(spec), 1.0, seed);
        out->network = std::move(inst.network);
        out->stimulus = std::move(inst.stimulus);
    }
    return out;
}

/** FNV-1a over the bytes of the values that define a run's outcome. */
class Digest
{
  public:
    void
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 1099511628211ull;
        }
    }
    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    uint64_t h_ = 14695981039346656037ull;
};

/** Spike counts, final membranes, synapse events, modelled seconds. */
template <typename Membrane>
std::string
outcomeDigest(const std::vector<uint64_t> &spikeCounts,
              Membrane membrane, uint64_t synapseEvents,
              double modelSeconds)
{
    Digest d;
    for (uint64_t c : spikeCounts)
        d.u64(c);
    for (uint32_t n = 0; n < spikeCounts.size(); ++n)
        d.f64(membrane(n));
    d.u64(synapseEvents);
    d.f64(modelSeconds);
    return d.hex();
}

// ---- Untraced run -------------------------------------------------

/** The workload as a user runs it: one Simulator (+ STDP). */
struct DenseRun
{
    std::unique_ptr<Instance> inst;
    std::unique_ptr<StdpEngine> stdp;
    std::unique_ptr<Simulator> sim;

    /** Tear down in dependency order (session, rule, network). */
    void
    release()
    {
        sim.reset();
        stdp.reset();
        inst.reset();
    }
};

DenseRun
setupDense(const Workload &w, uint64_t seed)
{
    DenseRun run;
    run.inst = buildNetwork(w, seed);
    SimulatorOptions opts;
    opts.backend = w.backend;
    opts.threads = w.threads;
    opts.stimulusSeed = seed;
    opts.label = w.name;
    run.sim = std::make_unique<Simulator>(run.inst->network,
                                          run.inst->stimulus, opts);
    if (w.stdp) {
        run.stdp = std::make_unique<StdpEngine>(run.inst->network);
        run.sim->attachPlasticityRule(run.stdp.get());
    }
    return run;
}

std::string
denseDigest(const Simulator &sim)
{
    const PhaseStats &stats = sim.stats();
    return outcomeDigest(
        sim.spikeCounts(),
        [&](uint32_t n) { return sim.membrane(n); }, stats.synapseEvents,
        stats.modelNeuronSec);
}

double
percentile(std::vector<uint64_t> v, double q)
{
    if (v.empty())
        return 0.0;
    const size_t k = std::min(
        v.size() - 1, static_cast<size_t>(q * (v.size() - 1) + 0.5));
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return static_cast<double>(v[k]);
}

/**
 * Measures how much the cores the workload runs on are shared.
 *
 * A benchmark host that shares its physical cores with other tenants
 * loses vector throughput while a sibling hardware thread is busy: by
 * up to half, for periods from milliseconds to minutes, and longer
 * timed windows do not average it out. A fixed vector loop over an
 * L1-resident array slows with the simulator's kernels, so its time,
 * taken between blocks of steps, gives each block's slowdown.
 */
class ContentionProbe
{
  public:
    /** The loop's time on a quiet core of the recording host (Intel
     *  Xeon, 4 vCPUs, GCC 12 -O3): the reference for the correction. */
    static constexpr double kQuietNs = 190'000.0;

    explicit ContentionProbe(size_t lanes)
        : lanes_(std::max<size_t>(1, lanes)), state_(lanes_ * kWidth, 0.f)
    {
    }

    /** Mean time of the loop over the workload's lanes, in ns. */
    double
    measure()
    {
        if (lanes_ == 1)
            return static_cast<double>(run(0));
        uint64_t lane[ThreadPool::maxLanes] = {};
        ThreadPool::global().forEachLane(
            lanes_, [&](size_t l) { lane[l] = run(l); });
        return std::accumulate(lane, lane + lanes_, 0.0) / lanes_;
    }

  private:
    static constexpr size_t kWidth = 4096; // 16 KiB per lane
    static constexpr int kPasses = 64;

    uint64_t
    run(size_t l)
    {
        float *v = state_.data() + l * kWidth;
        const Clock::time_point t0 = Clock::now();
        for (int p = 0; p < kPasses; ++p) {
            for (size_t i = 0; i < kWidth; ++i) {
                const float x = v[i] * 0.9375f + 0.0625f * (i & 7);
                v[i] = x > 0.25f ? 0.f : x;
            }
        }
        return nanosBetween(t0, Clock::now());
    }

    size_t lanes_;
    std::vector<float> state_;
};

/**
 * A timed window, stepped in blocks of ~kBlockNs with a probe reading
 * before the first block and after every block.
 */
struct Window
{
    static constexpr uint64_t kBlockNs = 2'000'000;

    /** Host nanoseconds of every step, in window order. */
    std::vector<uint64_t> stepNs;
    /** The same, each divided by its block's slowdown: the mean of
     *  the two bracketing probe readings over kQuietNs. */
    std::vector<uint64_t> quietStepNs;
    std::vector<double> probeNs;
};

Window
timeDense(Simulator &sim, size_t threads, double seconds)
{
    Window win;
    ContentionProbe probe(threads);
    const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
    const Clock::time_point start = Clock::now();
    win.probeNs.push_back(probe.measure());
    do {
        const size_t first = win.stepNs.size();
        uint64_t blockNs = 0;
        Clock::time_point now = Clock::now();
        do {
            const Clock::time_point t0 = now;
            sim.stepOnce();
            now = Clock::now();
            win.stepNs.push_back(nanosBetween(t0, now));
            blockNs += win.stepNs.back();
        } while (blockNs < Window::kBlockNs);
        win.probeNs.push_back(probe.measure());
        const double slowdown =
            0.5 * (win.probeNs.end()[-2] + win.probeNs.back()) /
            ContentionProbe::kQuietNs;
        for (size_t k = first; k < win.stepNs.size(); ++k)
            win.quietStepNs.push_back(
                static_cast<uint64_t>(win.stepNs[k] / slowdown + 0.5));
    } while (nanosBetween(start, Clock::now()) < budget);
    return win;
}

// ---- Composed (traced) run ----------------------------------------

/** Host nanoseconds per layer span, summed over the timed steps. */
struct Ledger
{
    uint64_t timedSteps = 0;
    uint64_t stepNs = 0;
    uint64_t stimulusNs = 0;
    uint64_t neuronNs = 0;
    uint64_t sweepNs = 0;
    uint64_t refreshNs = 0;
    uint64_t routeNs = 0;
    uint64_t stdpNs = 0;
    /** Every step of the window, sampled or not. */
    uint64_t steps = 0;
    /** Each step's time without the probe, in window order. */
    std::vector<uint64_t> perStepNs;
    uint64_t stimulusSpikes = 0;
    uint64_t spikes = 0;
    /** Input-activity probe: sampled steps and active neurons seen. */
    uint64_t probeSteps = 0;
    uint64_t activeNeurons = 0;
};

/**
 * The dense step rebuilt from the layers' public calls, in the order
 * SimulationSession::stepOnce() makes them. Health sweeps, probes and
 * metric export are session work outside the layers and are left out.
 */
class ComposedRun
{
  public:
    ComposedRun(const Workload &w, uint64_t seed)
    {
        Clock::time_point t0 = Clock::now();
        inst_ = buildNetwork(w, seed);
        netsBuildSec = secondsSince(t0);
        stimulus_ = inst_->stimulus;
        const Network &net = inst_->network;

        t0 = Clock::now();
        backend_ = makeBackend(w.backend, net, IntegrationMode::Discrete,
                               SolverKind::Euler, w.threads);
        backendBuildSec = secondsSince(t0);

        t0 = Clock::now();
        router_ = std::make_unique<SpikeRouter>(
            net, w.threads == 0 ? 1 : w.threads, &registry_,
            ConnectivityKind::Materialized);
        router_->setSparseDelivery(true);
        routerBuildSec = secondsSince(t0);

        if (w.stdp) {
            t0 = Clock::now();
            stdp_ = std::make_unique<StdpEngine>(inst_->network);
            stdpBuildSec = secondsSince(t0);
        }
        fired_.assign(net.numNeurons(), 0);
        spikeCounts_.assign(net.numNeurons(), 0);
        firedList_.reserve(net.numNeurons());
    }

    ComposedRun(const ComposedRun &) = delete;
    ComposedRun &operator=(const ComposedRun &) = delete;

    /**
     * One dense step. With `ledger`, each layer call is timed; with
     * `probe` as well, the share of neurons with nonzero input is
     * counted before the neuron phase and that step's spans are
     * dropped (the probe's reads would warm the neuron phase).
     */
    void
    step(Ledger *ledger, bool probe)
    {
        const Clock::time_point t0 = Clock::now();
        for (uint32_t n : firedList_)
            fired_[n] = 0;
        const Clock::time_point t1 = Clock::now();

        const std::vector<StimulusSpike> &spikes =
            stimulus_.generate(t_);
        std::span<double> current = router_->slot(t_);
        for (const StimulusSpike &s : spikes) {
            const uint32_t cell = s.target * maxSynapseTypes + s.type;
            current[cell] += s.weight;
            router_->noteStimulus(t_, cell);
        }
        const Clock::time_point t2 = Clock::now();

        if (ledger && probe) {
            ++ledger->probeSteps;
            ledger->activeNeurons += activeInputs(current);
        }
        const Clock::time_point t3 = Clock::now();
        backend_->step(router_->slot(t_), fired_);
        modelSeconds_ += backend_->modelSecondsPerStep();
        const Clock::time_point t4 = Clock::now();

        router_->refreshWeights();
        const Clock::time_point t5 = Clock::now();

        firedList_.clear();
        const uint32_t numNeurons =
            static_cast<uint32_t>(fired_.size());
        for (uint32_t n = 0; n < numNeurons; ++n) {
            if (!fired_[n])
                continue;
            firedList_.push_back(n);
            ++spikeCounts_[n];
        }
        const Clock::time_point t6 = Clock::now();

        router_->routeStep(t_, firedList_);
        const Clock::time_point t7 = Clock::now();

        if (stdp_)
            stdp_->onStep(fired_);
        const Clock::time_point t8 = Clock::now();
        ++t_;

        if (!ledger)
            return;
        ++ledger->steps;
        ledger->perStepNs.push_back(nanosBetween(t0, t8) -
                                    nanosBetween(t2, t3));
        ledger->stimulusSpikes += spikes.size();
        ledger->spikes += firedList_.size();
        if (probe)
            return;
        ++ledger->timedSteps;
        ledger->stepNs += nanosBetween(t0, t8);
        ledger->sweepNs += nanosBetween(t0, t1) + nanosBetween(t5, t6);
        ledger->stimulusNs += nanosBetween(t1, t2);
        ledger->neuronNs += nanosBetween(t3, t4);
        ledger->refreshNs += nanosBetween(t4, t5);
        ledger->routeNs += nanosBetween(t6, t7);
        ledger->stdpNs += nanosBetween(t7, t8);
    }

    std::string
    digest() const
    {
        return outcomeDigest(
            spikeCounts_,
            [&](uint32_t n) { return backend_->membrane(n); },
            router_->events(), modelSeconds_);
    }

    const Network &network() const { return inst_->network; }
    const SpikeRouter &router() const { return *router_; }

    double netsBuildSec = 0.0;
    double backendBuildSec = 0.0;
    double routerBuildSec = 0.0;
    double stdpBuildSec = 0.0;

  private:
    /** Neurons with any nonzero input cell in this step's slot. */
    static uint64_t
    activeInputs(std::span<const double> slot)
    {
        uint64_t active = 0;
        for (size_t base = 0; base < slot.size();
             base += maxSynapseTypes) {
            for (size_t k = 0; k < maxSynapseTypes; ++k) {
                if (slot[base + k] != 0.0) {
                    ++active;
                    break;
                }
            }
        }
        return active;
    }

    // Declaration order is teardown order in reverse: the router's
    // counters live in registry_, and everything reads the network.
    std::unique_ptr<Instance> inst_;
    std::unique_ptr<StdpEngine> stdp_;
    telemetry::Registry registry_;
    std::unique_ptr<NeuronBackend> backend_;
    std::unique_ptr<SpikeRouter> router_;
    StimulusGenerator stimulus_;
    std::vector<uint8_t> fired_;
    std::vector<uint32_t> firedList_;
    std::vector<uint64_t> spikeCounts_;
    double modelSeconds_ = 0.0;
    uint64_t t_ = 0;
};

/** Cumulative router counters, read before and after a window. */
struct RouterCounters
{
    uint64_t events, buckets, shardsSkipped, denseClears, sparseClears;

    static RouterCounters
    read(const SpikeRouter &r)
    {
        return {r.events(), r.bucketsVisited(), r.shardsSkipped(),
                r.denseClears(), r.sparseClears()};
    }
};

// ---- Output -------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned maxExt = __get_cpuid_max(0x80000000u, nullptr);
    if (maxExt >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const size_t b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

double
peakRssMiB()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof usage);
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Continue the composed run over a traced window of `seconds` and
 * return the per-layer ledger. `untraced` is the Simulator's window,
 * the base of trace.gap_frac and the source of the p99.
 */
std::vector<Metric>
ledgerMetrics(const Workload &w, ComposedRun &composed,
              const Window &untraced, double seconds)
{
    std::vector<Metric> out;
    telemetry::TelemetryConfig detail = telemetry::config();
    detail.detail = true;
    telemetry::configure(detail);
    ThreadPool &pool = ThreadPool::global();
    pool.resetTelemetry();
    const RouterCounters before =
        RouterCounters::read(composed.router());

    Ledger ledger;
    constexpr uint64_t probeEvery = 64;
    const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
    const Clock::time_point start = Clock::now();
    uint64_t k = 0;
    do {
        composed.step(&ledger, k++ % probeEvery == 0);
    } while (nanosBetween(start, Clock::now()) < budget);

    const RouterCounters after =
        RouterCounters::read(composed.router());
    const ThreadPool::TelemetrySnapshot snap =
        pool.telemetrySnapshot();
    telemetry::TelemetryConfig plain = telemetry::config();
    plain.detail = false;
    telemetry::configure(plain);

    const double steps = static_cast<double>(ledger.steps);
    const double timed = static_cast<double>(ledger.timedSteps);
    const double usPer = 1e-3 / std::max(1.0, timed);
    const uint64_t spanNs = ledger.stimulusNs + ledger.neuronNs +
                            ledger.sweepNs + ledger.refreshNs +
                            ledger.routeNs + ledger.stdpNs;
    const double events =
        static_cast<double>(after.events - before.events);
    const double shards =
        static_cast<double>(std::max<size_t>(1, w.threads));
    const double clears = static_cast<double>(
        (after.denseClears - before.denseClears) +
        (after.sparseClears - before.sparseClears));
    const Network &net = composed.network();
    const double numNeurons = static_cast<double>(net.numNeurons());
    const double synapses = static_cast<double>(net.numSynapses());
    const double neuronUs = ledger.neuronNs * usPer;
    // Both windows start at the same step after the digest window;
    // compare them over the steps both covered.
    const size_t common =
        std::min(untraced.stepNs.size(), ledger.perStepNs.size());
    const double gapBase = std::accumulate(
        untraced.stepNs.begin(), untraced.stepNs.begin() + common, 0.0);
    const double gapTraced =
        std::accumulate(ledger.perStepNs.begin(),
                        ledger.perStepNs.begin() + common, 0.0);

    auto add = [&out](std::string name, double value, const char *unit) {
        out.push_back({std::move(name), value, unit});
    };
    add("nets.build_s", composed.netsBuildSec, "s");
    add("nets.bytes_per_synapse", ratio(net.connectivityBytes(), synapses),
        "B/synapse");
    add("snn.routing.build_s", composed.routerBuildSec, "s");
    add("snn.routing.bytes_per_synapse",
        ratio(composed.router().connectivityBytes(), synapses),
        "B/synapse");
    add("snn.stdp.build_s", composed.stdpBuildSec, "s");
    // Every module's metrics on every workload; the ones it does not
    // run read 0.
    for (const char *module : kModules) {
        const double mine = std::strcmp(module, w.module) == 0 ? 1.0 : 0.0;
        const std::string m = module;
        add(m + ".build_s", mine * composed.backendBuildSec, "s");
        add(m + ".us_per_step", mine * neuronUs, "us");
        add(m + ".ns_per_neuron", mine * neuronUs * 1e3 / numNeurons, "ns");
        add(m + ".input_active_frac",
            mine * ratio(ledger.activeNeurons,
                         ledger.probeSteps * numNeurons),
            "ratio");
    }
    add("snn.stimulus.us_per_step", ledger.stimulusNs * usPer, "us");
    add("snn.stimulus.spikes_per_step", ratio(ledger.stimulusSpikes, steps),
        "count/step");
    add("snn.session.sweep_us_per_step", ledger.sweepNs * usPer, "us");
    add("snn.routing.us_per_step", ledger.routeNs * usPer, "us");
    add("snn.routing.events_per_step", ratio(events, steps), "count/step");
    add("snn.routing.ns_per_event",
        ratio(ledger.routeNs * usPer * 1e3, ratio(events, steps)), "ns");
    add("snn.routing.buckets_per_step",
        ratio(static_cast<double>(after.buckets - before.buckets), steps),
        "count/step");
    add("snn.routing.shard_skip_frac",
        ratio(static_cast<double>(after.shardsSkipped -
                                  before.shardsSkipped),
              steps * shards),
        "ratio");
    add("snn.routing.sparse_clear_frac",
        ratio(static_cast<double>(after.sparseClears - before.sparseClears),
              clears),
        "ratio");
    add("snn.routing.refresh_us_per_step", ledger.refreshNs * usPer, "us");
    add("snn.stdp.us_per_step", ledger.stdpNs * usPer, "us");
    add("common.thread_pool.dispatches_per_step",
        ratio(snap.dispatches, steps), "count/step");
    add("common.thread_pool.efficiency", ratio(snap.busyNs, snap.laneNs),
        "ratio");
    add("common.thread_pool.wait_us_per_step",
        ratio((snap.laneNs - std::min(snap.laneNs, snap.busyNs)) * 1e-3,
              steps),
        "us");
    add("snn.session.spikes_per_step", ratio(ledger.spikes, steps),
        "count/step");
    add("snn.session.step_us_p99", percentile(untraced.stepNs, 0.99) * 1e-3,
        "us");
    add("trace.leftover_frac",
        ratio(static_cast<double>(ledger.stepNs) - spanNs, ledger.stepNs),
        "ratio");
    add("trace.gap_frac", ratio(gapTraced, gapBase) - 1.0, "ratio");
    add("host.slowdown",
        std::accumulate(untraced.probeNs.begin(), untraced.probeNs.end(),
                        0.0) /
            (untraced.probeNs.size() * ContentionProbe::kQuietNs),
        "ratio");
    add("host.uncorrected_steps_per_s",
        untraced.stepNs.size() /
            (std::accumulate(untraced.stepNs.begin(), untraced.stepNs.end(),
                             0.0) *
             1e-9),
        "1/s");
    return out;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: flexon_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n"
                 "       flexon_perfbench --list\n");
    return 2;
}

bool
parseUnsigned(const char *text, uint64_t &out)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-')
        return false;
    out = v;
    return true;
}

void
printList()
{
    for (const Workload &w : kWorkloads) {
        std::printf("%-11s %s; backend %s (%s), %zu thread%s\n"
                    "            layer shares: %s\n",
                    w.name, w.size, backendName(w.backend), w.module,
                    w.threads, w.threads == 1 ? "" : "s", w.shares);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    uint64_t seed = 1;
    double seconds = 10.0;
    uint64_t trace = 0;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--list") {
            printList();
            return 0;
        }
        if (i + 1 >= argc)
            return usage();
        const char *value = argv[++i];
        bool ok = true;
        if (flag == "--workload") {
            name = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            ok = parseUnsigned(value, seed);
        } else if (flag == "--seconds") {
            char *end = nullptr;
            seconds = std::strtod(value, &end);
            ok = end != value && *end == '\0' && seconds > 0.0;
        } else if (flag == "--trace") {
            ok = parseUnsigned(value, trace) && trace <= 1;
        } else {
            return usage();
        }
        if (!ok) {
            std::fprintf(stderr, "flexon_perfbench: invalid value '%s' "
                                 "for %s\n",
                         value, flag.c_str());
            return 2;
        }
    }
    const Workload *found = haveWorkload ? findWorkload(name) : nullptr;
    if (found == nullptr) {
        std::fprintf(stderr, "flexon_perfbench: unknown workload '%s'\n",
                     name.c_str());
        return usage();
    }
    const Workload &w = *found;

#ifndef __OPTIMIZE__
    std::fprintf(stderr, "flexon_perfbench: refusing to time an "
                         "unoptimized build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
#endif

    const bool traced = trace == 1;
    const double denseSeconds = traced ? seconds / 3.0 : seconds;
    const double tracedSeconds = seconds - denseSeconds;

    // 1. Set-up of the workload as a user runs it, its digest window
    //    (also the warm-up), then the timed window. Peak RSS is read
    //    here, while the process has built exactly one network.
    //    Set-up times are corrected for core sharing like the steps;
    //    set-up runs on one thread, so one probe lane brackets it.
    ContentionProbe setupProbe(1);
    std::vector<double> setupSec;
    auto timeSetup = [&]() {
        const double before = setupProbe.measure();
        const Clock::time_point t0 = Clock::now();
        DenseRun run = setupDense(w, seed);
        const double sec = secondsSince(t0);
        const double slowdown = 0.5 * (before + setupProbe.measure()) /
                                ContentionProbe::kQuietNs;
        setupSec.push_back(sec / slowdown);
        return run;
    };
    DenseRun dense = timeSetup();
    for (uint64_t s = 0; s < w.checkSteps; ++s)
        dense.sim->stepOnce();
    const std::string untracedDigest = denseDigest(*dense.sim);
    const Window win = timeDense(*dense.sim, w.threads, denseSeconds);
    const double peakRss = peakRssMiB();
    const uint64_t nanEvents = dense.sim->healthCounters().nanEvents;
    const size_t numNeurons = dense.inst->network.numNeurons();
    const uint64_t numSynapses = dense.inst->network.numSynapses();
    dense.release();

    // 2. More set-ups for a stable median.
    while (setupSec.size() < w.setupReps) {
        dense = timeSetup();
        dense.release();
    }
    std::vector<double> sortedSetup = setupSec;
    std::sort(sortedSetup.begin(), sortedSetup.end());
    const size_t mid = sortedSetup.size() / 2;
    const double setupMedian =
        sortedSetup.size() % 2 ? sortedSetup[mid]
                               : 0.5 * (sortedSetup[mid - 1] +
                                        sortedSetup[mid]);

    // 3. Composed run: same digest window, then (traced) the ledger.
    ComposedRun composed(w, seed);
    for (uint64_t s = 0; s < w.checkSteps; ++s)
        composed.step(nullptr, false);
    const std::string tracedDigest = composed.digest();

    std::vector<Metric> metrics;
    if (!traced) {
        const double quietNs = std::accumulate(
            win.quietStepNs.begin(), win.quietStepNs.end(), 0.0);
        metrics.push_back(
            {"steps_per_s", win.quietStepNs.size() / (quietNs * 1e-9),
             "1/s"});
        metrics.push_back(
            {"step_us_p50", percentile(win.quietStepNs, 0.5) * 1e-3, "us"});
        metrics.push_back({"setup_s", setupMedian, "s"});
        metrics.push_back({"peak_rss_mb", peakRss, "MiB"});
    } else {
        metrics = ledgerMetrics(w, composed, win, tracedSeconds);
    }

    std::string out = "{";
    auto field = [&](const char *key, const std::string &json) {
        if (out.size() > 1)
            out += ",";
        out += jsonString(key) + ":" + json;
    };
    field("workload", jsonString(w.name));
    field("seed", std::to_string(seed));
    field("threads", std::to_string(w.threads));
    field("trace", std::to_string(trace));
    field("seconds", jsonNumber(seconds));
    field("check_steps", std::to_string(w.checkSteps));
    field("timed_steps", std::to_string(win.stepNs.size()));
    field("setup_reps", std::to_string(setupSec.size()));
    field("neurons", std::to_string(numNeurons));
    field("synapses", std::to_string(numSynapses));
    field("build_type", jsonString(PERFBENCH_BUILD_TYPE));
    field("cxx_flags", jsonString(PERFBENCH_CXX_FLAGS));
    field("compiler", jsonString(PERFBENCH_COMPILER));
    field("cpu_model", jsonString(cpuModel()));
    field("l3_bytes", std::to_string(sysconf(_SC_LEVEL3_CACHE_SIZE)));
    field("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
    field("digest_untraced", jsonString(untracedDigest));
    field("digest_traced", jsonString(tracedDigest));
    field("health_nan_events", std::to_string(nanEvents));
    std::string body;
    for (const Metric &m : metrics) {
        if (!body.empty())
            body += ",";
        body += jsonString(m.name) + ":{\"value\":" +
                jsonNumber(m.value) + ",\"unit\":" + jsonString(m.unit) +
                "}";
    }
    field("metrics", "{" + body + "}");
    out += "}";
    std::printf("%s\n", out.c_str());
    return 0;
}
