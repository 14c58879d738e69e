/**
 * @file
 * calibrate — measure this machine's per-operation simulation costs
 * and emit a versioned calibration.json for the execution planner.
 *
 * The harness sweeps parametrized microbenches over population size
 * x stimulus rate x thread count, reads the per-phase costs off the
 * sessions' existing telemetry timers (PhaseStats), and fits the
 * plan::CostModel coefficients by robust slopes over the sweep grid
 * (C = maxSynapseTypes ring cells per neuron):
 *
 *   denseNsPerNeuron     Theil-Sen slope of neuron-phase ns/step
 *                        vs N (T = 1)
 *   deliveryNsPerRecord  median over sizes of each size's Theil-Sen
 *                        slope of route ns/step vs records/step (at
 *                        one size the slot clear is a constant)
 *   ringClearNsPerCell   Theil-Sen slope over N * C of the route
 *                        ns/step that delivery leaves, measured on a
 *                        silent grid (no stimulus, so nothing fires
 *                        and the route time is the clear)
 *   serialNsPerNeuron    Theil-Sen slope over N of the step cost
 *                        the neuron phase and the modelled route
 *                        leave over
 *   stepOverheadNs       median per-point step cost left over after
 *                        the modelled neuron, route and serial
 *                        per-neuron terms
 *   dispatchNsPerLane    per-lane step-cost increase on a population
 *                        too small to gain from threads
 *   parallelEfficiency   neuron-phase speedup of T = 2 on a large
 *                        population, eff(T) = 1 + (T - 1) p
 *
 * Theil-Sen (median of pairwise slopes) rather than OLS: the sweep
 * runs on whatever machine needs calibrating, including noisy shared
 * hosts where a single descheduled run would swing a least-squares
 * slope, and the median estimator shrugs that off.
 *
 * The document's version tag is content-derived (FNV-1a over the
 * fitted coefficients), so identical measurements produce identical
 * tags and run reports / bench records are comparable by version.
 *
 * Usage:
 *   calibrate [--out calibration.json] [--quick] [--seed N]
 *   calibrate --check FILE [--max-residual X]
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "features/model_table.hh"
#include "plan/calibration.hh"
#include "plan/planner.hh"
#include "snn/simulator.hh"

using namespace flexon;

namespace {

/** One sweep-grid measurement (all values per step). */
struct GridPoint
{
    size_t neurons = 0;
    double meanFanOut = 0.0;
    double rate = 0.0;       ///< measured spikes/neuron/step
    double stepNs = 0.0;     ///< full step (stimulus+neuron+synapse)
    double neuronNs = 0.0;   ///< neuron phase
    double routeNs = 0.0;    ///< router (clear + route)
    double recordsPerStep = 0.0;
};

struct SweepConfig
{
    std::vector<size_t> sizes;
    std::vector<double> stimRates;
    uint64_t warmup = 0;
    uint64_t steps = 0;
    uint64_t seed = 1;
};

/** The recurrent LLIF microbench population (5% connectivity). */
struct Microbench
{
    Network net;
    StimulusGenerator stim{1};
};

Microbench
makeMicrobench(size_t neurons, double stimRate, uint64_t seed)
{
    Microbench m;
    NeuronParams p = defaultParams(ModelKind::LLIF);
    const size_t pop = m.net.addPopulation("cal", p, neurons);
    Rng rng(seed);
    m.net.connectRandom(pop, pop, 0.05, 0.4, 1, 6, 0, rng);
    m.net.finalize();
    m.stim = StimulusGenerator(seed ^ 0xabcdULL);
    m.stim.addSource(StimulusSource::poisson(
        0, static_cast<uint32_t>(neurons), stimRate, 0.8f, 0));
    return m;
}

GridPoint
measureDense(size_t neurons, double stimRate, size_t threads,
             const SweepConfig &cfg)
{
    Microbench m = makeMicrobench(neurons, stimRate, cfg.seed);
    SimulatorOptions opts;
    opts.threads = threads;
    Simulator sim(m.net, m.stim, opts);
    // The onset transient rides along in the measurement; the fits
    // only need per-step averages consistent across the grid.
    sim.run(cfg.warmup + cfg.steps);
    const PhaseStats &st = sim.stats();
    const double steps = static_cast<double>(st.steps);

    GridPoint g;
    g.neurons = neurons;
    g.meanFanOut =
        static_cast<double>(m.net.numSynapses()) /
        static_cast<double>(m.net.numNeurons());
    g.rate = static_cast<double>(st.spikes) / steps /
             static_cast<double>(neurons);
    g.stepNs = st.totalSec() / steps * 1e9;
    g.neuronNs = st.neuronSec / steps * 1e9;
    g.routeNs = st.synapseRouteSec / steps * 1e9;
    g.recordsPerStep =
        static_cast<double>(st.synapseEvents) / steps;
    return g;
}

/** Median of a scratch vector (sorts it in place). */
double
medianOf(std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/**
 * Theil-Sen slope: the median of all pairwise slopes. Robust to the
 * outlier points a noisy shared host produces, and intercept-free by
 * construction (any fixed per-step cost cancels in the differences).
 */
double
theilSenSlope(const std::vector<double> &x,
              const std::vector<double> &y)
{
    std::vector<double> slopes;
    for (size_t i = 0; i < x.size(); ++i)
        for (size_t j = i + 1; j < x.size(); ++j)
            if (x[j] != x[i])
                slopes.push_back((y[j] - y[i]) / (x[j] - x[i]));
    return medianOf(slopes);
}

/** FNV-1a over the fitted coefficients: the content version tag. */
std::string
contentVersion(const plan::CostModel &m, uint64_t gridPoints)
{
    const double values[] = {
        m.denseNsPerNeuron,  m.deliveryNsPerRecord,
        m.ringClearNsPerCell, m.stepOverheadNs,
        m.serialNsPerNeuron,  m.dispatchNsPerLane,
        m.parallelEfficiency,
        static_cast<double>(gridPoints),
    };
    uint64_t h = 1469598103934665603ull;
    for (const double v : values) {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (bits >> (8 * byte)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "cal-%016" PRIx64, h);
    return buf;
}

plan::CalibrationData
runSweep(const SweepConfig &cfg)
{
    plan::CalibrationData cal;
    plan::CostModel &model = cal.model;
    std::vector<GridPoint> dense1; // T = 1 grid (the fit basis)

    inform("sweeping sizes x rates: %zu x %zu",
           cfg.sizes.size(), cfg.stimRates.size());
    for (const size_t n : cfg.sizes)
        for (const double r : cfg.stimRates)
            dense1.push_back(measureDense(n, r, 1, cfg));
    std::vector<GridPoint> silent; // T = 1, no stimulus
    for (const size_t n : cfg.sizes)
        silent.push_back(measureDense(n, 0.0, 1, cfg));

    // denseNsPerNeuron: the neuron phase is rate-independent, so every T = 1 point constrains
    // neuron ns/step = const + N * denseNs.
    {
        std::vector<double> xs, yn;
        for (const GridPoint &g : dense1) {
            xs.push_back(static_cast<double>(g.neurons));
            yn.push_back(g.neuronNs);
        }
        model.denseNsPerNeuron =
            std::max(theilSenSlope(xs, yn), 0.01);
    }

    // deliveryNsPerRecord: at one size every step clears the same
    // slot, so route ns/step over records/step is delivery alone;
    // take the median of the per-size slopes.
    // ringClearNsPerCell: the clear is linear in the N * C cells of a
    // slot, and a few hundred ns per step at these sizes, far below
    // the spread of the active points' delivery time. So fit it on
    // the silent points, where the route time delivery leaves is the
    // whole route time.
    {
        std::vector<double> perSize;
        for (const size_t n : cfg.sizes) {
            std::vector<double> x, y;
            for (const GridPoint &g : dense1) {
                if (g.neurons != n)
                    continue;
                x.push_back(g.recordsPerStep);
                y.push_back(g.routeNs);
            }
            perSize.push_back(theilSenSlope(x, y));
        }
        model.deliveryNsPerRecord = std::max(medianOf(perSize), 0.01);

        std::vector<double> cells, y;
        for (const GridPoint &g : silent) {
            cells.push_back(static_cast<double>(g.neurons) *
                            maxSynapseTypes);
            y.push_back(g.routeNs -
                        g.recordsPerStep * model.deliveryNsPerRecord);
        }
        model.ringClearNsPerCell =
            std::max(theilSenSlope(cells, y), 0.001);
    }
    const auto modelledRouteNs = [&model](const GridPoint &g) {
        return g.recordsPerStep * model.deliveryNsPerRecord +
               static_cast<double>(g.neurons) * maxSynapseTypes *
                   model.ringClearNsPerCell;
    };

    // serialNsPerNeuron + stepOverheadNs: the per-point step cost
    // the fitted phases do not explain still grows with N (stimulus
    // draws, the fired sweep), so take its Theil-Sen slope over N,
    // then the overhead as the median leftover beyond it. A median
    // leftover is robust against the occasional descheduled run on a
    // shared host, where an OLS intercept extrapolated from a handful
    // of sizes is not.
    {
        std::vector<double> xs, ys;
        for (const GridPoint &g : dense1) {
            xs.push_back(static_cast<double>(g.neurons));
            ys.push_back(g.stepNs - xs.back() * model.denseNsPerNeuron -
                         modelledRouteNs(g));
        }
        model.serialNsPerNeuron = std::max(theilSenSlope(xs, ys), 0.0);
        for (size_t i = 0; i < ys.size(); ++i)
            ys[i] -= xs[i] * model.serialNsPerNeuron;
        model.stepOverheadNs = std::max(medianOf(ys), 1.0);
    }

    // dispatchNsPerLane: on a population too small for threads to
    // help, the entire T = 2 step-cost increase is pool dispatch.
    // parallelEfficiency: on the largest population the T = 2
    // neuron-phase speedup pins eff(2) = 1 + p.
    inform("sweeping thread dimension");
    {
        const double midRate = cfg.stimRates[cfg.stimRates.size() / 2];
        const GridPoint tiny1 =
            measureDense(cfg.sizes.front(), midRate, 1, cfg);
        const GridPoint tiny2 =
            measureDense(cfg.sizes.front(), midRate, 2, cfg);
        model.dispatchNsPerLane = std::clamp(
            (tiny2.stepNs - tiny1.stepNs) / 2.0, 1.0, 1e6);

        const GridPoint big1 =
            measureDense(cfg.sizes.back(), midRate, 1, cfg);
        const GridPoint big2 =
            measureDense(cfg.sizes.back(), midRate, 2, cfg);
        const double eff2 =
            big2.neuronNs > 0.0 ? big1.neuronNs / big2.neuronNs
                                : 1.0;
        model.parallelEfficiency =
            std::clamp(eff2 - 1.0, 0.05, 1.0);
        cal.gridPoints += 4;
    }

    cal.gridPoints += dense1.size() + silent.size();

    // Residual: worst relative error of the fitted model's full-step
    // prediction over the dense T = 1 grid it was fitted on.
    {
        cal.version = "fit"; // placeholder; planner ignores it here
        const plan::ExecutionPlanner planner(cal);
        double worst = 0.0;
        for (const GridPoint &g : dense1) {
            const plan::NetworkStats net{
                g.neurons,
                static_cast<uint64_t>(
                    g.meanFanOut *
                    static_cast<double>(g.neurons))};
            const double predicted =
                planner.predictDenseStepSec(net, g.rate, 1) * 1e9;
            if (g.stepNs > 0.0)
                worst = std::max(
                    worst,
                    std::abs(predicted - g.stepNs) / g.stepNs);
        }
        cal.maxResidual = worst;
    }

    cal.version = contentVersion(model, cal.gridPoints);
    std::ostringstream host;
    host << "cores=" << std::thread::hardware_concurrency();
    cal.host = host.str();
    return cal;
}

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: calibrate [--out FILE] [--quick] [--seed N]\n"
        "       calibrate --check FILE [--max-residual X]\n"
        "  --out FILE        write calibration JSON "
        "(default calibration.json)\n"
        "  --quick           short sweep grid (CI smoke; noisier "
        "fit)\n"
        "  --seed N          microbench construction seed\n"
        "  --check FILE      validate an existing calibration "
        "(schema,\n"
        "                    coefficient sanity, fit residual "
        "bound)\n"
        "  --max-residual X  worst relative fit residual accepted "
        "by\n"
        "                    --check (default 2.0)\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out = "calibration.json";
    std::string check;
    bool quick = false;
    uint64_t seed = 1;
    double maxResidual = 2.0;

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (flag == "--out")
            out = value();
        else if (flag == "--check")
            check = value();
        else if (flag == "--quick")
            quick = true;
        else if (flag == "--seed")
            seed = std::strtoull(value(), nullptr, 10);
        else if (flag == "--max-residual")
            maxResidual = std::strtod(value(), nullptr);
        else
            usage();
    }

    if (!check.empty()) {
        plan::CalibrationData cal;
        std::string err;
        if (!plan::loadCalibrationFile(check, cal, &err)) {
            std::fprintf(stderr, "calibrate: %s\n", err.c_str());
            return 1;
        }
        if (!plan::validateCalibration(cal, maxResidual, &err)) {
            std::fprintf(stderr, "calibrate: %s: %s\n",
                         check.c_str(), err.c_str());
            return 1;
        }
        std::printf("%s: version %s OK (residual %.3f <= %.3f, "
                    "%" PRIu64 " grid points)\n",
                    check.c_str(), cal.version.c_str(),
                    cal.maxResidual, maxResidual, cal.gridPoints);
        return 0;
    }

    SweepConfig cfg;
    cfg.seed = seed;
    if (quick) {
        cfg.sizes = {256, 1024, 2048};
        cfg.stimRates = {0.005, 0.02, 0.08};
        cfg.warmup = 30;
        cfg.steps = 150;
    } else {
        cfg.sizes = {512, 1024, 2048, 4096, 8192};
        cfg.stimRates = {0.002, 0.01, 0.04, 0.1};
        cfg.warmup = 100;
        cfg.steps = 600;
    }

    const plan::CalibrationData cal = runSweep(cfg);
    std::string err;
    if (!plan::validateCalibration(cal, 1e9, &err))
        fatal("fit produced an invalid calibration: %s",
              err.c_str());
    if (!plan::saveCalibrationFile(out, cal))
        fatal("cannot write %s", out.c_str());

    const plan::CostModel &m = cal.model;
    std::printf("wrote %s (version %s, %" PRIu64 " grid points)\n",
                out.c_str(), cal.version.c_str(), cal.gridPoints);
    std::printf("  dense      %8.3f ns/neuron\n",
                m.denseNsPerNeuron);
    std::printf("  delivery   %8.3f ns/record\n",
                m.deliveryNsPerRecord);
    std::printf("  ring clear %8.3f ns/cell\n",
                m.ringClearNsPerCell);
    std::printf("  step       %8.1f ns overhead\n",
                m.stepOverheadNs);
    std::printf("  serial     %8.3f ns/neuron\n",
                m.serialNsPerNeuron);
    std::printf("  dispatch   %8.1f ns/lane\n",
                m.dispatchNsPerLane);
    std::printf("  parallel   %8.3f efficiency\n",
                m.parallelEfficiency);
    std::printf("  residual   %8.3f worst relative\n",
                cal.maxResidual);
    return 0;
}
