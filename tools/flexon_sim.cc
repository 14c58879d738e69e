/**
 * @file
 * flexon_sim — command-line driver for the simulator.
 *
 * Run a Table I benchmark (or a saved network file) on any backend,
 * print activity statistics, and optionally dump a raster, a rate
 * sparkline, a spikes CSV, or the network itself.
 *
 * Usage:
 *   flexon_sim --benchmark Vogels-Abbott [--scale 10] [--steps 1000]
 *              [--backend reference|flexon|folded] [--seed 1]
 *              [--solver euler|rkf45] [--threads N]
 *              [--calibration calibration.json] [--plan auto|fixed]
 *              [--raster] [--csv spikes.csv] [--save net.fxn]
 *              [--telemetry] [--report run.json] [--trace trace.json]
 *   flexon_sim --load net.fxn [--steps 1000] ...
 *   flexon_sim --list
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <optional>
#include <string>
#include <thread>

#include "analysis/raster.hh"
#include "analysis/spike_train.hh"
#include "common/health.hh"
#include "common/logging.hh"
#include "frontend/script.hh"
#include "nets/potjans_diesmann.hh"
#include "nets/table1.hh"
#include "plan/calibration.hh"
#include "plan/planner.hh"
#include "registry/model_file.hh"
#include "registry/registry.hh"
#include "snn/plasticity.hh"
#include "snn/serialize.hh"
#include "snn/simulator.hh"

using namespace flexon;

namespace {

struct Args
{
    std::string benchmark;
    std::string model;
    std::string modelFile;
    std::string script;
    std::string load;
    std::string save;
    std::string csv;
    double scale = 10.0;
    double rateScale = 1.0;
    ConnectivityKind connectivity = ConnectivityKind::Materialized;
    /** True once --connectivity was given; any explicit kind (even
     *  materialized) builds benchmarks in a spec wiring so all three
     *  providers describe identical wiring. */
    bool connectivitySet = false;
    uint64_t steps = 1000;
    uint64_t seed = 1;
    size_t threads = 1;
    /** True once --threads was given explicitly (the planner only
     *  fills in the thread count when the user left it unspecified). */
    bool threadsSet = false;
    /** Calibration JSON installed process-wide before planning. */
    std::string calibration;
    /** --plan=auto: let the planner pick the thread count. */
    bool planAuto = false;
    BackendKind backend = BackendKind::Reference;
    IntegrationMode mode = IntegrationMode::Discrete;
    SolverKind solver = SolverKind::Euler;
    bool raster = false;
    bool stats = false;
    bool list = false;
    bool listModels = false;
    bool telemetry = false;
    std::string report;
    std::string trace;
    uint64_t checkpointEvery = 0;
    std::string checkpointDir = ".";
    std::string restore;
    health::HealthOptions health;
    std::string metricsOut;
    uint64_t metricsEvery = 256;
    double watchdogTimeout = 0.0;
    std::string crashDump;
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: flexon_sim --benchmark NAME | --model NAME |\n"
        "                  --script FILE | --load FILE |\n"
        "                  --list | --list-models\n"
        "  [--model-file FILE]  register extra neuron models from a\n"
        "                    flexon-models-v1 file "
        "(registry/model_file.hh)\n"
        "  [--scale S]       divide the network size by S (> 0). The\n"
        "                    microcircuit, and Table I without\n"
        "                    --connectivity, need S >= 1; Table I\n"
        "                    with --connectivity grows when S < 1\n"
        "  [--steps N] [--seed N] [--threads N]\n"
        "  [--backend reference|flexon|folded]\n"
        "  [--connectivity materialized|compressed|procedural]\n"
        "                    synapse-table representation. With\n"
        "                    --benchmark any value, materialized\n"
        "                    too, builds the spec wiring: another\n"
        "                    draw than no flag. Elsewhere only\n"
        "                    materialized, the same as no flag\n"
        "  [--calibration FILE]  install a measured calibration.json "
        "(tools/calibrate)\n"
        "  [--plan auto|fixed]  auto = the execution planner picks\n"
        "                    the thread count from the calibrated "
        "cost model\n"
        "  [--rate-scale R]  external-drive multiplier, > 0 "
        "(microcircuit)\n"
        "  [--solver euler|rkf45]  (reference backend only)\n"
        "  [--raster] [--stats] [--csv FILE] [--save FILE]\n"
        "  [--telemetry]     enable deep counters + flight recorder\n"
        "  [--report FILE]   write a run-report JSON document\n"
        "  [--trace FILE]    write a Chrome trace.json "
        "(implies --telemetry)\n"
        "  [--health SPEC]   invariant detectors: off|warn|report|"
        "abort,\n"
        "                    or nan|sat|rate:POLICY pairs plus\n"
        "                    sample=N / warmup=N "
        "(default report,sample=64)\n"
        "  [--metrics-out FILE]  live Prometheus snapshot (plus "
        "FILE.jsonl)\n"
        "  [--metrics-every N]   steps between metric snapshots "
        "(default 256)\n"
        "  [--watchdog-timeout SEC]  abort (exit 4) with a crash "
        "dump when\n"
        "                    a step stalls longer than SEC seconds\n"
        "  [--crash-dump FILE]  crash-dump path "
        "(default flexon-crash-dump.json)\n"
        "  [--checkpoint-every N]  snapshot every N steps\n"
        "  [--checkpoint-dir DIR]  where snapshots go "
        "(default .)\n"
        "  [--restore FILE]  resume from a snapshot, then run "
        "--steps more\n");
    std::exit(2);
}

/**
 * Reject a flag value with a message naming the flag, the offending
 * text, and what would have been accepted; exits 2 like usage().
 * Enum and numeric flags must never fall back to a default or a
 * partial parse on a typo — a long run under the wrong backend or
 * connectivity looks plausible and wastes the whole simulation.
 */
[[noreturn]] void
badValue(const std::string &flag, const char *value,
         const char *expected)
{
    std::fprintf(stderr,
                 "flexon_sim: invalid value '%s' for %s "
                 "(expected %s)\n",
                 value, flag.c_str(), expected);
    std::exit(2);
}

/** Strict base-10 unsigned parse: the whole token, no sign. */
uint64_t
parseCount(const std::string &flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        badValue(flag, text, "a non-negative integer");
    return v;
}

/** Strict floating-point parse of the whole token. */
double
parseReal(const std::string &flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (errno != 0 || end == text || *end != '\0')
        badValue(flag, text, "a number");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    const char *scaleText = nullptr;
    auto need_value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--benchmark") {
            args.benchmark = need_value(i);
        } else if (flag == "--model") {
            args.model = need_value(i);
        } else if (flag == "--model-file") {
            args.modelFile = need_value(i);
        } else if (flag == "--script") {
            args.script = need_value(i);
        } else if (flag == "--load") {
            args.load = need_value(i);
        } else if (flag == "--save") {
            args.save = need_value(i);
        } else if (flag == "--csv") {
            args.csv = need_value(i);
        } else if (flag == "--scale") {
            scaleText = need_value(i);
            args.scale = parseReal(flag, scaleText);
            if (!(args.scale > 0.0))
                badValue(flag, scaleText, "a positive number");
        } else if (flag == "--rate-scale") {
            const char *v = need_value(i);
            args.rateScale = parseReal(flag, v);
            if (!(args.rateScale > 0.0))
                badValue(flag, v, "a positive number");
        } else if (flag == "--calibration") {
            args.calibration = need_value(i);
        } else if (flag == "--plan") {
            const char *v = need_value(i);
            if (std::strcmp(v, "auto") == 0)
                args.planAuto = true;
            else if (std::strcmp(v, "fixed") == 0)
                args.planAuto = false;
            else
                badValue(flag, v, "auto or fixed");
        } else if (flag == "--connectivity") {
            const char *v = need_value(i);
            if (!parseConnectivityKind(v, args.connectivity))
                badValue(flag, v,
                         "materialized, compressed, or procedural");
            args.connectivitySet = true;
        } else if (flag == "--steps") {
            args.steps = parseCount(flag, need_value(i));
        } else if (flag == "--seed") {
            args.seed = parseCount(flag, need_value(i));
        } else if (flag == "--threads") {
            args.threads = static_cast<size_t>(
                parseCount(flag, need_value(i)));
            args.threadsSet = true;
        } else if (flag == "--backend") {
            const char *v = need_value(i);
            if (std::strcmp(v, "reference") == 0)
                args.backend = BackendKind::Reference;
            else if (std::strcmp(v, "flexon") == 0)
                args.backend = BackendKind::Flexon;
            else if (std::strcmp(v, "folded") == 0)
                args.backend = BackendKind::Folded;
            else
                badValue(flag, v, "reference, flexon, or folded");
        } else if (flag == "--solver") {
            const char *v = need_value(i);
            args.mode = IntegrationMode::Continuous;
            if (std::strcmp(v, "euler") == 0)
                args.solver = SolverKind::Euler;
            else if (std::strcmp(v, "rkf45") == 0)
                args.solver = SolverKind::RKF45;
            else
                badValue(flag, v, "euler or rkf45");
        } else if (flag == "--telemetry") {
            args.telemetry = true;
        } else if (flag == "--report") {
            args.report = need_value(i);
        } else if (flag == "--trace") {
            args.trace = need_value(i);
        } else if (flag == "--health") {
            const char *v = need_value(i);
            std::string bad;
            if (!health::parseHealthSpec(v, args.health, &bad))
                badValue(flag, bad.c_str(),
                         "off|warn|report|abort, nan|sat|rate:"
                         "POLICY pairs, sample=N, warmup=N");
        } else if (flag == "--metrics-out") {
            args.metricsOut = need_value(i);
        } else if (flag == "--metrics-every") {
            const char *v = need_value(i);
            args.metricsEvery = parseCount(flag, v);
            if (args.metricsEvery == 0)
                badValue(flag, v, "a positive integer");
        } else if (flag == "--watchdog-timeout") {
            const char *v = need_value(i);
            args.watchdogTimeout = parseReal(flag, v);
            if (!(args.watchdogTimeout > 0.0))
                badValue(flag, v, "a positive number of seconds");
        } else if (flag == "--crash-dump") {
            args.crashDump = need_value(i);
        } else if (flag == "--checkpoint-every") {
            args.checkpointEvery = parseCount(flag, need_value(i));
        } else if (flag == "--checkpoint-dir") {
            args.checkpointDir = need_value(i);
        } else if (flag == "--restore") {
            args.restore = need_value(i);
        } else if (flag == "--raster") {
            args.raster = true;
        } else if (flag == "--stats") {
            args.stats = true;
        } else if (flag == "--list") {
            args.list = true;
        } else if (flag == "--list-models") {
            args.listModels = true;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
            usage();
        }
    }
    // Only the spec-built Table I networks grow past the paper's
    // size: the staged generator draws every neuron pair, and the
    // microcircuit's in-degrees are published at full scale.
    if (args.scale < 1.0 && args.benchmark == "microcircuit")
        badValue("--scale", scaleText, "a number >= 1 for microcircuit");
    if (args.scale < 1.0 && !args.benchmark.empty() &&
        !args.connectivitySet)
        badValue("--scale", scaleText,
                 "a number >= 1 without --connectivity");
    return args;
}

/**
 * CI fault injection: FLEXON_HEALTH_INJECT=nan@STEP | rate@STEP |
 * stall@STEP corrupts the run at the given step (counted in steps
 * run by this invocation) so the health-smoke job can assert that
 * the right detector fires with the right exit code. A test hook,
 * not a user feature — hence an environment variable, not a flag.
 */
struct Injection
{
    enum class Kind { None, Nan, Rate, Stall };
    Kind kind = Kind::None;
    uint64_t step = 0;
};

Injection
parseInjection()
{
    Injection inj;
    const char *env = std::getenv("FLEXON_HEALTH_INJECT");
    if (env == nullptr || *env == '\0')
        return inj;
    const std::string text = env;
    const size_t at = text.find('@');
    const std::string kind = text.substr(0, at);
    if (at == std::string::npos)
        badValue("FLEXON_HEALTH_INJECT", env,
                 "nan@STEP, rate@STEP, or stall@STEP");
    if (kind == "nan")
        inj.kind = Injection::Kind::Nan;
    else if (kind == "rate")
        inj.kind = Injection::Kind::Rate;
    else if (kind == "stall")
        inj.kind = Injection::Kind::Stall;
    else
        badValue("FLEXON_HEALTH_INJECT", env,
                 "nan@STEP, rate@STEP, or stall@STEP");
    inj.step =
        parseCount("FLEXON_HEALTH_INJECT", text.c_str() + at + 1);
    return inj;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);

    // Install the measured calibration before anything consults the
    // planner (the session, hwmodel, the plan block below).
    if (!args.calibration.empty()) {
        plan::CalibrationData cal;
        std::string err;
        if (!plan::loadCalibrationFile(args.calibration, cal, &err))
            fatal("--calibration: %s", err.c_str());
        plan::setActiveCalibration(cal);
        inform("installed calibration %s (version %s)",
               args.calibration.c_str(), cal.version.c_str());
    }

    // Register file-provided models before anything looks names up —
    // --list-models must show them and --model/--script must find
    // them. A malformed file is a usage error (exit 2), with the
    // parser's byte-offset diagnostic on stderr.
    if (!args.modelFile.empty()) {
        std::string err;
        const int added = loadModelFile(ModelRegistry::instance(),
                                        args.modelFile, &err);
        if (added < 0) {
            std::fprintf(stderr, "flexon_sim: --model-file: %s\n",
                         err.c_str());
            return 2;
        }
        inform("registered %d model(s) from %s", added,
               args.modelFile.c_str());
    }

    if (args.listModels) {
        std::printf("%-22s %-26s %3s %5s %7s  %-11s %-3s %s\n",
                    "model", "features", "syn", "uops", "latency",
                    "kernel", "ie", "description");
        for (const ModelDescriptor *d :
             ModelRegistry::instance().all()) {
            std::printf("%-22s %-26s %3zu %5zu %7zu  %-11s %-3s %s\n",
                        d->name.c_str(),
                        d->features().toString().c_str(),
                        d->params.numSynapseTypes, d->microcodeOps,
                        d->microcodeLatency,
                        d->kernel.specialized ? "specialized"
                                              : "generic",
                        d->ie.enabled ? "yes" : "no",
                        d->doc.c_str());
        }
        std::printf("\nregistry fingerprint: %s\n",
                    ModelRegistry::instance().fingerprint().c_str());
        return 0;
    }

    // The watchdog arms the flight recorder too: a crash dump with an
    // empty trace buffer is useless for the post-mortem it exists
    // for. (Recording costs only the armed ring buffer.)
    if (args.telemetry || !args.trace.empty() ||
        args.watchdogTimeout > 0.0) {
        telemetry::TelemetryConfig cfg;
        cfg.detail = true;
        cfg.trace =
            !args.trace.empty() || args.watchdogTimeout > 0.0;
        telemetry::configure(cfg);
    }

    if (args.list) {
        std::printf("%-18s %8s %10s  %-22s %s\n", "benchmark",
                    "neurons", "synapses", "model", "solver");
        for (const BenchmarkSpec &spec : table1Benchmarks()) {
            std::printf("%-18s %8zu %10zu  %-22s %s\n",
                        spec.name.c_str(), spec.neurons,
                        spec.synapses, spec.model.c_str(),
                        solverName(spec.solver));
        }
        size_t mcNeurons = 0;
        for (const size_t n : microcircuitFullSizes())
            mcNeurons += n;
        std::printf("%-18s %8zu %10s  %-22s %s\n", "microcircuit",
                    mcNeurons, "~3e8", "LLIF (8 populations)",
                    "Euler");
        return 0;
    }
    const int sources = (!args.benchmark.empty()) +
                        (!args.model.empty()) +
                        (!args.script.empty()) + (!args.load.empty());
    if (sources != 1)
        usage(); // exactly one source required

    // Resolve --model early: an unknown name is a usage error and
    // should list what *is* registered (builtins plus --model-file).
    const ModelDescriptor *modelDesc = nullptr;
    if (!args.model.empty()) {
        modelDesc = ModelRegistry::instance().find(args.model);
        if (modelDesc == nullptr) {
            std::fprintf(stderr,
                         "flexon_sim: unknown model '%s'; registered "
                         "models: %s\n",
                         args.model.c_str(),
                         ModelRegistry::instance()
                             .namesSummary()
                             .c_str());
            return 2;
        }
    }

    // Compressed and procedural connectivity regenerate (or
    // re-encode) rows from the benchmark's generative spec, so they
    // only exist for spec-built networks.
    if (args.connectivity != ConnectivityKind::Materialized &&
        args.benchmark.empty()) {
        fatal("--connectivity=%s requires --benchmark: loaded or "
              "scripted networks carry no generative spec",
              connectivityKindName(args.connectivity));
    }
    // Without --connectivity the benchmarks keep their staged
    // generators. Any explicit kind, materialized included, builds
    // them from their generative spec, so all three providers
    // describe identical wiring; compressed and procedural keep only
    // the spec.
    const Wiring wiring =
        !args.connectivitySet ? Wiring::Staged
        : args.connectivity == ConnectivityKind::Materialized
            ? Wiring::Spec
            : Wiring::Procedural;

    Network net;
    StimulusGenerator stim(args.seed);
    std::string title;
    if (args.benchmark == "microcircuit") {
        MicrocircuitOptions mc;
        mc.scale = args.scale;
        mc.seed = args.seed;
        mc.rateScale = args.rateScale;
        MicrocircuitInstance inst = buildMicrocircuit(mc, wiring);
        net = std::move(inst.network);
        stim = std::move(inst.stimulus);
        title = "microcircuit";
    } else if (!args.benchmark.empty()) {
        BenchmarkInstance inst = buildBenchmark(
            findBenchmark(args.benchmark), args.scale, args.seed,
            wiring);
        net = std::move(inst.network);
        stim = std::move(inst.stimulus);
        title = args.benchmark;
    } else if (modelDesc != nullptr) {
        // --scale keeps its shrink-divisor meaning: the demo net is
        // 10000 neurons at scale 1, i.e. 1000 at the default 10.
        const size_t demoNeurons = std::max<size_t>(
            10, static_cast<size_t>(
                    std::llround(10000.0 / args.scale)));
        BenchmarkInstance inst =
            buildModelDemo(*modelDesc, demoNeurons, args.seed);
        net = std::move(inst.network);
        stim = std::move(inst.stimulus);
        title = inst.spec.name;
    } else if (!args.script.empty()) {
        ParsedScript parsed = parseScriptFile(args.script);
        net = std::move(parsed.network);
        stim = std::move(parsed.stimulus);
        title = args.script;
    } else {
        net = loadNetworkFile(args.load);
        title = args.load;
        // Generic background drive for loaded networks.
        stim.addSource(StimulusSource::poisson(
            0, static_cast<uint32_t>(net.numNeurons()), 0.01, 2.0f,
            0));
    }

    if (!args.save.empty()) {
        saveNetworkFile(args.save, net);
        inform("saved network to %s", args.save.c_str());
    }

    SimulatorOptions opts;
    opts.backend = args.backend;
    opts.mode = args.mode;
    opts.solver = args.solver;
    opts.threads = args.threads;
    opts.recordSpikes = args.raster || !args.csv.empty();
    opts.connectivity = args.connectivity;
    opts.health = args.health;
    opts.metricsOut = args.metricsOut;
    opts.metricsEvery = args.metricsEvery;
    opts.label = title;

    // --plan=auto: predict the step cost from the active calibration
    // and fill in the thread count unless the user gave one; a given
    // --threads N is run as is, so the prediction is at N, as the
    // session predicts for itself. Deterministic — depends only on
    // the calibration and the network's neuron/synapse counts.
    std::optional<plan::EnginePlan> planned;
    if (args.planAuto) {
        const plan::ExecutionPlanner planner;
        const plan::NetworkStats netStats{net.numNeurons(),
                                          net.numSynapses()};
        if (args.threadsSet) {
            const unsigned lanes =
                static_cast<unsigned>(std::max<size_t>(1, args.threads));
            planned = plan::EnginePlan{
                .threads = lanes,
                .predictedStepSec = planner.predictDenseStepSec(
                    netStats, plan::kDefaultRatePrior, lanes),
                .calibrationVersion = planner.calibration().version};
        } else {
            planned = planner.plan(
                netStats, plan::kDefaultRatePrior,
                std::max(1u, std::thread::hardware_concurrency()));
            opts.threads = planned->threads;
        }
    }

    // Intrinsic-excitability plasticity attaches a rule to the
    // backend's per-neuron thresholds, so it needs the discrete
    // reference backend.
    const bool wantIe = modelDesc != nullptr && modelDesc->ie.enabled;
    if (wantIe) {
        if (args.backend != BackendKind::Reference ||
            args.mode != IntegrationMode::Discrete) {
            fatal("model '%s' carries intrinsic-excitability "
                  "plasticity, which needs the discrete reference "
                  "backend",
                  args.model.c_str());
        }
    }

    Simulator sim(net, stim, opts);
    sim.setCheckpointCadence(args.checkpointEvery);

    // Attach the IE rule before any restore: loadCheckpoint requires
    // the same rules (count, kinds, order) the snapshot was saved
    // with.
    std::optional<IntrinsicExcitabilityRule> ieRule;
    if (wantIe) {
        ieRule.emplace(sim.backend(), net.numNeurons(),
                       modelDesc->ie);
        sim.attachPlasticityRule(&*ieRule);
        inform("intrinsic excitability: eta=%g target-rate=%g "
               "tau=%g offsets=[%g, %g]",
               modelDesc->ie.eta, modelDesc->ie.targetRate,
               modelDesc->ie.tau, modelDesc->ie.minOffset,
               modelDesc->ie.maxOffset);
    }
    if (planned) {
        // The prediction to audit against is the planned one.
        sim.setPlanInfo({.planned = true,
                         .predictedStepSec = planned->predictedStepSec,
                         .calibrationVersion =
                             planned->calibrationVersion});
        std::printf("plan: threads=%u predicted-step=%.3f us "
                    "calibration=%s\n",
                    planned->threads, planned->predictedStepSec * 1e6,
                    planned->calibrationVersion.c_str());
    }
    if (!args.restore.empty()) {
        sim.loadCheckpointFile(args.restore, &net);
        inform("restored checkpoint %s at step %llu",
               args.restore.c_str(),
               static_cast<unsigned long long>(sim.restoredStep()));
    }

    // Crash-dump plumbing: detector aborts and watchdog stalls dump
    // the session registry and the flight recorder.
    if (!args.crashDump.empty())
        health::setCrashDumpPath(args.crashDump);
    health::setCrashDumpRegistry(&sim.metrics());

    std::optional<health::Watchdog> watchdog;
    if (args.watchdogTimeout > 0.0) {
        health::installCrashHandlers();
        watchdog.emplace(args.watchdogTimeout);
    }

    const Injection inject = parseInjection();
    if (inject.kind != Injection::Kind::None &&
        args.checkpointEvery != 0) {
        fatal("FLEXON_HEALTH_INJECT cannot be combined with "
              "--checkpoint-every");
    }

    // Arm the watchdog around the run loop only: network
    // construction and report writing must not count against the
    // step budget.
    if (watchdog)
        watchdog->start();

    // --steps counts the steps run by *this* invocation; after a
    // restore the simulation continues from the snapshot's step.
    if (inject.kind != Injection::Kind::None &&
        inject.step < args.steps) {
        sim.run(inject.step);
        switch (inject.kind) {
        case Injection::Kind::Nan:
            if (!sim.debugPoisonMembrane(0))
                warn("health inject: backend cannot represent NaN");
            break;
        case Injection::Kind::Rate:
            sim.debugInjectRateExplosion();
            break;
        case Injection::Kind::Stall: {
            const double sec =
                args.watchdogTimeout > 0.0
                    ? args.watchdogTimeout * 4.0 + 1.0
                    : 1.0;
            inform("health inject: stalling for %.1f s", sec);
            std::this_thread::sleep_for(
                std::chrono::duration<double>(sec));
            break;
        }
        default:
            break;
        }
        sim.run(args.steps - inject.step);
    } else if (args.checkpointEvery == 0) {
        sim.run(args.steps);
    } else {
        uint64_t remaining = args.steps;
        while (remaining > 0) {
            const uint64_t untilNext =
                args.checkpointEvery -
                (sim.currentStep() % args.checkpointEvery);
            const uint64_t chunk =
                std::min(remaining, untilNext);
            sim.run(chunk);
            remaining -= chunk;
            if (sim.currentStep() % args.checkpointEvery ==
                0) {
                const std::string path =
                    args.checkpointDir + "/checkpoint-" +
                    std::to_string(sim.currentStep()) +
                    ".fxc";
                if (sim.saveCheckpointFile(path))
                    inform("wrote checkpoint %s", path.c_str());
            }
        }
    }

    if (watchdog)
        watchdog->stop();

    const PhaseStats &st = sim.stats();
    std::printf("%s: %zu neurons, %zu synapses, backend=%s\n",
                title.c_str(), net.numNeurons(), net.numSynapses(),
                backendName(args.backend));
    std::printf("steps=%llu spikes=%llu rate=%.5f/neuron/step "
                "synapse-events=%llu\n",
                static_cast<unsigned long long>(st.steps),
                static_cast<unsigned long long>(st.spikes),
                sim.meanRate(),
                static_cast<unsigned long long>(st.synapseEvents));
    std::printf("wall time: stimulus %.2f ms, neuron %.2f ms, "
                "synapse %.2f ms\n",
                st.stimulusSec * 1e3, st.neuronSec * 1e3,
                st.synapseSec * 1e3);
    if (ieRule) {
        std::printf("intrinsic excitability: mean threshold offset "
                    "%+.5f after %llu steps\n",
                    ieRule->meanOffset(),
                    static_cast<unsigned long long>(st.steps));
    }
    if (st.modelNeuronSec > 0.0) {
        std::printf("modelled hardware neuron time: %.3f ms "
                    "(%.1fx vs this host's reference loop)\n",
                    st.modelNeuronSec * 1e3,
                    st.neuronSec / st.modelNeuronSec);
    }

    if (args.stats) {
        std::ostringstream oss;
        sim.printStats(oss);
        std::fputs(oss.str().c_str(), stdout);
    }

    if (args.raster) {
        std::printf("\n%s",
                    renderRaster(sim.spikeEvents(), net.numNeurons(),
                                 st.steps)
                        .c_str());
        const auto rate = populationRate(
            sim.spikeEvents(), net.numNeurons(), st.steps,
            std::max<uint64_t>(1, st.steps / 72));
        std::printf("rate    %s\n",
                    renderRateSparkline(rate).c_str());
    }
    if (!args.csv.empty()) {
        std::ofstream os(args.csv);
        if (!os)
            fatal("cannot open '%s'", args.csv.c_str());
        writeSpikesCsv(os, sim.spikeEvents());
        inform("wrote %zu spike events to %s",
               sim.spikeEvents().size(), args.csv.c_str());
    }
    if (!args.report.empty() && sim.writeRunReport(args.report))
        inform("wrote run report to %s", args.report.c_str());
    if (!args.trace.empty() &&
        telemetry::writeTraceFile(args.trace)) {
        inform("wrote %zu trace events to %s",
               telemetry::traceEventCount(), args.trace.c_str());
    }
    // Only for an explicitly traced run: the watchdog's implicit
    // flight recorder is a ring for the crash dump, where losing the
    // oldest events on a long run is by design.
    if (!args.trace.empty() && telemetry::traceDropped() > 0) {
        warn("flight recorder dropped %llu trace events (per-thread "
             "capacity %zu); raise TelemetryConfig::traceCapacity or "
             "shorten the traced run",
             static_cast<unsigned long long>(
                 telemetry::traceDropped()),
             telemetry::config().traceCapacity);
    }
    return 0;
}
