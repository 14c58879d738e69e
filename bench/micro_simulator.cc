/**
 * @file
 * Microbenchmarks: full simulation-step cost of a scaled
 * Vogels-Abbott network on each neuron-computation backend, and the
 * scaling of the reference backend with network size.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/health.hh"
#include "common/random.hh"
#include "common/telemetry.hh"
#include "nets/potjans_diesmann.hh"
#include "nets/table1.hh"
#include "plan/calibration.hh"
#include "registry/registry.hh"
#include "snn/routing.hh"
#include "snn/simulator.hh"

namespace flexon {
namespace {

void
BM_StepBackend(benchmark::State &state)
{
    const auto kind = static_cast<BackendKind>(state.range(0));
    BenchmarkInstance inst =
        buildBenchmark(findBenchmark("Vogels-Abbott"), 10.0, 3);
    SimulatorOptions opts;
    opts.backend = kind;
    Simulator sim(inst.network, inst.stimulus, opts);
    sim.run(50); // warm up past the initial transient
    state.SetLabel(backendName(kind));
    for (auto _ : state)
        sim.stepOnce();
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(inst.network.numNeurons()));
}

void
BM_StepRkf45Reference(benchmark::State &state)
{
    BenchmarkInstance inst =
        buildBenchmark(findBenchmark("Vogels-Abbott"), 10.0, 3);
    SimulatorOptions opts;
    opts.mode = IntegrationMode::Continuous;
    opts.solver = SolverKind::RKF45;
    Simulator sim(inst.network, inst.stimulus, opts);
    sim.run(50);
    for (auto _ : state)
        sim.stepOnce();
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(inst.network.numNeurons()));
}

void
BM_ReferenceScaling(benchmark::State &state)
{
    const double scale = static_cast<double>(state.range(0));
    BenchmarkInstance inst =
        buildBenchmark(findBenchmark("Vogels-Abbott"), scale, 3);
    Simulator sim(inst.network, inst.stimulus);
    sim.run(50);
    for (auto _ : state)
        sim.stepOnce();
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(inst.network.numNeurons()));
}

/**
 * Full-step cost of each backend under the threaded execution
 * engine: Arg is the worker-lane count. Scale 4 (~1000 neurons,
 * ~21k synapses) gives the lanes enough work per dispatch for the
 * pool barrier (~ microseconds) to amortize.
 */
void
BM_StepThreaded(benchmark::State &state)
{
    const auto kind = static_cast<BackendKind>(state.range(0));
    const auto threads = static_cast<size_t>(state.range(1));
    BenchmarkInstance inst =
        buildBenchmark(findBenchmark("Vogels-Abbott"), 4.0, 3);
    SimulatorOptions opts;
    opts.backend = kind;
    opts.threads = threads;
    Simulator sim(inst.network, inst.stimulus, opts);
    sim.run(50);
    state.SetLabel(std::string(backendName(kind)) + "/t" +
                   std::to_string(threads));
    for (auto _ : state)
        sim.stepOnce();
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(inst.network.numNeurons()));
}

/**
 * The continuous-mode (RKF45) reference backend is the paper's
 * neuron-computation-dominated case (Fig. 3), so it is where the
 * threaded neuron loop pays off most; sweep the lane count.
 */
void
BM_StepRkf45Threaded(benchmark::State &state)
{
    const auto threads = static_cast<size_t>(state.range(0));
    BenchmarkInstance inst =
        buildBenchmark(findBenchmark("Vogels-Abbott"), 4.0, 3);
    SimulatorOptions opts;
    opts.mode = IntegrationMode::Continuous;
    opts.solver = SolverKind::RKF45;
    opts.threads = threads;
    Simulator sim(inst.network, inst.stimulus, opts);
    sim.run(50);
    for (auto _ : state)
        sim.stepOnce();
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(inst.network.numNeurons()));
}

/**
 * Neuron-computation phase in isolation: one backend->step call on a
 * fixed sparse input buffer, with no synapse routing or stimulus
 * around it. This is the loop the per-population kernels specialize,
 * so it is the benchmark the kernel before/after comparison uses.
 * Args: backend kind, worker-lane count.
 */
void
BM_NeuronPhase(benchmark::State &state)
{
    const auto kind = static_cast<BackendKind>(state.range(0));
    const auto threads = static_cast<size_t>(state.range(1));
    BenchmarkInstance inst =
        buildBenchmark(findBenchmark("Vogels-Abbott"), 4.0, 3);
    auto backend = makeBackend(kind, inst.network,
                               IntegrationMode::Discrete,
                               SolverKind::Euler, threads);
    const size_t n = inst.network.numNeurons();
    // ~10 % of neurons receive an accumulated weight on synapse type
    // 0, the rest of the buffer stays zero — the sparsity a live
    // Vogels-Abbott synapse phase produces.
    std::vector<double> input(n * maxSynapseTypes, 0.0);
    Rng rng(7);
    for (size_t i = 0; i < n; ++i) {
        if (rng.uniform() < 0.1)
            input[i * maxSynapseTypes] = rng.uniform(0.0, 0.5);
    }
    std::vector<uint8_t> fired;
    backend->step(input, fired); // warm up / allocate
    state.SetLabel(std::string(backendName(kind)) + "/t" +
                   std::to_string(threads));
    for (auto _ : state)
        backend->step(input, fired);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(n));
}

/** Ascending fired list covering ratePct percent of the neurons. */
std::vector<uint32_t>
syntheticFired(size_t numNeurons, int64_t ratePct)
{
    const size_t stride =
        std::max<size_t>(1, static_cast<size_t>(100 / ratePct));
    std::vector<uint32_t> fired;
    for (size_t i = 0; i < numNeurons; i += stride)
        fired.push_back(static_cast<uint32_t>(i));
    return fired;
}

/**
 * Synapse-calculation phase in isolation: deliver a synthetic fired
 * list through the materialized provider's rows (clear + route), the
 * loop the packed delivery records accelerate. Args: firing rate in
 * percent of the population (1 = sparse, 10 = Vogels-Abbott-like,
 * 100 = every neuron), worker-lane count.
 */
void
BM_SynapsePhase(benchmark::State &state)
{
    const int64_t ratePct = state.range(0);
    const auto threads = static_cast<size_t>(state.range(1));
    // Full-scale Vogels-Abbott: 4000 neurons, ~320k synapses — large
    // enough that delivery is memory-bound, the regime the packed
    // records target.
    BenchmarkInstance inst =
        buildBenchmark(findBenchmark("Vogels-Abbott"), 1.0, 3);
    SpikeRouter router(inst.network, threads);
    const std::vector<uint32_t> fired =
        syntheticFired(inst.network.numNeurons(), ratePct);

    uint64_t t = 0;
    router.routeStep(t++, fired); // events-per-step probe + warm-up
    const uint64_t perStep = router.events();
    std::string label = "r";
    label += std::to_string(ratePct);
    label += "/t";
    label += std::to_string(threads);
    state.SetLabel(label);
    for (auto _ : state)
        router.routeStep(t++, fired);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(perStep));
}

/**
 * Stimulus generation in isolation: one step's Poisson draws of the
 * PD 1/10 microcircuit (7,718 neurons) at x1 and x8 drive, and of one
 * 4,000-neuron source at p = 0.01, with no injection around them.
 * Arg: the microcircuit's drive, or 0 for the single source.
 */
void
BM_StimulusGenerate(benchmark::State &state)
{
    const int64_t drive = state.range(0);
    StimulusGenerator gen(1);
    uint64_t draws = 4000;
    if (drive == 0) {
        gen.addSource(StimulusSource::poisson(0, 4000, 0.01, 1.0f, 0));
        state.SetLabel("n4000/p0.01");
    } else {
        MicrocircuitOptions mc;
        mc.scale = 10.0;
        mc.rateScale = static_cast<double>(drive);
        MicrocircuitInstance inst = buildMicrocircuit(mc);
        gen = std::move(inst.stimulus);
        draws = inst.network.numNeurons();
        state.SetLabel("pd10/x" + std::to_string(drive));
    }
    uint64_t t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen.generate(t++).data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(draws));
}

} // namespace
} // namespace flexon

BENCHMARK(flexon::BM_StepBackend)
    ->Arg(static_cast<int>(flexon::BackendKind::Reference))
    ->Arg(static_cast<int>(flexon::BackendKind::Flexon))
    ->Arg(static_cast<int>(flexon::BackendKind::Folded));
BENCHMARK(flexon::BM_StepRkf45Reference);
BENCHMARK(flexon::BM_ReferenceScaling)->Arg(40)->Arg(20)->Arg(10);
BENCHMARK(flexon::BM_StepThreaded)
    ->Args({static_cast<int>(flexon::BackendKind::Reference), 1})
    ->Args({static_cast<int>(flexon::BackendKind::Reference), 2})
    ->Args({static_cast<int>(flexon::BackendKind::Reference), 4})
    ->Args({static_cast<int>(flexon::BackendKind::Flexon), 1})
    ->Args({static_cast<int>(flexon::BackendKind::Flexon), 4})
    ->Args({static_cast<int>(flexon::BackendKind::Folded), 1})
    ->Args({static_cast<int>(flexon::BackendKind::Folded), 4});
BENCHMARK(flexon::BM_StepRkf45Threaded)->Arg(1)->Arg(2)->Arg(4);
BENCHMARK(flexon::BM_NeuronPhase)
    ->Args({static_cast<int>(flexon::BackendKind::Reference), 1})
    ->Args({static_cast<int>(flexon::BackendKind::Reference), 4})
    ->Args({static_cast<int>(flexon::BackendKind::Flexon), 1})
    ->Args({static_cast<int>(flexon::BackendKind::Flexon), 4})
    ->Args({static_cast<int>(flexon::BackendKind::Folded), 1})
    ->Args({static_cast<int>(flexon::BackendKind::Folded), 4});
BENCHMARK(flexon::BM_SynapsePhase)
    ->Args({1, 1})
    ->Args({10, 1})
    ->Args({100, 1})
    ->Args({1, 4})
    ->Args({10, 4})
    ->Args({100, 4});
BENCHMARK(flexon::BM_StimulusGenerate)->Arg(1)->Arg(8)->Arg(0);

/**
 * Custom main (overrides the benchmark_main archive member):
 * identical to the stock one plus environment-variable telemetry
 * hooks, since google-benchmark owns the argv namespace:
 *
 *   FLEXON_TELEMETRY=1         enable the deep counters
 *   FLEXON_TRACE=trace.json    enable + dump the flight recorder
 *   FLEXON_REPORT=report.json  dump pool/global metrics on exit
 *   FLEXON_HEALTH=0            disable the health monitors (A/B
 *                              overhead gate; default is sampled-on)
 *
 * The report carries the pool lane accounting and the process-wide
 * registry (kernel dispatch mix); per-simulator sections stay empty
 * because each benchmark owns short-lived simulators.
 */

#ifndef FLEXON_BENCH_BUILD_TYPE
#define FLEXON_BENCH_BUILD_TYPE "unknown"
#endif

int
main(int argc, char **argv)
{
    const char *const trace = std::getenv("FLEXON_TRACE");
    const char *const report = std::getenv("FLEXON_REPORT");
    const char *const detail = std::getenv("FLEXON_TELEMETRY");
    const char *const healthEnv = std::getenv("FLEXON_HEALTH");
    const bool healthOff =
        healthEnv != nullptr &&
        (std::string(healthEnv) == "0" ||
         std::string(healthEnv) == "off");
    flexon::health::setGloballyDisabled(healthOff);
    if ((detail != nullptr && detail[0] != '\0' &&
         detail[0] != '0') ||
        trace != nullptr) {
        flexon::telemetry::TelemetryConfig config;
        config.detail = true;
        config.trace = trace != nullptr;
        flexon::telemetry::configure(config);
    }

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    // The library's own library_build_type context key describes the
    // packaged benchmark library, not this code; record how the
    // project itself was compiled so tools/bench_diff can reject
    // unoptimized records.
    benchmark::AddCustomContext("project_build_type",
                                FLEXON_BENCH_BUILD_TYPE);
    benchmark::AddCustomContext(
        "calibration_version",
        flexon::plan::installCalibrationFromEnv());
    // Records whether the sampled invariant detectors were live for
    // this run, so the health-overhead A/B gate can label its sides.
    benchmark::AddCustomContext("health_monitors",
                                healthOff ? "off" : "on");
    // Which neuron models were registered (and with what parameters,
    // via the descriptor hash): bench_diff flags baseline/candidate
    // records taken against different registries.
    benchmark::AddCustomContext(
        "model_registry",
        flexon::ModelRegistry::instance().fingerprint());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    if (report != nullptr) {
        flexon::telemetry::ReportContext context;
        context.config.emplace_back(
            "binary",
            flexon::telemetry::jsonQuoted("micro_simulator"));
        flexon::telemetry::writeReportFile(report, context);
    }
    if (trace != nullptr)
        flexon::telemetry::writeTraceFile(trace);
    return 0;
}
