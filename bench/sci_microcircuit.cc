/**
 * @file
 * Potjans-Diesmann microcircuit scenario benchmarks (the PR 6
 * sparse-activity study): realistic few-Hz cortical activity is the
 * regime where a delivery schedule that walks every (shard, bucket)
 * stream wastes its time on empty ones.
 *
 *   BM_MicrocircuitSynapsePhase  synapse phase in isolation, real
 *       recorded spike activity replayed through the router, at a
 *       background (~7 Hz) and a driven (~10x) regime.
 *   BM_MicrocircuitStep  full-step cost of the session on the same
 *       scenario at both regimes.
 *
 * Delivery is bit-identical to a naive serial oracle at any thread
 * count (tests/test_routing.cc); these benchmarks only measure the
 * schedule.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/health.hh"
#include "nets/potjans_diesmann.hh"
#include "plan/calibration.hh"
#include "registry/registry.hh"
#include "snn/routing.hh"
#include "snn/simulator.hh"

namespace flexon {
namespace {

/** Scale 20 microcircuit: ~3.9k neurons, ~750k synapses. */
constexpr double benchScale = 20.0;
/** Past the silent onset transient, into the sustained regime. */
constexpr uint64_t warmupSteps = 2000;

MicrocircuitInstance
benchInstance(double rateScale)
{
    MicrocircuitOptions opts;
    opts.scale = benchScale;
    opts.seed = 1;
    opts.rateScale = rateScale;
    // The asynchronous-irregular operating point: weaker recurrence
    // with compensating inhibition and external drive keeps the
    // downscaled column irregular instead of bursty-synchronous —
    // x1 is ~10 Hz with most active steps carrying 1-10 spikes, x8
    // is the dense high-rate regime (~25 spikes/step).
    opts.gain = 2.0;
    opts.inhibition = -6.0;
    opts.extGain = 2.0;
    return buildMicrocircuit(opts);
}

/**
 * Real per-step fired lists from a warm microcircuit run: the
 * synapse-phase benchmarks replay genuine spatio-temporal sparsity,
 * not a synthetic stride pattern.
 */
std::vector<std::vector<uint32_t>>
recordActivity(MicrocircuitInstance &inst, uint64_t steps)
{
    Simulator sim(inst.network, inst.stimulus);
    sim.run(warmupSteps);
    std::vector<std::vector<uint32_t>> fired;
    fired.reserve(steps);
    for (uint64_t t = 0; t < steps; ++t) {
        sim.stepOnce();
        const std::vector<uint8_t> &flags = sim.lastFired();
        std::vector<uint32_t> step;
        for (uint32_t n = 0; n < flags.size(); ++n)
            if (flags[n])
                step.push_back(n);
        fired.push_back(std::move(step));
    }
    return fired;
}

/**
 * Synapse phase in isolation: recorded fired lists streamed through
 * the router. Args: rate-scale multiplier, worker-lane count.
 */
void
BM_MicrocircuitSynapsePhase(benchmark::State &state)
{
    const auto rateScale = static_cast<double>(state.range(0));
    const auto threads = static_cast<size_t>(state.range(1));

    // A window long enough to cover the scenario's burst/quiet
    // mixture — the aggregate the schedules differ on.
    MicrocircuitInstance inst = benchInstance(rateScale);
    const auto fired = recordActivity(inst, 2048);

    SpikeRouter router(inst.network, threads);
    uint64_t t = 0;
    for (const auto &step : fired) // warm the ring
        router.routeStep(t++, step);

    uint64_t spikes = 0;
    for (const auto &step : fired)
        spikes += step.size();
    state.SetLabel("sparse/x" + std::to_string(state.range(0)) +
                   "/t" + std::to_string(threads));

    for (auto _ : state) {
        router.routeStep(t, fired[t % fired.size()]);
        ++t;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    state.counters["spikes_per_step"] = benchmark::Counter(
        static_cast<double>(spikes) /
        static_cast<double>(fired.size()));
}

/**
 * Full-step cost. Arg: rate-scale multiplier. The rows keep their
 * "sparse" label, the delivery schedule they measure.
 */
void
BM_MicrocircuitStep(benchmark::State &state)
{
    const auto rateScale = static_cast<double>(state.range(0));
    MicrocircuitInstance inst = benchInstance(rateScale);

    Simulator sim(inst.network, inst.stimulus);
    sim.run(warmupSteps);

    state.SetLabel("sparse/x" + std::to_string(state.range(0)));
    for (auto _ : state)
        sim.run(1);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    state.counters["rate"] =
        benchmark::Counter(sim.meanRate());
}

} // namespace
} // namespace flexon

BENCHMARK(flexon::BM_MicrocircuitSynapsePhase)
    ->Args({1, 1})
    ->Args({8, 1})
    ->Args({1, 4})
    ->Args({8, 4})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(flexon::BM_MicrocircuitStep)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

#ifndef FLEXON_BENCH_BUILD_TYPE
#define FLEXON_BENCH_BUILD_TYPE "unknown"
#endif

int
main(int argc, char **argv)
{
    // Install before any benchmark builds a session; the record
    // names the calibration it ran under.
    const std::string calibration =
        flexon::plan::installCalibrationFromEnv();
    // FLEXON_HEALTH=0 disables the sampled invariant detectors: the
    // CI overhead gate A/Bs the default-on monitors against this.
    const char *const healthEnv = std::getenv("FLEXON_HEALTH");
    const bool healthOff =
        healthEnv != nullptr &&
        (std::string(healthEnv) == "0" ||
         std::string(healthEnv) == "off");
    flexon::health::setGloballyDisabled(healthOff);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    // How the project was compiled (the packaged benchmark library's
    // own library_build_type key only describes itself); bench_diff
    // refuses records from unoptimized builds.
    benchmark::AddCustomContext("project_build_type",
                                FLEXON_BENCH_BUILD_TYPE);
    benchmark::AddCustomContext("calibration_version", calibration);
    benchmark::AddCustomContext("health_monitors",
                                healthOff ? "off" : "on");
    benchmark::AddCustomContext(
        "model_registry",
        flexon::ModelRegistry::instance().fingerprint());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
