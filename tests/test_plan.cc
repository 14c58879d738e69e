/**
 * @file
 * Tests for the calibration layer and execution planner: builtin
 * defaults must reproduce the legacy hand-tuned behavior exactly,
 * calibration documents must survive a save/load round trip, the
 * planner's engine choice must flip at the predicted crossover
 * under synthetic calibrations, and a planner-driven run must be
 * bit-identical to the corresponding fixed-engine run — the
 * planner only ever changes *which* engine steps, never what an
 * engine computes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "features/model_table.hh"
#include "plan/calibration.hh"
#include "plan/planner.hh"
#include "snn/simulator.hh"

namespace flexon {
namespace {

using plan::CalibrationData;
using plan::ExecutionPlanner;
using plan::NetworkStats;

/** A calibration with a synthetic event/dense cost ratio. */
CalibrationData
syntheticCalibration(double eventFactor)
{
    CalibrationData cal = plan::builtinCalibration();
    cal.version = "test-synthetic";
    cal.model.eventNsPerUnit =
        cal.model.denseNsPerNeuron * eventFactor;
    return cal;
}

TEST(Calibration, BuiltinReproducesLegacyCrossover)
{
    // The hand-tuned auto engine switched at 1 / (K + 1); the builtin
    // calibration must land there exactly (kBuiltinEventCostFactor
    // keeps the dense and event unit costs equal, and the common
    // delivery terms cancel out of the crossover).
    const ExecutionPlanner planner(plan::builtinCalibration());
    const NetworkStats net{1000, 50000}; // K = 50
    EXPECT_DOUBLE_EQ(planner.crossoverRate(net), 1.0 / 51.0);

    const NetworkStats dense{100, 9900}; // K = 99
    EXPECT_DOUBLE_EQ(planner.crossoverRate(dense), 1.0 / 100.0);

    // An empty network has no crossover to speak of.
    const NetworkStats empty{0, 0};
    EXPECT_GE(planner.crossoverRate(empty), 0.0);
}

TEST(Calibration, JsonRoundTripPreservesEverything)
{
    CalibrationData cal;
    cal.version = "cal-00DEADBEEF";
    cal.host = "test host \"quoted\"";
    cal.model.denseNsPerNeuron = 3.25;
    cal.model.eventNsPerUnit = 5.5;
    cal.model.deliveryNsPerRecord = 0.75;
    cal.model.ringClearNsPerCell = 0.125;
    cal.model.stepOverheadNs = 321.5;
    cal.model.serialNsPerNeuron = 6.5;
    cal.model.dispatchNsPerLane = 987.0;
    cal.model.parallelEfficiency = 0.625;
    cal.maxResidual = 0.0625;
    cal.gridPoints = 42;
    cal.maskNsPerNeuron = {{"LLIF", 4.5}, {"Izhikevich", 9.25}};
    cal.providerDeliveryNs = {{"materialized", 1.0},
                              {"procedural", 2.5}};

    const std::string path =
        ::testing::TempDir() + "/roundtrip_cal.json";
    ASSERT_TRUE(plan::saveCalibrationFile(path, cal));

    CalibrationData loaded;
    std::string error;
    ASSERT_TRUE(plan::loadCalibrationFile(path, loaded, &error))
        << error;
    EXPECT_EQ(loaded.version, cal.version);
    EXPECT_EQ(loaded.host, cal.host);
    EXPECT_EQ(loaded.model.denseNsPerNeuron,
              cal.model.denseNsPerNeuron);
    EXPECT_EQ(loaded.model.eventNsPerUnit, cal.model.eventNsPerUnit);
    EXPECT_EQ(loaded.model.deliveryNsPerRecord,
              cal.model.deliveryNsPerRecord);
    EXPECT_EQ(loaded.model.ringClearNsPerCell,
              cal.model.ringClearNsPerCell);
    EXPECT_EQ(loaded.model.stepOverheadNs, cal.model.stepOverheadNs);
    EXPECT_EQ(loaded.model.serialNsPerNeuron,
              cal.model.serialNsPerNeuron);
    EXPECT_EQ(loaded.model.dispatchNsPerLane,
              cal.model.dispatchNsPerLane);
    EXPECT_EQ(loaded.model.parallelEfficiency,
              cal.model.parallelEfficiency);
    EXPECT_EQ(loaded.maxResidual, cal.maxResidual);
    EXPECT_EQ(loaded.gridPoints, cal.gridPoints);
    EXPECT_EQ(loaded.maskNsPerNeuron, cal.maskNsPerNeuron);
    EXPECT_EQ(loaded.providerDeliveryNs, cal.providerDeliveryNs);
}

TEST(Calibration, LoaderRejectsBadDocuments)
{
    auto rejects = [](const std::string &text) {
        const std::string path =
            ::testing::TempDir() + "/bad_cal.json";
        std::ofstream(path) << text;
        CalibrationData out;
        std::string error;
        const bool ok = plan::loadCalibrationFile(path, out, &error);
        EXPECT_FALSE(error.empty() || ok);
        return !ok;
    };
    EXPECT_TRUE(rejects("{\"schema\": \"bogus\"}"));
    EXPECT_TRUE(rejects("{\"schema\": \"flexon-calibration-v1\","
                        " \"version\": \"x\", \"model\": {"
                        "\"dense_ns_per_neuron\": -1}}"));
    EXPECT_TRUE(rejects("not json at all"));
    EXPECT_TRUE(rejects("{\"schema\": \"flexon-calibration-v1\""));

    CalibrationData out;
    std::string error;
    EXPECT_FALSE(plan::loadCalibrationFile(
        ::testing::TempDir() + "/no_such_cal.json", out, &error));
    EXPECT_FALSE(error.empty());
}

TEST(Calibration, ValidationGuardsCoefficientRanges)
{
    std::string why;
    EXPECT_TRUE(plan::validateCalibration(plan::builtinCalibration(),
                                          1.0, &why))
        << why;

    CalibrationData cal = plan::builtinCalibration();
    cal.model.parallelEfficiency = 1.5;
    EXPECT_FALSE(plan::validateCalibration(cal, 1.0));

    cal = plan::builtinCalibration();
    cal.model.stepOverheadNs = 0.0;
    EXPECT_FALSE(plan::validateCalibration(cal, 1.0));

    cal = plan::builtinCalibration();
    cal.version.clear();
    EXPECT_FALSE(plan::validateCalibration(cal, 1.0));

    // A recorded residual above the acceptance bound means the sweep
    // was too noisy to trust (the calibrate --check gate).
    cal = plan::builtinCalibration();
    cal.maxResidual = 3.0;
    EXPECT_FALSE(plan::validateCalibration(cal, 2.0, &why));
    EXPECT_TRUE(plan::validateCalibration(cal, 4.0));
}

TEST(Planner, StrategyFlipsAtPredictedCrossover)
{
    // Table-driven: synthetic event/dense cost ratios move the
    // crossover, and the planned engine must flip with it — event
    // below the hysteresis dead band, adaptive inside it, dense
    // above (or everywhere the event engine is predicted slower).
    const NetworkStats net{1000, 50000}; // K = 50
    struct Case
    {
        double eventFactor;
        double rate;
        EngineKind expect;
    };
    // Builtin factor 1: crossover 1/51 ~ 0.0196, dead band
    // (0.0163, 0.0235); factor 10: crossover ~ 0.00196; factor 0.1:
    // crossover ~ 0.196.
    const Case cases[] = {
        {1.0, 0.001, EngineKind::Event},
        {1.0, 0.019, EngineKind::Auto},
        {1.0, 0.1, EngineKind::Dense},
        {10.0, 0.0005, EngineKind::Event},
        {10.0, 0.002, EngineKind::Auto},
        {10.0, 0.019, EngineKind::Dense},
        {0.1, 0.05, EngineKind::Event},
        {0.1, 0.2, EngineKind::Auto},
        {0.1, 0.5, EngineKind::Dense},
    };
    for (const Case &c : cases) {
        const ExecutionPlanner planner(
            syntheticCalibration(c.eventFactor));
        const plan::EnginePlan p = planner.plan(net, c.rate, 1);
        EXPECT_EQ(p.engine, c.expect)
            << "eventFactor=" << c.eventFactor << " rate=" << c.rate
            << " planned " << engineKindName(p.engine);
        // The prediction backing the choice must be the cheaper one.
        EXPECT_LE(p.predictedStepSec,
                  std::max(p.predictedDenseStepSec,
                           p.predictedEventStepSec));
        EXPECT_EQ(p.calibrationVersion, "test-synthetic");
    }
}

TEST(Planner, PredictionsScaleWithRateAndThreads)
{
    const ExecutionPlanner planner(plan::builtinCalibration());
    const NetworkStats big{1000000, 50000000};
    const NetworkStats tiny{50, 2500};

    // Both engines get more expensive as activity rises.
    EXPECT_LT(planner.predictDenseStepSec(big, 0.01, 1),
              planner.predictDenseStepSec(big, 0.1, 1));
    EXPECT_LT(planner.predictEventStepSec(big, 0.01),
              planner.predictEventStepSec(big, 0.1));

    // A million neurons are worth their worker lanes; fifty neurons
    // are not worth one dispatch.
    EXPECT_LT(planner.predictDenseStepSec(big, 0.02, 4),
              planner.predictDenseStepSec(big, 0.02, 1));
    EXPECT_LT(planner.predictDenseStepSec(tiny, 0.02, 1),
              planner.predictDenseStepSec(tiny, 0.02, 2));
}

TEST(Planner, SerialPerNeuronCostAddsToBothEnginesUnthreaded)
{
    // The serial per-neuron term (stimulus draw, fired sweep) is paid
    // by both engines and by no worker lane: it adds n x serial to
    // each prediction at any thread count and leaves the crossover.
    CalibrationData cal = plan::builtinCalibration();
    const ExecutionPlanner without(cal);
    cal.model.serialNsPerNeuron = 6.5;
    const ExecutionPlanner with(cal);
    const NetworkStats net{10000, 1000000};
    const double added = 10000 * 6.5e-9;
    for (unsigned threads : {1u, 4u}) {
        EXPECT_NEAR(with.predictDenseStepSec(net, 0.02, threads) -
                        without.predictDenseStepSec(net, 0.02, threads),
                    added, 1e-15);
    }
    EXPECT_NEAR(with.predictEventStepSec(net, 0.02) -
                    without.predictEventStepSec(net, 0.02),
                added, 1e-15);
    EXPECT_EQ(with.crossoverRate(net), without.crossoverRate(net));
}

TEST(Planner, ThreadChoiceWeighsDispatchAgainstWork)
{
    const ExecutionPlanner planner(plan::builtinCalibration());

    // Small population: every added lane costs more dispatch than
    // its share of the neuron phase saves.
    const NetworkStats tiny{100, 5000};
    EXPECT_EQ(planner.planThreads(tiny, 0.02, 8), 1u);

    // Large population: each lane through the cap clears the 2%
    // improvement bar.
    const NetworkStats big{1000000, 50000000};
    EXPECT_EQ(planner.planThreads(big, 0.02, 8), 8u);

    // The cap is respected, and a zero cap means serial.
    EXPECT_EQ(planner.planThreads(big, 0.02, 3), 3u);
    EXPECT_EQ(planner.planThreads(big, 0.02, 0), 1u);
}

TEST(Planner, PlanIsDeterministic)
{
    // Same calibration + same inputs -> field-identical plans (the
    // reproducibility contract: no clocks, no sampling).
    const CalibrationData cal = syntheticCalibration(2.0);
    const ExecutionPlanner a(cal);
    const ExecutionPlanner b(cal);
    const NetworkStats net{3900, 750000};
    const plan::EnginePlan pa = a.plan(net, 0.007, 4);
    const plan::EnginePlan pb = b.plan(net, 0.007, 4);
    EXPECT_EQ(pa.engine, pb.engine);
    EXPECT_EQ(pa.threads, pb.threads);
    EXPECT_EQ(pa.crossoverRate, pb.crossoverRate);
    EXPECT_EQ(pa.predictedStepSec, pb.predictedStepSec);
    EXPECT_EQ(pa.predictedDenseStepSec, pb.predictedDenseStepSec);
    EXPECT_EQ(pa.predictedEventStepSec, pb.predictedEventStepSec);
    EXPECT_EQ(pa.calibrationVersion, pb.calibrationVersion);
}

/** A recurrent LLIF network with background stimulus. */
struct LlifSetup
{
    Network net;
    StimulusGenerator stim{1};
};

LlifSetup
llifNetwork(size_t neurons, double rate, uint64_t seed)
{
    LlifSetup s;
    NeuronParams p = defaultParams(ModelKind::LLIF);
    const size_t pop = s.net.addPopulation("llif", p, neurons);
    Rng rng(seed);
    s.net.connectRandom(pop, pop, 0.05, 0.4, 1, 6, 0, rng);
    s.net.finalize();
    s.stim = StimulusGenerator(seed ^ 0xabcdULL);
    s.stim.addSource(StimulusSource::poisson(
        0, static_cast<uint32_t>(neurons), rate, 0.8f, 0));
    return s;
}

/**
 * The acceptance contract: running under the planner's choice (for
 * every engine it can choose, at several thread counts) produces
 * the same spike train as the pinned dense engine — bit for bit.
 */
TEST(PlanBitIdentity, PlannedStrategiesMatchPinnedEngines)
{
    const uint64_t total = 640;
    for (const size_t threads : {size_t{1}, size_t{3}, size_t{4}}) {
        SimulatorOptions opts;
        opts.recordSpikes = true;
        opts.probes = {0, 3, 11};
        opts.threads = threads;

        LlifSetup a = llifNetwork(90, 0.05, 13);
        Simulator dense(a.net, a.stim, opts);
        dense.run(total);
        ASSERT_GT(dense.stats().spikes, 0u) << "silent network";

        for (const EngineKind kind :
             {EngineKind::Dense, EngineKind::Event,
              EngineKind::Auto}) {
            LlifSetup b = llifNetwork(90, 0.05, 13);
            SimulatorOptions kindOpts = opts;
            kindOpts.engine = kind;
            // The default planner (builtin calibration) drives the
            // Auto case; pinned kinds must ignore it entirely.
            Simulator sim(b.net, b.stim, kindOpts);
            sim.run(total);
            EXPECT_EQ(sim.spikeCounts(), dense.spikeCounts())
                << "threads=" << threads
                << " engine=" << engineKindName(kind);
            EXPECT_EQ(sim.stats().spikes, dense.stats().spikes);
            ASSERT_EQ(sim.spikeEvents().size(),
                      dense.spikeEvents().size());
            for (size_t i = 0; i < dense.spikeEvents().size(); ++i) {
                EXPECT_EQ(sim.spikeEvents()[i].step,
                          dense.spikeEvents()[i].step);
                EXPECT_EQ(sim.spikeEvents()[i].neuron,
                          dense.spikeEvents()[i].neuron);
            }
            for (size_t p = 0; p < opts.probes.size(); ++p)
                EXPECT_EQ(sim.probeTrace(p), dense.probeTrace(p))
                    << "probe " << p;
        }
    }
}

/**
 * The planner's provenance must flow into the session's plan info
 * (what the run report's plan section is generated from).
 */
TEST(PlanBitIdentity, PlanInfoReachesTheSession)
{
    LlifSetup s = llifNetwork(60, 0.03, 5);
    SimulatorOptions opts;
    opts.engine = EngineKind::Auto;
    Simulator sim(s.net, s.stim, opts);
    const PlanInfo &info = sim.planInfo();
    EXPECT_EQ(info.strategy, "auto");
    EXPECT_EQ(info.calibrationVersion,
              plan::kBuiltinCalibrationVersion);
    EXPECT_FALSE(info.strategy.empty());
    EXPECT_GT(info.predictedStepSec, 0.0);
}

} // namespace
} // namespace flexon
