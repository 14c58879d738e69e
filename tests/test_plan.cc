/**
 * @file
 * Tests for the calibration layer and execution planner: calibration
 * documents must survive a save/load round trip (and documents from
 * older builds must still load), the step-cost prediction must scale
 * with rate, threads and the serial per-neuron term, the thread
 * choice must weigh dispatch against work, and the plan must reach
 * the session's report record.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>

#include "features/model_table.hh"
#include "plan/calibration.hh"
#include "plan/planner.hh"
#include "snn/simulator.hh"

namespace flexon {
namespace {

using plan::CalibrationData;
using plan::ExecutionPlanner;
using plan::NetworkStats;

TEST(Calibration, JsonRoundTripPreservesEverything)
{
    CalibrationData cal;
    cal.version = "cal-00DEADBEEF";
    cal.host = "test host \"quoted\"";
    cal.model.denseNsPerNeuron = 3.25;
    cal.model.deliveryNsPerRecord = 0.75;
    cal.model.ringClearNsPerCell = 0.125;
    cal.model.stepOverheadNs = 321.5;
    cal.model.serialNsPerNeuron = 6.5;
    cal.model.dispatchNsPerLane = 987.0;
    cal.model.parallelEfficiency = 0.625;
    cal.maxResidual = 0.0625;
    cal.gridPoints = 42;

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

    // A document from a build with an event-driven engine carries
    // event_ns_per_unit, and older builds also wrote the
    // mask_ns_per_neuron and provider_delivery_ns maps; those are
    // skipped and the rest loads.
    const std::string older =
        ::testing::TempDir() + "/older_cal.json";
    std::ofstream(older)
        << "{\"schema\": \"flexon-calibration-v1\","
           " \"version\": \"cal-older\", \"host\": \"cores=4\","
           " \"model\": {\"dense_ns_per_neuron\": 2.5,"
           " \"event_ns_per_unit\": 7.5,"
           " \"delivery_ns_per_record\": 1.5,"
           " \"ring_clear_ns_per_cell\": 0.375,"
           " \"step_overhead_ns\": 900,"
           " \"serial_ns_per_neuron\": 3.25,"
           " \"dispatch_ns_per_lane\": 1200,"
           " \"parallel_efficiency\": 0.5},"
           " \"fit\": {\"max_residual\": 0.5, \"grid_points\": 30},"
           " \"mask_ns_per_neuron\": {\"LLIF\": 4.5,"
           " \"Izhikevich\": 9.25},"
           " \"provider_delivery_ns\": {\"materialized\": 1.0,"
           " \"procedural\": 2.5}}";
    CalibrationData loaded;
    ASSERT_TRUE(plan::loadCalibrationFile(older, loaded, &error))
        << error;
    EXPECT_EQ(loaded.version, "cal-older");
    EXPECT_EQ(loaded.model.denseNsPerNeuron, 2.5);
    EXPECT_EQ(loaded.model.stepOverheadNs, 900.0);
    EXPECT_EQ(loaded.model.parallelEfficiency, 0.5);
    EXPECT_TRUE(plan::validateCalibration(loaded, 2.0, &error)) << error;
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

TEST(Planner, PredictionsScaleWithRateAndThreads)
{
    const ExecutionPlanner planner(plan::builtinCalibration());
    const NetworkStats big{1000000, 50000000};
    const NetworkStats tiny{50, 2500};

    // A step gets more expensive as activity rises.
    EXPECT_LT(planner.predictDenseStepSec(big, 0.01, 1),
              planner.predictDenseStepSec(big, 0.1, 1));

    // A million neurons are worth their worker lanes; fifty neurons
    // are not worth one dispatch.
    EXPECT_LT(planner.predictDenseStepSec(big, 0.02, 4),
              planner.predictDenseStepSec(big, 0.02, 1));
    EXPECT_LT(planner.predictDenseStepSec(tiny, 0.02, 1),
              planner.predictDenseStepSec(tiny, 0.02, 2));
}

TEST(Planner, SerialPerNeuronCostAddsUnthreaded)
{
    // The serial per-neuron term (stimulus draw, fired sweep) is paid
    // by no worker lane: it adds n x serial to the prediction at any
    // thread count.
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
    CalibrationData cal = plan::builtinCalibration();
    cal.version = "test-synthetic";
    cal.model.denseNsPerNeuron = 8.0;
    const ExecutionPlanner a(cal);
    const ExecutionPlanner b(cal);
    const NetworkStats net{3900, 750000};
    const plan::EnginePlan pa = a.plan(net, 0.007, 4);
    const plan::EnginePlan pb = b.plan(net, 0.007, 4);
    EXPECT_EQ(pa.threads, pb.threads);
    EXPECT_EQ(pa.predictedStepSec, pb.predictedStepSec);
    EXPECT_EQ(pa.calibrationVersion, "test-synthetic");
    EXPECT_EQ(pa.calibrationVersion, pb.calibrationVersion);
    // The prediction is the step cost at the chosen thread count.
    EXPECT_EQ(pa.predictedStepSec,
              a.predictDenseStepSec(net, 0.007, pa.threads));
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
 * The planner's provenance must flow into the session's plan info
 * (what the run report's plan section is generated from).
 */
TEST(PlanBitIdentity, PlanInfoReachesTheSession)
{
    LlifSetup s = llifNetwork(60, 0.03, 5);
    SimulatorOptions opts;
    opts.threads = 3;
    Simulator sim(s.net, s.stim, opts);
    const PlanInfo &info = sim.planInfo();
    EXPECT_FALSE(info.planned);
    EXPECT_EQ(info.calibrationVersion,
              plan::kBuiltinCalibrationVersion);
    // The session predicts at its own thread count and the rate
    // prior.
    const ExecutionPlanner planner(plan::builtinCalibration());
    EXPECT_GT(info.predictedStepSec, 0.0);
    EXPECT_EQ(info.predictedStepSec,
              planner.predictDenseStepSec(
                  {s.net.numNeurons(), s.net.numSynapses()},
                  plan::kDefaultRatePrior, 3));
}

} // namespace
} // namespace flexon
