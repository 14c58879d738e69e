/**
 * @file
 * Tests for the runtime health-monitoring layer: the --health spec
 * parser, the invariant detectors (NaN, Fix saturation, rate
 * explosion/silence) driven through real sessions with injected
 * faults, the stalled-step watchdog and its crash dump, and the live
 * metrics exporter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/health.hh"
#include "common/random.hh"
#include "common/telemetry.hh"
#include "features/model_table.hh"
#include "nets/table1.hh"
#include "snn/simulator.hh"

namespace flexon {
namespace {

/** A recurrent LLIF network with background stimulus. */
struct LlifSetup
{
    Network net;
    StimulusGenerator stim{1};
};

LlifSetup
llifNetwork(size_t neurons, double rate, uint64_t seed,
            float weight = 0.8f)
{
    LlifSetup s;
    NeuronParams p = defaultParams(ModelKind::LLIF);
    const size_t pop = s.net.addPopulation("llif", p, neurons);
    Rng rng(seed);
    s.net.connectRandom(pop, pop, 0.05, 0.4, 1, 6, 0, rng);
    s.net.finalize();
    s.stim = StimulusGenerator(seed ^ 0xabcdULL);
    s.stim.addSource(StimulusSource::poisson(
        0, static_cast<uint32_t>(neurons), rate, weight, 0));
    return s;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(HealthSpec, ParsesPolicyWordsAndPairs)
{
    health::HealthOptions opts;
    std::string err;

    ASSERT_TRUE(health::parseHealthSpec("off", opts, &err));
    EXPECT_FALSE(opts.enabled);

    ASSERT_TRUE(health::parseHealthSpec("abort", opts, &err));
    EXPECT_TRUE(opts.enabled);
    EXPECT_EQ(opts.nan, health::Policy::Abort);
    EXPECT_EQ(opts.saturation, health::Policy::Abort);
    EXPECT_EQ(opts.rate, health::Policy::Abort);

    ASSERT_TRUE(health::parseHealthSpec(
        "nan:abort,sat:warn,rate:off,sample=16,warmup=8", opts,
        &err));
    EXPECT_EQ(opts.nan, health::Policy::Abort);
    EXPECT_EQ(opts.saturation, health::Policy::Warn);
    EXPECT_EQ(opts.rate, health::Policy::Off);
    EXPECT_EQ(opts.samplePeriod, 16u);
    EXPECT_EQ(opts.rateWarmupSteps, 8u);
    EXPECT_TRUE(opts.enabled);
}

TEST(HealthSpec, RejectsBadTokensAndNamesThem)
{
    health::HealthOptions opts;
    std::string err;
    EXPECT_FALSE(health::parseHealthSpec("nan:maybe", opts, &err));
    EXPECT_EQ(err, "nan:maybe");
    EXPECT_FALSE(health::parseHealthSpec("bogus:warn", opts, &err));
    EXPECT_EQ(err, "bogus:warn");
    // The delay ring cannot overflow, so it has no detector.
    EXPECT_FALSE(health::parseHealthSpec("ring:warn", opts, &err));
    EXPECT_EQ(err, "ring:warn");
    EXPECT_FALSE(health::parseHealthSpec("sample=12x", opts, &err));
    EXPECT_EQ(err, "sample=12x");
    EXPECT_FALSE(
        health::parseHealthSpec("nan:warn,,sat:warn", opts, &err));
    EXPECT_FALSE(health::parseHealthSpec("sample=", opts, &err));
}

TEST(HealthSpec, CanonicalSpecStringRoundTrips)
{
    health::HealthOptions opts;
    std::string err;
    ASSERT_TRUE(
        health::parseHealthSpec("nan:abort,sample=7", opts, &err));
    const std::string spec = health::specString(opts);
    EXPECT_EQ(spec, "nan:abort,sat:report,rate:report,sample=7");
    health::HealthOptions again;
    ASSERT_TRUE(health::parseHealthSpec(spec, again, &err));
    EXPECT_EQ(again.nan, opts.nan);
    EXPECT_EQ(again.samplePeriod, opts.samplePeriod);

    health::HealthOptions off;
    off.enabled = false;
    EXPECT_EQ(health::specString(off), "off");
}

TEST(HealthDetector, NanPoisonIsDetectedInReferenceBackend)
{
    // Vogels-Abbott's EXD/COBE kernel carries a poisoned membrane
    // through subsequent steps (LLIF's max(0, ...) clamp would
    // swallow the NaN before the post-step sweep sees it).
    BenchmarkInstance inst =
        buildBenchmark(findBenchmark("Vogels-Abbott"), 20.0, 11);
    SimulatorOptions opts;
    opts.health.samplePeriod = 1;
    Simulator sim(inst.network, inst.stimulus, opts);
    sim.run(5);
    EXPECT_EQ(sim.healthCounters().nanEvents, 0u);
    ASSERT_TRUE(sim.debugPoisonMembrane(3));
    sim.run(2);
    EXPECT_GT(sim.healthCounters().nanEvents, 0u);
    EXPECT_GT(sim.healthCounters().sweeps, 0u);
    EXPECT_GT(sim.healthCounters().neuronsChecked, 0u);
    // The accessor is a view of the registry, the tallies' one store.
    EXPECT_EQ(sim.metrics().counter("health.nan_events").value(),
              sim.healthCounters().nanEvents);
}

TEST(HealthDetector, FixSaturationStormIsAttributed)
{
    // Stimulus far beyond the Fix<10,22> range rails the fused
    // double->Fix conversion in the kernels both fixed-point arrays
    // step on, every step.
    for (BackendKind backend : {BackendKind::Flexon, BackendKind::Folded}) {
        SCOPED_TRACE(backendName(backend));
        LlifSetup s = llifNetwork(40, 0.5, 13, 1.0e6f);
        SimulatorOptions opts;
        opts.backend = backend;
        opts.health.samplePeriod = 1;
        Simulator sim(s.net, s.stim, opts);
        sim.run(32);
        EXPECT_GT(sim.healthCounters().saturationEvents, 0u);
        EXPECT_GT(sim.healthCounters().saturationHits, 0u);
    }
}

TEST(HealthDetector, RateExplosionAndSilenceTrip)
{
    LlifSetup s = llifNetwork(60, 0.02, 17);
    SimulatorOptions opts;
    opts.health.samplePeriod = 1;
    opts.health.rateWarmupSteps = 2;
    Simulator sim(s.net, s.stim, opts);
    sim.run(4);
    sim.debugInjectRateExplosion();
    sim.run(1);
    EXPECT_GT(sim.healthCounters().rateExplosions, 0u);

    // A network with no drive at all goes (stays) silent.
    LlifSetup quiet = llifNetwork(60, 0.0, 17);
    Simulator still(quiet.net, quiet.stim, opts);
    still.run(8);
    EXPECT_GT(still.healthCounters().rateSilences, 0u);
}

TEST(HealthDetector, DisabledOptionsRunNoSweeps)
{
    LlifSetup s = llifNetwork(40, 0.02, 23);
    SimulatorOptions opts;
    opts.health.enabled = false;
    Simulator sim(s.net, s.stim, opts);
    sim.run(16);
    EXPECT_FALSE(sim.healthActive());
    EXPECT_EQ(sim.healthCounters().sweeps, 0u);
}

TEST(HealthDetector, ResetClearsCounters)
{
    BenchmarkInstance inst =
        buildBenchmark(findBenchmark("Vogels-Abbott"), 20.0, 29);
    SimulatorOptions opts;
    opts.health.samplePeriod = 1;
    Simulator sim(inst.network, inst.stimulus, opts);
    sim.run(4);
    ASSERT_TRUE(sim.debugPoisonMembrane(0));
    sim.run(1);
    EXPECT_GT(sim.healthCounters().nanEvents, 0u);
    sim.reset();
    EXPECT_EQ(sim.healthCounters().nanEvents, 0u);
    EXPECT_EQ(sim.healthCounters().sweeps, 0u);
}

TEST(HealthReport, RunReportCarriesHealthSection)
{
    LlifSetup s = llifNetwork(40, 0.02, 31);
    SimulatorOptions opts;
    opts.health.samplePeriod = 4;
    Simulator sim(s.net, s.stim, opts);
    sim.run(32);
    const std::string path = "health_report_test.json";
    ASSERT_TRUE(sim.writeRunReport(path));
    const std::string text = slurp(path);
    std::remove(path.c_str());
    EXPECT_NE(text.find("\"flexon-run-report-v8\""),
              std::string::npos);
    const size_t at = text.find("\"health\": {");
    ASSERT_NE(at, std::string::npos);
    const std::string section =
        text.substr(at, text.find('}', at) - at);
    for (const char *key :
         {"enabled", "policy", "sample_every", "watchdog_stalls"})
        EXPECT_NE(section.find(std::string("\"") + key + "\""),
                  std::string::npos)
            << key;
    // What the detectors saw is recorded once, as registry counters
    // under "metrics": 32 steps at one sweep per 4 steps.
    EXPECT_EQ(section.find("sweeps"), std::string::npos);
    EXPECT_NE(text.find("\"health.sweeps\": 8"), std::string::npos);
}

TEST(Watchdog, WarnPolicyCountsStallsAndDumps)
{
    const std::string dump = "watchdog_test_dump.json";
    std::remove(dump.c_str());
    health::setCrashDumpPath(dump);
    const uint64_t before = health::watchdogStalls();
    health::Watchdog wd(0.05, health::Policy::Warn);
    wd.start();
    // No heartbeat arrives, so the 50 ms budget lapses.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    wd.stop();
    EXPECT_GE(health::watchdogStalls() - before, 1u);
    const std::string text = slurp(dump);
    std::remove(dump.c_str());
    health::setCrashDumpPath("flexon-crash-dump.json");
    EXPECT_NE(text.find("\"flexon-crash-dump-v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"reason\""), std::string::npos);
}

TEST(Watchdog, HeartbeatKeepsItQuiet)
{
    const uint64_t before = health::watchdogStalls();
    health::Watchdog wd(0.2, health::Policy::Warn);
    wd.start();
    for (int i = 0; i < 20; ++i) {
        health::heartbeat(static_cast<uint64_t>(i));
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    wd.stop();
    EXPECT_EQ(health::watchdogStalls(), before);
}

TEST(MetricsExporter, WritesPrometheusAndJsonl)
{
    telemetry::Registry registry;
    registry.counter("test.events").add(42);
    registry.gauge("test.depth").set(3.5);

    const std::string path = "metrics_export_test.prom";
    health::MetricsExporter exporter(path, "unit-test");
    ASSERT_TRUE(exporter.exportNow(registry, 128));
    ASSERT_TRUE(exporter.exportNow(registry, 256));
    EXPECT_EQ(exporter.snapshots(), 2u);

    const std::string prom = slurp(path);
    std::remove(path.c_str());
    EXPECT_NE(prom.find("# TYPE flexon_test_events_total counter"),
              std::string::npos);
    EXPECT_NE(
        prom.find("flexon_test_events_total{session=\"unit-test\"} 42"),
        std::string::npos);
    EXPECT_NE(prom.find("flexon_test_depth{"), std::string::npos);
    EXPECT_NE(prom.find("flexon_export_step{"), std::string::npos);

    const std::string jsonl = slurp(path + ".jsonl");
    std::remove((path + ".jsonl").c_str());
    // One line per snapshot, each a self-contained JSON object.
    EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
    EXPECT_NE(jsonl.find("\"step\":128"), std::string::npos);
    EXPECT_NE(jsonl.find("\"step\":256"), std::string::npos);
    EXPECT_EQ(jsonl.find("\"engine\""), std::string::npos);
}

TEST(MetricsExporter, SessionExportsAtCadence)
{
    LlifSetup s = llifNetwork(40, 0.02, 41);
    SimulatorOptions opts;
    opts.metricsOut = "session_metrics_test.prom";
    opts.metricsEvery = 8;
    opts.label = "cadence-test";
    Simulator sim(s.net, s.stim, opts);
    sim.run(33);
    const std::string prom = slurp(opts.metricsOut);
    std::remove(opts.metricsOut.c_str());
    std::remove((opts.metricsOut + ".jsonl").c_str());
    EXPECT_NE(prom.find("session=\"cadence-test\""),
              std::string::npos);
    EXPECT_NE(prom.find("flexon_export_step{"), std::string::npos);
}

TEST(HealthGlobals, FixSaturationTallyAccumulates)
{
    const uint64_t before = health::fixSaturations();
    health::noteFixSaturation();
    health::noteFixSaturation();
    EXPECT_EQ(health::fixSaturations() - before, 2u);
}

TEST(HealthGlobals, GlobalKillSwitchSuppressesSweeps)
{
    health::setGloballyDisabled(true);
    LlifSetup s = llifNetwork(40, 0.02, 43);
    SimulatorOptions opts;
    opts.health.samplePeriod = 1;
    Simulator sim(s.net, s.stim, opts);
    sim.run(8);
    health::setGloballyDisabled(false);
    EXPECT_FALSE(sim.healthActive());
    EXPECT_EQ(sim.healthCounters().sweeps, 0u);
}

} // namespace
} // namespace flexon
