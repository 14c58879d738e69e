/**
 * @file
 * Tests for the telemetry subsystem: sharded counters/timers whose
 * sums are independent of the thread count, RAII timer/span nesting,
 * the flight recorder's B/E pairing and serialization, registry
 * reset semantics, and the guarantee that the telemetry-off path is
 * bit-identical to an instrumented run.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/telemetry.hh"
#include "common/thread_pool.hh"
#include "nets/table1.hh"
#include "snn/simulator.hh"

namespace flexon {
namespace {

using telemetry::Registry;
using telemetry::TelemetryConfig;

/** Count occurrences of `needle` in `haystack`. */
size_t
countOf(const std::string &haystack, const std::string &needle)
{
    size_t count = 0;
    for (size_t pos = haystack.find(needle);
         pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++count;
    return count;
}

/** RAII guard: restore the default (all-off) config and drop any
 *  recorded spans, so tests cannot leak tracing into each other. */
struct TelemetryOffGuard
{
    ~TelemetryOffGuard()
    {
        telemetry::configure(TelemetryConfig{});
        telemetry::clearTrace();
    }
};

TEST(TelemetryRegistry, CounterSumIndependentOfThreadCount)
{
    Registry reg;
    telemetry::Counter &c = reg.counter("test.count", "test");
    const size_t n = 50000;
    for (size_t lanes : {size_t{1}, size_t{3}, size_t{4}}) {
        c.reset();
        ThreadPool::global().parallelFor(
            n, lanes, [&](size_t, size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i)
                    c.add(1);
            });
        EXPECT_EQ(c.value(), n) << "lanes " << lanes;
    }
}

TEST(TelemetryRegistry, FindOrCreateReturnsStableHandles)
{
    Registry reg;
    telemetry::Counter &a = reg.counter("x");
    telemetry::Counter &b = reg.counter("x");
    EXPECT_EQ(&a, &b);
    a.add(7);
    EXPECT_EQ(b.value(), 7u);

    // reset() zeroes values but keeps registered handles valid.
    reg.reset();
    EXPECT_EQ(a.value(), 0u);
    a.add(2);
    EXPECT_EQ(reg.counter("x").value(), 2u);
}

TEST(TelemetryRegistry, GaugeSetAndAccumulate)
{
    Registry reg;
    telemetry::Gauge &g = reg.gauge("g");
    g.set(1.5);
    g.add(2.0);
    EXPECT_DOUBLE_EQ(g.value(), 3.5);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(TelemetryRegistry, ScopedTimerNests)
{
    Registry reg;
    telemetry::Timer &outer = reg.timer("outer");
    telemetry::Timer &inner = reg.timer("inner");
    {
        telemetry::ScopedTimer o(outer);
        {
            telemetry::ScopedTimer i(inner);
            // Burn a little time so the inner interval is nonzero.
            volatile double x = 0.0;
            for (int k = 0; k < 1000; ++k)
                x = x + 1.0;
        }
    }
    EXPECT_EQ(outer.count(), 1u);
    EXPECT_EQ(inner.count(), 1u);
    // The inner interval is contained in the outer one.
    EXPECT_GE(outer.nanos(), inner.nanos());
}

TEST(TelemetryRegistry, HistogramShardsMergeAcrossThreads)
{
    Registry reg;
    telemetry::HistogramMetric &h =
        reg.histogram("h", 0.0, 1.0, 10);
    const size_t n = 10000;
    ThreadPool::global().parallelFor(
        n, 4, [&](size_t, size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i)
                h.sample(static_cast<double>(i) /
                         static_cast<double>(n));
        });
    EXPECT_EQ(h.total(), n);
    Histogram merged = h.merged();
    EXPECT_EQ(merged.total(), n);
    // Uniform samples: the median lands in the middle of the range.
    EXPECT_NEAR(merged.percentile(50.0), 0.5, 0.1);
}

TEST(TelemetryRegistry, WriteJsonListsEveryMetric)
{
    Registry reg;
    reg.counter("c").add(3);
    reg.gauge("g").set(2.5);
    reg.timer("t").addNanos(1000);
    reg.histogram("h", 0.0, 1.0, 4).sample(0.3);
    std::ostringstream oss;
    reg.writeJson(oss);
    const std::string json = oss.str();
    EXPECT_NE(json.find("\"c\": 3"), std::string::npos) << json;
    EXPECT_NE(json.find("\"g\""), std::string::npos);
    EXPECT_NE(json.find("\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"h\""), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

TEST(TelemetryTrace, DisabledRecordsNothing)
{
    TelemetryOffGuard guard;
    telemetry::configure(TelemetryConfig{});
    telemetry::clearTrace();
    {
        telemetry::TraceScope scope("never");
    }
    EXPECT_EQ(telemetry::traceEventCount(), 0u);
}

TEST(TelemetryTrace, SpansPairAndSerialize)
{
    TelemetryOffGuard guard;
    TelemetryConfig config;
    config.trace = true;
    telemetry::configure(config);
    telemetry::clearTrace();

    Registry reg;
    telemetry::Timer &t = reg.timer("t");
    {
        telemetry::TraceScope outer("outer");
        {
            telemetry::TraceScope inner("inner");
        }
        // ScopedTimer emits a span of the same extent when tracing.
        telemetry::ScopedTimer timed(t, "timed");
    }
    EXPECT_EQ(telemetry::traceEventCount(), 6u);

    std::ostringstream oss;
    telemetry::writeTraceJson(oss);
    const std::string json = oss.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    // Every begin has a matching end, per name.
    EXPECT_EQ(countOf(json, "\"ph\": \"B\""), 3u);
    EXPECT_EQ(countOf(json, "\"ph\": \"E\""), 3u);
    for (const char *name : {"outer", "inner", "timed"})
        EXPECT_EQ(countOf(json, std::string{"\""} + name + "\""),
                  2u);
    // Braces balance — the cheap structural-validity check (the
    // Python tools load the same output with a real JSON parser).
    EXPECT_EQ(countOf(json, "{"), countOf(json, "}"));

    telemetry::clearTrace();
    EXPECT_EQ(telemetry::traceEventCount(), 0u);
}

TEST(TelemetryTrace, ScopedTimerSpanIsItsTimerInterval)
{
    // The span carries the timer's own clock readings, so the two
    // cover one interval exactly, however the thread is scheduled
    // (trace_summary --report cross-checks them).
    TelemetryOffGuard guard;
    TelemetryConfig config;
    config.trace = true;
    telemetry::configure(config);
    telemetry::clearTrace();

    Registry reg;
    telemetry::Timer &t = reg.timer("t");
    {
        telemetry::ScopedTimer timed(t, "timed");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    std::ostringstream oss;
    telemetry::writeTraceJson(oss);
    const std::string json = oss.str();
    // ts is in microseconds with 12 significant digits: whole
    // nanoseconds for the first ~1000 s of the process.
    const auto nanosOf = [&](const char *ph) -> int64_t {
        const std::string key =
            std::string("\"name\": \"timed\", \"ph\": \"") + ph +
            "\", \"ts\": ";
        const size_t at = json.find(key);
        EXPECT_NE(at, std::string::npos) << ph;
        if (at == std::string::npos)
            return 0;
        return std::llround(
            std::strtod(json.c_str() + at + key.size(), nullptr) * 1e3);
    };
    EXPECT_EQ(nanosOf("E") - nanosOf("B"),
              static_cast<int64_t>(t.nanos()));
}

TEST(TelemetryTrace, CapacityDropsAreCounted)
{
    TelemetryOffGuard guard;
    TelemetryConfig config;
    config.trace = true;
    config.traceCapacity = 4;
    telemetry::configure(config);
    telemetry::clearTrace();

    // A fresh thread gets a fresh buffer, which latches the capacity
    // active at its first event (already-registered buffers keep
    // their original capacity).
    std::thread recorder([] {
        for (int i = 0; i < 10; ++i) {
            telemetry::traceBegin("span");
            telemetry::traceEnd("span");
        }
    });
    recorder.join();

    EXPECT_EQ(telemetry::traceEventCount(), 4u);
    EXPECT_EQ(telemetry::traceDropped(), 16u);
    telemetry::clearTrace();
    EXPECT_EQ(telemetry::traceDropped(), 0u);
}

/** A small Vogels-Abbott instance for end-to-end telemetry runs. */
BenchmarkInstance
smallInstance()
{
    return buildBenchmark(findBenchmark("Vogels-Abbott"), 100.0,
                          1234);
}

std::vector<uint64_t>
runAndCollectSpikes(const BenchmarkInstance &inst, uint64_t steps)
{
    SimulatorOptions opts;
    opts.backend = BackendKind::Flexon;
    opts.threads = 2;
    Simulator sim(inst.network, inst.stimulus, opts);
    sim.run(steps);
    return sim.spikeCounts();
}

TEST(TelemetrySimulator, OffPathBitIdenticalToInstrumentedRun)
{
    TelemetryOffGuard guard;
    BenchmarkInstance inst = smallInstance();
    const uint64_t steps = 300;

    telemetry::configure(TelemetryConfig{});
    const std::vector<uint64_t> off =
        runAndCollectSpikes(inst, steps);

    TelemetryConfig config;
    config.detail = true;
    config.trace = true;
    telemetry::configure(config);
    const std::vector<uint64_t> on =
        runAndCollectSpikes(inst, steps);

    EXPECT_EQ(off, on);
}

TEST(TelemetrySimulator, ResetReportsIdenticalCounters)
{
    TelemetryOffGuard guard;
    TelemetryConfig config;
    config.detail = true;
    telemetry::configure(config);

    BenchmarkInstance inst = smallInstance();
    SimulatorOptions opts;
    opts.backend = BackendKind::Flexon;
    Simulator sim(inst.network, inst.stimulus, opts);

    sim.run(200);
    const auto first = sim.metrics().snapshot().counters;
    const PhaseStats firstStats = sim.stats();

    sim.reset();
    // reset() zeroes the registry: a fresh run starts from scratch.
    for (const auto &[name, value] :
         sim.metrics().snapshot().counters)
        EXPECT_EQ(value, 0u) << name;

    sim.run(200);
    const auto second = sim.metrics().snapshot().counters;
    EXPECT_EQ(first, second);
    EXPECT_EQ(firstStats.spikes, sim.stats().spikes);
    EXPECT_EQ(firstStats.synapseEvents,
              sim.stats().synapseEvents);
}

TEST(TelemetrySimulator, PhaseStatsViewMatchesRegistry)
{
    TelemetryOffGuard guard;
    BenchmarkInstance inst = smallInstance();
    Simulator sim(inst.network, inst.stimulus);
    sim.run(100);
    const PhaseStats &st = sim.stats();
    EXPECT_EQ(st.steps, 100u);
    // The view is materialized from the registry handles.
    EXPECT_EQ(st.spikes,
              sim.metrics().counter("sim.spikes").value());
    EXPECT_DOUBLE_EQ(
        st.neuronSec,
        sim.metrics().timer("phase.neuron").seconds());
    // totalSec() covers all tracked phases, probes included.
    EXPECT_DOUBLE_EQ(st.totalSec(),
                     st.stimulusSec + st.neuronSec +
                         st.synapseSec + st.probeSec);
    EXPECT_LE(st.synapseRouteSec, st.synapseSec);
}

TEST(TelemetrySimulator, RunReportIsWellFormed)
{
    TelemetryOffGuard guard;
    TelemetryConfig config;
    config.detail = true;
    telemetry::configure(config);

    BenchmarkInstance inst = smallInstance();
    Simulator sim(inst.network, inst.stimulus);
    sim.run(50);

    const std::string path = "test_telemetry_report.json";
    ASSERT_TRUE(sim.writeRunReport(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream oss;
    oss << in.rdbuf();
    const std::string json = oss.str();
    std::remove(path.c_str());

    EXPECT_NE(json.find("\"schema\": \"flexon-run-report-v8\""),
              std::string::npos);
    for (const char *section :
         {"\"build\"", "\"telemetry\"", "\"config\"", "\"pool\"",
          "\"plan\"", "\"metrics\"", "\"global_metrics\""})
        EXPECT_NE(json.find(section), std::string::npos)
            << section;
    // v8: one delivery engine, so no strategy, crossover or audit.
    for (const char *gone :
         {"\"strategy\"", "\"crossover_rate\"", "\"plan_audit\""})
        EXPECT_EQ(json.find(gone), std::string::npos) << gone;
    EXPECT_EQ(countOf(json, "{"), countOf(json, "}"));
    EXPECT_EQ(countOf(json, "["), countOf(json, "]"));
}

} // namespace
} // namespace flexon
