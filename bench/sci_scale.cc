/**
 * @file
 * Connectivity scale sweep (the PR 7 memory study): the same
 * Vogels-Abbott network grown 1x / 10x / 50x, run under each
 * ConnectivityProvider, with peak RSS measured per configuration.
 *
 * Peak RSS (getrusage ru_maxrss) is a whole-process high-water mark
 * that cannot be reset, so the driver re-executes itself once per
 * configuration (`--child`) and each child reports its own maximum.
 * The parent collects the lines, cross-checks that every provider
 * produced the same spike hash at each growth (the bit-identity
 * contract, cheap to re-verify here), and writes a google-benchmark
 * compatible record (default BENCH_connectivity.json) that
 * tools/bench_diff can gate on — including the per-entry
 * peak_rss_bytes and connectivity_bytes counters its memory check
 * reads.
 *
 * Environment:
 *   FLEXON_BENCH_GROWTH        comma list of growth factors
 *                              (default "1,10,50")
 *   FLEXON_BENCH_RSS_CEILING   bytes; materialized/compressed
 *                              configurations whose estimated
 *                              footprint exceeds this are skipped
 *                              and recorded as estimates (0 = run
 *                              everything, the default)
 *   FLEXON_BENCH_PROC_CEILING  bytes; if set, a procedural run whose
 *                              measured peak RSS exceeds this fails
 *                              the sweep (the CI memory-budget gate)
 *
 * A growth-50 Vogels-Abbott instance is ~200k neurons / ~800M
 * synapses: materialized storage wants tens of GB and busts any CI
 * ceiling, while the procedural provider regenerates rows on demand
 * and completes in tens of MB. That asymmetry — recorded, not
 * claimed — is the point of the sweep.
 */

#include <sys/resource.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <vector>

#include "nets/table1.hh"
#include "plan/calibration.hh"
#include "snn/simulator.hh"

#ifndef FLEXON_BENCH_BUILD_TYPE
#define FLEXON_BENCH_BUILD_TYPE "unknown"
#endif

namespace flexon {
namespace {

constexpr uint64_t wiringSeed = 7;

uint64_t
peakRssBytes()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<uint64_t>(ru.ru_maxrss) * 1024;
}

double
cpuSeconds()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
wallSeconds()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Fewer steps at larger growth: the sweep measures memory, the
 *  per-step time is a secondary (but still gated) signal. */
uint64_t
stepsFor(double growth)
{
    if (growth <= 1.0)
        return 200;
    return growth <= 10.0 ? 50 : 20;
}

/**
 * One configuration, measured in this (child) process. Prints a
 * single JSON object on stdout and exits; the parent consumes the
 * line verbatim as a benchmarks[] entry.
 */
int
childMain(double growth, const std::string &kindName, size_t threads)
{
    ConnectivityKind kind = ConnectivityKind::Materialized;
    if (!parseConnectivityKind(kindName, kind)) {
        std::fprintf(stderr, "sci_scale: bad kind '%s'\n",
                     kindName.c_str());
        return 2;
    }
    const uint64_t steps = stepsFor(growth);
    BenchmarkInstance inst = buildBenchmark(
        findBenchmark("Vogels-Abbott"), 1.0 / growth, wiringSeed,
        kind == ConnectivityKind::Materialized ? Wiring::Spec
                                               : Wiring::Procedural);

    SimulatorOptions opts;
    opts.threads = threads;
    opts.connectivity = kind;
    Simulator sim(inst.network, inst.stimulus, opts);

    // FNV-1a over the (step, neuron) spike stream — no recording
    // buffers, so the hash costs no memory at scale.
    uint64_t hash = 1469598103934665603ULL;
    auto mix = [&hash](uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            hash ^= (v >> (b * 8)) & 0xff;
            hash *= 1099511628211ULL;
        }
    };
    const double wall0 = wallSeconds(), cpu0 = cpuSeconds();
    for (uint64_t t = 0; t < steps; ++t) {
        sim.stepOnce();
        const std::vector<uint8_t> &fired = sim.lastFired();
        for (uint32_t n = 0; n < fired.size(); ++n) {
            if (fired[n]) {
                mix(t);
                mix(n);
            }
        }
    }
    const double wallMs = (wallSeconds() - wall0) * 1e3 /
                          static_cast<double>(steps);
    const double cpuMs = (cpuSeconds() - cpu0) * 1e3 /
                         static_cast<double>(steps);

    const PhaseStats &st = sim.stats();
    const double connBytes =
        sim.metrics().gauge("snn.connectivity.bytes").value();
    std::printf(
        "{\"name\": \"ScaleSweep/g%g/%s\", \"run_type\": "
        "\"iteration\", \"iterations\": %" PRIu64
        ", \"real_time\": %.6f, \"cpu_time\": %.6f, \"time_unit\": "
        "\"ms\", \"growth\": %g, \"neurons\": %zu, \"synapses\": "
        "%zu, \"spikes\": %" PRIu64 ", \"spike_hash\": %" PRIu64
        ", \"peak_rss_bytes\": %" PRIu64 ", \"connectivity_bytes\": "
        "%" PRIu64 ", \"bytes_per_synapse\": %.4f, "
        "\"row_cache_hits\": %" PRIu64 ", \"row_cache_misses\": %"
        PRIu64 "}\n",
        growth, kindName.c_str(), steps, wallMs, cpuMs, growth,
        inst.network.numNeurons(), inst.network.numSynapses(),
        st.spikes, hash, peakRssBytes(),
        static_cast<uint64_t>(connBytes),
        connBytes / static_cast<double>(inst.network.numSynapses()),
        sim.connectivity().rowCacheHits(),
        sim.connectivity().rowCacheMisses());
    return 0;
}

/** Pull a numeric field back out of a child's JSON line. */
bool
extractNumber(const std::string &line, const std::string &key,
              double &out)
{
    const std::string needle = "\"" + key + "\": ";
    const size_t at = line.find(needle);
    if (at == std::string::npos)
        return false;
    out = std::strtod(line.c_str() + at + needle.size(), nullptr);
    return true;
}

uint64_t
envBytes(const char *name)
{
    const char *v = std::getenv(name);
    return v == nullptr ? 0 : std::strtoull(v, nullptr, 10);
}

std::vector<double>
growthList()
{
    std::vector<double> growths;
    const char *v = std::getenv("FLEXON_BENCH_GROWTH");
    std::string text = v == nullptr ? "1,10,50" : v;
    size_t pos = 0;
    while (pos < text.size()) {
        const size_t comma = text.find(',', pos);
        const std::string tok =
            text.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos);
        const double g = std::strtod(tok.c_str(), nullptr);
        if (g > 0.0)
            growths.push_back(g);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return growths;
}

/**
 * Pre-run footprint estimates, used only to decide whether a
 * configuration fits under FLEXON_BENCH_RSS_CEILING without paying
 * for the allocation. Deliberately on the high side (build-time
 * transients included): an over-estimate skips a run that might have
 * fit, an under-estimate OOMs the host.
 */
uint64_t
estimateBytes(const std::string &kind, size_t neurons,
              size_t synapses)
{
    if (kind == "materialized") {
        // CSR synapses + delivery records + run headers/masks, plus
        // vector-growth slack while building.
        return static_cast<uint64_t>(synapses) * 34 +
               static_cast<uint64_t>(neurons) * 150 + 80000000ULL;
    }
    // Compressed: delta varints dominate (uniform projection weights
    // collapse to one float per run), plus per-(row, shard) offsets.
    return static_cast<uint64_t>(synapses) * 6 +
           static_cast<uint64_t>(neurons) * 64 + 80000000ULL;
}

int
parentMain(const char *self, const std::string &outPath,
           size_t threads)
{
    const uint64_t ceiling = envBytes("FLEXON_BENCH_RSS_CEILING");
    const uint64_t procCeiling =
        envBytes("FLEXON_BENCH_PROC_CEILING");
    static const char *const kinds[] = {"procedural", "compressed",
                                        "materialized"};

    std::vector<std::string> entries;
    bool failed = false;
    for (const double g : growthList()) {
        double refHash = 0.0;
        bool haveRef = false;
        size_t neurons = 0, synapses = 0;
        // Procedural first: it always fits, and its exact synapse
        // count feeds the skip estimates for the heavier providers.
        for (const char *kind : kinds) {
            const bool procedural =
                std::strcmp(kind, "procedural") == 0;
            if (!procedural && ceiling > 0) {
                const uint64_t estimate =
                    estimateBytes(kind, neurons, synapses);
                if (estimate > ceiling) {
                    std::fprintf(
                        stderr,
                        "sci_scale: skipping g%g/%s (estimated "
                        "%" PRIu64 " bytes over the %" PRIu64
                        "-byte ceiling)\n",
                        g, kind, estimate, ceiling);
                    char buf[256];
                    std::snprintf(
                        buf, sizeof(buf),
                        "{\"name\": \"ScaleSweep/g%g/%s\", "
                        "\"run_type\": \"iteration\", \"estimated\": "
                        "1, \"estimated_peak_rss_bytes\": %" PRIu64
                        ", \"over_ceiling_bytes\": %" PRIu64 "}",
                        g, kind, estimate, ceiling);
                    entries.push_back(buf);
                    continue;
                }
            }

            char cmd[512];
            std::snprintf(cmd, sizeof(cmd),
                          "'%s' --child %g %s %zu", self, g, kind,
                          threads);
            FILE *pipe = popen(cmd, "r");
            if (pipe == nullptr) {
                std::fprintf(stderr, "sci_scale: popen failed\n");
                return 1;
            }
            std::string line;
            char chunk[4096];
            while (std::fgets(chunk, sizeof(chunk), pipe) != nullptr)
                line += chunk;
            const int status = pclose(pipe);
            if (status != 0 || line.empty()) {
                std::fprintf(stderr,
                             "sci_scale: child g%g/%s failed "
                             "(status %d)\n",
                             g, kind, status);
                failed = true;
                continue;
            }
            while (!line.empty() &&
                   (line.back() == '\n' || line.back() == '\r'))
                line.pop_back();
            std::fprintf(stderr, "sci_scale: %s\n", line.c_str());
            entries.push_back(line);

            double value = 0.0;
            if (procedural) {
                if (extractNumber(line, "neurons", value))
                    neurons = static_cast<size_t>(value);
                if (extractNumber(line, "synapses", value))
                    synapses = static_cast<size_t>(value);
                if (procCeiling > 0 &&
                    extractNumber(line, "peak_rss_bytes", value) &&
                    value > static_cast<double>(procCeiling)) {
                    std::fprintf(stderr,
                                 "sci_scale: procedural g%g peak "
                                 "RSS %.0f exceeds the %" PRIu64
                                 "-byte budget\n",
                                 g, value, procCeiling);
                    failed = true;
                }
            }
            // Every provider must reproduce the same spike train.
            if (extractNumber(line, "spike_hash", value)) {
                if (!haveRef) {
                    refHash = value;
                    haveRef = true;
                } else if (value != refHash) {
                    std::fprintf(stderr,
                                 "sci_scale: spike hash mismatch at "
                                 "g%g/%s\n",
                                 g, kind);
                    failed = true;
                }
            }
        }
    }

    std::ofstream os(outPath);
    if (!os) {
        std::fprintf(stderr, "sci_scale: cannot write %s\n",
                     outPath.c_str());
        return 1;
    }
    os << "{\n  \"context\": {\n"
       << "    \"executable\": \"" << self << "\",\n"
       << "    \"threads\": " << threads << ",\n"
       << "    \"project_build_type\": \"" FLEXON_BENCH_BUILD_TYPE
          "\",\n"
       << "    \"calibration_version\": \""
       << plan::activeCalibration().version << "\"\n"
       << "  },\n  \"benchmarks\": [\n";
    for (size_t i = 0; i < entries.size(); ++i)
        os << "    " << entries[i]
           << (i + 1 < entries.size() ? "," : "") << '\n';
    os << "  ]\n}\n";
    std::fprintf(stderr, "sci_scale: wrote %zu records to %s\n",
                 entries.size(), outPath.c_str());
    return failed ? 1 : 0;
}

} // namespace
} // namespace flexon

int
main(int argc, char **argv)
{
    // Children inherit the variable, so every process in the sweep
    // (and the record's context) sees the same calibration.
    flexon::plan::installCalibrationFromEnv();
    std::string out = "BENCH_connectivity.json";
    size_t threads = 2;
    if (argc >= 2 && std::strcmp(argv[1], "--child") == 0) {
        if (argc != 5) {
            std::fprintf(stderr,
                         "usage: sci_scale --child GROWTH KIND "
                         "THREADS\n");
            return 2;
        }
        return flexon::childMain(std::strtod(argv[2], nullptr),
                                 argv[3],
                                 std::strtoul(argv[4], nullptr, 10));
    }
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out = argv[++i];
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            threads = std::strtoul(argv[++i], nullptr, 10);
        } else {
            std::fprintf(stderr,
                         "usage: sci_scale [--out FILE] "
                         "[--threads N]\n");
            return 2;
        }
    }
    return flexon::parentMain(argv[0], out, threads);
}
