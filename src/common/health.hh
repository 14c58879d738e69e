/**
 * @file
 * Runtime health monitoring: invariant detectors, a stalled-step
 * watchdog with crash dumps, and a live Prometheus/JSONL metrics
 * exporter (PR 9).
 *
 * The detectors themselves run inside SimulationSession (the neuron
 * backends expose a HealthScan hook); this header holds the shared vocabulary
 * (policies, options, counters), the process-wide pieces (the Fix
 * saturation tally fed from the kernels, the watchdog heartbeat, the
 * crash-dump writer, signal handlers), and the exporter.
 *
 * Layering: health sits next to telemetry in flexon_common. The
 * header only forward-declares telemetry::Registry so hot code can
 * include it cheaply; the .cc pulls the full telemetry API for
 * snapshots and trace dumps.
 */

#ifndef FLEXON_COMMON_HEALTH_HH
#define FLEXON_COMMON_HEALTH_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace flexon {
namespace telemetry {
class Registry;
} // namespace telemetry

namespace health {

/**
 * What a detector does when it trips. Report silently tallies into
 * the session's health.* registry counters; Warn additionally logs
 * (rate-limited); Abort writes a crash dump and exits with
 * kDetectorExitCode. Off disables the detector entirely (it is not
 * even evaluated).
 */
enum class Policy { Off, Warn, Report, Abort };

const char *policyName(Policy policy);

/** Detector-tripped abort exit code (distinct from fatal()'s 1 and
 * the CLI usage error 2). */
constexpr int kDetectorExitCode = 3;

/** Watchdog stalled-step abort exit code. */
constexpr int kWatchdogExitCode = 4;

/**
 * Neurons examined per sweep; the scan window rotates through the
 * population so every neuron is eventually covered.
 */
constexpr uint64_t kMaxScanNeurons = 4096;

/** EWMA rate above this fraction is an explosion. */
constexpr double kRateExplosion = 0.5;

/** EWMA rate below this (after warmup) is silence. */
constexpr double kRateSilence = 1e-9;

/**
 * Per-session detector configuration: what --health sets. The
 * defaults are the cheap always-on profile: every detector in Report
 * mode, one sweep every 64 steps over at most kMaxScanNeurons
 * neurons, so the steady-state overhead stays within measurement
 * noise (the bench gate holds it under 2%).
 */
struct HealthOptions {
    /** Master switch; false skips every check including heartbeats. */
    bool enabled = true;
    /** Non-finite membrane values (double backends). */
    Policy nan = Policy::Report;
    /** Fix-point rail hits in the flexon/folded input scaling. */
    Policy saturation = Policy::Report;
    /** EWMA firing-rate explosion/silence vs the thresholds above. */
    Policy rate = Policy::Report;
    /** Steps between detector sweeps (clamped to >= 1). */
    uint64_t samplePeriod = 64;
    /** Steps before the rate detectors engage (startup transient). */
    uint64_t rateWarmupSteps = 1024;
};

/**
 * Parse a --health specification. Accepted forms:
 *   "off" | "warn" | "report" | "abort"     apply to all detectors
 *   comma list of DET:POLICY pairs          nan|sat|rate
 *   plus numeric keys                       sample=N, warmup=N
 * e.g. "nan:abort,rate:warn,sample=16". On failure returns false and
 * stores the offending token in *err (PR 7 strict-parse convention:
 * the caller reports it and exits 2).
 */
bool parseHealthSpec(const std::string &spec, HealthOptions &out,
                     std::string *err);

/** Render options back into canonical spec form (for the report). */
std::string specString(const HealthOptions &opts);

/**
 * One backend state scan: the session asks the backend to examine
 * neurons [begin, end), and the backend fills in what it found.
 */
struct HealthScan {
    uint64_t checked = 0;   ///< neurons actually examined
    uint64_t nonFinite = 0; ///< NaN/Inf membrane values found
    uint64_t saturated = 0; ///< membranes pinned at a Fix rail
    int64_t firstBad = -1;  ///< index of first bad neuron, or -1
};

/**
 * Session-lifetime detector tallies: a typed view of the session's
 * health.* registry counters, which are their one store.
 */
struct HealthCounters {
    uint64_t sweeps = 0;           ///< detector sweeps executed
    uint64_t neuronsChecked = 0;   ///< membrane values examined
    uint64_t nanEvents = 0;        ///< sweeps that saw non-finite values
    uint64_t saturationEvents = 0; ///< sweeps that saw new rail hits
    uint64_t saturationHits = 0;   ///< individual rail hits tallied
    uint64_t rateExplosions = 0;   ///< sweeps with EWMA above threshold
    uint64_t rateSilences = 0;     ///< sweeps with EWMA below threshold
};

/**
 * Process-wide Fix saturation tally. The kernels call
 * noteFixSaturation() on the rare rail-hit path only (a relaxed
 * atomic increment), or noteFixSaturations(n) once for the n hits of
 * a group of vector lanes; sessions read the counter before/after
 * sweeps and attribute the delta. Process-wide rather than
 * per-session because the hot kernels cannot carry a session pointer.
 */
void noteFixSaturation();
void noteFixSaturations(uint64_t n);
uint64_t fixSaturations();

/**
 * Process-wide kill switch (FLEXON_HEALTH=0 in the bench mains): a
 * disabled process never runs sweeps regardless of session options,
 * which gives the A/B overhead gate its "off" arm.
 */
void setGloballyDisabled(bool disabled);
bool globallyDisabled();

/**
 * Watchdog heartbeat. Sessions call heartbeat(step) once per step
 * when watchdogArmed() — a single relaxed load when no watchdog
 * exists, so the default path stays free.
 */
void heartbeat(uint64_t step);
bool watchdogArmed();

/** Stalls detected by any watchdog in this process. */
uint64_t watchdogStalls();

/**
 * Background thread that fires when the step heartbeat stops
 * advancing for `timeoutSec`. On a stall it logs, writes a crash
 * dump, and — under Policy::Abort — exits with kWatchdogExitCode.
 * Under Policy::Warn it re-arms and keeps watching. Arm it around
 * the run loop only: network construction and report writing must
 * not count against the step budget.
 */
class Watchdog {
  public:
    Watchdog(double timeoutSec, Policy policy = Policy::Abort);
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    void start();
    void stop();

  private:
    void watch();

    double timeoutSec_;
    Policy policy_;
    std::thread thread_;
    bool running_ = false;
    bool stopRequested_ = false;
    std::mutex mutex_;
    std::condition_variable cv_;
};

/**
 * Crash-dump configuration. The dump is a single JSON document
 * (schema flexon-crash-dump-v1) with the stall/abort reason, the last
 * heartbeat step, a snapshot of the registered session registry (if
 * any) and the global registry, and the flight-recorder trace —
 * enough to replay what the simulation was doing when it died.
 */
void setCrashDumpPath(const std::string &path);
std::string crashDumpPath();

/**
 * Register the session registry to snapshot into dumps. The owner
 * must clear it before the registry dies (SimulationSession's
 * destructor calls clearCrashDumpRegistry(&metrics_)).
 */
void setCrashDumpRegistry(const telemetry::Registry *registry);

/** Clear the registered registry iff it is still `registry`. */
void clearCrashDumpRegistry(const telemetry::Registry *registry);

/**
 * Write the crash dump now. Best-effort and reentrancy-guarded (a
 * second concurrent call returns false immediately); returns true
 * when a dump file was written.
 */
bool writeCrashDump(const char *reason);

/**
 * Install fatal-signal handlers (SIGSEGV/SIGBUS/SIGFPE/SIGABRT) that
 * write a crash dump and then re-raise with the default disposition,
 * so the exit status still reflects the signal.
 */
void installCrashHandlers();

/**
 * Periodic metrics exporter: every call rewrites `path` atomically
 * (write-to-temp + rename) in Prometheus text exposition format and
 * appends one JSON line to `path`.jsonl. Scrape-friendly: a collector
 * polling the file never sees a torn snapshot.
 */
class MetricsExporter {
  public:
    MetricsExporter(std::string path, std::string label);

    /** Export a snapshot; returns false on I/O failure (warned once). */
    bool exportNow(const telemetry::Registry &registry, uint64_t step);

    uint64_t snapshots() const { return snapshots_; }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::string jsonlPath_;
    std::string label_;
    uint64_t snapshots_ = 0;
    bool warned_ = false;
};

} // namespace health
} // namespace flexon

#endif // FLEXON_COMMON_HEALTH_HH
