#include "common/health.hh"

#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/telemetry.hh"

namespace flexon {
namespace health {
namespace {

std::atomic<uint64_t> gFixSaturations{0};
std::atomic<bool> gDisabled{false};

// Watchdog heartbeat: the step value for dumps, the serial for stall
// detection (restores can rewind the step; the serial only grows).
std::atomic<uint64_t> gHeartbeatStep{0};
std::atomic<uint64_t> gHeartbeatSerial{0};
std::atomic<int> gArmed{0};
std::atomic<uint64_t> gStalls{0};

// Crash-dump configuration. The registry pointer is cleared by its
// owner's destructor (clearCrashDumpRegistry), so a dump taken after
// a session died falls back to the global registry only.
std::mutex &
dumpMutex()
{
    static std::mutex m;
    return m;
}

std::string &
dumpPath()
{
    static std::string path;
    return path;
}

std::atomic<const telemetry::Registry *> gDumpRegistry{nullptr};

bool
parsePolicyWord(const std::string &word, Policy &out)
{
    if (word == "off") {
        out = Policy::Off;
    } else if (word == "warn") {
        out = Policy::Warn;
    } else if (word == "report") {
        out = Policy::Report;
    } else if (word == "abort") {
        out = Policy::Abort;
    } else {
        return false;
    }
    return true;
}

/** Strict whole-token unsigned parse (PR 7 convention: no sign, no
 * trailing garbage). */
bool
parseCountToken(const std::string &text, uint64_t &out)
{
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0')
        return false;
    out = static_cast<uint64_t>(v);
    return true;
}

} // namespace

const char *
policyName(Policy policy)
{
    switch (policy) {
      case Policy::Off: return "off";
      case Policy::Warn: return "warn";
      case Policy::Report: return "report";
      case Policy::Abort: return "abort";
    }
    return "unknown";
}

bool
parseHealthSpec(const std::string &spec, HealthOptions &out,
                std::string *err)
{
    HealthOptions opts;
    size_t pos = 0;
    while (pos <= spec.size()) {
        const size_t comma = spec.find(',', pos);
        const std::string token =
            spec.substr(pos, (comma == std::string::npos
                                  ? spec.size()
                                  : comma) - pos);
        pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
        if (token.empty()) {
            if (err != nullptr)
                *err = "(empty token)";
            return false;
        }

        const size_t colon = token.find(':');
        const size_t equals = token.find('=');
        if (colon != std::string::npos) {
            const std::string det = token.substr(0, colon);
            Policy policy;
            if (!parsePolicyWord(token.substr(colon + 1), policy)) {
                if (err != nullptr)
                    *err = token;
                return false;
            }
            if (det == "nan") {
                opts.nan = policy;
            } else if (det == "sat") {
                opts.saturation = policy;
            } else if (det == "rate") {
                opts.rate = policy;
            } else {
                if (err != nullptr)
                    *err = token;
                return false;
            }
        } else if (equals != std::string::npos) {
            const std::string key = token.substr(0, equals);
            uint64_t value = 0;
            if (!parseCountToken(token.substr(equals + 1), value)) {
                if (err != nullptr)
                    *err = token;
                return false;
            }
            if (key == "sample") {
                opts.samplePeriod = value;
            } else if (key == "warmup") {
                opts.rateWarmupSteps = value;
            } else {
                if (err != nullptr)
                    *err = token;
                return false;
            }
        } else {
            Policy policy;
            if (!parsePolicyWord(token, policy)) {
                if (err != nullptr)
                    *err = token;
                return false;
            }
            opts.nan = opts.saturation = opts.rate = policy;
        }
    }
    opts.enabled = opts.nan != Policy::Off ||
                   opts.saturation != Policy::Off ||
                   opts.rate != Policy::Off;
    out = opts;
    return true;
}

std::string
specString(const HealthOptions &opts)
{
    if (!opts.enabled)
        return "off";
    std::ostringstream os;
    os << "nan:" << policyName(opts.nan)
       << ",sat:" << policyName(opts.saturation)
       << ",rate:" << policyName(opts.rate)
       << ",sample=" << opts.samplePeriod;
    return os.str();
}

void
noteFixSaturation()
{
    noteFixSaturations(1);
}

void
noteFixSaturations(uint64_t n)
{
    gFixSaturations.fetch_add(n, std::memory_order_relaxed);
}

uint64_t
fixSaturations()
{
    return gFixSaturations.load(std::memory_order_relaxed);
}

void
setGloballyDisabled(bool disabled)
{
    gDisabled.store(disabled, std::memory_order_relaxed);
}

bool
globallyDisabled()
{
    return gDisabled.load(std::memory_order_relaxed);
}

void
heartbeat(uint64_t step)
{
    gHeartbeatStep.store(step, std::memory_order_relaxed);
    gHeartbeatSerial.fetch_add(1, std::memory_order_relaxed);
}

bool
watchdogArmed()
{
    return gArmed.load(std::memory_order_relaxed) > 0;
}

uint64_t
watchdogStalls()
{
    return gStalls.load(std::memory_order_relaxed);
}

Watchdog::Watchdog(double timeoutSec, Policy policy)
    : timeoutSec_(timeoutSec), policy_(policy)
{
}

Watchdog::~Watchdog()
{
    stop();
}

void
Watchdog::start()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (running_ || timeoutSec_ <= 0.0)
        return;
    stopRequested_ = false;
    running_ = true;
    gArmed.fetch_add(1, std::memory_order_relaxed);
    thread_ = std::thread(&Watchdog::watch, this);
}

void
Watchdog::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!running_)
            return;
        stopRequested_ = true;
    }
    cv_.notify_all();
    thread_.join();
    std::lock_guard<std::mutex> lock(mutex_);
    running_ = false;
    gArmed.fetch_sub(1, std::memory_order_relaxed);
}

void
Watchdog::watch()
{
    using clock = std::chrono::steady_clock;
    uint64_t lastSerial =
        gHeartbeatSerial.load(std::memory_order_relaxed);
    clock::time_point lastChange = clock::now();
    const auto poll =
        std::chrono::duration<double>(timeoutSec_ / 4.0);

    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopRequested_) {
        cv_.wait_for(lock, poll);
        if (stopRequested_)
            return;
        lock.unlock();

        const uint64_t serial =
            gHeartbeatSerial.load(std::memory_order_relaxed);
        const clock::time_point now = clock::now();
        if (serial != lastSerial) {
            lastSerial = serial;
            lastChange = now;
        } else if (std::chrono::duration<double>(now - lastChange)
                       .count() >= timeoutSec_) {
            gStalls.fetch_add(1, std::memory_order_relaxed);
            const uint64_t step =
                gHeartbeatStep.load(std::memory_order_relaxed);
            logTagged(LogLevel::Warn, "watchdog",
                      "no step heartbeat for %.2f s (last step %llu)",
                      timeoutSec_,
                      static_cast<unsigned long long>(step));
            writeCrashDump("watchdog stall");
            if (policy_ == Policy::Abort) {
                std::fflush(nullptr);
                // _Exit: the stalled state we are reporting on may
                // hold locks that destructors would need.
                std::_Exit(kWatchdogExitCode);
            }
            lastChange = now; // re-arm under warn/report
        }

        lock.lock();
    }
}

void
setCrashDumpPath(const std::string &path)
{
    std::lock_guard<std::mutex> lock(dumpMutex());
    dumpPath() = path;
}

std::string
crashDumpPath()
{
    std::lock_guard<std::mutex> lock(dumpMutex());
    return dumpPath();
}

void
setCrashDumpRegistry(const telemetry::Registry *registry)
{
    gDumpRegistry.store(registry, std::memory_order_release);
}

void
clearCrashDumpRegistry(const telemetry::Registry *registry)
{
    const telemetry::Registry *expected = registry;
    gDumpRegistry.compare_exchange_strong(expected, nullptr,
                                          std::memory_order_acq_rel);
}

bool
writeCrashDump(const char *reason)
{
    // Reentrancy guard: a crash inside the dump writer (or a signal
    // landing while the watchdog dumps) must not recurse.
    static std::atomic<bool> writing{false};
    if (writing.exchange(true))
        return false;

    std::string path = crashDumpPath();
    if (path.empty())
        path = "flexon-crash-dump.json";
    std::ofstream os(path);
    if (!os) {
        writing.store(false);
        return false;
    }
    os << "{\n  \"schema\": \"flexon-crash-dump-v1\",\n"
       << "  \"reason\": " << telemetry::jsonQuoted(reason) << ",\n"
       << "  \"step\": "
       << gHeartbeatStep.load(std::memory_order_relaxed) << ",\n";
    const telemetry::Registry *registry =
        gDumpRegistry.load(std::memory_order_acquire);
    if (registry != nullptr) {
        os << "  \"metrics\": ";
        registry->writeJson(os, 2);
        os << ",\n";
    }
    os << "  \"global_metrics\": ";
    telemetry::Registry::global().writeJson(os, 2);
    os << ",\n  \"trace\": ";
    telemetry::writeTraceJson(os);
    os << "}\n";
    os.flush();
    const bool ok = os.good();
    writing.store(false);
    if (ok)
        logTagged(LogLevel::Warn, "health",
                  "crash dump written to %s (%s)", path.c_str(),
                  reason);
    return ok;
}

namespace {

volatile std::sig_atomic_t gInSignalHandler = 0;

/**
 * Best-effort: the dump writer allocates and locks, neither of which
 * is async-signal-safe — but the handler only runs when the process
 * is dying anyway, so a rare self-deadlock costs nothing beyond the
 * dump we could not have written either way.
 */
void
crashSignalHandler(int sig)
{
    if (gInSignalHandler == 0) {
        gInSignalHandler = 1;
        char reason[64];
        std::snprintf(reason, sizeof(reason), "fatal signal %d (%s)",
                      sig, strsignal(sig));
        writeCrashDump(reason);
    }
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

} // namespace

void
installCrashHandlers()
{
    std::signal(SIGSEGV, crashSignalHandler);
    std::signal(SIGBUS, crashSignalHandler);
    std::signal(SIGFPE, crashSignalHandler);
    std::signal(SIGABRT, crashSignalHandler);
}

namespace {

/** Prometheus metric-name charset: [a-zA-Z_:][a-zA-Z0-9_:]*. */
std::string
promName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' ||
                        c == ':';
        out += ok ? c : '_';
    }
    if (out.empty() ||
        (out[0] >= '0' && out[0] <= '9'))
        out.insert(out.begin(), '_');
    return out;
}

/** Prometheus label-value escape: backslash, quote, newline. */
std::string
promLabelValue(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        if (c == '\\' || c == '"')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

} // namespace

MetricsExporter::MetricsExporter(std::string path, std::string label)
    : path_(std::move(path)), jsonlPath_(path_ + ".jsonl"),
      label_(std::move(label))
{
}

bool
MetricsExporter::exportNow(const telemetry::Registry &registry,
                           uint64_t step)
{
    const telemetry::MetricsSnapshot snap = registry.snapshot();
    const std::string labels =
        "{session=\"" + promLabelValue(label_) + "\"}";

    // Write-to-temp + rename: a scraper polling path_ never reads a
    // torn snapshot.
    const std::string tmp = path_ + ".tmp";
    {
        std::ofstream os(tmp, std::ios::out | std::ios::trunc);
        if (!os) {
            if (!warned_) {
                warned_ = true;
                logTagged(LogLevel::Warn, "health",
                          "cannot write metrics snapshot '%s'",
                          tmp.c_str());
            }
            return false;
        }
        os << "# flexon live metrics: session \""
           << promLabelValue(label_) << "\", step " << step << "\n";
        os << "# TYPE flexon_export_step gauge\n";
        os << "flexon_export_step" << labels << " " << step << "\n";
        os << "# TYPE flexon_export_snapshots_total counter\n";
        os << "flexon_export_snapshots_total" << labels << " "
           << (snapshots_ + 1) << "\n";
        for (const auto &[name, value] : snap.counters) {
            const std::string metric =
                "flexon_" + promName(name) + "_total";
            os << "# TYPE " << metric << " counter\n";
            os << metric << labels << " " << value << "\n";
        }
        for (const auto &[name, value] : snap.gauges) {
            const std::string metric = "flexon_" + promName(name);
            os << "# TYPE " << metric << " gauge\n";
            os << metric << labels << " " << value << "\n";
        }
        for (const auto &[name, value] : snap.timers) {
            const std::string metric = "flexon_" + promName(name);
            os << "# TYPE " << metric << "_seconds_total counter\n";
            os << metric << "_seconds_total" << labels << " "
               << value.seconds << "\n";
            os << "# TYPE " << metric << "_count_total counter\n";
            os << metric << "_count_total" << labels << " "
               << value.count << "\n";
        }
        os.flush();
        if (!os.good()) {
            if (!warned_) {
                warned_ = true;
                logTagged(LogLevel::Warn, "health",
                          "short write on metrics snapshot '%s'",
                          tmp.c_str());
            }
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
        if (!warned_) {
            warned_ = true;
            logTagged(LogLevel::Warn, "health",
                      "cannot rename metrics snapshot onto '%s'",
                      path_.c_str());
        }
        return false;
    }

    // JSONL history rides alongside the scrape file: one object per
    // snapshot, appended, for offline timeline reconstruction.
    std::ofstream jl(jsonlPath_, std::ios::out | std::ios::app);
    if (jl) {
        jl << "{\"step\":" << step << ",\"session\":"
           << telemetry::jsonQuoted(label_) << ",\"counters\":{";
        bool first = true;
        for (const auto &[name, value] : snap.counters) {
            jl << (first ? "" : ",") << telemetry::jsonQuoted(name)
               << ":" << value;
            first = false;
        }
        jl << "},\"gauges\":{";
        first = true;
        for (const auto &[name, value] : snap.gauges) {
            jl << (first ? "" : ",") << telemetry::jsonQuoted(name)
               << ":" << telemetry::jsonNumber(value);
            first = false;
        }
        jl << "},\"timers\":{";
        first = true;
        for (const auto &[name, value] : snap.timers) {
            jl << (first ? "" : ",") << telemetry::jsonQuoted(name)
               << ":{\"seconds\":"
               << telemetry::jsonNumber(value.seconds)
               << ",\"count\":" << value.count << "}";
            first = false;
        }
        jl << "}}\n";
    }

    ++snapshots_;
    return true;
}

} // namespace health
} // namespace flexon
