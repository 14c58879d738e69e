#include "common/telemetry.hh"

#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace flexon {
namespace telemetry {

namespace internal {
std::atomic<bool> gDetail{false};
std::atomic<bool> gTrace{false};
} // namespace internal

namespace {

using Clock = std::chrono::steady_clock;

/** Guards gConfig and the trace-buffer directory. */
std::mutex &
stateMutex()
{
    static std::mutex m;
    return m;
}

TelemetryConfig gConfig;

/** One buffered span event; `name` must be a long-lived string. */
struct TraceEventRecord
{
    const char *name;
    uint64_t ts;
    uint32_t tid;
    char ph;
};

/** One thread's private span buffer, owned by the global directory
 *  (it must outlive the thread for writeTraceJson). */
struct TraceBuffer
{
    std::vector<TraceEventRecord> events;
    uint64_t dropped = 0;
    uint32_t tid = 0;
    size_t capacity = 0;
};

std::vector<std::unique_ptr<TraceBuffer>> &
traceBuffers()
{
    static std::vector<std::unique_ptr<TraceBuffer>> buffers;
    return buffers;
}

std::atomic<uint32_t> gNextTid{0};

TraceBuffer &
threadTraceBuffer()
{
    thread_local TraceBuffer *buffer = nullptr;
    if (buffer == nullptr) {
        auto owned = std::make_unique<TraceBuffer>();
        buffer = owned.get();
        std::lock_guard<std::mutex> guard(stateMutex());
        buffer->tid =
            gNextTid.fetch_add(1, std::memory_order_relaxed);
        buffer->capacity = gConfig.traceCapacity;
        traceBuffers().push_back(std::move(owned));
    }
    return *buffer;
}

void
appendTraceEvent(const char *name, char ph, uint64_t atNanos)
{
    TraceBuffer &buffer = threadTraceBuffer();
    if (buffer.events.size() >= buffer.capacity) {
        ++buffer.dropped;
        return;
    }
    buffer.events.push_back({name, atNanos, buffer.tid, ph});
}

} // namespace

uint64_t
nowNanos()
{
    static const Clock::time_point epoch = Clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch)
            .count());
}

size_t
threadShard()
{
    static std::atomic<size_t> next{0};
    thread_local const size_t shard =
        next.fetch_add(1, std::memory_order_relaxed) % numShards;
    return shard;
}

void
configure(const TelemetryConfig &config)
{
    {
        std::lock_guard<std::mutex> guard(stateMutex());
        gConfig = config;
        // Already-registered thread buffers keep their old capacity;
        // new threads pick up the new bound.
    }
    internal::gDetail.store(config.detail,
                            std::memory_order_relaxed);
    internal::gTrace.store(config.trace, std::memory_order_relaxed);
}

TelemetryConfig
config()
{
    std::lock_guard<std::mutex> guard(stateMutex());
    return gConfig;
}

// ---------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------

uint64_t
Counter::value() const
{
    uint64_t sum = 0;
    for (const Slot &slot : slots_)
        sum += slot.v.load(std::memory_order_relaxed);
    return sum;
}

void
Counter::reset()
{
    for (Slot &slot : slots_)
        slot.v.store(0, std::memory_order_relaxed);
}

void
Gauge::add(double x)
{
    double current = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(current, current + x,
                                     std::memory_order_relaxed)) {
    }
}

uint64_t
Timer::nanos() const
{
    uint64_t sum = 0;
    for (const Slot &slot : slots_)
        sum += slot.ns.load(std::memory_order_relaxed);
    return sum;
}

uint64_t
Timer::count() const
{
    uint64_t sum = 0;
    for (const Slot &slot : slots_)
        sum += slot.count.load(std::memory_order_relaxed);
    return sum;
}

void
Timer::reset()
{
    for (Slot &slot : slots_) {
        slot.ns.store(0, std::memory_order_relaxed);
        slot.count.store(0, std::memory_order_relaxed);
    }
}

HistogramMetric::HistogramMetric(std::string name, std::string desc,
                                 double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), bins_(bins), name_(std::move(name)),
      desc_(std::move(desc))
{
    const Histogram proto(lo, hi, bins);
    shards_.reserve(numShards);
    for (size_t i = 0; i < numShards; ++i)
        shards_.push_back(std::make_unique<Shard>(proto));
}

void
HistogramMetric::sample(double x)
{
    Shard &shard = *shards_[threadShard()];
    std::lock_guard<std::mutex> guard(shard.mutex);
    shard.hist.add(x);
}

Histogram
HistogramMetric::merged() const
{
    Histogram out(lo_, hi_, bins_);
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> guard(shard->mutex);
        out.merge(shard->hist);
    }
    return out;
}

uint64_t
HistogramMetric::total() const
{
    return merged().total();
}

void
HistogramMetric::reset()
{
    for (auto &shard : shards_) {
        std::lock_guard<std::mutex> guard(shard->mutex);
        shard->hist = Histogram(lo_, hi_, bins_);
    }
}

// ---------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

namespace {

/** A metric name maps to exactly one type across all four maps. */
template <typename Map, typename... Others>
void
checkNameFree(const std::string &name, const Map &map,
              const Others &...others)
{
    if (map.find(name) != map.end()) {
        panic("telemetry metric '%s' already registered as a "
              "different type",
              name.c_str());
    }
    if constexpr (sizeof...(others) > 0)
        checkNameFree(name, others...);
}

} // namespace

Counter &
Registry::counter(std::string_view name, std::string_view desc)
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = counters_.find(name);
    if (it != counters_.end())
        return *it->second;
    std::string key(name);
    checkNameFree(key, gauges_, timers_, histograms_);
    auto [pos, inserted] = counters_.emplace(
        key, std::unique_ptr<Counter>(
                 new Counter(key, std::string(desc))));
    return *pos->second;
}

Gauge &
Registry::gauge(std::string_view name, std::string_view desc)
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = gauges_.find(name);
    if (it != gauges_.end())
        return *it->second;
    std::string key(name);
    checkNameFree(key, counters_, timers_, histograms_);
    auto [pos, inserted] = gauges_.emplace(
        key,
        std::unique_ptr<Gauge>(new Gauge(key, std::string(desc))));
    return *pos->second;
}

Timer &
Registry::timer(std::string_view name, std::string_view desc)
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = timers_.find(name);
    if (it != timers_.end())
        return *it->second;
    std::string key(name);
    checkNameFree(key, counters_, gauges_, histograms_);
    auto [pos, inserted] = timers_.emplace(
        key,
        std::unique_ptr<Timer>(new Timer(key, std::string(desc))));
    return *pos->second;
}

HistogramMetric &
Registry::histogram(std::string_view name, double lo, double hi,
                    size_t bins, std::string_view desc)
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = histograms_.find(name);
    if (it != histograms_.end()) {
        flexon_assert(it->second->lo() == lo &&
                      it->second->hi() == hi &&
                      it->second->bins() == bins);
        return *it->second;
    }
    std::string key(name);
    checkNameFree(key, counters_, gauges_, timers_);
    auto [pos, inserted] = histograms_.emplace(
        key, std::unique_ptr<HistogramMetric>(new HistogramMetric(
                 key, std::string(desc), lo, hi, bins)));
    return *pos->second;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> guard(mutex_);
    for (auto &[name, metric] : counters_)
        metric->reset();
    for (auto &[name, metric] : gauges_)
        metric->reset();
    for (auto &[name, metric] : timers_)
        metric->reset();
    for (auto &[name, metric] : histograms_)
        metric->reset();
}

void
Registry::writeText(std::ostream &os) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    for (const auto &[name, metric] : counters_)
        writeStatLine(os, name, std::to_string(metric->value()),
                      metric->desc());
    for (const auto &[name, metric] : gauges_)
        writeStatLine(os, name, jsonNumber(metric->value()),
                      metric->desc());
    for (const auto &[name, metric] : timers_)
        writeStatLine(os, name, jsonNumber(metric->seconds()),
                      metric->desc());
}

MetricsSnapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    MetricsSnapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto &[name, metric] : counters_)
        snap.counters.emplace_back(name, metric->value());
    snap.gauges.reserve(gauges_.size());
    for (const auto &[name, metric] : gauges_)
        snap.gauges.emplace_back(name, metric->value());
    snap.timers.reserve(timers_.size());
    for (const auto &[name, metric] : timers_)
        snap.timers.emplace_back(
            name, TimerValue{metric->seconds(), metric->count()});
    return snap;
}

namespace {

std::string
indentOf(int n)
{
    return std::string(static_cast<size_t>(n), ' ');
}

/**
 * One `"kind": {"name": value, ...}` member of Registry::writeJson;
 * `value` writes one metric's JSON value.
 */
template <typename Map, typename Value>
void
writeJsonKind(std::ostream &os, int indent, const char *kind,
              const Map &metrics, Value value, const char *close)
{
    const std::string pad1 = indentOf(indent + 2);
    os << pad1 << '"' << kind << "\": {";
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        os << (first ? "\n" : ",\n") << indentOf(indent + 4)
           << jsonQuoted(name) << ": ";
        value(*metric);
        first = false;
    }
    os << (first ? "" : "\n" + pad1) << close;
}

} // namespace

void
Registry::writeJson(std::ostream &os, int indent) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    os << "{\n";
    writeJsonKind(
        os, indent, "counters", counters_,
        [&os](const Counter &m) { os << m.value(); }, "},\n");
    writeJsonKind(
        os, indent, "gauges", gauges_,
        [&os](const Gauge &m) { os << jsonNumber(m.value()); },
        "},\n");
    writeJsonKind(
        os, indent, "timers", timers_,
        [&os](const Timer &m) {
            os << "{\"seconds\": " << jsonNumber(m.seconds())
               << ", \"count\": " << m.count() << "}";
        },
        "},\n");
    writeJsonKind(
        os, indent, "histograms", histograms_,
        [&os](const HistogramMetric &m) {
            const Histogram merged = m.merged();
            os << "{\"lo\": " << jsonNumber(merged.lo())
               << ", \"hi\": " << jsonNumber(merged.hi())
               << ", \"total\": " << merged.total() << ", \"bins\": [";
            for (size_t i = 0; i < merged.bins(); ++i)
                os << (i ? ", " : "") << merged.binCount(i);
            os << "], \"p50\": " << jsonNumber(merged.percentile(50))
               << ", \"p90\": " << jsonNumber(merged.percentile(90))
               << ", \"p99\": " << jsonNumber(merged.percentile(99))
               << "}";
        },
        "}\n");
    os << indentOf(indent) << "}";
}

// ---------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------

void
traceBegin(const char *name, uint64_t atNanos)
{
    appendTraceEvent(name, 'B', atNanos);
}

void
traceEnd(const char *name, uint64_t atNanos)
{
    appendTraceEvent(name, 'E', atNanos);
}

void
traceInstant(const char *name)
{
    appendTraceEvent(name, 'i', nowNanos());
}

size_t
traceEventCount()
{
    std::lock_guard<std::mutex> guard(stateMutex());
    size_t count = 0;
    for (const auto &buffer : traceBuffers())
        count += buffer->events.size();
    return count;
}

uint64_t
traceDropped()
{
    std::lock_guard<std::mutex> guard(stateMutex());
    uint64_t dropped = 0;
    for (const auto &buffer : traceBuffers())
        dropped += buffer->dropped;
    return dropped;
}

void
clearTrace()
{
    std::lock_guard<std::mutex> guard(stateMutex());
    for (auto &buffer : traceBuffers()) {
        buffer->events.clear();
        buffer->dropped = 0;
    }
}

void
writeTraceJson(std::ostream &os)
{
    std::lock_guard<std::mutex> guard(stateMutex());
    os << "{\"traceEvents\": [";
    bool first = true;
    for (const auto &buffer : traceBuffers()) {
        for (const TraceEventRecord &event : buffer->events) {
            os << (first ? "\n" : ",\n");
            // ts is microseconds in the Chrome trace-event format.
            os << "{\"name\": " << jsonQuoted(event.name)
               << ", \"ph\": \"" << event.ph
               << "\", \"ts\": "
               << jsonNumber(static_cast<double>(event.ts) / 1e3)
               << ", \"pid\": 0, \"tid\": " << event.tid;
            // Instant events need a scope; "t" pins the marker to
            // its thread track in the viewer.
            if (event.ph == 'i')
                os << ", \"s\": \"t\"";
            os << "}";
            first = false;
        }
    }
    os << (first ? "" : "\n")
       << "], \"displayTimeUnit\": \"ms\"}\n";
}

bool
writeTraceFile(const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        warn("telemetry: cannot open trace file '%s'", path.c_str());
        return false;
    }
    writeTraceJson(os);
    return os.good();
}

// ---------------------------------------------------------------
// Run-report JSON.
// ---------------------------------------------------------------

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonQuoted(std::string_view s)
{
    std::string out = "\"";
    out += jsonEscape(s);
    out += '"';
    return out;
}

std::string
jsonNumber(double x)
{
    if (!std::isfinite(x))
        return "null";
    std::ostringstream oss;
    oss.precision(12);
    oss << x;
    const std::string out = oss.str();
    // Bare integers are valid JSON numbers already; nothing to fix.
    return out;
}

void
writeStatLine(std::ostream &os, std::string_view name,
              std::string_view value, std::string_view desc)
{
    os << std::left << std::setw(34) << name << ' ' << value
       << "  # " << desc << '\n';
}

namespace {

void
writeFields(std::ostream &os, const ReportFields &fields,
            int indent)
{
    const std::string pad = indentOf(indent);
    os << "{";
    bool first = true;
    for (const auto &[key, value] : fields) {
        os << (first ? "\n" : ",\n") << pad << jsonQuoted(key)
           << ": " << value;
        first = false;
    }
    if (!first)
        os << '\n' << indentOf(indent - 2);
    os << "}";
}

ReportFields
buildFields()
{
    ReportFields build;
#if defined(__VERSION__)
    build.emplace_back("compiler", jsonQuoted(__VERSION__));
#else
    build.emplace_back("compiler", jsonQuoted("unknown"));
#endif
    build.emplace_back("cxx_standard",
                       std::to_string(__cplusplus));
#ifdef NDEBUG
    build.emplace_back("assertions", "false");
#else
    build.emplace_back("assertions", "true");
#endif
    return build;
}

ReportFields
telemetryFields()
{
    const TelemetryConfig cfg = config();
    ReportFields fields;
    fields.emplace_back("detail", cfg.detail ? "true" : "false");
    fields.emplace_back("trace", cfg.trace ? "true" : "false");
    fields.emplace_back("trace_events",
                        std::to_string(traceEventCount()));
    fields.emplace_back("trace_dropped",
                        std::to_string(traceDropped()));
    return fields;
}

ReportFields
poolFields()
{
    const ThreadPool::TelemetrySnapshot snap =
        ThreadPool::global().telemetrySnapshot();
    ReportFields fields;
    fields.emplace_back("workers",
                        std::to_string(snap.workers));
    fields.emplace_back("dispatches",
                        std::to_string(snap.dispatches));
    fields.emplace_back("chunks", std::to_string(snap.chunks));
    fields.emplace_back("busy_ns", std::to_string(snap.busyNs));
    fields.emplace_back("dispatch_wall_ns",
                        std::to_string(snap.wallNs));
    fields.emplace_back("lane_ns", std::to_string(snap.laneNs));
    // Fraction of the lanes' allotted wall time spent in chunks:
    // 1.0 = perfectly balanced, lower = imbalance or barrier idle.
    const double efficiency =
        snap.laneNs > 0
            ? static_cast<double>(snap.busyNs) /
                  static_cast<double>(snap.laneNs)
            : 0.0;
    fields.emplace_back("parallel_efficiency",
                        jsonNumber(efficiency));
    std::string busy = "[";
    std::string chunks = "[";
    for (size_t i = 0; i < snap.laneBusyNs.size(); ++i) {
        busy += i ? ", " : "";
        busy += std::to_string(snap.laneBusyNs[i]);
        chunks += i ? ", " : "";
        chunks += std::to_string(snap.laneChunks[i]);
    }
    fields.emplace_back("lane_busy_ns", busy + "]");
    fields.emplace_back("lane_chunks", chunks + "]");
    return fields;
}

} // namespace

void
writeReportJson(std::ostream &os, const ReportContext &context)
{
    os << "{\n";
    os << "  \"schema\": \"flexon-run-report-v8\",\n";
    os << "  \"build\": ";
    writeFields(os, buildFields(), 4);
    os << ",\n  \"telemetry\": ";
    writeFields(os, telemetryFields(), 4);
    os << ",\n  \"config\": ";
    writeFields(os, context.config, 4);
    for (const auto &[name, fields] : context.sections) {
        os << ",\n  " << jsonQuoted(name) << ": ";
        writeFields(os, fields, 4);
    }
    os << ",\n  \"pool\": ";
    writeFields(os, poolFields(), 4);
    if (context.metrics != nullptr) {
        os << ",\n  \"metrics\": ";
        context.metrics->writeJson(os, 2);
    }
    os << ",\n  \"global_metrics\": ";
    Registry::global().writeJson(os, 2);
    os << "\n}\n";
}

bool
writeReportFile(const std::string &path,
                const ReportContext &context)
{
    std::ofstream os(path);
    if (!os) {
        warn("telemetry: cannot open report file '%s'",
             path.c_str());
        return false;
    }
    writeReportJson(os, context);
    return os.good();
}

} // namespace telemetry
} // namespace flexon
