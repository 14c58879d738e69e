/**
 * @file
 * Low-overhead telemetry: a registry of named metrics plus a
 * Chrome-trace flight recorder.
 *
 * A simulation session's registry is the only store of its run
 * statistics, in the way of gem5's Stats / NEST's per-VP counters:
 * the text stats, the run report and the live export are generated
 * from it.
 *
 *   - **Metrics registry** (`Registry`): named monotonic counters,
 *     gauges, scoped timers and fixed-bin histograms. Counter and
 *     timer writes go to per-thread *sharded slots* (cache-line
 *     padded, relaxed atomics), so concurrent lanes never contend on
 *     a line and hot paths stay wait-free; slots are summed only when
 *     a value is read (at phase barriers or report time). Registries
 *     are ordinary objects — each Simulator owns one, so two
 *     simulators in a process never mix their numbers — and
 *     `Registry::global()` holds process-wide instrumentation (kernel
 *     dispatch mix; the shared ThreadPool publishes its own lanes).
 *
 *   - **Flight recorder**: `TraceScope` / `traceBegin` / `traceEnd`
 *     append paired B/E span events to per-thread buffers, serialized
 *     by `writeTraceJson()` in the Chrome `chrome://tracing` /
 *     Perfetto trace-event format. Spans cover step, phase and
 *     parallelFor-chunk granularity.
 *
 * Everything beyond the always-on core counters is gated by the
 * runtime `TelemetryConfig`: with `detail` and `trace` both off (the
 * default), instrumented code paths cost a relaxed atomic load and a
 * predicted branch — no clocks, no allocation. `tools/trace_summary`
 * digests the trace and the run report into per-phase tables;
 * `tools/check_report` validates the report against its schema.
 */

#ifndef FLEXON_COMMON_TELEMETRY_HH
#define FLEXON_COMMON_TELEMETRY_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.hh"

namespace flexon {
namespace telemetry {

/** Runtime gate for the optional instrumentation. */
struct TelemetryConfig
{
    /**
     * Deep counters: per-lane pool busy time, kernel dispatch mix,
     * ring-occupancy histograms. Off = a relaxed load + branch at
     * each site.
     */
    bool detail = false;
    /** Flight recorder (B/E span events). */
    bool trace = false;
    /** Span events kept per thread before dropping (flight-recorder
     *  bound; drops are counted, not silent). */
    size_t traceCapacity = 1u << 20;
};

/** Install a new process-wide telemetry configuration. */
void configure(const TelemetryConfig &config);

/** The current process-wide configuration. */
TelemetryConfig config();

namespace internal {
extern std::atomic<bool> gDetail;
extern std::atomic<bool> gTrace;
} // namespace internal

/** Fast gate for deep-counter sites (one relaxed load). */
inline bool
detailEnabled()
{
    return internal::gDetail.load(std::memory_order_relaxed);
}

/** Fast gate for flight-recorder sites (one relaxed load). */
inline bool
traceEnabled()
{
    return internal::gTrace.load(std::memory_order_relaxed);
}

/** Nanoseconds since the process telemetry epoch (steady clock). */
uint64_t nowNanos();

/** Slots metric writes shard across (threads map round-robin). */
constexpr size_t numShards = 16;

/** This thread's shard index, stable for the thread's lifetime. */
size_t threadShard();

/**
 * A named monotonic counter. add() is wait-free (relaxed fetch_add
 * on the calling thread's shard); value() sums the shards, so reads
 * racing with writes see a valid momentary sum.
 */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        slots_[threadShard()].v.fetch_add(n,
                                          std::memory_order_relaxed);
    }

    uint64_t value() const;
    void reset();
    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    friend class Registry;
    Counter(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {
    }
    Counter(const Counter &) = delete;

    struct alignas(64) Slot
    {
        std::atomic<uint64_t> v{0};
    };
    std::array<Slot, numShards> slots_;
    std::string name_;
    std::string desc_;
};

/** A named last-written / accumulated floating-point value. */
class Gauge
{
  public:
    void set(double x) { v_.store(x, std::memory_order_relaxed); }
    /** Accumulate (CAS loop; intended for single-writer use). */
    void add(double x);
    double value() const
    {
        return v_.load(std::memory_order_relaxed);
    }
    void reset() { set(0.0); }
    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    friend class Registry;
    Gauge(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {
    }
    Gauge(const Gauge &) = delete;

    std::atomic<double> v_{0.0};
    std::string name_;
    std::string desc_;
};

/**
 * A named duration accumulator: total nanoseconds + interval count,
 * sharded like Counter. Written through ScopedTimer or addNanos().
 */
class Timer
{
  public:
    void
    addNanos(uint64_t ns)
    {
        Slot &slot = slots_[threadShard()];
        slot.ns.fetch_add(ns, std::memory_order_relaxed);
        slot.count.fetch_add(1, std::memory_order_relaxed);
    }

    uint64_t nanos() const;
    double seconds() const { return static_cast<double>(nanos()) * 1e-9; }
    uint64_t count() const;
    void reset();
    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    friend class Registry;
    Timer(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {
    }
    Timer(const Timer &) = delete;

    struct alignas(64) Slot
    {
        std::atomic<uint64_t> ns{0};
        std::atomic<uint64_t> count{0};
    };
    std::array<Slot, numShards> slots_;
    std::string name_;
    std::string desc_;
};

/**
 * A named fixed-bin histogram (Histogram semantics: out-of-range
 * samples clamp into the edge bins). Samples lock the calling
 * thread's shard — contention-bounded, and cheap at the per-step
 * rates telemetry samples at; merged() folds the shards with
 * Histogram::merge().
 */
class HistogramMetric
{
  public:
    void sample(double x);
    /** All shards folded into one Histogram. */
    Histogram merged() const;
    uint64_t total() const;
    void reset();
    double lo() const { return lo_; }
    double hi() const { return hi_; }
    size_t bins() const { return bins_; }
    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    friend class Registry;
    HistogramMetric(std::string name, std::string desc, double lo,
                    double hi, size_t bins);
    HistogramMetric(const HistogramMetric &) = delete;

    struct Shard
    {
        explicit Shard(const Histogram &proto) : hist(proto) {}
        mutable std::mutex mutex;
        Histogram hist;
    };
    double lo_;
    double hi_;
    size_t bins_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::string name_;
    std::string desc_;
};

/** Value snapshot of one Timer (shards summed at read time). */
struct TimerValue
{
    double seconds = 0.0;
    uint64_t count = 0;
};

/**
 * Point-in-time copy of a registry's scalar metrics, for consumers
 * that format them outside the registry lock (the health layer's
 * Prometheus/JSONL exporter). Histograms are omitted: the exporter's
 * scrape format has no stable encoding for fixed-bin histograms and
 * the percentiles already reach the run report.
 */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, TimerValue>> timers;
};

/**
 * A registry of named metrics. Registration (counter()/gauge()/...)
 * takes a lock and returns a stable reference — do it once at
 * construction time and cache the handle; the handle's write methods
 * are the wait-free hot path. Metric values survive reset() only as
 * registrations: reset() zeroes every value but keeps the objects,
 * so cached handles stay valid.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /**
     * The process-wide registry: instrumentation that is not owned by
     * one engine instance (kernel dispatch mix, tool-level counters).
     * Each session (Simulator) owns a private registry instead, so
     * concurrent or sequential instances never mix their numbers.
     */
    static Registry &global();

    /** Find-or-create; a name registers exactly one metric type. */
    Counter &counter(std::string_view name,
                     std::string_view desc = "");
    Gauge &gauge(std::string_view name, std::string_view desc = "");
    Timer &timer(std::string_view name, std::string_view desc = "");
    HistogramMetric &histogram(std::string_view name, double lo,
                               double hi, size_t bins,
                               std::string_view desc = "");

    /** Zero every metric value; registered handles stay valid. */
    void reset();

    /**
     * Serialize every metric as one JSON object:
     * {"counters":{...},"gauges":{...},"timers":{...},
     *  "histograms":{...}}, keys sorted (std::map order).
     * @param indent left margin (spaces) for pretty-printing
     */
    void writeJson(std::ostream &os, int indent = 0) const;

    /**
     * Write every counter, gauge and timer (seconds) as one
     * writeStatLine() each, names sorted within each kind.
     */
    void writeText(std::ostream &os) const;

    /** Point-in-time copy of every scalar metric (exporters, tests,
     *  run comparisons). */
    MetricsSnapshot snapshot() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>>
        counters_;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>>
        gauges_;
    std::map<std::string, std::unique_ptr<Timer>, std::less<>>
        timers_;
    std::map<std::string, std::unique_ptr<HistogramMetric>,
             std::less<>>
        histograms_;
};

// ---------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------

/**
 * Append a B (begin) span event named `name` for this thread, stamped
 * `atNanos` (a nowNanos() reading; now by default). `name` must
 * outlive the recorder (string literals / registry-owned strings).
 * No-op unless tracing is enabled.
 */
void traceBegin(const char *name, uint64_t atNanos = nowNanos());

/** Append the matching E (end) event. Call iff traceBegin() ran. */
void traceEnd(const char *name, uint64_t atNanos = nowNanos());

/**
 * Append a thread-scoped instant event (ph "i"): a point-in-time
 * marker rather than a span. Used for plan decisions and health
 * detector firings so they line up against the phase spans in the
 * trace viewer. No-op unless tracing is enabled.
 */
void traceInstant(const char *name);

/** RAII span: B at construction (if tracing), E at destruction. */
class TraceScope
{
  public:
    explicit TraceScope(const char *name)
        : name_(traceEnabled() ? name : nullptr)
    {
        if (name_)
            traceBegin(name_);
    }
    ~TraceScope()
    {
        if (name_)
            traceEnd(name_);
    }
    TraceScope(const TraceScope &) = delete;

  private:
    const char *name_;
};

/**
 * RAII scope that accumulates into a Timer and (optionally) emits a
 * flight-recorder span of the same extent: the span is stamped with
 * the timer's own two clock readings, so the two measure one
 * interval even if the thread is preempted between them. The timer
 * is always fed; the span only when tracing is on at entry.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Timer &timer, const char *span = nullptr)
        : timer_(&timer),
          span_(span && traceEnabled() ? span : nullptr),
          start_(nowNanos())
    {
        if (span_)
            traceBegin(span_, start_);
    }
    ~ScopedTimer()
    {
        const uint64_t end = nowNanos();
        timer_->addNanos(end - start_);
        if (span_)
            traceEnd(span_, end);
    }
    ScopedTimer(const ScopedTimer &) = delete;

  private:
    Timer *timer_;
    const char *span_;
    uint64_t start_;
};

/** Span events currently buffered across all threads. */
size_t traceEventCount();

/** Events dropped because a thread hit traceCapacity. */
uint64_t traceDropped();

/** Discard all buffered span events (drop count included). */
void clearTrace();

/**
 * Serialize the buffered span events in the Chrome trace-event JSON
 * format ({"traceEvents":[...]}, ts in microseconds). Call when the
 * instrumented engines are quiescent (between runs): buffers are
 * per-thread and only their owners may append.
 */
void writeTraceJson(std::ostream &os);

/** writeTraceJson to a file; warn()s and returns false on failure. */
bool writeTraceFile(const std::string &path);

// ---------------------------------------------------------------
// Run-report JSON.
// ---------------------------------------------------------------

/** JSON-escape the contents of a string (no surrounding quotes). */
std::string jsonEscape(std::string_view s);

/**
 * One section of a run report: name -> pre-encoded JSON value (use
 * jsonQuoted()/std::to_string to encode).
 */
using ReportFields =
    std::vector<std::pair<std::string, std::string>>;

/** Quote + escape a string into a JSON string literal. */
std::string jsonQuoted(std::string_view s);

/** Encode a double as JSON (handles non-finite values as null). */
std::string jsonNumber(double x);

/** One gem5-style statistics line: `name value  # desc`. */
void writeStatLine(std::ostream &os, std::string_view name,
                   std::string_view value, std::string_view desc);

/** Inputs to writeReportJson beyond the always-present sections. */
struct ReportContext
{
    /** Extra "config" fields (backend, threads, network, ...). */
    ReportFields config;
    /** Extra caller-specific sections, emitted verbatim. */
    std::vector<std::pair<std::string, ReportFields>> sections;
    /** The owning session's registry (omitted when null). */
    const Registry *metrics = nullptr;
};

/**
 * Write a schema "flexon-run-report-v8" JSON document: build +
 * telemetry metadata, the caller's config and extra sections, the
 * caller's registry under "metrics" (the run's statistics), the
 * process registry under "global_metrics", and the shared
 * ThreadPool's lane accounting under "pool". Validated by
 * tools/check_report against tools/report_schema.json.
 */
void writeReportJson(std::ostream &os, const ReportContext &context);

/** writeReportJson to a file; warn()s and returns false on failure. */
bool writeReportFile(const std::string &path,
                     const ReportContext &context);

} // namespace telemetry
} // namespace flexon

#endif // FLEXON_COMMON_TELEMETRY_HH
