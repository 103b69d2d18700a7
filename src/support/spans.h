/**
 * @file
 * Request-scoped distributed tracing: 128-bit trace contexts that
 * cross process boundaries, wall-clock spans that nest into one tree
 * per request, and a process-wide collector that serializes them as
 * schema-stable JSONL (`treegion-span/v1`).
 *
 * Spans are the one telemetry event model: a span answers both "how
 * long did stage X take in this process" and "where did *this
 * request* spend its time across the whole farm". Every pipeline
 * stage is a SpanScope; the client mints a trace id, forwards it as
 * `trace-id`/`parent-span` protocol headers, every replica that
 * touches the request (queue, memory gate, cache, compile stages,
 * peer fill, response write) records children of the client's span,
 * and `treegion-report --trace-merge` reassembles the files from all
 * parties into one tree per request. The collector's buffer is
 * written either as JSONL (`--trace-spans`) or as a Chrome trace
 * (`--trace-json`, support/chrome_trace.h).
 *
 * Design, mirroring support/remarks.h:
 *
 *  - A TraceSpan serializes to one JSON line with a fixed key order and
 *    parses back losslessly through the strict flat-JSON reader
 *    (support/json.h), rejecting unknown fields, duplicates, missing
 *    fields and trailing bytes — the span stream is a wire format,
 *    not debug output.
 *
 *  - Propagation is ambient and thread-local. A SpanContextScope
 *    installs the incoming request's context for the current thread;
 *    every SpanScope below it (the pipeline's stage scopes included)
 *    becomes a child automatically. With no ambient
 *    context and the collector disabled, a SpanScope is inert: one
 *    thread-local read, one relaxed atomic load, zero allocation —
 *    the zero-allocation steady-state pin covers this path.
 *
 *  - Sampling is decided once, at the root: an unsampled root
 *    installs its context for its lifetime, so nothing nested under
 *    it records or rolls again, and it propagates nothing. Timestamps
 *    are wall-clock microseconds (CLOCK_REALTIME) so files from
 *    different hosts can be aligned by the ping-based clock sync.
 */

#ifndef TREEGION_SUPPORT_SPANS_H
#define TREEGION_SUPPORT_SPANS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.h"

namespace treegion::support {

/** Current wall-clock time in microseconds since the Unix epoch. */
int64_t epochUs();

/** Stable small id of the calling thread (assigned on first use). */
uint32_t currentThreadId();

/** @return a fresh non-zero 64-bit id (thread-local splitmix64
 * seeded from the system entropy source). */
uint64_t mintSpanId();

/** Render @p hi:@p lo as 32 lowercase hex digits (the `trace-id`
 * wire form). */
std::string traceIdHex(uint64_t hi, uint64_t lo);

/** Render @p id as 16 lowercase hex digits (the `parent-span` wire
 * form). */
std::string spanIdHex(uint64_t id);

/** Parse the 32-hex-digit traceIdHex form. @return false unless
 * @p hex is exactly 32 hex digits. */
bool parseTraceIdHex(const std::string &hex, uint64_t *hi,
                     uint64_t *lo);

/** Parse the 16-hex-digit spanIdHex form. @return false unless
 * @p hex is exactly 16 hex digits. */
bool parseSpanIdHex(const std::string &hex, uint64_t *id);

/**
 * The propagated half of a trace: which trace a piece of work
 * belongs to, which span is its parent, and whether the root decided
 * to sample it. `service` names the party recording (stable storage
 * owned by the installer — a server's self-address or a client tool
 * name); null falls back to the collector's default service.
 */
struct SpanContext
{
    uint64_t trace_hi = 0;
    uint64_t trace_lo = 0;
    uint64_t span = 0;
    bool sampled = false;
    const char *service = nullptr;

    bool
    valid() const
    {
        return (trace_hi | trace_lo) != 0 && span != 0;
    }
};

/** @return the context installed for this thread (invalid when
 * none). */
SpanContext currentSpanContext();

/**
 * RAII installation of @p ctx as the current thread's ambient trace
 * context. Nests: the previous context is restored on destruction.
 */
class SpanContextScope
{
  public:
    explicit SpanContextScope(const SpanContext &ctx);
    ~SpanContextScope();

    SpanContextScope(const SpanContextScope &) = delete;
    SpanContextScope &operator=(const SpanContextScope &) = delete;

  private:
    SpanContext prev_;
};

/** One completed span: a named interval inside one trace. */
struct TraceSpan
{
    uint64_t trace_hi = 0;
    uint64_t trace_lo = 0;
    uint64_t span = 0;
    uint64_t parent = 0;    ///< 0 = root of its trace
    std::string name;
    std::string service;
    uint32_t tid = 0;
    int64_t start_us = 0;   ///< wall clock (epochUs)
    int64_t dur_us = 0;
    std::vector<JsonArg> args;

    bool operator==(const TraceSpan &other) const = default;

    /**
     * Serialize as one JSON object (no trailing newline), stable key
     * order: trace, span, parent ("" for roots), name, svc, tid,
     * start_us, dur_us, args. Floats use jsonFloatText: finite ones
     * round-trip bit-exactly through parseSpanJson, and non-finite
     * ones come back as the Str args "NaN", "Infinity" or
     * "-Infinity".
     */
    std::string toJson() const;
};

/**
 * Parse one JSON line produced by TraceSpan::toJson back into a TraceSpan,
 * enforcing the schema: "trace" 32 hex digits, "span"/"parent" 16
 * hex digits (parent may be ""), "name"/"svc" strings, "tid"/
 * "start_us"/"dur_us" integers, "args" an object of int/float/string
 * values, every field present exactly once, no unknown keys, nothing
 * after the closing brace. @return false and set @p error on any
 * violation.
 */
bool parseSpanJson(const std::string &line, TraceSpan &out,
                   std::string *error = nullptr);

/**
 * Process-wide sink for completed spans. Off by default; while off,
 * recording sites are inert. On, spans buffer in memory (bounded at
 * 65,536 — overflow increments dropped()) until written as JSONL or
 * exported as a Chrome trace.
 */
class SpanCollector
{
  public:
    static SpanCollector &instance();

    /**
     * Enable collection with sampling rate @p sample_rate in [0, 1]
     * (the probability a freshly minted root trace is sampled;
     * propagated contexts keep their root's decision).
     */
    void configure(double sample_rate);

    void setEnabled(bool enabled);

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    double sampleRate() const;

    /** Roll the sampling decision for a new root trace. */
    bool sampleNewTrace();

    /** Default `svc` stamp for contexts that carry none. */
    void setService(std::string service);
    std::string service() const;

    /** Append @p s (dropped beyond the buffer cap). */
    void record(TraceSpan s);

    /** @return a copy of the buffered spans, in record order. */
    std::vector<TraceSpan> snapshot() const;

    /** @return spans dropped at the buffer cap since clear(). */
    uint64_t dropped() const;

    /** @return buffered span count. */
    size_t size() const;

    /**
     * Write the buffered spans as JSON lines to @p path (append or
     * truncate) and drop them from the buffer. @return false when
     * the file cannot be written (buffer is kept).
     */
    bool writeJsonl(const std::string &path, bool append = false);

    /** Drop buffered spans and the drop counter. */
    void clear();

  private:
    SpanCollector() = default;

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    double sample_rate_ = 1.0;
    std::string service_ = "treegion";
    std::vector<TraceSpan> spans_;
    uint64_t dropped_ = 0;
};

/**
 * RAII span covering its own lifetime. Three behaviours, decided at
 * construction:
 *
 *  - the ambient context is sampled: live, a child of the ambient
 *    span; installs itself as the ambient context so nested scopes
 *    chain.
 *  - no usable ambient context, Root::IfEnabled, collector enabled:
 *    mints a fresh trace (sampled per the collector's rate) and
 *    installs it — an unsampled one too, so every scope nested under
 *    an unsampled root stays inert.
 *  - otherwise inert: no clock read, no allocation.
 */
class SpanScope
{
  public:
    enum class Root {
        No,        ///< child-only: inert without a sampled ambient
        IfEnabled, ///< mint a new trace when there is no ambient
    };

    /** @p service, when given, overrides the recording service name
     * for this span and everything nested under it (used by servers
     * to stamp their self-address on in-process shared collectors). */
    explicit SpanScope(const char *name, Root root = Root::No,
                       const char *service = nullptr);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    bool live() const { return live_; }

    /** The context naming this span as parent (for propagation). */
    const SpanContext &context() const { return ctx_; }

    /**
     * Record the span now instead of at scope exit (idempotent; the
     * destructor then only restores the ambient context). Lets a
     * server close its "request" span before handing the response to
     * another thread, so the recorded interval does not stretch over
     * the lambda's teardown. context() stays valid afterwards.
     */
    void finish();

    SpanScope &arg(const char *key, std::string_view value);
    SpanScope &arg(const char *key, int64_t value);
    SpanScope &arg(const char *key, double value);

  private:
    bool live_ = false;
    bool installed_ = false;
    const char *name_;
    SpanContext ctx_;       ///< this span as the parent of children
    uint64_t parent_ = 0;
    int64_t start_us_ = 0;
    std::vector<JsonArg> args_;
    SpanContext saved_;
};

/**
 * Record an already-elapsed interval [@p start_us, @p end_us] as a
 * completed child of @p parent (queue waits and write latencies are
 * measured before any scope can exist). Inert unless @p parent is
 * sampled and the collector is enabled.
 */
void noteSpan(const SpanContext &parent, const char *name,
              int64_t start_us, int64_t end_us,
              std::vector<JsonArg> args = {});

} // namespace treegion::support

#endif // TREEGION_SUPPORT_SPANS_H
