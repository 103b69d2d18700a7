#include "support/spans.h"

#include <chrono>
#include <cstdio>
#include <random>

#include <time.h>

#include "support/string_utils.h"

namespace treegion::support {

int64_t
epochUs()
{
    struct timespec ts;
    clock_gettime(CLOCK_REALTIME, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000 +
           ts.tv_nsec / 1000;
}

uint32_t
currentThreadId()
{
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

namespace {

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t &
idState()
{
    thread_local uint64_t state = [] {
        std::random_device rd;
        uint64_t seed = (static_cast<uint64_t>(rd()) << 32) ^ rd();
        seed ^= static_cast<uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count());
        seed ^= static_cast<uint64_t>(currentThreadId()) << 48;
        return seed;
    }();
    return state;
}

thread_local SpanContext t_ambient;

char
hexDigit(unsigned v)
{
    return static_cast<char>(v < 10 ? '0' + v : 'a' + (v - 10));
}

void
appendHex64(std::string &out, uint64_t v)
{
    for (int shift = 60; shift >= 0; shift -= 4)
        out += hexDigit(static_cast<unsigned>((v >> shift) & 0xf));
}

bool
parseHex64(const char *p, uint64_t *out)
{
    uint64_t v = 0;
    for (int k = 0; k < 16; ++k) {
        const char c = p[k];
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= static_cast<uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<uint64_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            v |= static_cast<uint64_t>(c - 'A' + 10);
        else
            return false;
    }
    *out = v;
    return true;
}

} // namespace

uint64_t
mintSpanId()
{
    uint64_t id;
    do {
        id = splitmix64(idState());
    } while (id == 0);
    return id;
}

std::string
traceIdHex(uint64_t hi, uint64_t lo)
{
    std::string out;
    out.reserve(32);
    appendHex64(out, hi);
    appendHex64(out, lo);
    return out;
}

std::string
spanIdHex(uint64_t id)
{
    std::string out;
    out.reserve(16);
    appendHex64(out, id);
    return out;
}

bool
parseTraceIdHex(const std::string &hex, uint64_t *hi, uint64_t *lo)
{
    if (hex.size() != 32)
        return false;
    return parseHex64(hex.data(), hi) && parseHex64(hex.data() + 16, lo);
}

bool
parseSpanIdHex(const std::string &hex, uint64_t *id)
{
    if (hex.size() != 16)
        return false;
    return parseHex64(hex.data(), id);
}

SpanContext
currentSpanContext()
{
    return t_ambient;
}

SpanContextScope::SpanContextScope(const SpanContext &ctx)
    : prev_(t_ambient)
{
    t_ambient = ctx;
}

SpanContextScope::~SpanContextScope()
{
    t_ambient = prev_;
}

// ---- serialization -------------------------------------------------

std::string
TraceSpan::toJson() const
{
    std::string out = "{\"trace\":\"" + traceIdHex(trace_hi, trace_lo) +
                      "\",\"span\":\"" + spanIdHex(span) +
                      "\",\"parent\":\"" +
                      (parent ? spanIdHex(parent) : std::string()) +
                      "\",\"name\":\"";
    appendJsonEscaped(out, name);
    out += "\",\"svc\":\"";
    appendJsonEscaped(out, service);
    out += "\",\"tid\":";
    appendInt(out, tid);
    out += ",\"start_us\":";
    appendInt(out, start_us);
    out += ",\"dur_us\":";
    appendInt(out, dur_us);
    out += ",\"args\":{";
    appendJsonArgs(out, args);
    out += "}}";
    return out;
}

bool
parseSpanJson(const std::string &line, TraceSpan &out, std::string *error)
{
    static const char *const kFields[] = {
        "trace", "span",     "parent", "name", "svc",
        "tid",   "start_us", "dur_us", "args"};
    out = TraceSpan{};
    FlatJsonReader in(line, "span", error);
    const auto member = [&](const std::string &key) {
        std::string hex;
        if (key == "trace") {
            if (!in.string(hex))
                return false;
            if (!parseTraceIdHex(hex, &out.trace_hi, &out.trace_lo))
                return in.fail("'trace' must be 32 hex digits");
            if ((out.trace_hi | out.trace_lo) == 0)
                return in.fail("'trace' must be non-zero");
        } else if (key == "span") {
            if (!in.string(hex))
                return false;
            if (!parseSpanIdHex(hex, &out.span))
                return in.fail("'span' must be 16 hex digits");
            if (out.span == 0)
                return in.fail("'span' must be non-zero");
        } else if (key == "parent") {
            if (!in.string(hex))
                return false;
            if (!hex.empty() && !parseSpanIdHex(hex, &out.parent))
                return in.fail("'parent' must be 16 hex digits or \"\"");
        } else if (key == "name") {
            return in.string(out.name);
        } else if (key == "svc") {
            return in.string(out.service);
        } else if (key == "tid" || key == "start_us" ||
                   key == "dur_us") {
            JsonArg num;
            if (!in.number(num))
                return false;
            if (num.type != JsonArg::Type::Int)
                return in.fail("'" + key + "' must be an integer");
            if (key == "tid") {
                if (num.i < 0)
                    return in.fail("'tid' must be non-negative");
                if (num.i > UINT32_MAX)
                    return in.fail("'tid' must fit in 32 bits");
                out.tid = static_cast<uint32_t>(num.i);
            } else {
                (key == "start_us" ? out.start_us : out.dur_us) = num.i;
            }
        } else if (key == "args") {
            return in.args(out.args);
        } else {
            return in.fail("unknown field '" + key + "'");
        }
        return true;
    };
    if (!in.readObject(member))
        return false;
    for (const char *field : kFields) {
        if (!in.seen(field))
            return in.fail(std::string("missing required field '") +
                           field + "'");
    }
    return true;
}

// ---- collector -----------------------------------------------------

namespace {
/** Buffer cap: always-on tracing must stay bounded even when nobody
 * drains (a misconfigured daemon, the in-memory bench). */
constexpr size_t kMaxBufferedSpans = 65536;
} // namespace

SpanCollector &
SpanCollector::instance()
{
    static SpanCollector collector;
    return collector;
}

void
SpanCollector::configure(double sample_rate)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (sample_rate < 0.0)
            sample_rate = 0.0;
        if (sample_rate > 1.0)
            sample_rate = 1.0;
        sample_rate_ = sample_rate;
    }
    enabled_.store(true, std::memory_order_relaxed);
}

void
SpanCollector::setEnabled(bool enabled)
{
    enabled_.store(enabled, std::memory_order_relaxed);
}

double
SpanCollector::sampleRate() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sample_rate_;
}

bool
SpanCollector::sampleNewTrace()
{
    double rate;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        rate = sample_rate_;
    }
    if (rate >= 1.0)
        return true;
    if (rate <= 0.0)
        return false;
    // 53 uniform mantissa bits from the id generator; no extra state.
    const double u =
        static_cast<double>(mintSpanId() >> 11) * 0x1.0p-53;
    return u < rate;
}

void
SpanCollector::setService(std::string service)
{
    std::lock_guard<std::mutex> lock(mutex_);
    service_ = std::move(service);
}

std::string
SpanCollector::service() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return service_;
}

void
SpanCollector::record(TraceSpan s)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (spans_.size() >= kMaxBufferedSpans) {
        ++dropped_;
        return;
    }
    spans_.push_back(std::move(s));
}

std::vector<TraceSpan>
SpanCollector::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

uint64_t
SpanCollector::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

size_t
SpanCollector::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
SpanCollector::writeJsonl(const std::string &path, bool append)
{
    std::vector<TraceSpan> spans;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans.swap(spans_);
    }
    FILE *f = std::fopen(path.c_str(), append ? "a" : "w");
    if (!f) {
        std::lock_guard<std::mutex> lock(mutex_);
        // Put the spans back so a later flush can still succeed.
        spans.insert(spans.end(),
                     std::make_move_iterator(spans_.begin()),
                     std::make_move_iterator(spans_.end()));
        spans_.swap(spans);
        return false;
    }
    for (const TraceSpan &s : spans) {
        const std::string line = s.toJson();
        std::fwrite(line.data(), 1, line.size(), f);
        std::fputc('\n', f);
    }
    std::fclose(f);
    return true;
}

void
SpanCollector::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
    dropped_ = 0;
}

// ---- scopes --------------------------------------------------------

namespace {

/** Record [@p start_us, @p end_us] as span @p span of @p ctx's trace
 * under @p parent. */
void
recordSpan(const SpanContext &ctx, uint64_t span, uint64_t parent,
           const char *name, int64_t start_us, int64_t end_us,
           std::vector<JsonArg> args)
{
    SpanCollector &collector = SpanCollector::instance();
    TraceSpan s;
    s.trace_hi = ctx.trace_hi;
    s.trace_lo = ctx.trace_lo;
    s.span = span;
    s.parent = parent;
    s.name = name;
    s.service = ctx.service ? ctx.service : collector.service();
    s.tid = currentThreadId();
    s.start_us = start_us;
    s.dur_us = end_us > start_us ? end_us - start_us : 0;
    s.args = std::move(args);
    collector.record(std::move(s));
}

} // namespace

SpanScope::SpanScope(const char *name, Root root,
                     const char *service)
    : name_(name)
{
    const SpanContext &ambient = t_ambient;
    SpanCollector &collector = SpanCollector::instance();
    if (ambient.valid()) {
        if (!ambient.sampled || !collector.enabled())
            return;
        ctx_ = ambient;
        parent_ = ambient.span;
    } else {
        if (root != Root::IfEnabled || !collector.enabled())
            return;
        ctx_.trace_hi = mintSpanId();
        ctx_.trace_lo = mintSpanId();
        ctx_.sampled = collector.sampleNewTrace();
        parent_ = 0;
    }
    if (service)
        ctx_.service = service;
    ctx_.span = mintSpanId();
    // Installed even when the root lost its sampling roll: nested
    // scopes then see an unsampled ambient and stay inert instead of
    // rolling (and minting traces) of their own.
    saved_ = t_ambient;
    t_ambient = ctx_;
    installed_ = true;
    if (!ctx_.sampled)
        return;
    live_ = true;
    start_us_ = epochUs();
}

SpanScope::~SpanScope()
{
    if (installed_)
        t_ambient = saved_;
    finish();
}

void
SpanScope::finish()
{
    if (!live_)
        return;
    live_ = false;
    recordSpan(ctx_, ctx_.span, parent_, name_, start_us_, epochUs(),
               std::move(args_));
}

SpanScope &
SpanScope::arg(const char *key, std::string_view value)
{
    if (live_)
        args_.push_back(JsonArg::ofStr(key, std::string(value)));
    return *this;
}

SpanScope &
SpanScope::arg(const char *key, int64_t value)
{
    if (live_)
        args_.push_back(JsonArg::ofInt(key, value));
    return *this;
}

SpanScope &
SpanScope::arg(const char *key, double value)
{
    if (live_)
        args_.push_back(JsonArg::ofFloat(key, value));
    return *this;
}

void
noteSpan(const SpanContext &parent, const char *name,
         int64_t start_us, int64_t end_us, std::vector<JsonArg> args)
{
    if (!parent.valid() || !parent.sampled ||
        !SpanCollector::instance().enabled())
        return;
    recordSpan(parent, mintSpanId(), parent.span, name, start_us,
               end_us, std::move(args));
}

} // namespace treegion::support
