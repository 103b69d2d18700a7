#include "spans.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

/** One finished (or still open) span. */
struct SpanRecord
{
    const char *name = nullptr;  ///< static layer name, e.g. "sched.lower"
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;     ///< index in the same thread's buffer
    uint64_t id = 0;         ///< compile / request id
    uint32_t thread = 0;
    bool duplicate = false;  ///< work repeated only to be measured
};

struct ThreadLog
{
    uint32_t thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<int32_t> open;  ///< stack of open span indices
};

std::atomic<bool> g_recording{false};

// Logs outlive their threads: the pool's workers may exit before the
// summary is taken.
std::mutex g_logs_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;
std::map<std::string, uint64_t> g_counts;

ThreadLog &
threadLog()
{
    thread_local ThreadLog *log = nullptr;
    if (!log) {
        std::lock_guard<std::mutex> lock(g_logs_mutex);
        g_logs.push_back(std::make_unique<ThreadLog>());
        log = g_logs.back().get();
        log->thread = static_cast<uint32_t>(g_logs.size() - 1);
        log->spans.reserve(1 << 16);
    }
    return *log;
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

void
setSpanRecording(bool on)
{
    g_recording.store(on, std::memory_order_relaxed);
}

bool
spanRecording()
{
    return g_recording.load(std::memory_order_relaxed);
}

void
clearSpans()
{
    std::lock_guard<std::mutex> lock(g_logs_mutex);
    for (auto &log : g_logs) {
        log->spans.clear();
        log->open.clear();
    }
    g_counts.clear();
}

void
countWork(const char *name, uint64_t n)
{
    if (!spanRecording())
        return;
    std::lock_guard<std::mutex> lock(g_logs_mutex);
    g_counts[name] += n;
}

SpanScope::SpanScope(const char *name, uint64_t id, bool duplicate)
{
    if (!spanRecording())
        return;
    ThreadLog &log = threadLog();
    SpanRecord rec;
    rec.name = name;
    rec.parent = log.open.empty() ? -1 : log.open.back();
    rec.id = id != 0 || rec.parent < 0 ? id : log.spans[rec.parent].id;
    rec.thread = log.thread;
    rec.duplicate = duplicate;
    index_ = static_cast<int32_t>(log.spans.size());
    log.open.push_back(index_);
    rec.start_ns = nowNs();
    log.spans.push_back(rec);
}

SpanScope::~SpanScope()
{
    if (index_ < 0)
        return;
    ThreadLog &log = threadLog();
    log.spans[index_].end_ns = nowNs();
    log.open.pop_back();
}

SpanSummary
summarizeSpans(const std::string &root_name)
{
    SpanSummary out;
    double covered_ms = 0.0;
    std::lock_guard<std::mutex> lock(g_logs_mutex);
    for (const auto &log : g_logs) {
        const auto &spans = log->spans;
        std::vector<double> self(spans.size());
        for (size_t i = 0; i < spans.size(); ++i)
            self[i] = (spans[i].end_ns - spans[i].start_ns) / 1e6;
        for (size_t i = 0; i < spans.size(); ++i) {
            if (spans[i].parent >= 0)
                self[spans[i].parent] -=
                    (spans[i].end_ns - spans[i].start_ns) / 1e6;
        }
        for (size_t i = 0; i < spans.size(); ++i) {
            const double wall =
                (spans[i].end_ns - spans[i].start_ns) / 1e6;
            LayerTime &layer = out.layers[spans[i].name];
            layer.self_ms += self[i];
            ++layer.calls;
            if (spans[i].parent < 0 && root_name == spans[i].name) {
                ++out.roots;
                out.root_ms += wall;
                covered_ms += wall - self[i];
                if (wall > 0.0 &&
                    (wall - self[i]) / wall < out.min_coverage)
                    out.min_coverage = (wall - self[i]) / wall;
            }
        }
    }
    out.counts = g_counts;
    out.coverage = out.root_ms > 0.0 ? covered_ms / out.root_ms : 0.0;
    return out;
}

bool
writeSpansJsonl(const std::string &path)
{
    std::ofstream os(path, std::ios::app);
    if (!os)
        return false;
    std::lock_guard<std::mutex> lock(g_logs_mutex);
    for (const auto &log : g_logs) {
        for (size_t i = 0; i < log->spans.size(); ++i) {
            const SpanRecord &s = log->spans[i];
            os << "{\"name\":\"" << s.name << "\",\"thread\":"
               << s.thread << ",\"index\":" << i
               << ",\"parent\":" << s.parent << ",\"id\":" << s.id
               << ",\"start_ns\":" << s.start_ns
               << ",\"end_ns\":" << s.end_ns
               << ",\"duplicate\":" << (s.duplicate ? "true" : "false")
               << "}\n";
        }
    }
    return static_cast<bool>(os);
}

} // namespace perfbench
