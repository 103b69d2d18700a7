#include "support/chrome_trace.h"

#include <cstdio>
#include <map>

#include "support/json.h"
#include "support/string_utils.h"

namespace treegion::support {

std::string
chromeTraceJson(const std::vector<TraceSpan> &spans)
{
    // One Chrome "process" per service, numbered in name order, so
    // each replica and each client gets its own swimlane group.
    std::map<std::string, int> pids;
    for (const TraceSpan &s : spans)
        pids.emplace(s.service, 0);
    int next_pid = 1;
    for (auto &entry : pids)
        entry.second = next_pid++;

    std::string out = "{\"traceEvents\":[";
    const char *sep = "\n";
    for (const auto &[svc, pid] : pids) {
        out += sep;
        out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
        appendInt(out, pid);
        out += ",\"tid\":0,\"args\":{\"name\":\"";
        appendJsonEscaped(out, svc);
        out += "\"}}";
        sep = ",\n";
    }
    for (const TraceSpan &s : spans) {
        out += sep;
        out += "{\"name\":\"";
        appendJsonEscaped(out, s.name);
        out += "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":";
        appendInt(out, s.start_us);
        out += ",\"dur\":";
        appendInt(out, s.dur_us);
        out += ",\"pid\":";
        appendInt(out, pids[s.service]);
        out += ",\"tid\":";
        appendInt(out, s.tid);
        out += ",\"args\":{\"trace\":\"" +
               traceIdHex(s.trace_hi, s.trace_lo) + "\",\"span\":\"" +
               spanIdHex(s.span) + "\"";
        if (!s.args.empty()) {
            out += ',';
            appendJsonArgs(out, s.args);
        }
        out += "}}";
        sep = ",\n";
    }
    if (!spans.empty())
        out += '\n';
    out += "],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

bool
writeChromeTraceFile(const std::string &path,
                     const std::vector<TraceSpan> &spans)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string json = chromeTraceJson(spans);
    const bool wrote =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && wrote;
}

} // namespace treegion::support
