/**
 * @file
 * Chrome trace export of recorded spans — the one writer behind
 * `--trace-json` (treegionc, treegion-fuzz, treegiond) and
 * `treegion-report --trace-merge --chrome`.
 *
 * The output is the Chrome trace "JSON object format" (a traceEvents
 * array plus displayTimeUnit), loadable in chrome://tracing and
 * https://ui.perfetto.dev: one "process" per recording service, named
 * by a process_name metadata event, and one complete ("X") event per
 * span whose args carry its trace and span ids followed by the span's
 * own arguments, typed as recorded.
 */

#ifndef TREEGION_SUPPORT_CHROME_TRACE_H
#define TREEGION_SUPPORT_CHROME_TRACE_H

#include <string>
#include <vector>

#include "support/spans.h"

namespace treegion::support {

/** @return @p spans as one Chrome trace JSON document (with a
 * trailing newline). */
std::string chromeTraceJson(const std::vector<TraceSpan> &spans);

/** Write chromeTraceJson(@p spans) to @p path. @return false on I/O
 * failure. */
bool writeChromeTraceFile(const std::string &path,
                          const std::vector<TraceSpan> &spans);

} // namespace treegion::support

#endif // TREEGION_SUPPORT_CHROME_TRACE_H
