/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is a named interval around one call into a library layer,
 * with its parent span and the compile or request it belongs to.
 * Each thread appends to its own buffer (no lock on the hot path);
 * the buffers are merged only after the traced window, when the
 * per-layer self times are computed and the spans are written out.
 * With recording off a SpanScope costs one relaxed load.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/** Start or stop recording (process-wide; off by default). */
void setSpanRecording(bool on);
bool spanRecording();

/** Drop every recorded span on every thread. */
void clearSpans();

/** Add @p n to work counter @p name (only while recording), so a
 * layer's counts are taken at the same boundary as its spans. */
void countWork(const char *name, uint64_t n);

/** RAII span: records [construction, destruction) when recording. */
class SpanScope
{
  public:
    /**
     * @p name must outlive the recorder (a string literal). A zero
     * @p id inherits the enclosing span's id.
     */
    explicit SpanScope(const char *name, uint64_t id = 0,
                       bool duplicate = false);
    ~SpanScope();
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    int32_t index_ = -1;
};

/** Self time and call count of one span name. */
struct LayerTime
{
    double self_ms = 0.0;
    uint64_t calls = 0;
};

/** Summary of every span recorded since the last clearSpans(). */
struct SpanSummary
{
    std::map<std::string, LayerTime> layers;
    std::map<std::string, uint64_t> counts;  ///< from countWork()
    /** Roots named @p root_name: count, wall time and the share of it
     * their descendants cover (1 - root self / root wall). */
    uint64_t roots = 0;
    double root_ms = 0.0;
    double coverage = 0.0;      ///< over all roots together
    double min_coverage = 1.0;  ///< of the worst single root
};

/** Merge the per-thread buffers and compute self times. */
SpanSummary summarizeSpans(const std::string &root_name);

/** Append every span as one JSON line to @p path. @return success. */
bool writeSpansJsonl(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
