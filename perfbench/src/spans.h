/**
 * @file
 * In-memory span recorder for the benchmark's traced pass, and the
 * self-time arithmetic the per-layer metrics are derived from.
 *
 * Spans are recorded from the benchmark's own code around each call
 * into a library layer; nothing inside the library is instrumented.
 * Each thread appends to its own buffer, so recording takes no lock
 * after a thread's first span. Spans are collected and written once,
 * when the workload has finished.
 *
 * A span's parent is the innermost open span on the same thread. A
 * span opened on a thread with no open span (a thread-pool lane that
 * runs one step of a parallel round) takes the recorder's current
 * root instead, which the caller sets around each call that may fan
 * out.
 */

#ifndef TREEVQA_PERFBENCH_SPANS_H
#define TREEVQA_PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** One closed span. Times are steady-clock nanoseconds. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Unique per recorder; 0 is never a span id. */
    std::int64_t id = 0;
    /** Parent span id, 0 for a root. */
    std::int64_t parent = 0;
    /** Small per-recorder thread index. */
    int thread = 0;
    /** Work count carried by the span (probes in an objective call). */
    std::int64_t count = 0;
};

/** Steady-clock now in nanoseconds. */
std::int64_t nowNs();

/** Process-wide span recorder; disabled (every call a no-op) until
 * enable(true). */
class SpanRecorder
{
  public:
    static void enable(bool on);
    static bool enabled();

    /** Open a span on the calling thread; returns its id (0 when
     * disabled). */
    static std::int64_t open(const char *name, std::int64_t count = 0);
    /** Close the innermost open span of the calling thread. */
    static void close();

    /** Parent for spans opened on threads with no open span. */
    static void setRoot(std::int64_t id);

    /** Every closed span so far, in (thread, close) order, and clear
     * the buffers. Call only while no thread is recording. */
    static std::vector<Span> drain();
};

/** RAII span: open on construction, close on destruction. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, std::int64_t count = 0)
        : id_(SpanRecorder::open(name, count))
    {
    }
    ~ScopedSpan()
    {
        if (id_ != 0)
            SpanRecorder::close();
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t id() const { return id_; }

  private:
    std::int64_t id_;
};

/**
 * Self time per span name within one root span. Every instant of the
 * root goes to the deepest span of its subtree open at that instant,
 * and is summed per span name; ties at one depth go to the name that
 * sorts first. So the root's share is its duration minus the union of
 * its children's intervals, and each layer's share is the time it
 * covers minus the time deeper layers cover, however many threads its
 * spans ran on. The shares sum to the root's duration exactly.
 */
std::map<std::string, std::int64_t>
layerSelfTimesNs(const std::vector<Span> &spans, std::int64_t rootId);

/** Chrome trace_event JSON of `spans` (viewable in Perfetto). */
std::string spansToTraceJson(const std::vector<Span> &spans);

} // namespace perfbench

#endif // TREEVQA_PERFBENCH_SPANS_H
