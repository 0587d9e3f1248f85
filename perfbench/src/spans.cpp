#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

struct ThreadBuffer
{
    int thread = 0;
    std::vector<Span> open;
    std::vector<Span> closed;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_nextId{1};
std::atomic<std::int64_t> g_root{0};

std::mutex g_buffersMutex;
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer &
localBuffer()
{
    thread_local std::shared_ptr<ThreadBuffer> buffer;
    if (!buffer) {
        buffer = std::make_shared<ThreadBuffer>();
        std::lock_guard<std::mutex> lock(g_buffersMutex);
        buffer->thread = static_cast<int>(g_buffers.size());
        g_buffers.push_back(buffer);
    }
    return *buffer;
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
SpanRecorder::enable(bool on)
{
    g_enabled.store(on);
}

bool
SpanRecorder::enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

std::int64_t
SpanRecorder::open(const char *name, std::int64_t count)
{
    if (!enabled())
        return 0;
    ThreadBuffer &buffer = localBuffer();
    Span span;
    span.name = name;
    span.id = g_nextId.fetch_add(1, std::memory_order_relaxed);
    span.parent = buffer.open.empty() ? g_root.load() : buffer.open.back().id;
    span.thread = buffer.thread;
    span.count = count;
    span.startNs = nowNs();
    buffer.open.push_back(std::move(span));
    return buffer.open.back().id;
}

void
SpanRecorder::close()
{
    const std::int64_t end = nowNs();
    ThreadBuffer &buffer = localBuffer();
    Span span = std::move(buffer.open.back());
    buffer.open.pop_back();
    span.endNs = end;
    buffer.closed.push_back(std::move(span));
}

void
SpanRecorder::setRoot(std::int64_t id)
{
    g_root.store(id);
}

std::vector<Span>
SpanRecorder::drain()
{
    std::vector<Span> out;
    std::lock_guard<std::mutex> lock(g_buffersMutex);
    for (const auto &buffer : g_buffers) {
        out.insert(out.end(), buffer->closed.begin(), buffer->closed.end());
        buffer->closed.clear();
    }
    return out;
}

std::map<std::string, std::int64_t>
layerSelfTimesNs(const std::vector<Span> &spans, std::int64_t rootId)
{
    std::unordered_map<std::int64_t, std::vector<std::size_t>> children;
    std::size_t root = spans.size();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].id == rootId)
            root = i;
        if (spans[i].parent != 0)
            children[spans[i].parent].push_back(i);
    }
    std::map<std::string, std::int64_t> out;
    if (root == spans.size())
        return out;

    const std::int64_t lo = spans[root].startNs;
    const std::int64_t hi = spans[root].endNs;
    struct Event
    {
        std::int64_t at;
        int delta;
        int depth;
        std::size_t span;
    };
    std::vector<Event> events;
    std::vector<std::pair<std::size_t, int>> frontier{{root, 0}};
    while (!frontier.empty()) {
        const auto [index, depth] = frontier.back();
        frontier.pop_back();
        const std::int64_t start = std::max(spans[index].startNs, lo);
        const std::int64_t end = std::min(spans[index].endNs, hi);
        if (end > start) {
            events.push_back({start, +1, depth, index});
            events.push_back({end, -1, depth, index});
        }
        if (const auto it = children.find(spans[index].id);
            it != children.end())
            for (const std::size_t c : it->second)
                frontier.emplace_back(c, depth + 1);
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) { return a.at < b.at; });

    // Open spans keyed (-depth, name): begin() is the deepest layer,
    // name-first among equals.
    std::map<std::pair<int, std::string>, int> active;
    std::int64_t prev = lo;
    for (std::size_t e = 0; e < events.size();) {
        const std::int64_t at = events[e].at;
        if (at > prev && !active.empty())
            out[active.begin()->first.second] += at - prev;
        prev = at;
        for (; e < events.size() && events[e].at == at; ++e) {
            const auto key = std::make_pair(-events[e].depth,
                                            spans[events[e].span].name);
            if ((active[key] += events[e].delta) == 0)
                active.erase(key);
        }
    }
    return out;
}

std::string
spansToTraceJson(const std::vector<Span> &spans)
{
    std::int64_t origin = 0;
    if (!spans.empty())
        origin = std::min_element(spans.begin(), spans.end(),
                                  [](const Span &a, const Span &b) {
                                      return a.startNs < b.startNs;
                                  })
                     ->startNs;
    std::string out = "{\"traceEvents\":[\n";
    char line[512];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(line, sizeof(line),
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRId64
                      ",\"parent\":%" PRId64 ",\"count\":%" PRId64 "}}%s\n",
                      s.name.c_str(), s.thread,
                      static_cast<double>(s.startNs - origin) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3, s.id,
                      s.parent, s.count, i + 1 < spans.size() ? "," : "");
        out += line;
    }
    out += "]}\n";
    return out;
}

} // namespace perfbench
