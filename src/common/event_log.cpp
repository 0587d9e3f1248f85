#include "common/event_log.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include <unistd.h>

#include "common/crc_line.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "svc/sweep_dir.h"

namespace treevqa {

namespace {

struct EventMetrics
{
    Counter &emitted;
    Counter &flushes;
    Counter &flushFailures;
    Counter &droppedLines;
};

EventMetrics &
eventMetrics()
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    static EventMetrics m{reg.counter("event.emitted"),
                          reg.counter("event.flushes"),
                          reg.counter("event.flush_failures"),
                          reg.counter("event.dropped_lines")};
    return m;
}

} // namespace

// ------------------------------------------------------ hybrid clock

bool
hlcLess(const Hlc &a, const Hlc &b)
{
    if (a.wallMs != b.wallMs)
        return a.wallMs < b.wallMs;
    if (a.counter != b.counter)
        return a.counter < b.counter;
    return a.origin < b.origin;
}

std::string
hlcKey(const Hlc &hlc)
{
    return std::to_string(hlc.wallMs) + "."
        + std::to_string(hlc.counter) + "@" + hlc.origin;
}

bool
parseHlcKey(const std::string &text, Hlc &out)
{
    if (text.empty())
        return false;
    Hlc parsed;
    std::string head = text;
    const std::size_t at = text.find('@');
    if (at != std::string::npos) {
        parsed.origin = text.substr(at + 1);
        head = text.substr(0, at);
    }
    std::string wall = head;
    const std::size_t dot = head.find('.');
    if (dot != std::string::npos) {
        wall = head.substr(0, dot);
        const std::string ctr = head.substr(dot + 1);
        if (ctr.empty()
            || ctr.find_first_not_of("0123456789") != std::string::npos)
            return false;
        parsed.counter = std::stoll(ctr);
    }
    if (wall.empty()
        || wall.find_first_not_of("0123456789") != std::string::npos)
        return false;
    parsed.wallMs = std::stoll(wall);
    out = parsed;
    return true;
}

JsonValue
hlcToJson(const Hlc &hlc)
{
    JsonValue out = JsonValue::object();
    out.set("wall", JsonValue(hlc.wallMs));
    out.set("ctr", JsonValue(hlc.counter));
    out.set("origin", JsonValue(hlc.origin));
    return out;
}

Hlc
hlcFromJson(const JsonValue &json)
{
    Hlc hlc;
    hlc.wallMs = json.at("wall").asInt();
    hlc.counter = json.at("ctr").asInt();
    hlc.origin = json.at("origin").asString();
    return hlc;
}

HlcClock::HlcClock(std::string origin) : origin_(std::move(origin))
{
    if (origin_.empty())
        origin_ = sanitizeFileToken(localWorkerId());
}

HlcClock &
HlcClock::instance()
{
    static HlcClock clock;
    return clock;
}

void
HlcClock::setOrigin(const std::string &origin)
{
    std::lock_guard<std::mutex> lock(mutex_);
    origin_ = origin;
}

std::string
HlcClock::origin() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return origin_;
}

Hlc
HlcClock::tick()
{
    return tick(unixTimeMs());
}

Hlc
HlcClock::tick(std::int64_t physMs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (physMs > wallMs_) {
        wallMs_ = physMs;
        counter_ = 0;
    } else {
        // Wall stalled (or ran backwards — skew, NTP step): the
        // counter keeps stamps strictly increasing regardless.
        ++counter_;
    }
    return Hlc{wallMs_, counter_, origin_};
}

Hlc
HlcClock::observe(const Hlc &remote)
{
    return observe(remote, unixTimeMs());
}

Hlc
HlcClock::observe(const Hlc &remote, std::int64_t physMs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::int64_t merged =
        std::max({physMs, wallMs_, remote.wallMs});
    if (merged == wallMs_ && merged == remote.wallMs)
        counter_ = std::max(counter_, remote.counter) + 1;
    else if (merged == wallMs_)
        ++counter_;
    else if (merged == remote.wallMs)
        counter_ = remote.counter + 1;
    else
        counter_ = 0;
    wallMs_ = merged;
    return Hlc{wallMs_, counter_, origin_};
}

Hlc
HlcClock::last() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return Hlc{wallMs_, std::max<std::int64_t>(counter_, 0), origin_};
}

// ------------------------------------------------------------ events

JsonValue
eventToJson(const SweepEvent &event)
{
    JsonValue out = JsonValue::object();
    out.set("hlc", hlcToJson(event.hlc));
    out.set("type", JsonValue(event.type));
    out.set("worker", JsonValue(event.worker));
    out.set("job", JsonValue(event.job));
    out.set("detail", event.detail.isObject() ? event.detail
                                              : JsonValue::object());
    return out;
}

bool
decodeEventLine(const std::string &line, SweepEvent &event,
                std::string *reason)
{
    JsonValue parsed;
    if (decodeCrcJson(line, parsed, reason) != CrcStatus::Ok)
        return false;
    try {
        SweepEvent decoded;
        decoded.hlc = hlcFromJson(parsed.at("hlc"));
        decoded.type = parsed.at("type").asString();
        decoded.worker = parsed.at("worker").asString();
        decoded.job = parsed.at("job").asString();
        decoded.detail = parsed.at("detail");
        event = std::move(decoded);
        return true;
    } catch (const std::exception &e) {
        if (reason)
            *reason = std::string("invalid event: ") + e.what();
        return false;
    }
}

// ------------------------------------------------------------ writer

EventLog &
EventLog::instance()
{
    static EventLog log;
    return log;
}

void
EventLog::open(const std::string &sweepDir, const std::string &id)
{
    const std::string workerId = sanitizeFileToken(id);
    const std::string origin =
        workerId + "-p" + std::to_string(::getpid());
    const std::string path = sweepEventPath(sweepDir, origin);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (path_ == path)
            return;
        if (!buffer_.empty())
            flushLocked(); // retarget: the old journal keeps its tail
        path_ = path;
        workerId_ = workerId;
        origin_ = origin;
    }
    std::error_code ec;
    std::filesystem::create_directories(sweepEventDir(sweepDir), ec);
    // Claim/health stamps must carry the same identity as the
    // journal, or the handoff ordering would be unattributable.
    HlcClock::instance().setOrigin(origin);
}

void
EventLog::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!buffer_.empty())
        flushLocked();
    path_.clear();
    workerId_.clear();
    origin_.clear();
    buffer_.clear();
    bufferedLines_ = 0;
}

bool
EventLog::enabled() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return !path_.empty();
}

Hlc
EventLog::emit(const std::string &type, const std::string &job,
               JsonValue detail)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (path_.empty())
        return Hlc{};
    SweepEvent event;
    event.hlc = HlcClock::instance().tick();
    event.hlc.origin = origin_;
    event.type = type;
    event.worker = workerId_;
    event.job = job;
    event.detail = std::move(detail);

    buffer_ += crcStampedLine(eventToJson(event));
    buffer_ += '\n';
    ++bufferedLines_;
    eventMetrics().emitted.inc();
    if (bufferedLines_ >= kAutoFlushLines)
        flushLocked();
    return event.hlc;
}

bool
EventLog::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return flushLocked();
}

bool
EventLog::flushLocked()
{
    if (path_.empty() || buffer_.empty())
        return true;
    std::string batch;
    batch.swap(buffer_);
    const std::size_t lines = bufferedLines_;
    bufferedLines_ = 0;
    try {
        if (const FaultHit hit = FAULT_POINT("event.append")) {
            if (hit.action == FaultAction::FailErrno) {
                // Fail closed: the journal is observability — losing
                // a batch must never become a protocol failure.
                eventMetrics().flushFailures.inc();
                eventMetrics().droppedLines.inc(lines);
                return false;
            }
            if (hit.action == FaultAction::TornWrite) {
                appendTextDurable(
                    path_, batch.substr(0, hit.tornPrefix(
                                               batch.size())));
                eventMetrics().flushes.inc();
                return true; // writer believes it succeeded
            }
        }
        appendTextDurable(path_, batch);
        eventMetrics().flushes.inc();
        return true;
    } catch (const std::exception &) {
        eventMetrics().flushFailures.inc();
        eventMetrics().droppedLines.inc(lines);
        return false;
    }
}

std::size_t
EventLog::buffered() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bufferedLines_;
}

// ------------------------------------------------------------ reader

std::vector<SweepEvent>
readEventJournal(const std::string &path, EventReadStats *stats)
{
    std::vector<SweepEvent> events;
    std::string text;
    if (!readTextFile(path, text))
        return events;
    if (stats)
        ++stats->files;
    const std::filesystem::path journal(path);
    const std::string quarantine =
        (journal.parent_path() / "quarantine" / journal.filename())
            .string();
    const auto decode = [&](std::size_t number, const std::string &line) {
        SweepEvent event;
        std::string reason;
        if (decodeEventLine(line, event, &reason)) {
            events.push_back(std::move(event));
            if (stats)
                ++stats->events;
        } else {
            quarantineLineOnce(path, quarantine, number, line, reason);
            if (stats)
                ++stats->corruptLines;
        }
    };
    std::size_t lineNumber = 0;
    forEachLine(text, lineNumber, /*completeOnly=*/false, decode);
    return events;
}

std::vector<SweepEvent>
readSweepEvents(const std::string &sweepDir, EventReadStats *stats)
{
    std::vector<SweepEvent> events;
    for (const std::string &path :
         sortedJsonlFiles(sweepEventDir(sweepDir))) {
        std::vector<SweepEvent> journal =
            readEventJournal(path, stats);
        events.insert(events.end(),
                      std::make_move_iterator(journal.begin()),
                      std::make_move_iterator(journal.end()));
    }
    sortEventsCausal(events);
    return events;
}

void
sortEventsCausal(std::vector<SweepEvent> &events)
{
    std::sort(events.begin(), events.end(),
              [](const SweepEvent &a, const SweepEvent &b) {
                  if (hlcLess(a.hlc, b.hlc))
                      return true;
                  if (hlcLess(b.hlc, a.hlc))
                      return false;
                  // Identical stamps can only come from pre-HLC or
                  // hand-built events; keep the order a pure function
                  // of content anyway.
                  if (a.type != b.type)
                      return a.type < b.type;
                  if (a.worker != b.worker)
                      return a.worker < b.worker;
                  if (a.job != b.job)
                      return a.job < b.job;
                  return a.detail.dump() < b.detail.dump();
              });
}

std::string
formatTimeline(std::vector<SweepEvent> events,
               const std::string &fingerprint)
{
    events.erase(std::remove_if(events.begin(), events.end(),
                                [&](const SweepEvent &e) {
                                    return e.job != fingerprint;
                                }),
                 events.end());
    sortEventsCausal(events);
    std::string out = "timeline for job " + fingerprint + ": "
        + std::to_string(events.size()) + " event(s)\n";
    for (const SweepEvent &event : events) {
        out += std::to_string(event.hlc.wallMs);
        out += '.';
        out += std::to_string(event.hlc.counter);
        out += ' ';
        out += event.hlc.origin;
        out += ' ';
        out += event.type;
        out += ' ';
        out += event.detail.dump();
        out += '\n';
    }
    return out;
}

} // namespace treevqa
