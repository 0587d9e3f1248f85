#include "dist/health.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include <unistd.h>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "svc/sweep_dir.h"

namespace treevqa {

JsonValue
healthToJson(const WorkerHealth &health)
{
    JsonValue out = JsonValue::object();
    out.set("id", JsonValue(health.id));
    out.set("pid", JsonValue(health.pid));
    out.set("role", JsonValue(health.role));
    out.set("state", JsonValue(health.state));
    out.set("startedMs", JsonValue(health.startedMs));
    out.set("updatedMs", JsonValue(health.updatedMs));
    out.set("uptimeMs",
            JsonValue(std::max<std::int64_t>(
                0, health.updatedMs - health.startedMs)));
    out.set("jobFingerprint", JsonValue(health.jobFingerprint));
    out.set("jobName", JsonValue(health.jobName));
    out.set("jobProgress", JsonValue(health.jobProgress));
    out.set("jobAttempt",
            JsonValue(static_cast<std::int64_t>(health.jobAttempt)));
    out.set("jobsCompleted", JsonValue(health.jobsCompleted));
    out.set("jobsFailed", JsonValue(health.jobsFailed));
    out.set("jobsTimedOut", JsonValue(health.jobsTimedOut));
    out.set("rssKb", JsonValue(health.rssKb));
    out.set("flushIntervalMs", JsonValue(health.flushIntervalMs));
    out.set("hlc", hlcToJson(health.hlc));
    return out;
}

WorkerHealth
healthFromJson(const JsonValue &json)
{
    WorkerHealth health;
    health.id = json.at("id").asString();
    health.pid = json.at("pid").asInt();
    health.role = json.at("role").asString();
    health.state = json.at("state").asString();
    health.startedMs = json.at("startedMs").asInt();
    health.updatedMs = json.at("updatedMs").asInt();
    health.jobFingerprint = json.at("jobFingerprint").asString();
    health.jobName = json.at("jobName").asString();
    health.jobProgress = json.at("jobProgress").asInt();
    health.jobAttempt = static_cast<int>(json.at("jobAttempt").asInt());
    health.jobsCompleted = json.at("jobsCompleted").asInt();
    health.jobsFailed = json.at("jobsFailed").asInt();
    health.jobsTimedOut = json.at("jobsTimedOut").asInt();
    health.rssKb = json.at("rssKb").asInt();
    health.flushIntervalMs = json.at("flushIntervalMs").asInt();
    health.hlc = hlcFromJson(json.at("hlc"));
    return health;
}

std::int64_t
currentRssKb()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return -1;
    long long size_pages = 0, rss_pages = 0;
    const int fields = std::fscanf(f, "%lld %lld", &size_pages,
                                   &rss_pages);
    std::fclose(f);
    if (fields != 2)
        return -1;
    const long page = sysconf(_SC_PAGESIZE);
    if (page <= 0)
        return -1;
    return static_cast<std::int64_t>(rss_pages) * (page / 1024);
}

bool
writeTelemetrySnapshot(const std::string &sweepDir, WorkerHealth health,
                       const JsonValue &extra)
{
    health.updatedMs = unixTimeMs();
    health.rssKb = currentRssKb();
    health.hlc = HlcClock::instance().tick();
    try {
        if (const FaultHit hit = FAULT_POINT("health.write"))
            if (hit.action == FaultAction::FailErrno)
                return false; // monitoring must never kill the worker
        JsonValue out = healthToJson(health);
        out.set("schemaVersion", JsonValue(std::int64_t{1}));
        JsonValue snap =
            MetricsRegistry::instance().snapshot().toJson();
        for (auto &[key, value] : snap.asObject())
            out.set(key, std::move(value));
        if (extra.isObject())
            for (const auto &[key, value] : extra.asObject())
                out.set(key, value);
        std::filesystem::create_directories(sweepMetricsDir(sweepDir));
        // The pid in the name gives each incarnation its own file, so
        // a restarted slot never erases its predecessor's totals.
        writeTextFileAtomic(
            sweepMetricsPath(sweepDir, health.id + "-p"
                                           + std::to_string(health.pid)),
            out.dump(2) + "\n");
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

std::vector<WorkerHealth>
readHealthSnapshots(const std::string &sweepDir)
{
    std::vector<WorkerHealth> snapshots;
    for (const auto &[token, dump] : readMetricsDumps(sweepDir)) {
        WorkerHealth health;
        try {
            health = healthFromJson(dump);
        } catch (const std::exception &) {
            continue; // not a health-bearing file
        }
        HlcClock::instance().observe(health.hlc);
        snapshots.push_back(std::move(health));
    }
    // Newest incarnation per id last, then keep only that one.
    std::sort(snapshots.begin(), snapshots.end(),
              [](const WorkerHealth &a, const WorkerHealth &b) {
                  if (a.id != b.id)
                      return a.id < b.id;
                  if (a.startedMs != b.startedMs)
                      return a.startedMs < b.startedMs;
                  return a.pid < b.pid;
              });
    std::vector<WorkerHealth> newest;
    for (std::size_t i = 0; i < snapshots.size(); ++i)
        if (i + 1 == snapshots.size()
            || snapshots[i + 1].id != snapshots[i].id)
            newest.push_back(std::move(snapshots[i]));
    return newest;
}

JsonValue
aggregateHealthJson(const std::vector<WorkerHealth> &snapshots,
                    std::int64_t nowMs)
{
    JsonValue out = JsonValue::object();
    JsonValue rows = JsonValue::array();
    JsonValue states = JsonValue::object();
    std::int64_t completed = 0, failed = 0, timed_out = 0;
    std::int64_t stale_workers = 0;
    for (const WorkerHealth &h : snapshots) {
        const std::int64_t stale_ms =
            std::max<std::int64_t>(0, nowMs - h.updatedMs);
        // A snapshot older than 2× its writer's declared cadence
        // means the writer missed at least one beat: crashed, wedged,
        // or SIGKILLed.
        const bool stale = stale_ms > 2 * h.flushIntervalMs;
        JsonValue row = healthToJson(h);
        row.set("staleMs", JsonValue(stale_ms));
        row.set("staleSeconds",
                JsonValue(static_cast<double>(stale_ms) / 1000.0));
        row.set("stale", JsonValue(stale));
        if (stale)
            ++stale_workers;
        rows.push_back(std::move(row));
        const std::int64_t prior = states.contains(h.state)
            ? states.at(h.state).asInt()
            : 0;
        states.set(h.state, JsonValue(prior + 1));
        completed += h.jobsCompleted;
        failed += h.jobsFailed;
        timed_out += h.jobsTimedOut;
    }
    out.set("processes",
            JsonValue(static_cast<std::uint64_t>(snapshots.size())));
    out.set("staleWorkers", JsonValue(stale_workers));
    out.set("states", std::move(states));
    out.set("jobsCompleted", JsonValue(completed));
    out.set("jobsFailed", JsonValue(failed));
    out.set("jobsTimedOut", JsonValue(timed_out));
    out.set("workers", std::move(rows));
    return out;
}

} // namespace treevqa
