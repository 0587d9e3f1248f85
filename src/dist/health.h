/**
 * @file
 * Machine-readable fleet health surface.
 *
 * Every process working on a sweep — each worker daemon and the
 * supervisor — writes one telemetry file per process incarnation,
 * `<sweep>/metrics/<id>-p<pid>.json` (sweep_dir.h layout): its health
 * fields beside its metrics registry snapshot, in one atomic write.
 * A worker writes it on each heartbeat beat, after each job's record
 * append, and when it turns idle, draining or stopped; per-job
 * "running"/attempt transitions only update memory and reach disk
 * with the next beat. The files are *observability, not
 * coordination*: nothing in the claim/lease protocol reads them, a
 * missing or stale file never blocks progress, and a write failure
 * is tolerated (fault site "health.write"), so the health surface
 * cannot turn a monitoring hiccup into a sweep outage.
 *
 * `treevqa_run --health <dir>` reads the newest incarnation of each
 * id and aggregates them into one fleet view (aggregateHealthJson):
 * per-process rows sorted by id with wall-clock staleness, plus fleet
 * totals of jobs completed / failed / timed out. Staleness is the
 * reader's problem by design — writers stamp `updatedMs` and the
 * aggregator subtracts, so a crashed worker shows up as a growing
 * `staleMs`, not as absence of evidence. `treevqa_run --metrics`
 * reads the same files and sums every incarnation.
 */

#ifndef TREEVQA_DIST_HEALTH_H
#define TREEVQA_DIST_HEALTH_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/event_log.h"
#include "common/json.h"

namespace treevqa {

/** One process's self-reported health snapshot. */
struct WorkerHealth
{
    /** The snapshot's identity (worker id, or the supervisor's). */
    std::string id;
    std::int64_t pid = 0;
    /** "worker" or "supervisor". */
    std::string role = "worker";
    /** Coarse lifecycle state: "starting", "idle", "running",
     * "draining", "stopped" for workers; "supervising", "shutting-down"
     * for the supervisor. Free-form by design — the aggregator only
     * groups by it. */
    std::string state = "starting";
    /** Process start and snapshot times (Unix ms). */
    std::int64_t startedMs = 0;
    std::int64_t updatedMs = 0;
    /** The in-flight job, when state == "running". */
    std::string jobFingerprint;
    std::string jobName;
    /** The job's monotonic progress counter (optimizer iteration);
     * -1 when no progress has been reported. */
    std::int64_t jobProgress = -1;
    /** 1-based retry attempt of the in-flight job. */
    int jobAttempt = 0;
    /** Lifetime counters for this process. */
    std::int64_t jobsCompleted = 0;
    std::int64_t jobsFailed = 0;
    std::int64_t jobsTimedOut = 0;
    /** Resident set size in KiB (/proc/self/statm); -1 when the
     * platform does not expose it. */
    std::int64_t rssKb = -1;
    /** The writer's declared snapshot cadence in ms; lets the
     * aggregator flag a snapshot older than 2× the cadence as stale
     * (a crashed or wedged writer) instead of leaving staleness
     * interpretation to the reader. */
    std::int64_t flushIntervalMs = 0;
    /** The writer's hybrid-logical-clock stamp at the write
     * (common/event_log.h); readers observe() it so cross-process
     * views order causally, not by skewed wall clocks. */
    Hlc hlc;
};

JsonValue healthToJson(const WorkerHealth &health);
WorkerHealth healthFromJson(const JsonValue &json);

/** This process's resident set size in KiB via /proc/self/statm;
 * -1 when unavailable. */
std::int64_t currentRssKb();

/**
 * Atomically write this process incarnation's telemetry file,
 * `<sweepDir>/metrics/<id>-p<pid>.json`: the fields of `health`
 * (stamped with `updatedMs` = now, `rssKb` and an HLC tick), the
 * metrics registry snapshot, and every member of `extra` (an object,
 * e.g. the supervisor's slot table; null = none). Best effort:
 * returns false — never throws — when the write fails (fault site
 * "health.write" fail-errno, unwritable directory).
 */
bool writeTelemetrySnapshot(const std::string &sweepDir,
                            WorkerHealth health,
                            const JsonValue &extra = JsonValue());

/** The health rows of the telemetry files under `<sweepDir>/metrics/`,
 * one per id — the newest incarnation (largest `startedMs`, then
 * `pid`), so a restarted slot shows once — sorted by id. Unparseable
 * files are skipped (a torn file is replaced by its writer's next
 * write). */
std::vector<WorkerHealth> readHealthSnapshots(const std::string &sweepDir);

/**
 * The `treevqa_run --health` document: per-process rows (sorted by
 * id, each with `staleMs` = nowMs - updatedMs) plus fleet totals —
 * process counts by state and summed job counters.
 */
JsonValue aggregateHealthJson(const std::vector<WorkerHealth> &snapshots,
                              std::int64_t nowMs);

} // namespace treevqa

#endif // TREEVQA_DIST_HEALTH_H
