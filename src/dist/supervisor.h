/**
 * @file
 * Supervisor: the self-healing parent of a worker fleet draining one
 * sweep directory (CLI: tools/treevqa_supervisor.cpp).
 *
 * The supervisor fork/execs N copies of a worker command (appending
 * `--worker-id <slot-id>` so every child has a stable, restart-proof
 * identity), then runs a supervise loop until the sweep is drained or
 * a stop is requested:
 *
 *  - **Reap & restart.** Child exits are reaped with waitpid; an
 *    abnormal exit (signal, nonzero status) restarts the slot after an
 *    exponential backoff (restartBackoffMs, doubling per consecutive
 *    failure, capped at maxRestartBackoffMs). A clean exit before the
 *    sweep is drained — e.g. a worker bounded by --max-jobs — is a
 *    benign restart (backoff reset). Because slot ids are stable, a
 *    restarted child appends to the same shard and log, and resumes
 *    its predecessor's jobs from their checkpoints; the supervisor
 *    deletes claim files owned by a child it just reaped (the owner is
 *    provably dead), so the resume starts immediately instead of
 *    waiting out the lease.
 *  - **Crash-loop circuit breaker.** crashLoopBudget abnormal exits
 *    within crashLoopWindowMs *retire* the slot with a recorded reason
 *    instead of restarting it forever; the fleet keeps draining
 *    degraded. Watchdog kills are excluded from the window — a hung
 *    job is the job's fault, not the slot's.
 *  - **Hung-job watchdog.** Every poll the supervisor reads the claim
 *    files of its own children. A claim whose progress stamp
 *    (work_claim.h) has not advanced for jobTimeoutMs — while the
 *    deadline keeps being renewed, the live-heartbeat/dead-work
 *    signature — gets its owner SIGKILLed; the supervisor appends a
 *    failed=true, timedOut=true, attempts=1 record to its own shard
 *    (counting against the fleet-wide poison budget) and removes the
 *    dead child's claim so the job is immediately retryable.
 *  - **Shutdown cascade.** requestStop (the CLI's SIGTERM/SIGINT
 *    handler) forwards SIGTERM to every child, waits gracePeriodMs
 *    for them to seal their in-flight checkpoints and exit, then
 *    SIGKILLs stragglers. The same cascade runs when the sweep drains
 *    while daemon-mode children keep polling.
 *  - **Health.** The supervisor's telemetry file,
 *    `<dir>/metrics/supervisor-p<pid>.json` (dist/health.h fields
 *    plus a `slots` array, beside its metrics snapshot), is rewritten
 *    atomically every healthIntervalMs.
 *
 * Fault site "supervisor.spawn": the fork is skipped as if it failed
 * (EAGAIN), exercising the backoff/restart path without a real fork
 * bomb.
 */

#ifndef TREEVQA_DIST_SUPERVISOR_H
#define TREEVQA_DIST_SUPERVISOR_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "common/event_log.h"
#include "common/json.h"
#include "dist/store_tail.h"
#include "svc/scenario_spec.h"
#include "svc/sweep_index.h"

namespace treevqa {

struct SupervisorOptions
{
    /** The shared sweep directory (must contain sweep.json). */
    std::string sweepDir;
    /**
     * argv of the worker to spawn; `--worker-id <slot-id>` is
     * appended. The command must drain the sweep dir (normally
     * `treevqa_worker --sweep-dir <dir> ...`); tests substitute shell
     * stubs.
     */
    std::vector<std::string> workerCommand;
    /** Fleet size (worker slots). */
    int workers = 2;
    /** Slot ids are `<idPrefix>-w<k>`; must be a filesystem token. */
    std::string idPrefix = "sup";
    /** Base restart backoff after an abnormal exit; doubles per
     * consecutive failure of the slot. */
    std::int64_t restartBackoffMs = 200;
    std::int64_t maxRestartBackoffMs = 5000;
    /** Crash-loop circuit breaker: this many abnormal exits within
     * crashLoopWindowMs retires the slot. */
    int crashLoopBudget = 5;
    std::int64_t crashLoopWindowMs = 30000;
    /** External hung-job watchdog (0 = off): SIGKILL a child whose
     * claim progress stamp is frozen this long. */
    std::int64_t jobTimeoutMs = 0;
    /** The fleet-wide poison budget the drained check (and the
     * watchdog's timedOut records) count against; must match the
     * workers' --max-job-attempts. */
    int maxJobAttempts = 3;
    /** Supervise-loop cadence. */
    std::int64_t pollMs = 100;
    /** SIGTERM -> SIGKILL escalation window of the shutdown cascade. */
    std::int64_t gracePeriodMs = 3000;
    /** Redirect child stdout+stderr to `<dir>/logs/<slot-id>.log`
     * (append; survives restarts). */
    bool redirectChildLogs = true;
    /** Compact shards into the canonical store once drained (the
     * children usually already did; compaction is idempotent). */
    bool mergeOnDrain = true;
    /** Telemetry-file refresh cadence. */
    std::int64_t healthIntervalMs = 500;
};

struct SupervisorReport
{
    /** Successful child spawns (including restarts). */
    std::size_t spawns = 0;
    /** Restarts after any exit (benign or crash). */
    std::size_t restarts = 0;
    /** Abnormal child exits (signalled or nonzero status). */
    std::size_t crashes = 0;
    /** Hung children SIGKILLed by the watchdog. */
    std::size_t watchdogKills = 0;
    /** timedOut=true failure records the watchdog appended. */
    std::size_t timeoutRecords = 0;
    /** Slots retired by the crash-loop circuit breaker, as
     * "<slot-id>: <reason>". */
    std::vector<std::string> retiredSlots;
    /** Every job in the sweep had a resolving record when we left. */
    bool drained = false;
    /** This process wrote the final shard compaction (false when its
     * load raced a peer moving inputs: SweepMergeStats::raced). */
    bool merged = false;
    /** A stop was requested before the sweep drained. */
    bool stoppedEarly = false;
};

/** One supervise() run over a sweep directory. Not reusable. */
class Supervisor
{
  public:
    /** Validates options (throws std::invalid_argument). */
    explicit Supervisor(SupervisorOptions options);

    const SupervisorOptions &options() const { return options_; }

    /** Spawn the fleet and supervise until drained or stopped. */
    SupervisorReport run();

    /** Trigger the shutdown cascade (signal-safe: sets an atomic). */
    void requestStop() { stop_.store(true); }

  private:
    struct Slot
    {
        std::string id;
        pid_t pid = -1; // -1: not running
        /** Next spawn is allowed at this steady-clock ms (backoff). */
        std::int64_t notBeforeMs = 0;
        std::int64_t backoffMs = 0;
        /** Steady-clock ms of recent abnormal exits (the crash-loop
         * window). */
        std::vector<std::int64_t> crashTimesMs;
        int restarts = 0;
        int crashes = 0;
        bool retired = false;
        std::string retireReason;
        /** HLC stamp of the last supervision event recorded for this
         * slot (spawn/crash/restart/kill); shown in supervisor.json so
         * operators can line the slot state up against `--events`. */
        Hlc lastHlc;
    };

    /** Per-claim watchdog bookkeeping. */
    struct ProgressWatch
    {
        std::int64_t progress = -2; // -2: never observed
        std::int64_t sinceMs = 0;   // steady ms the stamp last changed
    };

    bool spawnSlot(Slot &slot, std::int64_t nowMs);
    void reapSlots(std::int64_t nowMs, bool drained);
    void watchdogScan(std::int64_t nowMs);
    void shutdownCascade();
    bool sweepDrained();
    void publishSupervisorHealth(const std::string &state);
    JsonValue slotsJson() const;

    SupervisorOptions options_;
    std::atomic<bool> stop_{false};
    std::vector<Slot> slots_;
    SupervisorReport report_;
    std::int64_t startedUnixMs_ = 0;
    std::vector<std::pair<std::string, ProgressWatch>> watches_;
    /**
     * The drained check runs every poll (default 100 ms); a full
     * re-expansion + merged-record load per poll is O(N) work that
     * dwarfs supervision at 10^5+ jobs. The index re-expands only
     * when sweep.json changes and the tail reader parses only
     * appended record bytes; a drained-looking tail view is confirmed
     * once per job-list generation by an authoritative full load
     * (StoreTailReader::confirmByFullLoad). The index also serves the
     * watchdog's fingerprint → spec lookups. Lazily created (the sweep
     * dir must exist first).
     */
    std::unique_ptr<SweepIndex> index_;
    std::unique_ptr<StoreTailReader> tail_;
};

} // namespace treevqa

#endif // TREEVQA_DIST_SUPERVISOR_H
