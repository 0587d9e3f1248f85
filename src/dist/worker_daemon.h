/**
 * @file
 * WorkerDaemon: the scan→claim→run→record loop that lets N independent
 * processes (possibly on different hosts sharing a filesystem)
 * cooperatively drain one sweep directory.
 *
 * Each round the daemon refreshes the sweep's job list (SweepIndex:
 * parsed and fingerprinted once, re-expanded only when sweep.json
 * actually changes), brings its incremental merged-record view up to
 * date (StoreTailReader: per-file byte cursors, only appended lines
 * parsed; a full rescan is the fallback after compaction or any
 * cursor invalidation), and walks the
 * still-unrecorded jobs in a worker-specific rotation (so a fleet
 * doesn't stampede the same claim file). It claims up to `claimBatch`
 * jobs per pass (WorkClaim) and runs them back to back under one
 * heartbeat thread that renews every held lease round-robin — so the
 * per-job claim traffic is one acquire and one release amortized over
 * a batch, not one scan each. Each job drives the existing
 * checkpointed ScenarioRunner — a job interrupted by a crashed worker
 * resumes from that worker's last checkpoint — and its record is
 * appended to this worker's private JSONL shard
 * (`<dir>/workers/<id>.jsonl`; per-worker files make cross-process
 * append interleaving impossible). With `shardRollBytes` set the
 * shard is sealed into a `tiers/` L0 file once it passes the
 * threshold and same-level tiers are folded `tierFanout`-to-1
 * (store_merge.h), keeping the file set a reader must visit O(log) in
 * records. When the incremental view says the sweep is drained, one
 * authoritative full-merge load confirms it (the incremental view is
 * an optimization, never the drain proof); then the daemon compacts
 * everything into the canonical store and summary.
 *
 * A job that throws is retried within a per-job budget
 * (maxJobAttempts, exponential backoff); when the budget is spent the
 * job is quarantined as *poison* — a failed=true record is appended
 * so the sweep can drain around a defective spec instead of wedging
 * or killing the fleet. The budget is **fleet-wide**: failed records
 * persist the attempt count they account for, the record fold
 * (JobResolution) sums counts across workers' records, and every
 * worker treats a job as poison-resolved once the *cumulative*
 * attempts reach its own maxJobAttempts — so a defective spec costs
 * at most maxJobAttempts attempts across the whole fleet, not that
 * many per worker. A worker claiming a job with prior recorded
 * failures only spends the remaining budget.
 *
 * Liveness watchdog: the heartbeat thread stamps a batch-wide
 * monotonic progress tick (advanced whenever the running job's
 * optimizer iteration moves) into every lease renewal, so queued
 * claims of a live worker keep advancing and only a genuine wedge
 * freezes them. With jobTimeoutMs set, leases whose renewals keep
 * landing while progress stays frozen past the timeout are a *hung*
 * batch — the heartbeat stops renewing (abandoning every lease so
 * other workers can reap them) and the attempt is reported as timed
 * out. The fleet supervisor (dist/supervisor.h) watches the same
 * progress stamps from outside and SIGKILLs the wedged process.
 *
 * Each worker also writes one telemetry file per process incarnation
 * (`<dir>/metrics/<id>-p<pid>.json`, dist/health.h: health fields
 * beside the metrics snapshot) on every heartbeat beat, after every
 * job's record append, and when it turns idle, draining or stopped.
 * The per-job "running" and attempt transitions only update the
 * in-memory snapshot, which the next beat writes — pure
 * observability, never read by the protocol.
 *
 * Determinism: jobs are pure functions of their specs, so any worker
 * count, any claim batch size, any roll/fold schedule and any kill
 * schedule produce the same final energies — bit-identical, timing
 * excluded, to a single-process JobScheduler run (tests/test_dist.cpp
 * and the CI smoke jobs enforce this).
 */

#ifndef TREEVQA_DIST_WORKER_DAEMON_H
#define TREEVQA_DIST_WORKER_DAEMON_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "dist/health.h"
#include "dist/store_tail.h"
#include "dist/work_claim.h"
#include "svc/scenario_runner.h"

namespace treevqa {

/** Worker configuration (CLI: tools/treevqa_worker.cpp). */
struct WorkerOptions
{
    /** The shared sweep directory (see svc/sweep_dir.h layout). */
    std::string sweepDir;
    /** Identity written into claims and the shard filename; must be a
     * filesystem-safe token, unique per worker process (default:
     * "<host>-<pid>"). */
    std::string workerId;
    /** Lease duration; a crashed worker's claim becomes reapable this
     * long after its last heartbeat. Must dominate host clock skew. */
    std::int64_t leaseMs = 30000;
    /** Stop after completing this many jobs (0 = unbounded). */
    int maxJobs = 0;
    /** True: exit once every job has a record (waiting out live
     * leases of other workers). False: keep polling for new work —
     * run() re-checks sweep.json each round (one stat when
     * unchanged), so appending scenarios to the request document
     * feeds a running fleet. */
    bool drainAndExit = true;
    /** Idle wait between scan rounds when nothing was claimable. */
    std::int64_t pollMs = 200;
    /** Compact shards/tiers into the canonical store + summary.json
     * after draining (idempotent; concurrent drained workers may race
     * harmlessly). */
    bool mergeOnDrain = true;
    /** Per-job retry budget: a job that throws is retried (with
     * exponential backoff) up to this many total attempts — counted
     * across the whole fleet via attempt-carrying failed records —
     * then quarantined as a poison job: recorded with failed=true so
     * the drain can finish instead of wedging on a defective spec. */
    int maxJobAttempts = 3;
    /** Base backoff between attempts of a throwing job; attempt k
     * waits retryBackoffMs << (k-1). */
    std::int64_t retryBackoffMs = 50;
    /** Tolerated reaper/owner wall-clock skew for stale-lease
     * takeover (work_claim.h: claimIsStale). */
    std::int64_t skewGraceMs = kClaimSkewGraceMs;
    /**
     * Jobs leased per scan pass. A worker acquires up to this many
     * claims in one walk over the pending set, then runs them back to
     * back under a single heartbeat, so claim-file round-trips per
     * drained job stay O(1) instead of one scan pass each. 1
     * degenerates to the pre-batching claim-per-scan behavior.
     */
    int claimBatch = 8;
    /**
     * Roll (seal) this worker's private shard into a `tiers/` L0 file
     * once it exceeds this many bytes, then fold tiers `tierFanout`-
     * to-1 (store_merge.h: rollShardToTier / maintainTiers). 0
     * disables rolling — the right default below ~10^4 jobs, where
     * one shard per worker stays cheap to tail.
     */
    std::int64_t shardRollBytes = 0;
    /** Tier fold arity: fold a level once it accumulates this many
     * files (min 2; only meaningful with shardRollBytes > 0). */
    int tierFanout = 8;
    /**
     * Crash simulation for tests: halt the current job after this
     * many iterations *without* finalizing, releasing any claim
     * (including the rest of the batch), or continuing the loop — the
     * on-disk state (stale claims + durable checkpoint) is exactly
     * what a SIGKILL at that instant leaves.
     */
    int haltJobsAfterIterations = 0;
    /** Invoked after each durable checkpoint write (the worker CLI's
     * --sigkill-after-checkpoints hook). */
    std::function<void()> onCheckpoint;
    /**
     * In-process hung-job watchdog (0 = disabled): when the job's
     * progress counter stays frozen this long while the heartbeat
     * thread is alive, the heartbeat *stops renewing* — abandoning
     * every held lease so other workers can reap the batch — and the
     * attempt is reported as timed out. Must comfortably exceed the
     * wall time of one optimizer iteration. The supervisor enforces
     * the same timeout from outside with a SIGKILL
     * (dist/supervisor.h).
     */
    std::int64_t jobTimeoutMs = 0;
    /** Write the per-incarnation telemetry file under
     * `<dir>/metrics/` (dist/health.h). Off only for benchmarks that
     * measure the loop itself. */
    bool healthSnapshots = true;
    /**
     * Replace runScenario as the job body (benchmarks: synthetic
     * no-op jobs that measure the claim path itself, not the
     * simulator). The returned record is appended verbatim; it must
     * carry the given spec and fingerprint. Null = run the real
     * scenario runner.
     */
    std::function<JobResult(const ScenarioSpec &,
                            const ScenarioRunOptions &)>
        jobRunner;
};

/**
 * Deterministic per-worker idle-poll jitter: pollMs scaled into
 * [0.75, 1.25] by a stable hash of the worker id (never below 1 ms).
 * A fleet started in lockstep — exactly what the supervisor does —
 * would otherwise re-scan the sweep in synchronized bursts forever;
 * the per-identity skew spreads the filesystem load without any
 * nondeterminism. Exposed for tests.
 */
std::int64_t jitteredPollMs(std::int64_t pollMs,
                            const std::string &workerId);

/** What one run() accomplished. */
struct WorkerReport
{
    /** Jobs this worker ran to completion and recorded. */
    std::size_t completed = 0;
    /** Of those, jobs resumed from another (or a previous) worker's
     * checkpoint. */
    std::size_t resumed = 0;
    /** Stale leases taken over from crashed workers. */
    std::size_t reapedLeases = 0;
    /** Jobs whose lease was lost mid-run; their records were
     * discarded (the reaper produces bit-identical ones). */
    std::size_t lostClaims = 0;
    /** Job attempts that threw and were retried (or gave up). */
    std::size_t failedAttempts = 0;
    /** Poison jobs quarantined: every attempt in the (remaining
     * fleet-wide) budget threw, so a failed=true record carrying the
     * attempt count was appended. */
    std::size_t poisoned = 0;
    /** Jobs abandoned by the in-process hung-job watchdog: progress
     * stalled past jobTimeoutMs, the leases were dropped for a
     * reaper. */
    std::size_t timedOut = 0;
    /** Jobs sealed mid-run by a graceful stop (requestStop): the
     * checkpoint was written at the current iteration and the claims
     * released, so the next claimant resumes bit-identically. */
    std::size_t interrupted = 0;
    /** Every job in the sweep had a resolving record (completed or
     * poison-quarantined) when we left. */
    bool drained = false;
    /** This worker wrote the shard compaction (false when its load
     * raced a peer moving inputs: SweepMergeStats::raced). */
    bool merged = false;
    /** The haltJobsAfterIterations hook fired. */
    bool simulatedCrash = false;

    // Claim-path cost counters (the dist_throughput bench currency).
    /** Scan rounds over the pending set. */
    std::size_t scanRounds = 0;
    /** WorkClaim::tryAcquire round-trips (successful or not). */
    std::size_t claimAttempts = 0;
    /** Store bytes read building record views: tail appends
     * consumed (each store byte once, plus one full rescan per cursor
     * invalidation) and the drain-confirming full loads. */
    std::uint64_t storeBytesRead = 0;
    /** Tail-reader cursor invalidations that forced a full rescan. */
    std::uint64_t fullRescans = 0;
    /** Times the sweep cross-product was (re-)expanded. */
    std::uint64_t specExpansions = 0;
    /** Private-shard rolls into L0 tiers. */
    std::size_t shardRolls = 0;
    /** Tier folds performed by this worker. */
    std::size_t tierFolds = 0;
};

/** One worker process's drain loop over a shared sweep directory. */
class WorkerDaemon
{
  public:
    /** Validates options (throws std::invalid_argument on an empty
     * sweep dir or a non-token worker id). */
    explicit WorkerDaemon(WorkerOptions options);

    const WorkerOptions &options() const { return options_; }

    /** Parse `<sweepDir>/sweep.json` and expand it into the job list.
     * Throws std::runtime_error when the file is missing. */
    static std::vector<ScenarioSpec>
    loadSweepSpecs(const std::string &sweepDir);

    /** Drain loop over the sweep.json job list (re-checked every scan
     * round in daemon mode; re-expanded only on change). */
    WorkerReport run();

    /** Drain loop over a fixed job list (tests, benches). */
    WorkerReport run(const std::vector<ScenarioSpec> &specs);

    /** Ask the loop to stop (signal-safe: only sets an atomic flag).
     * A job in flight is *sealed*, not finished: the runner writes a
     * checkpoint at its current iteration, every held claim is
     * released, and no record is appended — the next claimant resumes
     * exactly there. */
    void requestStop() { stop_.store(true); }

  private:
    /** One claim gathered into the current batch. */
    struct BatchSlot
    {
        std::size_t index = 0;
        WorkClaim claim;
        int priorAttempts = 0;
        /** Job finished (claim released/abandoned); heartbeat must
         * not touch the claim anymore. */
        bool done = false;
        /** Lease lost (renewal failed or watchdog abandoned it). */
        bool lost = false;
    };

    /** The fixed-for-one-round job list a scan operates on. */
    struct JobSet
    {
        const std::vector<ScenarioSpec> *specs = nullptr;
        const std::vector<std::string> *fingerprints = nullptr;
        std::uint64_t expansions = 0;
    };

    enum class JobOutcome
    {
        Completed,
        LostClaim,
        SimulatedCrash,
        /** Every attempt threw; a failed=true record was appended. */
        Poisoned,
        /** The in-process watchdog abandoned every held lease:
         * progress stalled past jobTimeoutMs. No record; reapers
         * rerun. */
        TimedOut,
        /** requestStop sealed the job mid-run (checkpoint written,
         * claims released, no record). */
        Interrupted
    };

    WorkerReport runLoop(const std::function<JobSet()> &source);
    /** The scan/claim/run rounds; split out so runLoop can fold the
     * tail-reader counters into the report on every exit path. */
    WorkerReport scanLoop(const std::function<JobSet()> &source,
                          StoreTailReader &tail);
    JobOutcome runClaimedBatch(const JobSet &jobs,
                               std::vector<BatchSlot> &batch,
                               WorkerReport &report);
    /** Append `record` to this worker's shard and roll/fold when past
     * the size threshold. */
    void appendToShard(const JobResult &record, WorkerReport &report);
    /** Mutate the in-memory health snapshot under its lock; the next
     * publishHealth (beat, completion or idle) writes it. */
    void updateHealth(const std::function<void(WorkerHealth &)> &fn);
    /** updateHealth, then write the telemetry file and flush the
     * event journal (best-effort; no-op when healthSnapshots is
     * off). */
    void publishHealth(const std::function<void(WorkerHealth &)> &fn);

    WorkerOptions options_;
    std::atomic<bool> stop_{false};
    std::mutex healthMutex_;
    WorkerHealth health_;
    /** Fingerprints this process poison-quarantined. Liveness guard:
     * the scan treats them as resolved even if the appended poison
     * record cannot be re-loaded (e.g. its spec no longer passes
     * validation), so a drain can never loop on re-running a job
     * this process has already given up on. */
    std::set<std::string> poisoned_;
    /** Roll sequence base: unique across restarts of one worker id so
     * a roll never renames onto a previous incarnation's tier. */
    std::uint64_t rollSeq_ = 0;
};

} // namespace treevqa

#endif // TREEVQA_DIST_WORKER_DAEMON_H
