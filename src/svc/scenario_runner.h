/**
 * @file
 * ScenarioRunner: executes one ScenarioSpec as a checkpointed,
 * deterministic optimization job.
 *
 * The runner materializes the spec (problem -> task, ansatz,
 * ClusterObjective with the spec's EngineConfig, optimizer), then
 * drives the optimizer one stepBatch at a time against the objective's
 * parallel batched evaluation. Every random stream derives from the
 * spec seed alone (deriveScenarioSeed), so a job's result is a pure
 * function of its spec — independent of scheduler concurrency,
 * completion order, and of whether the run was interrupted:
 *
 *  - **Checkpointing.** Every spec.checkpointInterval iterations the
 *    full dynamic state — optimizer internals (saveState), the
 *    evaluation-noise RNG, the shot ledger balance, the loss
 *    trajectory and the best-so-far parameters — is serialized to a
 *    per-job file (atomic tmp+rename, keyed by the spec fingerprint)
 *    carrying a CRC32 self-check; the previous generation is rotated
 *    to `<path>.prev` as the last-good fallback.
 *  - **Resume.** When the checkpoint file exists, passes its CRC and
 *    matches the fingerprint, the runner restores it and continues; a
 *    corrupt current file falls back to `.prev`, and a job resumed
 *    from either generation reaches bit-identical final energies to
 *    an uninterrupted run, because JSON number round-trips are exact
 *    (common/json.h) and the iteration loop re-executes the same
 *    evaluation sequence.
 */

#ifndef TREEVQA_SVC_SCENARIO_RUNNER_H
#define TREEVQA_SVC_SCENARIO_RUNNER_H

#include <atomic>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "svc/scenario_spec.h"

namespace treevqa {

/** The persistent record of one scenario job. */
struct JobResult
{
    ScenarioSpec spec;
    std::string fingerprint;
    /** False when the run was halted before finishing (simulated
     * kill); halted jobs are not finalized and not recorded. */
    bool completed = false;
    /** True when the run continued from a checkpoint file. */
    bool resumed = false;
    /** True for a poison-job quarantine record: the job threw on
     * every attempt within the worker's retry budget and was recorded
     * as failed so the drain can finish (worker_daemon.h). Always
     * false on completed records. */
    bool failed = false;
    /** The last attempt's error, for failed records. */
    std::string errorMessage;
    /**
     * Failed attempts this record accounts for. Persisted on
     * failed=true records so the *fleet-wide* poison budget works: the
     * merged record view accumulates attempts across every worker's
     * failure records (JobResolution sums them), and any worker that
     * observes >= its --max-job-attempts cumulative attempts skips
     * the spec durably — one budget for the whole fleet, not one per
     * worker. At least 1 on every stored failed record (the decoder
     * rejects anything less); 0 elsewhere. */
    int attempts = 0;
    /** True when this failure was a hung-job timeout (the watchdog
     * killed or abandoned the attempt because the lease kept renewing
     * while progress stalled), not a thrown error. */
    bool timedOut = false;
    int iterations = 0;
    std::uint64_t shotsUsed = 0;
    /** Per-iteration noisy loss (the optimizer's view). */
    std::vector<double> trajectory;
    /** Lowest trajectory loss and the iterate that produced it. */
    double bestLoss = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> bestParams;
    /** Exact (noiseless) task energy at bestParams. */
    double finalEnergy = std::numeric_limits<double>::quiet_NaN();
    /** FCI reference and fidelity (NaN unless spec.computeReference). */
    double groundEnergy = std::numeric_limits<double>::quiet_NaN();
    double fidelity = std::numeric_limits<double>::quiet_NaN();
    /** Resolved SimBackend registry name the job executed on. */
    std::string backend;
    /** Wall time spent in this process (not restored on resume;
     * excluded from deterministic summaries). */
    double wallSeconds = 0.0;
};

/** Per-run knobs orthogonal to the spec. */
struct ScenarioRunOptions
{
    /** Checkpoint file path; empty disables checkpointing even when
     * the spec asks for an interval. */
    std::string checkpointPath;
    /**
     * Test/abort hook: stop (without finalizing, without deleting the
     * checkpoint) after this many iterations *in this call* — the
     * deterministic stand-in for a mid-job kill. 0 runs to
     * completion.
     */
    int haltAfterIterations = 0;
    /** Invoked after each durable checkpoint write (the CLI's
     * --abort-after-checkpoints hook). */
    std::function<void()> onCheckpoint;
    /**
     * Live progress surface: when non-null, the runner stores the
     * completed-iteration count here after every optimizer step. The
     * worker daemon's heartbeat thread reads it to stamp progress into
     * lease renewals (the hung-job watchdog's signal) and the health
     * snapshot. The runner only writes; it never reads the value back,
     * so sharing the atomic costs nothing determinism-wise.
     */
    std::atomic<std::int64_t> *progressCounter = nullptr;
    /**
     * Graceful-stop poll: checked after every iteration. When it
     * returns true the runner *seals* the job — writes a checkpoint at
     * the current iteration (even off the checkpointInterval grid) and
     * returns with completed=false — so a SIGTERM'd worker hands the
     * job to the next claimant at iteration granularity instead of
     * running to completion past its grace window. Resume from a
     * sealed checkpoint is bit-identical to an uninterrupted run.
     */
    std::function<bool()> shouldStop;
};

/** Execute one scenario job (resuming from its checkpoint if one
 * exists). Deterministic: the same spec always yields byte-identical
 * energy records at any thread-pool size. */
JobResult runScenario(const ScenarioSpec &spec,
                      const ScenarioRunOptions &options = {});

/** The little a progress view needs from a checkpoint file. */
struct CheckpointPeek
{
    std::string fingerprint;
    int iteration = 0;
};

/** Read a checkpoint's identity and progress without restoring it
 * (the `treevqa_run --status` view). nullopt when the file is absent
 * or unparseable. */
std::optional<CheckpointPeek> peekCheckpoint(const std::string &path);

} // namespace treevqa

#endif // TREEVQA_SVC_SCENARIO_RUNNER_H
