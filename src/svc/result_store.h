/**
 * @file
 * ResultStore: the append-only JSONL record of scenario jobs, plus the
 * aggregate sweep summary.
 *
 * Each completed job appends exactly one JSON object per line (spec +
 * fingerprint, energy trajectory, evaluation counts, wall time,
 * backend) stamped by the CRC line codec (common/crc_line.h), so a
 * torn or corrupted line is *detected*, never silently half-parsed.
 * Lines are written under a mutex through the durable append path
 * (file_util: torn-line sealing, EINTR retries, fsync), so a killed
 * sweep loses at most the line being written; load() quarantines any
 * line that fails to parse, fails its CRC, or whose stored
 * fingerprint contradicts its spec, copying it to
 * `<dir>/quarantine/<store-file>` (once per process) and skipping it
 * — which together with the scheduler's fingerprint skip makes the
 * store the job-level resume ledger: a quarantined record's job
 * simply reruns.
 *
 * Line *order* is completion order (nondeterministic under a
 * concurrent scheduler); record *content* is deterministic except for
 * wallSeconds. sweepSummaryJson() is the canonical deterministic
 * view: records sorted by job name with timing excluded — two runs of
 * the same sweep must produce byte-identical summaries.
 */

#ifndef TREEVQA_SVC_RESULT_STORE_H
#define TREEVQA_SVC_RESULT_STORE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "svc/scenario_runner.h"

namespace treevqa {

/** JobResult <-> one JSONL record (without the "crc" member). */
JsonValue jobResultToJson(const JobResult &result);
JobResult jobResultFromJson(const JsonValue &json);

/** The canonical stored line for a record: its JSON serialization
 * CRC-stamped (crcStampedLine, no newline). Append and compaction
 * both write this form. */
std::string jobResultToStoredLine(const JobResult &result);

/** Verdict of validating one stored JSONL line (JSON parse → CRC
 * check → record decode → fingerprint-vs-spec).
 * Shared by ResultStore::load and the incremental tail reader
 * (dist/store_tail.h) so both paths reject exactly the same lines. */
enum class StoredLineStatus
{
    Ok,
    /** The line did not parse as a CRC-stamped JSON object, or was
     * not a valid record (missing/mistyped fields, or a failed record
     * accounting for fewer than one attempt). */
    ParseFailure,
    /** The line's trailing "crc" member contradicted its content. */
    CrcMismatch,
    /** The stored fingerprint contradicted the stored spec. */
    FingerprintMismatch
};

/** Run the full validation chain on one stored line. On Ok, `record`
 * receives the decoded record; otherwise `reason` (when non-null)
 * receives a human-readable rejection reason. Pure — quarantining is
 * the caller's job (quarantineStoreLine). */
StoredLineStatus decodeStoredLine(const std::string &line,
                                  JobResult &record,
                                  std::string *reason = nullptr);

/** Quarantine one corrupt store line under
 * `quarantineDirFor(storePath)` through quarantineLineOnce (once per
 * (store, line, content) per process, best effort), journaling a
 * store.quarantine event the first time. */
void quarantineStoreLine(const std::string &storePath,
                         std::size_t lineNumber,
                         const std::string &line,
                         const std::string &reason);

/** What a load pass saw. corrupt() is the lines that failed any
 * validation and were skipped (and, best-effort, quarantined). */
struct StoreLoadStats
{
    /** Records that parsed and validated. */
    std::size_t records = 0;
    /** Lines that failed to parse as a record at all. */
    std::size_t parseFailures = 0;
    /** Parseable lines whose CRC32 contradicted their content. */
    std::size_t crcMismatches = 0;
    /** Records whose stored fingerprint contradicted their spec. */
    std::size_t fingerprintMismatches = 0;

    std::size_t corrupt() const
    {
        return parseFailures + crcMismatches + fingerprintMismatches;
    }
};

/** Append-only JSONL file of job records. */
class ResultStore
{
  public:
    /** Opens lazily; the file is created on first append. */
    explicit ResultStore(std::string path);

    const std::string &path() const { return path_; }

    /** Parse all stored records. A line that fails validation (torn,
     * corrupt, CRC or fingerprint mismatch) is quarantined to
     * `<dir>/quarantine/` and skipped instead of failing the resume;
     * `stats`, when non-null, reports what was seen. */
    std::vector<JobResult> load(StoreLoadStats *stats = nullptr) const;

    /** Append one CRC-stamped record as a single durable line
     * (fsynced; fault site "store.append"). Thread-safe. */
    void append(const JobResult &result);

  private:
    std::string path_;
    std::mutex mutex_;
};

/** The quarantine directory used for corrupt lines and shards of the
 * stores under `parentDir` (i.e. `<parentDir>/quarantine`). */
std::string quarantineDirFor(const std::string &storePath);

/**
 * The resolution of one job fingerprint: the single rule that decides,
 * from every stored record of a job, whether the job is done. fold()
 * is commutative and associative, so the verdict, the attempt count
 * and the surviving record's scalars do not depend on the order
 * records are read in — a worker's incremental tail view
 * (dist/store_tail.h), a full merged load, a compaction and the status
 * view all reach the same answer.
 *
 * - The surviving record: complete beats failed beats partial; within
 *   a class, more iterations, then the larger error message, wins.
 *   Records that tie on all three are the same job state (a job is a
 *   pure function of its spec), so the survivor is order-free.
 * - Failed records add their attempt counts (each at least 1 — the
 *   decoder rejects anything else): the substrate of the fleet-wide
 *   poison budget (dist/worker_daemon.h). timedOut is sticky.
 *
 * Carries only scalars, never the trajectory/parameter bodies, which
 * is what lets a 10^6-job view fit in memory.
 */
struct JobResolution
{
    /** Records folded in. */
    std::size_t records = 0;
    /** The surviving record's class. */
    bool completed = false;
    bool failed = false;
    /** Attempts summed over every failed record (saturating). */
    int attempts = 0;
    /** Some failed record was a hung-job timeout. */
    bool timedOut = false;
    /** Display scalars of the surviving record (status view). */
    int iterations = 0;
    double finalEnergy = 0.0;
    std::uint64_t shotsUsed = 0;
    std::string errorMessage;

    /** Fold one decoded record in. */
    void fold(const JobResult &record);

    /** Failed attempts the history accounts for (0 once completed). */
    int priorAttempts() const { return completed ? 0 : attempts; }

    /** Completed, or failed with the cumulative attempts at or past
     * `maxJobAttempts`. A failed job below the budget stays pending:
     * another worker may still spend the remaining attempts. */
    bool resolved(int maxJobAttempts) const
    {
        return completed || (failed && attempts >= maxJobAttempts);
    }
};

/**
 * Collapse duplicate-fingerprint records to one per job: the survivor
 * JobResolution picks, carrying the fold's attempts and timedOut when
 * it is a failed record. Duplicates arise when a run directory is
 * reused with resume disabled, or when store shards of a distributed
 * sweep overlap after a lease was reclaimed mid-job or a worker
 * failed a job another also failed. With `warnOnDuplicates`, warns on
 * stderr once per duplicated fingerprint; callers for whom overlap is
 * expected (the merged canonical+shard view of a distributed sweep)
 * pass false to keep the warning meaningful for the case it exists
 * for: a genuinely reused run directory. Survivors keep
 * first-occurrence order.
 */
std::vector<JobResult>
dedupeByFingerprint(std::vector<JobResult> records,
                    bool warnOnDuplicates = true);

/**
 * Deterministic aggregate summary: jobs sorted by name, per-job
 * energies/iterations/shots/backend, sweep totals. Contains no
 * timing, so two runs of the same sweep (fresh, resumed, any
 * concurrency) serialize byte-identically.
 */
JsonValue sweepSummaryJson(const std::vector<JobResult> &results);

/** Human-readable per-job table + totals (includes wall time). */
std::string sweepSummaryText(const std::vector<JobResult> &results);

} // namespace treevqa

#endif // TREEVQA_SVC_RESULT_STORE_H
