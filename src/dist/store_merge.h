/**
 * @file
 * StoreMerge: deterministic merge and compaction of a distributed
 * sweep's result stores.
 *
 * Workers append to per-worker shards (`<dir>/workers/<id>.jsonl`)
 * instead of one shared file, so concurrent processes never interleave
 * partial lines. At scale, a worker *rolls* its shard once it passes a
 * size threshold — an atomic rename into a sealed L0 tier file under
 * `<dir>/tiers/` — and tier maintenance folds `fanout` same-level
 * tiers into one next-level tier, so the number of live files a reader
 * must visit stays O(log) in records written rather than O(rolls).
 * The merge pass folds the canonical store plus every tier and shard
 * into one deduplicated record set and compacts it back into
 * `<dir>/results.jsonl` (sorted by job name) and `<dir>/summary.json`
 * — byte-identical, timing fields excluded, to what a single-process
 * JobScheduler run of the same spec would have produced, because every
 * record is a pure function of its spec and the summary excludes wall
 * time.
 *
 * Compaction and tier folding are idempotent and safe to run
 * concurrently: all writes are atomic whole-file replacements, a
 * fold's output name is a pure function of its input set (racing
 * folders over the same inputs produce the same file), and duplicate
 * records are bit-identical where it matters. No merge lock is
 * needed. A load pass lists shards, then tiers, and only then reads
 * the canonical store, so a record can only be missed by a pass that
 * sees one of its listed inputs vanish; such a pass is retried
 * (bounded), and compaction never writes the store from one. Shard/tier
 * *deletion* by compaction is the one step that needs a precondition:
 * it is only safe once the sweep is drained (no worker can still
 * append), so only the drained-worker path compacts — a standalone
 * merge over a live fleet writes the summary and touches no record
 * file.
 */

#ifndef TREEVQA_DIST_STORE_MERGE_H
#define TREEVQA_DIST_STORE_MERGE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "svc/result_store.h"

namespace treevqa {

/** What a compaction pass saw and did. */
struct SweepMergeStats
{
    /** Records read across the canonical store, tiers and shards. */
    std::size_t inputRecords = 0;
    /** Records surviving fingerprint deduplication. */
    std::size_t uniqueRecords = 0;
    /** Worker shard files folded (and, when compacting, removed). */
    std::size_t shardFiles = 0;
    /** Sealed tier files folded (and, when compacting, removed). */
    std::size_t tierFiles = 0;
    /** Lines that failed validation (torn, CRC or fingerprint
     * mismatch) across the canonical store, tiers and shards. */
    std::size_t corruptLines = 0;
    /** Shards/tiers moved to `<dir>/quarantine/` instead of deleted
     * because at least one of their lines failed validation. A
     * quarantined file's healthy records were still folded into the
     * canonical store; the file is preserved only as forensic
     * evidence. */
    std::size_t quarantinedShards = 0;
    /** Every load pass saw an input vanish (a concurrent fold, roll or
     * compaction moved it), so nothing was written or retired: the
     * peer that moved the inputs has written, or will write, their
     * records forward. */
    bool raced = false;
};

/**
 * Load every record of the sweep directory — the canonical store
 * first, then sealed tiers (ordered by level then name), then worker
 * shards in sorted filename order — deduplicated by fingerprint
 * (the JobResolution survivor rule) and sorted by job name (ties broken
 * by fingerprint). The read-only merged view used by worker scan
 * loops and `treevqa_run --status`. A load that races a concurrent
 * tier fold (an enumerated file vanishing before it could be read) is
 * retried from scratch, bounded, so the returned set never silently
 * misses a folded file's records (after the bounded retries the last,
 * partial view is returned). `corruptLines`, when non-null,
 * reports the count of lines that failed validation (and were
 * quarantined) across all inputs.
 */
std::vector<JobResult>
loadMergedRecords(const std::string &sweepDir,
                  std::size_t *corruptLines = nullptr);

/**
 * Fold the canonical store, tiers and shards and write the
 * deterministic `summary.json` of the deduplicated record set.
 *
 * `removeMergedShards` also compacts: it atomically rewrites
 * `results.jsonl` with the name-sorted record set, then deletes the
 * shard and tier files. Pass true only when the sweep is provably
 * drained (every job recorded — the worker daemon's merge-on-drain
 * path), because a live worker could otherwise append a completed
 * job's record to a shard between our load and its deletion, losing
 * that record. With false (the `--merge-only` CLI) only the summary
 * is written and every record file is left untouched: the fold sums
 * failed attempts, so writing that sum into the canonical store while
 * the shards keep their original records would count them twice.
 *
 * When every load pass raced a peer that moved inputs away (see
 * SweepMergeStats::raced), nothing is written or retired.
 *
 * A shard or tier containing any line that fails validation is never
 * deleted by a compaction: it is renamed into `<dir>/quarantine/`
 * (counted in quarantinedShards) so the corrupt evidence survives.
 * The `--merge-only` CLI exits non-zero when corruptLines > 0.
 */
SweepMergeStats compactSweepStore(const std::string &sweepDir,
                                  bool removeMergedShards);

/**
 * Seal a worker's private shard as an L0 tier file
 * (`tiers/L0-<worker>-<seq>.jsonl`) via atomic rename, so the worker
 * starts a fresh (small) shard and the sealed records become eligible
 * for tier folding. Only the shard's owner may call this (the rename
 * is race-free because nobody else writes that shard). `seq` makes
 * successive rolls by one worker distinct. Returns false when the
 * shard does not exist or the rename failed (the shard is left in
 * place — rolling is an optimization, never required for
 * correctness).
 */
bool rollShardToTier(const std::string &sweepDir,
                     const std::string &workerId, std::uint64_t seq);

/**
 * Fold sealed tiers, smallest level first: whenever `fanout` or more
 * files exist at one level, merge them (deduplicated, read in sorted
 * filename order) into a single next-level tier whose name is a pure
 * function of the folded input set, then delete the inputs. Safe to
 * run from any process at any time: the output is written atomically
 * *before* any input is deleted (a crash between the two leaves a
 * recoverable duplicate, not a loss), racing folders over the same
 * input set write byte-identical outputs, and a folder that finds an
 * input already gone simply abandons that fold. An input with corrupt
 * lines is quarantined (its healthy records still fold). Returns the
 * number of folds performed.
 */
std::size_t maintainTiers(const std::string &sweepDir, int fanout);

} // namespace treevqa

#endif // TREEVQA_DIST_STORE_MERGE_H
