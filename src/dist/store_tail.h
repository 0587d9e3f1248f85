/**
 * @file
 * StoreTailReader: the incremental merged-record view that makes the
 * worker/claim scan loop O(appended bytes) instead of O(store bytes).
 *
 * A full loadMergedRecords() pass re-reads the canonical store, every
 * sealed tier and every worker shard on *every* scan round — O(N) work
 * per claim, O(N²) per drained sweep. The tail reader keeps one byte
 * cursor (inode + offset + line number) per store file and, per
 * refresh, stats the current file set and parses only the bytes
 * appended since the last refresh, folding each decoded record into an
 * in-memory fingerprint → JobResolution map (svc/result_store.h). The
 * fold is the project's one record-resolution rule and is
 * order-independent, so the incremental view reaches the verdicts a
 * full load folded the same way would.
 *
 * Validation parity: every appended line runs the same
 * decodeStoredLine chain and numbered line loop (common/crc_line.h) as
 * ResultStore::load, torn trailing lines (no '\n' yet — an append in
 * flight) are left unconsumed and re-read once sealed, and corrupt
 * lines are quarantined through the same once-per-(file,line,content)
 * gate, so a record rejected by the full loader is rejected
 * incrementally too, exactly once.
 *
 * Invalidation: the cursors are only valid while every tracked file
 * grows in place. Compaction rewrites the canonical store (new
 * inode), a shard roll renames a shard into `tiers/`, and a tier fold
 * deletes its inputs — any tracked file vanishing, shrinking or
 * changing identity collapses the whole view and the next refresh is
 * a clean full rescan (counted, so benches and tests can assert the
 * fallback fired). That keeps correctness trivially equivalent to the
 * full loader at the cost of O(store) work per *store-mutating* event
 * rather than per scan — the events (rolls, folds, compactions) are
 * O(records / threshold), not O(scans).
 *
 * Single-threaded; each worker, supervisor or status probe owns its
 * own reader.
 */

#ifndef TREEVQA_DIST_STORE_TAIL_H
#define TREEVQA_DIST_STORE_TAIL_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "svc/result_store.h"

namespace treevqa {

/** Tail-reader observability: the currency of the dist_throughput
 * bench and the scale tests. */
struct TailCounters
{
    /** refresh() calls. */
    std::uint64_t refreshes = 0;
    /** Payload bytes actually read (appended-and-consumed). */
    std::uint64_t bytesRead = 0;
    /** Store lines decoded (valid or not). */
    std::uint64_t linesParsed = 0;
    /** Lines that failed decoding and were quarantined. */
    std::uint64_t quarantinedLines = 0;
    /** Cursor invalidations that forced a clean full rescan. */
    std::uint64_t fullRescans = 0;
};

class StoreTailReader
{
  public:
    explicit StoreTailReader(std::string sweepDir);

    /**
     * Bring the view up to date: stat the current store file set
     * (canonical + tiers + shards), fall back to a full rescan if any
     * tracked file vanished / shrank / changed inode, then parse only
     * the newly appended complete lines into the resolution map.
     */
    void refresh();

    /** Drop every cursor and resolution so the next refresh() is a
     * clean full rescan (counted in fullRescans). For callers that
     * just mutated the store layout themselves (compaction). */
    void invalidate();

    /**
     * Confirm a drained-looking view — it is an optimization, never
     * the drain proof — with one authoritative full load
     * (foldMergedRecords) per job-list `generation`. Returns the
     * indices of `fingerprints` the full load leaves unresolved under
     * `maxJobAttempts`, skipping those in `alsoResolved`; when any
     * remain (the view over-resolved through a transient fold-overlap
     * double count, or lost a race), invalidates the view. A
     * generation already confirmed returns empty without loading, so
     * an idle daemon does not pay an O(N) load every poll.
     * `bytesRead`, when non-null, receives the store bytes loaded.
     */
    std::vector<std::size_t>
    confirmByFullLoad(const std::vector<std::string> &fingerprints,
                      std::uint64_t generation, int maxJobAttempts,
                      const std::set<std::string> &alsoResolved = {},
                      std::uint64_t *bytesRead = nullptr);

    /** The folded view (valid until the next refresh/invalidate). */
    const std::map<std::string, JobResolution> &resolutions() const
    {
        return resolutions_;
    }

    const TailCounters &counters() const { return counters_; }

  private:
    struct Cursor
    {
        /** Identity when first tracked (0 = not yet stat'ed). */
        std::uint64_t inode = 0;
        /** Bytes consumed; always at a line boundary. */
        std::uint64_t offset = 0;
        /** Complete lines consumed — 1-based numbering parity with
         * ResultStore::load, so the quarantine once-only gate sees
         * identical (path, line, content) keys from both readers. */
        std::size_t lines = 0;
    };

    /** Consume bytes appended to `path` past its cursor. Returns
     * false when the file changed identity under the cursor (the
     * caller resets the view). */
    bool consumeAppends(const std::string &path, Cursor &cursor);

    std::string sweepDir_;
    std::map<std::string, Cursor> cursors_;
    std::map<std::string, JobResolution> resolutions_;
    TailCounters counters_;
    bool forceRescan_ = false;
    std::uint64_t confirmedGeneration_ = 0;
};

/** One full load of the sweep's records (loadMergedRecords) folded
 * into the fingerprint → JobResolution view the tail reader builds. */
std::map<std::string, JobResolution>
foldMergedRecords(const std::string &sweepDir);

/** Total on-disk bytes of the sweep's record stores (canonical +
 * tiers + shards): what one full load reads. */
std::uint64_t sweepStoreBytes(const std::string &sweepDir);

} // namespace treevqa

#endif // TREEVQA_DIST_STORE_TAIL_H
