/**
 * @file
 * Causal event journal for the distributed sweep: every process
 * appends its protocol-level events (job lifecycle, lease handoffs,
 * fleet supervision, store maintenance) to a private JSONL journal
 * under `<sweep>/events/`, each line stamped with a **hybrid logical
 * clock** so the merged history is causally ordered even under the
 * wall-clock skew the lease protocol already tolerates.
 *
 * The HLC is the standard wall-clock/counter pair: a local tick takes
 * `max(now, lastWall)` and bumps the counter on an unchanged wall
 * millisecond; observing a remote stamp (a claim file written by
 * another worker, a telemetry file) merges it in, so any event that
 * causally follows a read of another process's stamp compares greater
 * — a lease handoff orders A's last renewal before B's reap even when
 * B's clock runs behind A's. Stamps carry an origin token unique per
 * process incarnation (`<id>-p<pid>`), and one clock's ticks are
 * strictly increasing, so (wall, counter, origin) is a strict total
 * order over every event a sweep ever emits: the deterministic sort
 * key behind `treevqa_run --timeline` (byte-stable output however the
 * journals are read).
 *
 * Journals are observability, not coordination — the same contract as
 * the per-incarnation telemetry files: emitting buffers in memory
 * (sub-microsecond; see bench `event_append`), flushing appends
 * durably via appendTextDurable with each line CRC-stamped, and a
 * flush failure (fault site "event.append") drops the batch instead
 * of crashing the protocol. Readers validate every line's CRC and
 * quarantine torn or corrupt lines — once per (journal, line,
 * content) per process — under `<sweep>/events/quarantine/`: the
 * result store's discipline, through the same CRC line codec
 * (common/crc_line.h).
 */

#ifndef TREEVQA_COMMON_EVENT_LOG_H
#define TREEVQA_COMMON_EVENT_LOG_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"

namespace treevqa {

// ------------------------------------------------------ hybrid clock

/** One hybrid-logical-clock stamp. An empty origin means "unset"
 * (e.g. a claim written before HLC stamping existed). */
struct Hlc
{
    /** Wall component: max of the writer's system clock and every
     * stamp it had observed, in Unix ms. */
    std::int64_t wallMs = 0;
    /** Logical component: breaks ties within one wall millisecond. */
    std::int64_t counter = 0;
    /** Per-process-incarnation identity ("<id>-p<pid>"). */
    std::string origin;

    bool empty() const { return origin.empty() && wallMs == 0; }
};

/** Strict total order: (wallMs, counter, origin) lexicographic. Two
 * stamps from one clock never tie (ticks strictly increase), so the
 * origin tiebreak only arbitrates between concurrent processes. */
bool hlcLess(const Hlc &a, const Hlc &b);

/** "<wallMs>.<counter>@<origin>" — the printed form used by
 * `--timeline` lines and `--events --after` paging cursors. */
std::string hlcKey(const Hlc &hlc);

/** Parse "<wallMs>[.<counter>[@<origin>]]" (missing parts read as 0 /
 * empty, giving an inclusive-lower-bound cursor). False on garbage. */
bool parseHlcKey(const std::string &text, Hlc &out);

JsonValue hlcToJson(const Hlc &hlc);
Hlc hlcFromJson(const JsonValue &json);

/**
 * The process's causal clock. tick() stamps a local event; observe()
 * merges a stamp read from another process (claim file, health
 * snapshot) so later local stamps compare greater. Both have
 * physical-time-injectable overloads for the skew tests; production
 * callers use the unixTimeMs() forms on the process-wide instance().
 * Thread-safe.
 */
class HlcClock
{
  public:
    explicit HlcClock(std::string origin = "");

    static HlcClock &instance();

    void setOrigin(const std::string &origin);
    std::string origin() const;

    Hlc tick();
    Hlc tick(std::int64_t physMs);
    Hlc observe(const Hlc &remote);
    Hlc observe(const Hlc &remote, std::int64_t physMs);
    /** The latest stamp issued (or merged); zero before first use. */
    Hlc last() const;

  private:
    mutable std::mutex mutex_;
    std::int64_t wallMs_ = 0;
    std::int64_t counter_ = -1; // first tick on wall 0 yields ctr 0
    std::string origin_;
};

// -------------------------------------------------------- event taxonomy

/** The fixed event vocabulary. Free-form detail rides in each event's
 * `detail` object; the type strings are the queryable surface
 * (`--events --type ...`) and are never renamed. */
namespace event_type {
// Job lifecycle.
inline constexpr const char *kJobExpanded = "job.expanded";
inline constexpr const char *kJobClaimed = "job.claimed";
inline constexpr const char *kJobResumed = "job.resumed";
inline constexpr const char *kJobCheckpointed = "job.checkpointed";
inline constexpr const char *kJobCompleted = "job.completed";
inline constexpr const char *kJobFailed = "job.failed";
inline constexpr const char *kJobTimedOut = "job.timed_out";
inline constexpr const char *kJobPoisoned = "job.poisoned";
// Lease protocol.
inline constexpr const char *kLeaseAcquired = "lease.acquired";
inline constexpr const char *kLeaseRenewed = "lease.renewed";
inline constexpr const char *kLeaseReaped = "lease.reaped";
inline constexpr const char *kLeaseLost = "lease.lost";
// Fleet supervision.
inline constexpr const char *kFleetSpawn = "fleet.spawn";
inline constexpr const char *kFleetCrash = "fleet.crash";
inline constexpr const char *kFleetRestart = "fleet.restart";
inline constexpr const char *kFleetWatchdogKill = "fleet.watchdog_kill";
inline constexpr const char *kFleetSlotRetired = "fleet.slot_retired";
// Store maintenance.
inline constexpr const char *kStoreShardRoll = "store.shard_roll";
inline constexpr const char *kStoreTierFold = "store.tier_fold";
inline constexpr const char *kStoreCompaction = "store.compaction";
inline constexpr const char *kStoreQuarantine = "store.quarantine";
} // namespace event_type

/** One journal entry. `worker` is the emitting process's plain id
 * (the origin inside `hlc` adds the pid); `job` is the subject
 * fingerprint, empty for fleet/store events without one. */
struct SweepEvent
{
    Hlc hlc;
    std::string type;
    std::string worker;
    std::string job;
    JsonValue detail = JsonValue::object();
};

/** Canonical JSON of one event (no CRC member — the journal writer
 * stamps that over this serialization). */
JsonValue eventToJson(const SweepEvent &event);

/** Validate + decode one journal line (JSON parse → CRC check →
 * field decode). On failure `reason` (when non-null) receives why. */
bool decodeEventLine(const std::string &line, SweepEvent &event,
                     std::string *reason = nullptr);

// --------------------------------------------------------- journal writer

/**
 * Buffered, append-durable journal for this process's events.
 * Processes use the singleton `EventLog::instance()`, opened once
 * against the sweep directory; tests may hold private instances.
 * emit() is cheap (stamp + serialize + buffer under one mutex) and
 * safe from any thread; flush() appends the buffered batch durably.
 * Everything is best-effort by contract — an unopened log ignores
 * emits, and a failed flush (fault site "event.append") drops the
 * batch and reports false rather than throwing into protocol code.
 */
class EventLog
{
  public:
    EventLog() = default;
    EventLog(const EventLog &) = delete;
    EventLog &operator=(const EventLog &) = delete;

    static EventLog &instance();

    /**
     * Bind to `<sweepDir>/events/<id>-p<pid>.jsonl` and start
     * accepting emits. Reopening with the same target is a no-op;
     * switching targets flushes the old journal first. Also points
     * the process clock's origin at this identity so claim/health
     * stamps agree with the journal's. Never throws.
     */
    void open(const std::string &sweepDir, const std::string &id);

    /** Flush and stop accepting emits (test isolation). */
    void close();

    bool enabled() const;
    const std::string &path() const { return path_; }

    /**
     * Stamp and buffer one event; returns the stamp (zero Hlc when
     * the log is not open). Auto-flushes when the buffer reaches
     * kAutoFlushLines, so an unflushed process loses at most one
     * batch.
     */
    Hlc emit(const std::string &type, const std::string &job = "",
             JsonValue detail = JsonValue::object());

    /** Append the buffered batch durably. True when nothing was
     * buffered or the append succeeded; false (batch dropped) on an
     * injected or real append failure. */
    bool flush();

    std::size_t buffered() const;

    static constexpr std::size_t kAutoFlushLines = 1024;

  private:
    bool flushLocked();

    mutable std::mutex mutex_;
    std::string path_;
    std::string workerId_;
    std::string origin_;
    std::string buffer_;
    std::size_t bufferedLines_ = 0;
};

// --------------------------------------------------------- journal reader

/** What a journal read pass saw. */
struct EventReadStats
{
    std::size_t files = 0;
    std::size_t events = 0;
    /** Lines that failed validation; each was (best-effort, once per
     * process) quarantined under `<events>/quarantine/`. */
    std::size_t corruptLines = 0;
};

/** Read one journal file. Unreadable file = empty result. Corrupt
 * lines are skipped and quarantined (once per (journal, line,
 * content) per process). */
std::vector<SweepEvent>
readEventJournal(const std::string &path,
                 EventReadStats *stats = nullptr);

/** Read every `*.jsonl` journal under `<sweepDir>/events/` (sorted
 * file order, then causal sort) into one deterministic sequence. */
std::vector<SweepEvent>
readSweepEvents(const std::string &sweepDir,
                EventReadStats *stats = nullptr);

/** Sort into the canonical causal order: hlcLess, tiebroken (for
 * stamps from pre-HLC writers) by type/worker/job/detail. A pure
 * function of the event set — the merge step of `--timeline`. */
void sortEventsCausal(std::vector<SweepEvent> &events);

/**
 * The `--timeline <fingerprint>` document: the causally ordered
 * biography of one job, one line per event
 * (`<wall>.<ctr> <origin> <type> <detail>`), preceded by a count
 * header. Byte-stable given the same events in any input order
 * (sortEventsCausal runs internally).
 */
std::string formatTimeline(std::vector<SweepEvent> events,
                           const std::string &fingerprint);

} // namespace treevqa

#endif // TREEVQA_COMMON_EVENT_LOG_H
