#include "dist/store_merge.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "common/crc_line.h"
#include "common/event_log.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "svc/sweep_dir.h"

namespace treevqa {

namespace {

struct MergeMetrics
{
    Counter &compactions;
    Counter &shardRolls;
    Counter &tierFolds;
    Counter &quarantines;
    Histogram &compactNs;
    Histogram &foldNs;
};

MergeMetrics &
mergeMetrics()
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    static MergeMetrics m{reg.counter("merge.compactions"),
                          reg.counter("merge.shard_rolls"),
                          reg.counter("merge.tier_folds"),
                          reg.counter("merge.quarantines"),
                          reg.histogram("merge.compact_ns"),
                          reg.histogram("merge.fold_ns")};
    return m;
}

/** Shard paths in sorted order, so the merge input sequence (and
 * therefore the dedup pick among bit-equal duplicates) is independent
 * of directory enumeration order. */
std::vector<std::string>
sortedShardPaths(const std::string &sweepDir)
{
    return sortedJsonlFiles(sweepShardDir(sweepDir));
}

/** The numeric level of a tier file ("L<k>-<tag>.jsonl"), or -1 for a
 * name not following the tier layout (still merged, just ordered
 * last). */
int
tierLevel(const std::string &path)
{
    const std::string name =
        std::filesystem::path(path).filename().string();
    if (name.size() < 2 || name[0] != 'L')
        return -1;
    int level = 0;
    std::size_t i = 1;
    for (; i < name.size() && name[i] >= '0' && name[i] <= '9'; ++i)
        level = level * 10 + (name[i] - '0');
    if (i == 1 || i >= name.size() || name[i] != '-')
        return -1;
    return level;
}

/** Tier paths ordered by (level, name) — numeric level first so
 * "L10-..." sorts after "L2-...". */
std::vector<std::string>
sortedTierPaths(const std::string &sweepDir)
{
    std::vector<std::string> tiers =
        sortedJsonlFiles(sweepTierDir(sweepDir));
    std::stable_sort(tiers.begin(), tiers.end(),
                     [](const std::string &a, const std::string &b) {
                         return tierLevel(a) < tierLevel(b);
                     });
    return tiers;
}

/** One input store and what loading it saw. */
struct StoreInput
{
    std::string path;
    StoreLoadStats stats;
};

/** Load one tier/shard file, reporting (via `vanished`) the case
 * where the file was deleted or renamed away by a racing fold before
 * we could open it — indistinguishable from an empty file at the
 * ResultStore level, so disambiguated by a post-load existence
 * check. */
std::vector<JobResult>
loadInput(StoreInput &input, bool &vanished)
{
    std::vector<JobResult> records =
        ResultStore(input.path).load(&input.stats);
    std::error_code ec;
    vanished = records.empty() && input.stats.corrupt() == 0
        && !std::filesystem::exists(input.path, ec);
    return records;
}

/**
 * One consistent load pass over canonical + tiers + shards. Records
 * only move forward (shard -> tier -> higher tier -> canonical store),
 * and every move writes its output before it deletes or renames its
 * input. So the pass lists shards, then tiers, and only then reads the
 * canonical store: a record moved on after its file was listed either
 * reached the store before the store read, or left a listed file
 * vanished when the pass reads it. Listing tiers after shards keeps a
 * shard that rolls in between from slipping past both listings.
 * A pass that saw a vanished input is retried from a fresh listing, at
 * most `kLoadRetries` times; `consistent` reports whether the returned
 * view came from a clean pass. Only the read-only merged view may use
 * an inconsistent one (callers treat it as advisory); compaction never
 * writes it.
 */
constexpr int kLoadRetries = 5;

std::vector<JobResult>
loadAllRecords(const std::string &sweepDir,
               std::vector<StoreInput> &shards,
               std::vector<StoreInput> &tiers, std::size_t &input,
               std::size_t &corrupt, bool &consistent)
{
    std::vector<JobResult> records;
    for (int attempt = 0;; ++attempt) {
        shards.clear();
        tiers.clear();
        for (std::string &path : sortedShardPaths(sweepDir))
            shards.push_back(StoreInput{std::move(path), {}});
        for (std::string &path : sortedTierPaths(sweepDir))
            tiers.push_back(StoreInput{std::move(path), {}});

        StoreLoadStats canonicalStats;
        records =
            ResultStore(sweepStorePath(sweepDir)).load(&canonicalStats);
        corrupt = canonicalStats.corrupt();
        // A delay here lets a peer compaction retire the listed inputs
        // after this pass read the old store (the race tests force).
        FAULT_POINT("merge.load_canonical");

        bool vanished = false;
        // A tier or shard vanishing mid-pass was folded, rolled or
        // compacted away by a peer; its records may sit in a file (or
        // a store version) this pass did not see.
        const auto load_all = [&](std::vector<StoreInput> &inputs) {
            std::vector<StoreInput> present;
            for (StoreInput &in : inputs) {
                bool gone = false;
                for (JobResult &record : loadInput(in, gone))
                    records.push_back(std::move(record));
                vanished = vanished || gone;
                corrupt += in.stats.corrupt();
                if (!gone)
                    present.push_back(std::move(in));
            }
            inputs = std::move(present);
        };
        load_all(tiers);
        load_all(shards);
        consistent = !vanished;
        if (consistent || attempt >= kLoadRetries)
            break;
    }
    input = records.size();

    // Canonical/tier/shard overlap is a normal state here (a
    // standalone merge folds inputs without removing them), so
    // collapse it silently instead of warning like the single-store
    // loaders do.
    records = dedupeByFingerprint(std::move(records),
                                  /*warnOnDuplicates=*/false);
    std::sort(records.begin(), records.end(),
              [](const JobResult &a, const JobResult &b) {
                  if (a.spec.name != b.spec.name)
                      return a.spec.name < b.spec.name;
                  return a.fingerprint < b.fingerprint;
              });
    return records;
}

/** Move a shard/tier whose load saw corruption into
 * `<dir>/quarantine/` (never deleting evidence; best-effort — a
 * failed rename leaves the file where it was). Returns whether the
 * file was moved. */
bool
quarantineShard(const std::string &shardPath)
{
    namespace fs = std::filesystem;
    const std::string dir = quarantineDirFor(shardPath);
    std::error_code ec;
    fs::create_directories(dir, ec);
    // ".shard" keeps whole quarantined files apart from the per-line
    // envelope files result_store writes under the same directory.
    const std::string base =
        fs::path(shardPath).filename().string() + ".shard";
    fs::path target = fs::path(dir) / base;
    // Keep prior quarantined generations instead of overwriting them.
    for (int n = 1; fs::exists(target, ec); ++n)
        target = fs::path(dir) / (base + "." + std::to_string(n));
    fs::rename(shardPath, target, ec);
    if (ec) {
        std::fprintf(stderr,
                     "treevqa: failed to quarantine shard %s: %s\n",
                     shardPath.c_str(), ec.message().c_str());
        return false;
    }
    std::fprintf(stderr,
                 "treevqa: quarantined corrupt shard %s -> %s\n",
                 shardPath.c_str(), target.string().c_str());
    mergeMetrics().quarantines.inc();
    return true;
}

/** Quarantine-or-delete the merged input files per the compaction
 * contract (see compactSweepStore). */
void
retireInputs(const std::vector<StoreInput> &inputs,
             SweepMergeStats &stats)
{
    for (const StoreInput &input : inputs) {
        if (input.stats.corrupt() > 0) {
            if (quarantineShard(input.path))
                ++stats.quarantinedShards;
        } else {
            std::remove(input.path.c_str());
        }
    }
}

} // namespace

std::vector<JobResult>
loadMergedRecords(const std::string &sweepDir,
                  std::size_t *corruptLines)
{
    std::vector<StoreInput> shards;
    std::vector<StoreInput> tiers;
    std::size_t input = 0;
    std::size_t corrupt = 0;
    bool consistent = false;
    std::vector<JobResult> records = loadAllRecords(
        sweepDir, shards, tiers, input, corrupt, consistent);
    if (corruptLines)
        *corruptLines = corrupt;
    return records;
}

SweepMergeStats
compactSweepStore(const std::string &sweepDir,
                  bool removeMergedShards)
{
    TRACE_SPAN_TIMED("merge.compact", mergeMetrics().compactNs);
    mergeMetrics().compactions.inc();
    std::vector<StoreInput> shards;
    std::vector<StoreInput> tiers;
    SweepMergeStats stats;
    bool consistent = false;
    const std::vector<JobResult> records =
        loadAllRecords(sweepDir, shards, tiers, stats.inputRecords,
                       stats.corruptLines, consistent);
    stats.uniqueRecords = records.size();
    stats.shardFiles = shards.size();
    stats.tierFiles = tiers.size();
    if (!consistent) {
        // Every pass raced a peer moving inputs. Writing this view
        // could replace a newer store with fewer records; the peer
        // that moved the inputs carries them forward instead.
        stats.raced = true;
        return stats;
    }

    // Kept inputs leave every record file untouched: the fold sums
    // failed attempts, so a canonical store holding that sum beside
    // the shards' original records would be counted again by every
    // later load. Only the derived summary is written.
    if (removeMergedShards) {
        std::string store;
        for (const JobResult &record : records) {
            store += jobResultToStoredLine(record);
            store += '\n';
        }
        writeTextFileAtomic(sweepStorePath(sweepDir), store);
    }
    writeTextFileAtomic(sweepSummaryPath(sweepDir),
                        sweepSummaryJson(records).dump(2) + "\n");

    // Shard/tier deletion requires the caller's drained proof (see
    // header): in a drained sweep every record they could still
    // receive is a deterministic duplicate of one already compacted,
    // so removal after the store is durably in place loses nothing. A
    // file that failed validation is quarantined instead of deleted —
    // corrupt bytes are evidence, not waste.
    if (removeMergedShards) {
        retireInputs(shards, stats);
        retireInputs(tiers, stats);
    }
    {
        JsonValue detail = JsonValue::object();
        detail.set("inputRecords",
                   JsonValue(static_cast<std::uint64_t>(
                       stats.inputRecords)));
        detail.set("uniqueRecords",
                   JsonValue(static_cast<std::uint64_t>(
                       stats.uniqueRecords)));
        detail.set("corruptLines",
                   JsonValue(static_cast<std::uint64_t>(
                       stats.corruptLines)));
        EventLog::instance().emit(event_type::kStoreCompaction, "",
                                  std::move(detail));
    }
    return stats;
}

bool
rollShardToTier(const std::string &sweepDir,
                const std::string &workerId, std::uint64_t seq)
{
    namespace fs = std::filesystem;
    const std::string shard = sweepShardPath(sweepDir, workerId);
    std::error_code ec;
    if (!fs::exists(shard, ec))
        return false;
    const std::string tierDir = sweepTierDir(sweepDir);
    fs::create_directories(tierDir, ec);
    const std::string tier = sweepTierPath(
        sweepDir, 0,
        sanitizeFileToken(workerId) + "-" + std::to_string(seq));
    fs::rename(shard, tier, ec);
    if (ec) {
        std::fprintf(stderr,
                     "treevqa: shard roll %s -> %s failed: %s\n",
                     shard.c_str(), tier.c_str(),
                     ec.message().c_str());
        return false;
    }
    // The rename must be durable before the worker appends to a fresh
    // shard, or a crash could resurrect the old shard name with only
    // the new records.
    fsyncDirectory(sweepShardDir(sweepDir));
    fsyncDirectory(tierDir);
    mergeMetrics().shardRolls.inc();
    {
        JsonValue detail = JsonValue::object();
        detail.set("shard", JsonValue(workerId));
        detail.set("tier", JsonValue(
                               fs::path(tier).filename().string()));
        EventLog::instance().emit(event_type::kStoreShardRoll, "",
                                  std::move(detail));
    }
    return true;
}

std::size_t
maintainTiers(const std::string &sweepDir, int fanout)
{
    namespace fs = std::filesystem;
    if (fanout < 2)
        return 0;
    std::size_t folds = 0;
    bool progressed = true;
    // Cascade: a fold at level k can complete a fanout at level k+1.
    while (progressed) {
        progressed = false;
        std::map<int, std::vector<std::string>> by_level;
        for (const std::string &path : sortedTierPaths(sweepDir)) {
            const int level = tierLevel(path);
            if (level >= 0)
                by_level[level].push_back(path);
        }
        for (auto &[level, files] : by_level) {
            if (files.size() < static_cast<std::size_t>(fanout))
                continue;
            TraceSpan fold_span("merge.fold",
                                &mergeMetrics().foldNs);
            // Output name: a pure function of the folded input set,
            // so a crash-then-retry (or a racing folder) regenerates
            // the same file instead of a divergent duplicate.
            std::string key;
            for (const std::string &path : files)
                key += fs::path(path).filename().string() + "\n";
            const std::string out =
                sweepTierPath(sweepDir, level + 1, crc32Hex(key));

            std::vector<JobResult> records;
            std::vector<std::string> clean;
            std::vector<std::string> dirty;
            bool aborted = false;
            for (const std::string &path : files) {
                StoreInput input;
                input.path = path;
                bool gone = false;
                for (JobResult &record : loadInput(input, gone))
                    records.push_back(std::move(record));
                if (gone) {
                    // A racing folder got here first; its output
                    // carries these records. Abandon this fold.
                    aborted = true;
                    break;
                }
                (input.stats.corrupt() > 0 ? dirty : clean)
                    .push_back(path);
            }
            if (aborted)
                continue;
            records = dedupeByFingerprint(std::move(records),
                                          /*warnOnDuplicates=*/false);
            std::error_code ec;
            if (!fs::exists(out, ec)) {
                std::string text;
                for (const JobResult &record : records) {
                    text += jobResultToStoredLine(record);
                    text += '\n';
                }
                // Durably in place before any input dies: a crash
                // here leaves inputs + output, a recoverable
                // duplicate, never a loss.
                writeTextFileAtomic(out, text);
            }
            for (const std::string &path : dirty)
                quarantineShard(path);
            for (const std::string &path : clean)
                std::remove(path.c_str());
            fsyncDirectory(sweepTierDir(sweepDir));
            ++folds;
            mergeMetrics().tierFolds.inc();
            {
                JsonValue detail = JsonValue::object();
                detail.set("level",
                           JsonValue(static_cast<std::int64_t>(
                               level)));
                detail.set("out", JsonValue(
                                      fs::path(out).filename()
                                          .string()));
                EventLog::instance().emit(event_type::kStoreTierFold,
                                          "", std::move(detail));
            }
            progressed = true;
        }
    }
    return folds;
}

} // namespace treevqa
