#include "dist/store_tail.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <vector>

#include <sys/stat.h>

#include "common/crc_line.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "dist/store_merge.h"
#include "svc/sweep_dir.h"

namespace treevqa {

namespace {

/** Registry mirror of TailCounters: the per-reader struct stays (so
 * in-process readers can be compared in tests), while these feed the
 * fleet-wide `--metrics` view and the worker report line. */
struct TailMetrics
{
    Counter &refreshes;
    Counter &bytesRead;
    Counter &linesParsed;
    Counter &quarantinedLines;
    Counter &fullRescans;
    Histogram &refreshNs;
};

TailMetrics &
tailMetrics()
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    static TailMetrics m{
        reg.counter("store.tail_refreshes"),
        reg.counter("store.tail_bytes_read"),
        reg.counter("store.tail_lines_parsed"),
        reg.counter("store.tail_lines_quarantined"),
        reg.counter("store.tail_full_rescans"),
        reg.histogram("store.tail_refresh_ns")};
    return m;
}

/** Every record store of the sweep (canonical + tiers + shards),
 * sorted. */
std::vector<std::string>
storeFiles(const std::string &sweepDir)
{
    std::vector<std::string> files =
        sortedJsonlFiles(sweepTierDir(sweepDir));
    for (std::string &shard :
         sortedJsonlFiles(sweepShardDir(sweepDir)))
        files.push_back(std::move(shard));
    const std::string canonical = sweepStorePath(sweepDir);
    std::error_code ec;
    if (std::filesystem::exists(canonical, ec))
        files.push_back(canonical);
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace

StoreTailReader::StoreTailReader(std::string sweepDir)
    : sweepDir_(std::move(sweepDir))
{
}

void
StoreTailReader::invalidate()
{
    forceRescan_ = true;
}

bool
StoreTailReader::consumeAppends(const std::string &path,
                                Cursor &cursor)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return false; // vanished between enumeration and read
    if (cursor.inode == 0)
        cursor.inode = static_cast<std::uint64_t>(st.st_ino);
    else if (cursor.inode != static_cast<std::uint64_t>(st.st_ino))
        return false; // atomically replaced under the cursor
    const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
    if (size < cursor.offset)
        return false; // truncated under the cursor
    if (size == cursor.offset)
        return true;

    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    in.seekg(static_cast<std::streamoff>(cursor.offset));
    std::string chunk(static_cast<std::size_t>(size - cursor.offset),
                      '\0');
    in.read(chunk.data(),
            static_cast<std::streamsize>(chunk.size()));
    chunk.resize(static_cast<std::size_t>(
        std::max<std::streamsize>(0, in.gcount())));
    counters_.bytesRead += chunk.size();
    tailMetrics().bytesRead.inc(chunk.size());

    // Consume complete lines only: a chunk ending without '\n' is an
    // append in flight (or the torn tail of a killed writer, which
    // the next durable append seals with a newline) — leave the
    // cursor at the line start and re-read it once terminated.
    cursor.offset += forEachLine(
        chunk, cursor.lines, /*completeOnly=*/true,
        [&](std::size_t number, const std::string &line) {
            ++counters_.linesParsed;
            tailMetrics().linesParsed.inc();
            JobResult record;
            std::string reason;
            if (decodeStoredLine(line, record, &reason)
                == StoredLineStatus::Ok) {
                resolutions_[record.fingerprint].fold(record);
            } else {
                ++counters_.quarantinedLines;
                tailMetrics().quarantinedLines.inc();
                quarantineStoreLine(path, number, line, reason);
            }
        });
    return true;
}

void
StoreTailReader::refresh()
{
    ++counters_.refreshes;
    tailMetrics().refreshes.inc();
    TRACE_SPAN_TIMED("store.tail_refresh", tailMetrics().refreshNs);
    // A pass that loses a race with a concurrent roll/fold (a file
    // vanishing between enumeration and read) resets and retries;
    // a consistent snapshot always exists because every mutation
    // writes its replacement before deleting its input.
    for (int attempt = 0; attempt < 3; ++attempt) {
        const std::vector<std::string> files = storeFiles(sweepDir_);

        bool reset = forceRescan_;
        if (!reset) {
            // Any tracked file gone from the current set means the
            // layout mutated (roll, fold, compaction): the map may
            // hold folds of bytes that now live elsewhere, so the
            // only safe continuation is from scratch.
            for (const auto &[path, cursor] : cursors_) {
                (void)cursor;
                if (!std::binary_search(files.begin(), files.end(),
                                        path)) {
                    reset = true;
                    break;
                }
            }
        }
        if (reset) {
            cursors_.clear();
            resolutions_.clear();
            forceRescan_ = false;
            ++counters_.fullRescans;
            tailMetrics().fullRescans.inc();
        }

        bool collided = false;
        for (const std::string &path : files) {
            if (!consumeAppends(path, cursors_[path])) {
                collided = true;
                break;
            }
        }
        if (!collided)
            return;
        forceRescan_ = true;
    }
}

std::vector<std::size_t>
StoreTailReader::confirmByFullLoad(
    const std::vector<std::string> &fingerprints,
    std::uint64_t generation, int maxJobAttempts,
    const std::set<std::string> &alsoResolved, std::uint64_t *bytesRead)
{
    if (bytesRead)
        *bytesRead = 0;
    if (generation == confirmedGeneration_)
        return {};
    if (bytesRead)
        *bytesRead = sweepStoreBytes(sweepDir_);
    const std::map<std::string, JobResolution> full =
        foldMergedRecords(sweepDir_);
    std::vector<std::size_t> unresolved;
    for (std::size_t i = 0; i < fingerprints.size(); ++i) {
        if (alsoResolved.count(fingerprints[i]))
            continue;
        const auto it = full.find(fingerprints[i]);
        if (it == full.end() || !it->second.resolved(maxJobAttempts))
            unresolved.push_back(i);
    }
    if (unresolved.empty())
        confirmedGeneration_ = generation;
    else
        invalidate();
    return unresolved;
}

std::map<std::string, JobResolution>
foldMergedRecords(const std::string &sweepDir)
{
    std::map<std::string, JobResolution> resolutions;
    for (const JobResult &record : loadMergedRecords(sweepDir))
        resolutions[record.fingerprint].fold(record);
    return resolutions;
}

std::uint64_t
sweepStoreBytes(const std::string &sweepDir)
{
    std::uint64_t total = 0;
    for (const std::string &path : storeFiles(sweepDir)) {
        std::error_code ec;
        const auto bytes = std::filesystem::file_size(path, ec);
        if (!ec)
            total += bytes;
    }
    return total;
}

} // namespace treevqa
