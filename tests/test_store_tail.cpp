/**
 * @file
 * Tests for the PR-8 claim-path scaling layer: the incremental
 * StoreTailReader (torn-line handling, quarantine parity with the
 * full loader, cursor invalidation after compaction), the tiered
 * shard roll/fold pipeline, the stat-cached SweepIndex, and the
 * JobResolution record fold behind every resolved/pending verdict.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "dist/store_merge.h"
#include "dist/store_tail.h"
#include "svc/result_store.h"
#include "svc/sweep_dir.h"
#include "svc/sweep_index.h"

namespace treevqa {
namespace {

std::filesystem::path
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / ("tail_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

ScenarioSpec
tinySpec(const std::string &name, double field)
{
    ScenarioSpec spec;
    spec.name = name;
    spec.problem = "tfim";
    spec.size = 4;
    spec.field = field;
    spec.ansatz = "hea";
    spec.layers = 1;
    spec.engine.shotsPerTerm = 256;
    spec.maxIterations = 12;
    spec.seed = 99;
    spec.checkpointInterval = 4;
    return spec;
}

/** A synthetic completed record — valid spec, matching fingerprint,
 * no scenario execution needed. */
JobResult
syntheticRecord(const std::string &name, double field)
{
    JobResult r;
    r.spec = tinySpec(name, field);
    r.fingerprint = scenarioFingerprint(r.spec);
    r.completed = true;
    r.iterations = 3;
    r.trajectory = {1.0, 0.5, 0.25};
    r.bestLoss = 0.25;
    r.finalEnergy = -field;
    r.shotsUsed = 128;
    return r;
}

JobResult
syntheticFailure(const std::string &name, double field, int attempts,
                 bool timed_out = false)
{
    JobResult r;
    r.spec = tinySpec(name, field);
    r.fingerprint = scenarioFingerprint(r.spec);
    r.failed = true;
    r.attempts = attempts;
    r.timedOut = timed_out;
    r.errorMessage = "boom";
    return r;
}

std::uintmax_t
fileSize(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    return ec ? 0 : size;
}

// ------------------------------------------------------ tail reader

TEST(StoreTailReader, ConsumesOnlyAppendedBytesPerRefresh)
{
    const auto dir = scratchDir("appends");
    const std::string store = sweepStorePath(dir.string());
    ResultStore writer(store);
    writer.append(syntheticRecord("a", 0.5));
    writer.append(syntheticRecord("b", 0.7));

    StoreTailReader tail(dir.string());
    tail.refresh();
    EXPECT_EQ(tail.resolutions().size(), 2u);
    EXPECT_EQ(tail.counters().bytesRead, fileSize(store));
    EXPECT_EQ(tail.counters().fullRescans, 0u);

    const std::uintmax_t before = fileSize(store);
    writer.append(syntheticRecord("c", 0.9));
    const std::uint64_t bytes_before = tail.counters().bytesRead;
    tail.refresh();
    EXPECT_EQ(tail.resolutions().size(), 3u);
    // Only the third record's bytes were read, not the whole store.
    EXPECT_EQ(tail.counters().bytesRead - bytes_before,
              fileSize(store) - before);
    EXPECT_EQ(tail.counters().fullRescans, 0u);

    // An idle refresh reads nothing at all.
    const std::uint64_t bytes_idle = tail.counters().bytesRead;
    tail.refresh();
    EXPECT_EQ(tail.counters().bytesRead, bytes_idle);
}

TEST(StoreTailReader, TornTrailingLineIsReReadAfterSeal)
{
    const auto dir = scratchDir("torn");
    std::filesystem::create_directories(sweepShardDir(dir.string()));
    const std::string shard = sweepShardPath(dir.string(), "w0");
    ResultStore(shard).append(syntheticRecord("a", 0.5));

    const JobResult second = syntheticRecord("b", 0.7);
    const std::string line = jobResultToStoredLine(second);
    const std::size_t half = line.size() / 2;
    {
        std::ofstream out(shard, std::ios::app);
        out << line.substr(0, half); // a killed writer's fragment
    }

    StoreTailReader tail(dir.string());
    tail.refresh();
    // The unterminated tail is left unconsumed — not decoded, not
    // quarantined.
    EXPECT_EQ(tail.resolutions().size(), 1u);
    EXPECT_EQ(tail.resolutions().count(second.fingerprint), 0u);
    EXPECT_FALSE(std::filesystem::exists(quarantineDirFor(shard)));

    {
        std::ofstream out(shard, std::ios::app);
        out << line.substr(half) << "\n"; // the append completes
    }
    tail.refresh();
    ASSERT_EQ(tail.resolutions().count(second.fingerprint), 1u);
    EXPECT_TRUE(tail.resolutions().at(second.fingerprint).completed);
    EXPECT_EQ(tail.counters().quarantinedLines, 0u);
    EXPECT_EQ(tail.counters().fullRescans, 0u);
}

TEST(StoreTailReader, CrcMismatchIsQuarantinedExactlyOnce)
{
    const auto dir = scratchDir("crc_once");
    std::filesystem::create_directories(sweepShardDir(dir.string()));
    const std::string shard = sweepShardPath(dir.string(), "w0");
    const JobResult good = syntheticRecord("good", 0.5);
    const JobResult victim = syntheticRecord("victim", 0.7);
    // Flip a digit inside the victim's stored line so it still parses
    // but fails its CRC.
    std::string line = jobResultToStoredLine(victim);
    const std::string key = "\"iterations\":";
    const std::size_t digit = line.find(key);
    ASSERT_NE(digit, std::string::npos);
    char &first = line[digit + key.size()];
    first = first == '9' ? '8' : '9';
    ResultStore(shard).append(good);
    {
        std::ofstream out(shard, std::ios::app);
        out << line << "\n";
    }

    StoreTailReader tail(dir.string());
    tail.refresh();
    EXPECT_EQ(tail.resolutions().size(), 1u);
    EXPECT_EQ(tail.counters().quarantinedLines, 1u);

    // A full rescan re-reads the corrupt line, but the
    // once-per-(file, line, content) gate keeps the quarantine
    // envelope unique.
    tail.invalidate();
    tail.refresh();
    EXPECT_EQ(tail.counters().fullRescans, 1u);
    EXPECT_EQ(tail.counters().quarantinedLines, 2u);
    std::string quarantined;
    ASSERT_TRUE(readTextFile(
        (std::filesystem::path(quarantineDirFor(shard)) / "w0.jsonl")
            .string(),
        quarantined));
    std::size_t envelopes = 0;
    for (const char c : quarantined)
        if (c == '\n')
            ++envelopes;
    EXPECT_EQ(envelopes, 1u);
    EXPECT_NE(quarantined.find("crc mismatch"), std::string::npos);
}

TEST(StoreTailReader, CompactionInvalidatesCursorsAndForcesRescan)
{
    const auto dir = scratchDir("compact");
    std::filesystem::create_directories(sweepShardDir(dir.string()));
    const JobResult a = syntheticRecord("a", 0.5);
    const JobResult b = syntheticRecord("b", 0.7);
    ResultStore(sweepShardPath(dir.string(), "w0")).append(a);
    ResultStore(sweepShardPath(dir.string(), "w1")).append(b);

    StoreTailReader tail(dir.string());
    tail.refresh();
    EXPECT_EQ(tail.resolutions().size(), 2u);
    EXPECT_EQ(tail.counters().fullRescans, 0u);

    // Compaction rewrites the layout: the tracked shards vanish into
    // the canonical store, so the next refresh must start clean — and
    // reach the same verdicts.
    compactSweepStore(dir.string(), /*removeMergedShards=*/true);
    tail.refresh();
    EXPECT_EQ(tail.counters().fullRescans, 1u);
    ASSERT_EQ(tail.resolutions().size(), 2u);
    EXPECT_TRUE(tail.resolutions().at(a.fingerprint).completed);
    EXPECT_TRUE(tail.resolutions().at(b.fingerprint).completed);
}

// ------------------------------------------------------- tiered store

TEST(TieredStore, RollAndFoldPreserveEveryRecordByteIdentically)
{
    std::vector<JobResult> records;
    for (int j = 0; j < 6; ++j)
        records.push_back(
            syntheticRecord("job" + std::to_string(j), 0.4 + 0.1 * j));

    // Reference: everything through one shard, straight compaction.
    const auto ref_dir = scratchDir("tier_ref");
    std::filesystem::create_directories(
        sweepShardDir(ref_dir.string()));
    {
        ResultStore shard(sweepShardPath(ref_dir.string(), "w0"));
        for (const JobResult &r : records)
            shard.append(r);
    }
    compactSweepStore(ref_dir.string(), /*removeMergedShards=*/true);
    std::string ref_store, ref_summary;
    ASSERT_TRUE(
        readTextFile(sweepStorePath(ref_dir.string()), ref_store));
    ASSERT_TRUE(
        readTextFile(sweepSummaryPath(ref_dir.string()), ref_summary));

    // Tiered: two rolls, a fanout-2 fold, a live shard remainder.
    const auto dir = scratchDir("tier_roll");
    std::filesystem::create_directories(sweepShardDir(dir.string()));
    const std::string shard = sweepShardPath(dir.string(), "w0");
    ResultStore(shard).append(records[0]);
    ResultStore(shard).append(records[1]);
    ASSERT_TRUE(rollShardToTier(dir.string(), "w0", 1));
    EXPECT_FALSE(std::filesystem::exists(shard));
    ResultStore(shard).append(records[2]);
    ResultStore(shard).append(records[3]);
    ASSERT_TRUE(rollShardToTier(dir.string(), "w0", 2));
    EXPECT_EQ(maintainTiers(dir.string(), 2), 1u);
    ResultStore(shard).append(records[4]);
    ResultStore(shard).append(records[5]);

    // The merged view sees all six, whatever file they live in.
    const std::vector<JobResult> merged =
        loadMergedRecords(dir.string());
    EXPECT_EQ(merged.size(), 6u);

    // And the final compaction is byte-identical to the untiered run.
    const SweepMergeStats stats =
        compactSweepStore(dir.string(), /*removeMergedShards=*/true);
    EXPECT_EQ(stats.tierFiles, 1u);
    EXPECT_EQ(stats.shardFiles, 1u);
    EXPECT_EQ(stats.uniqueRecords, 6u);
    std::string store, summary;
    ASSERT_TRUE(readTextFile(sweepStorePath(dir.string()), store));
    ASSERT_TRUE(readTextFile(sweepSummaryPath(dir.string()), summary));
    EXPECT_EQ(store, ref_store);
    EXPECT_EQ(summary, ref_summary);
    EXPECT_FALSE(std::filesystem::exists(shard));
    std::size_t leftover_tiers = 0;
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(
             sweepTierDir(dir.string()), ec)) {
        (void)entry;
        ++leftover_tiers;
    }
    EXPECT_EQ(leftover_tiers, 0u);
}

TEST(TieredStore, FoldIsIdempotentAndCascades)
{
    const auto dir = scratchDir("tier_cascade");
    std::filesystem::create_directories(sweepShardDir(dir.string()));
    const std::string shard = sweepShardPath(dir.string(), "w0");
    const auto roll_two = [&](int base) {
        for (int j = base; j < base + 2; ++j) {
            ResultStore(shard).append(syntheticRecord(
                "c" + std::to_string(j), 0.4 + 0.1 * j));
            ASSERT_TRUE(rollShardToTier(
                dir.string(), "w0", static_cast<std::uint64_t>(j)));
        }
    };
    // First pair: one L0→L1 fold, nothing to cascade yet.
    roll_two(0);
    EXPECT_EQ(maintainTiers(dir.string(), 2), 1u);
    // Second pair: the L0→L1 fold completes a pair at L1, so the
    // same pass cascades with an L1→L2 fold.
    roll_two(2);
    EXPECT_EQ(maintainTiers(dir.string(), 2), 2u);
    EXPECT_EQ(maintainTiers(dir.string(), 2), 0u); // idempotent
    const std::vector<JobResult> merged =
        loadMergedRecords(dir.string());
    EXPECT_EQ(merged.size(), 4u);
}

// -------------------------------------------------------- sweep index

TEST(SweepIndex, ReexpandsOnlyWhenTheRequestChanges)
{
    const auto dir = scratchDir("index");
    JsonValue request = JsonValue::array();
    request.push_back(scenarioToJson(tinySpec("a", 0.5)));
    request.push_back(scenarioToJson(tinySpec("b", 0.7)));
    writeTextFileAtomic(sweepSpecPath(dir.string()),
                        request.dump(2) + "\n");

    SweepIndex index(dir.string());
    index.refresh();
    index.refresh();
    index.refresh();
    EXPECT_EQ(index.expansions(), 1u);
    ASSERT_EQ(index.specs().size(), 2u);
    ASSERT_EQ(index.fingerprints().size(), 2u);
    const ScenarioSpec *hit =
        index.byFingerprint(index.fingerprints()[1]);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->name, "b");
    EXPECT_EQ(index.byFingerprint("no-such-fp"), nullptr);

    request.push_back(scenarioToJson(tinySpec("c", 0.9)));
    writeTextFileAtomic(sweepSpecPath(dir.string()),
                        request.dump(2) + "\n");
    index.refresh();
    EXPECT_EQ(index.expansions(), 2u);
    EXPECT_EQ(index.specs().size(), 3u);
}

TEST(SweepIndex, MissingSpecThrowsAndDuplicatesAreRejected)
{
    const auto dir = scratchDir("index_err");
    SweepIndex index(dir.string());
    EXPECT_THROW(index.refresh(), std::runtime_error);

    const std::vector<ScenarioSpec> dupes{tinySpec("same", 0.5),
                                          tinySpec("same", 0.5)};
    EXPECT_THROW(fingerprintSpecs(dupes), std::invalid_argument);
}

// ----------------------------------------------------- resolution fold

TEST(JobResolution, AccumulatesFailedAttemptsAcrossRecords)
{
    const JobResult one = syntheticFailure("poison", 1.0, 1, true);
    const JobResult two = syntheticFailure("poison", 1.0, 2);

    // Two failure records of the same job from different workers: the
    // fleet-wide budget sees their *sum*, and timedOut is sticky.
    JobResolution r;
    r.fold(one);
    r.fold(two);
    EXPECT_TRUE(r.failed);
    EXPECT_EQ(r.attempts, 3);
    EXPECT_TRUE(r.timedOut);
    // The deduplicated survivor carries the fold's count and flag.
    auto deduped = dedupeByFingerprint({one, two});
    ASSERT_EQ(deduped.size(), 1u);
    EXPECT_TRUE(deduped[0].failed);
    EXPECT_EQ(deduped[0].attempts, 3);
    EXPECT_TRUE(deduped[0].timedOut);

    // A completed record supersedes the failure history outright.
    const JobResult done = syntheticRecord("poison", 1.0);
    JobResolution wins;
    wins.fold(one);
    wins.fold(done);
    wins.fold(two);
    EXPECT_TRUE(wins.completed);
    EXPECT_FALSE(wins.failed);
    EXPECT_EQ(wins.priorAttempts(), 0);
    EXPECT_TRUE(wins.resolved(1000));
    deduped = dedupeByFingerprint({one, done, two});
    ASSERT_EQ(deduped.size(), 1u);
    EXPECT_TRUE(deduped[0].completed);
    EXPECT_FALSE(deduped[0].failed);
}

TEST(JobResolution, ResolvedHonorsTheFleetBudget)
{
    JobResolution done;
    done.fold(syntheticRecord("done", 0.5));
    JobResolution partial;
    partial.fold(syntheticFailure("partial", 0.5, 2));
    const JobResolution absent;

    // Budget 3: two recorded attempts leave one to spend — the job is
    // still pending fleet-wide.
    EXPECT_TRUE(done.resolved(3));
    EXPECT_FALSE(partial.resolved(3));
    EXPECT_FALSE(absent.resolved(3));
    // Budget 2: the partial failure is now spent too.
    EXPECT_TRUE(partial.resolved(2));

    EXPECT_EQ(partial.priorAttempts(), 2);
    EXPECT_EQ(done.priorAttempts(), 0);
    EXPECT_EQ(absent.priorAttempts(), 0);
}

TEST(JobResolution, VerdictAndSurvivorAreIndependentOfRecordOrder)
{
    // One job's mixed history: a completed record, two failed ones
    // (one a watchdog timeout) and a halted partial. Every subset, in
    // every order, must fold to one verdict, one attempt count and
    // one summary — directly and through the deduplicated survivor.
    JobResult halted = syntheticRecord("mixed", 0.7);
    halted.completed = false;
    halted.iterations = 2;
    const std::vector<JobResult> history = {
        syntheticRecord("mixed", 0.7),
        syntheticFailure("mixed", 0.7, 1),
        syntheticFailure("mixed", 0.7, 2, /*timed_out=*/true),
        halted,
    };
    const int budgets[] = {1, 2, 3, 4};
    for (unsigned mask = 1; mask < (1u << history.size()); ++mask) {
        std::vector<std::size_t> order;
        for (std::size_t i = 0; i < history.size(); ++i)
            if (mask & (1u << i))
                order.push_back(i);
        std::string first;
        do {
            std::vector<JobResult> records;
            JobResolution direct;
            for (const std::size_t i : order) {
                records.push_back(history[i]);
                direct.fold(history[i]);
            }
            const std::vector<JobResult> deduped =
                dedupeByFingerprint(records, false);
            ASSERT_EQ(deduped.size(), 1u);
            JobResolution survivor;
            survivor.fold(deduped[0]);

            std::string signature =
                sweepSummaryJson(deduped).dump() + " prior="
                + std::to_string(direct.priorAttempts());
            for (const int budget : budgets) {
                EXPECT_EQ(direct.resolved(budget),
                          survivor.resolved(budget))
                    << "mask " << mask << " budget " << budget;
                signature += direct.resolved(budget) ? " R" : " P";
            }
            EXPECT_EQ(direct.priorAttempts(), survivor.priorAttempts())
                << "mask " << mask;
            if (first.empty())
                first = signature;
            EXPECT_EQ(signature, first) << "mask " << mask;
        } while (std::next_permutation(order.begin(), order.end()));
    }

    // The case that used to disagree: a spent failure followed by a
    // halted partial stays resolved under its budget.
    JobResolution spent;
    spent.fold(syntheticFailure("mixed", 0.7, 3));
    spent.fold(halted);
    EXPECT_TRUE(spent.resolved(3));
    const std::vector<JobResult> deduped = dedupeByFingerprint(
        {syntheticFailure("mixed", 0.7, 3), halted}, false);
    ASSERT_EQ(deduped.size(), 1u);
    EXPECT_TRUE(deduped[0].failed);
    EXPECT_EQ(deduped[0].attempts, 3);
}

TEST(StoredLine, FailedRecordWithoutAttemptsIsQuarantined)
{
    // Every failed record accounts for the attempt that wrote it; a
    // stored failure claiming fewer is malformed like any torn line.
    const JobResult zero = syntheticFailure("zero", 0.5, 0);
    const std::string line = jobResultToStoredLine(zero);
    JobResult decoded;
    std::string reason;
    EXPECT_EQ(decodeStoredLine(line, decoded, &reason),
              StoredLineStatus::ParseFailure);
    EXPECT_NE(reason.find("attempts"), std::string::npos);
    EXPECT_EQ(decodeStoredLine(jobResultToStoredLine(
                                   syntheticFailure("one", 0.5, 1)),
                               decoded),
              StoredLineStatus::Ok);

    const auto dir = scratchDir("zero_attempts");
    const std::string shard = sweepShardPath(dir.string(), "w0");
    std::filesystem::create_directories(sweepShardDir(dir.string()));
    {
        std::ofstream out(shard, std::ios::app);
        out << line << "\n";
    }
    StoreLoadStats stats;
    EXPECT_TRUE(ResultStore(shard).load(&stats).empty());
    EXPECT_EQ(stats.parseFailures, 1u);
    std::string quarantined;
    ASSERT_TRUE(readTextFile(
        (std::filesystem::path(quarantineDirFor(shard)) / "w0.jsonl")
            .string(),
        quarantined));
    EXPECT_NE(quarantined.find("attempts < 1"), std::string::npos);
}

} // namespace
} // namespace treevqa
