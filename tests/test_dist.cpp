/**
 * @file
 * Tests for the distributed work-claiming execution layer (src/dist/):
 * file-lock claims with lease expiry and stale takeover, the worker
 * daemon's scan→claim→run→record loop, per-worker store shards and
 * their deterministic merge/compaction, and the invariant the whole
 * layer exists to keep — any worker count, any kill schedule, same
 * final energies as a single-process JobScheduler run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "dist/health.h"
#include "dist/store_merge.h"
#include "dist/work_claim.h"
#include "dist/worker_daemon.h"
#include "svc/job_scheduler.h"
#include "svc/sweep_dir.h"

namespace treevqa {
namespace {

// ------------------------------------------------------------- helpers

std::filesystem::path
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / ("dist_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** A tiny, fast scenario (4-qubit TFIM, 1-layer HEA, SPSA). */
ScenarioSpec
tinySpec(const std::string &name, double field, int iterations = 12)
{
    ScenarioSpec spec;
    spec.name = name;
    spec.problem = "tfim";
    spec.size = 4;
    spec.field = field;
    spec.ansatz = "hea";
    spec.layers = 1;
    spec.engine.shotsPerTerm = 256;
    spec.maxIterations = iterations;
    spec.seed = 99;
    spec.checkpointInterval = 4;
    return spec;
}

std::vector<ScenarioSpec>
tinySweep(int jobs = 4)
{
    std::vector<ScenarioSpec> specs;
    for (int j = 0; j < jobs; ++j)
        specs.push_back(
            tinySpec("job" + std::to_string(j), 0.5 + 0.2 * j));
    return specs;
}

void
expectJobsBitIdentical(const JobResult &a, const JobResult &b)
{
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.shotsUsed, b.shotsUsed);
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
    for (std::size_t i = 0; i < a.trajectory.size(); ++i)
        EXPECT_EQ(a.trajectory[i], b.trajectory[i]) << "iteration " << i;
    EXPECT_EQ(a.bestLoss, b.bestLoss);
    ASSERT_EQ(a.bestParams.size(), b.bestParams.size());
    for (std::size_t i = 0; i < a.bestParams.size(); ++i)
        EXPECT_EQ(a.bestParams[i], b.bestParams[i]) << "param " << i;
    EXPECT_EQ(a.finalEnergy, b.finalEnergy);
}

/** Single-process reference run of the same sweep in its own dir. */
std::vector<JobResult>
referenceRun(const std::vector<ScenarioSpec> &specs,
             const std::string &name)
{
    SchedulerConfig config;
    config.outDir = scratchDir(name).string();
    return JobScheduler(config).run(specs).jobs;
}

// ------------------------------------------------------------ file util

TEST(FileUtil, ExclusiveCreateAdmitsExactlyOneWriter)
{
    const auto dir = scratchDir("excl");
    const std::string path = (dir / "token").string();
    EXPECT_TRUE(tryCreateExclusiveText(path, "first"));
    EXPECT_FALSE(tryCreateExclusiveText(path, "second"));
    std::string content;
    ASSERT_TRUE(readTextFile(path, content));
    EXPECT_EQ(content, "first");
}

TEST(FileUtil, AtomicWriteReplacesWholeFile)
{
    const auto dir = scratchDir("atomic");
    const std::string path = (dir / "f").string();
    writeTextFileAtomic(path, "one");
    writeTextFileAtomic(path, "two");
    std::string content;
    ASSERT_TRUE(readTextFile(path, content));
    EXPECT_EQ(content, "two");
    // No staging temp left behind.
    std::size_t entries = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        (void)entry;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
}

TEST(FileUtil, SanitizeFileTokenStripsSeparators)
{
    EXPECT_EQ(sanitizeFileToken("host-1_a.B"), "host-1_a.B");
    EXPECT_EQ(sanitizeFileToken("../evil/../x"), ".._evil_.._x");
    EXPECT_EQ(sanitizeFileToken("a b:c"), "a_b_c");
}

// ----------------------------------------------------------- work claim

TEST(WorkClaim, AcquireIsExclusiveUntilReleased)
{
    const auto dir = scratchDir("claim_excl");
    auto first = WorkClaim::tryAcquire(dir.string(), "fp1", "alice",
                                       60000);
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(first->held());
    EXPECT_EQ(first->info().owner, "alice");

    bool reaped = true;
    EXPECT_FALSE(WorkClaim::tryAcquire(dir.string(), "fp1", "bob",
                                       60000, &reaped)
                     .has_value());
    EXPECT_FALSE(reaped);
    // A different fingerprint is independent.
    EXPECT_TRUE(WorkClaim::tryAcquire(dir.string(), "fp2", "bob",
                                      60000)
                    .has_value());

    first->release();
    EXPECT_FALSE(first->held());
    EXPECT_TRUE(WorkClaim::tryAcquire(dir.string(), "fp1", "bob",
                                      60000)
                    .has_value());
}

TEST(WorkClaim, RenewExtendsTheDeadline)
{
    const auto dir = scratchDir("claim_renew");
    auto claim = WorkClaim::tryAcquire(dir.string(), "fp", "w", 60000);
    ASSERT_TRUE(claim.has_value());
    const std::int64_t before = claim->info().deadlineMs;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(claim->renew());
    const auto peeked = WorkClaim::peek(dir.string(), "fp");
    ASSERT_TRUE(peeked.has_value());
    EXPECT_GT(peeked->deadlineMs, before);
    EXPECT_EQ(peeked->renewals, 1);
    EXPECT_EQ(peeked->owner, "w");
}

TEST(WorkClaim, StaleLeaseIsReapedAndLoserLearnsIt)
{
    const auto dir = scratchDir("claim_stale");
    auto dead = WorkClaim::tryAcquire(dir.string(), "fp", "crashed",
                                      20);
    ASSERT_TRUE(dead.has_value());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    bool reaped = false;
    auto taken = WorkClaim::tryAcquire(dir.string(), "fp", "survivor",
                                       60000, &reaped);
    ASSERT_TRUE(taken.has_value());
    EXPECT_TRUE(reaped);
    EXPECT_EQ(taken->info().owner, "survivor");

    // The original holder discovers the loss on its next heartbeat and
    // must not delete the new owner's lock on release.
    EXPECT_FALSE(dead->renew());
    dead->release();
    const auto peeked = WorkClaim::peek(dir.string(), "fp");
    ASSERT_TRUE(peeked.has_value());
    EXPECT_EQ(peeked->owner, "survivor");
}

TEST(WorkClaim, TornClaimFileIsReapable)
{
    const auto dir = scratchDir("claim_torn");
    const std::string path = WorkClaim::claimPath(dir.string(), "fp");
    {
        std::ofstream torn(path);
        torn << "{\"owner\": \"half-writ";
    }
    bool reaped = false;
    auto claim = WorkClaim::tryAcquire(dir.string(), "fp", "w", 60000,
                                       &reaped);
    ASSERT_TRUE(claim.has_value());
    EXPECT_TRUE(reaped);
}

TEST(WorkClaim, EmptyClaimFileIsReapedOnlyAfterALease)
{
    // An empty claim is a creator between its exclusive create and its
    // write: live until it is a lease old, then a dead creator's.
    const auto dir = scratchDir("claim_empty");
    const std::string path = WorkClaim::claimPath(dir.string(), "fp");
    std::ofstream(path).close();
    EXPECT_FALSE(
        WorkClaim::tryAcquire(dir.string(), "fp", "w", 60000).has_value());

    std::filesystem::last_write_time(
        path, std::filesystem::last_write_time(path)
                  - std::chrono::minutes(5));
    bool reaped = false;
    auto claim = WorkClaim::tryAcquire(dir.string(), "fp", "w", 60000,
                                       &reaped);
    ASSERT_TRUE(claim.has_value());
    EXPECT_TRUE(reaped);
}

TEST(WorkClaim, InfoJsonRoundTrips)
{
    ClaimInfo info;
    info.fingerprint = "abc123";
    info.owner = "host-42";
    info.acquiredMs = 1753660800000;
    info.deadlineMs = 1753660830000;
    info.leaseMs = 30000;
    info.renewals = 7;
    const ClaimInfo back =
        claimFromJson(JsonValue::parse(claimToJson(info).dump()));
    EXPECT_EQ(back.fingerprint, info.fingerprint);
    EXPECT_EQ(back.owner, info.owner);
    EXPECT_EQ(back.acquiredMs, info.acquiredMs);
    EXPECT_EQ(back.deadlineMs, info.deadlineMs);
    EXPECT_EQ(back.leaseMs, info.leaseMs);
    EXPECT_EQ(back.renewals, info.renewals);
}

TEST(WorkClaim, StalenessToleratesClockSkewBothWays)
{
    ClaimInfo info;
    info.leaseMs = 10000;
    info.deadlineMs = 1753660830000;
    const std::int64_t grace = 1000; // < leaseMs/2, used as-is

    // Reaper's clock behind the owner's: deadline still in the
    // reaper's future — never stale.
    EXPECT_FALSE(claimIsStale(info, info.deadlineMs - 5000, grace));
    // Reaper's clock ahead by less than the grace: not stale, the
    // owner may be alive and about to renew.
    EXPECT_FALSE(claimIsStale(info, info.deadlineMs + grace, grace));
    // Past the grace the lease is genuinely dead.
    EXPECT_TRUE(
        claimIsStale(info, info.deadlineMs + grace + 1, grace));

    // Short leases clamp the grace to leaseMs/2 so expiry tests (and
    // fast-reaping fleets) aren't swamped by the skew margin.
    ClaimInfo quick = info;
    quick.leaseMs = 20;
    EXPECT_FALSE(claimIsStale(quick, quick.deadlineMs + 10, grace));
    EXPECT_TRUE(claimIsStale(quick, quick.deadlineMs + 11, grace));
}

TEST(WorkClaim, ImplausiblyFutureDeadlineIsImmediatelyStale)
{
    // A deadline more than leaseMs + grace ahead of the reaper's
    // clock cannot have been written by any owner within the
    // tolerated skew — corrupt content or a runaway clock. It must
    // not pin the lock for an hour.
    ClaimInfo info;
    info.leaseMs = 1000;
    info.deadlineMs = 1753660830000;
    const std::int64_t grace = 400; // min(400, 500) = 400
    const std::int64_t now = info.deadlineMs - 3600000;
    EXPECT_TRUE(claimIsStale(info, now, grace));
    // Right at the plausibility bound it is a normal live lease.
    EXPECT_FALSE(claimIsStale(
        info, info.deadlineMs - info.leaseMs - grace, grace));
}

TEST(WorkClaim, ReaperAheadOfOwnerDoesNotStealLiveLease)
{
    const auto dir = scratchDir("claim_skew_ahead");
    // Simulate an owner whose clock runs ~1.5s behind ours: the
    // deadline it wrote is already past on our clock, but within the
    // skew grace for its 60s lease.
    ClaimInfo owner;
    owner.fingerprint = "fp";
    owner.owner = "slow-clock";
    owner.leaseMs = 60000;
    owner.acquiredMs = unixTimeMs() - 61500;
    owner.deadlineMs = unixTimeMs() - 1500;
    writeTextFileAtomic(WorkClaim::claimPath(dir.string(), "fp"),
                        claimToJson(owner).dump() + "\n");

    // Default grace (1000ms) — expired beyond it, reapable.
    bool reaped = false;
    EXPECT_TRUE(WorkClaim::tryAcquire(dir.string(), "fp", "us", 60000,
                                      &reaped)
                    .has_value());
    EXPECT_TRUE(reaped);

    // With a grace that covers the skew, the lease is respected.
    writeTextFileAtomic(WorkClaim::claimPath(dir.string(), "fp2"),
                        claimToJson(owner).dump() + "\n");
    EXPECT_FALSE(WorkClaim::tryAcquire(dir.string(), "fp2", "us",
                                       60000, &reaped,
                                       /*skewGraceMs=*/5000)
                     .has_value());
}

TEST(WorkClaim, OwnerAheadOfReaperCannotPinTheLockForever)
{
    const auto dir = scratchDir("claim_skew_behind");
    // An owner whose clock ran far ahead wrote a deadline an hour in
    // our future before dying; its 100ms lease says no honest renewal
    // chain can explain that. The lock must be reapable now.
    ClaimInfo owner;
    owner.fingerprint = "fp";
    owner.owner = "fast-clock";
    owner.leaseMs = 100;
    owner.acquiredMs = unixTimeMs();
    owner.deadlineMs = unixTimeMs() + 3600000;
    writeTextFileAtomic(WorkClaim::claimPath(dir.string(), "fp"),
                        claimToJson(owner).dump() + "\n");

    bool reaped = false;
    auto claim = WorkClaim::tryAcquire(dir.string(), "fp", "us", 60000,
                                       &reaped);
    ASSERT_TRUE(claim.has_value());
    EXPECT_TRUE(reaped);
}

TEST(WorkClaim, DoubleReapRaceAdmitsExactlyOneWinner)
{
    const auto dir = scratchDir("claim_double_reap");
    // Two contenders race to reap the same stale claim, repeatedly:
    // the rename protocol must admit exactly one per round, and the
    // loser must see a clean "not acquired", never a second lease.
    for (int round = 0; round < 25; ++round) {
        const std::string fp = "fp" + std::to_string(round);
        ClaimInfo dead;
        dead.fingerprint = fp;
        dead.owner = "crashed";
        dead.leaseMs = 20;
        dead.acquiredMs = unixTimeMs() - 1000;
        dead.deadlineMs = unixTimeMs() - 980;
        writeTextFileAtomic(WorkClaim::claimPath(dir.string(), fp),
                            claimToJson(dead).dump() + "\n");

        std::atomic<int> wins{0};
        std::atomic<int> reaps{0};
        const auto contender = [&](const std::string &owner) {
            bool reaped = false;
            auto claim = WorkClaim::tryAcquire(dir.string(), fp,
                                               owner, 60000, &reaped);
            if (claim.has_value()) {
                ++wins;
                if (reaped)
                    ++reaps;
            }
        };
        std::thread a(contender, "alice");
        std::thread b(contender, "bob");
        a.join();
        b.join();
        ASSERT_EQ(wins.load(), 1) << "round " << round;
        // Reap attribution is best-effort: the loser's rename may
        // clear the stale lock just before the winner's fresh O_EXCL
        // create, in which case the winner never saw the old claim.
        // What must never happen is two contenders both counting it.
        ASSERT_LE(reaps.load(), 1) << "round " << round;
        const auto peeked = WorkClaim::peek(dir.string(), fp);
        ASSERT_TRUE(peeked.has_value());
        EXPECT_TRUE(peeked->owner == "alice"
                    || peeked->owner == "bob");
    }
}

// -------------------------------------------------- store dedup + merge

TEST(ResultStoreDedupe, KeepsTheNewestCompleteRecord)
{
    JobResult stale;
    stale.spec = tinySpec("dup", 1.0);
    stale.fingerprint = "F";
    stale.completed = false;
    stale.iterations = 3;

    JobResult complete = stale;
    complete.completed = true;
    complete.iterations = 12;

    JobResult other;
    other.spec = tinySpec("other", 0.5);
    other.fingerprint = "G";
    other.completed = true;
    other.iterations = 12;

    // Incomplete-then-complete: the complete one wins.
    auto deduped = dedupeByFingerprint({stale, other, complete});
    ASSERT_EQ(deduped.size(), 2u);
    EXPECT_EQ(deduped[0].fingerprint, "F");
    EXPECT_TRUE(deduped[0].completed);
    EXPECT_EQ(deduped[1].fingerprint, "G");

    // Complete-then-incomplete: the complete one still wins.
    deduped = dedupeByFingerprint({complete, stale});
    ASSERT_EQ(deduped.size(), 1u);
    EXPECT_TRUE(deduped[0].completed);

    // Two complete duplicates: the one further along wins, in either
    // order (the survivor rule is order-free).
    JobResult newer = complete;
    newer.iterations = 24;
    for (const auto &records :
         {std::vector<JobResult>{complete, newer},
          std::vector<JobResult>{newer, complete}}) {
        deduped = dedupeByFingerprint(records);
        ASSERT_EQ(deduped.size(), 1u);
        EXPECT_EQ(deduped[0].iterations, 24);
    }
}

TEST(StoreMerge, FoldsShardsIntoTheCanonicalStore)
{
    const auto dir = scratchDir("merge");
    std::filesystem::create_directories(sweepShardDir(dir.string()));

    const JobResult a = runScenario(tinySpec("a", 0.7, 6));
    const JobResult b = runScenario(tinySpec("b", 1.1, 6));
    const JobResult c = runScenario(tinySpec("c", 1.5, 6));

    // Canonical holds a; two shards hold b, c, and a duplicate of a.
    ResultStore(sweepStorePath(dir.string())).append(a);
    ResultStore(sweepShardPath(dir.string(), "w1")).append(c);
    ResultStore(sweepShardPath(dir.string(), "w2")).append(b);
    ResultStore(sweepShardPath(dir.string(), "w2")).append(a);

    const std::vector<JobResult> merged =
        loadMergedRecords(dir.string());
    ASSERT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged[0].spec.name, "a"); // name-sorted
    EXPECT_EQ(merged[1].spec.name, "b");
    EXPECT_EQ(merged[2].spec.name, "c");
    expectJobsBitIdentical(merged[0], a);
    expectJobsBitIdentical(merged[1], b);
    expectJobsBitIdentical(merged[2], c);

    // A merge over a possibly-live fleet folds shards but keeps them.
    const SweepMergeStats live = compactSweepStore(dir.string(), false);
    EXPECT_EQ(live.inputRecords, 4u);
    EXPECT_EQ(live.uniqueRecords, 3u);
    EXPECT_EQ(live.shardFiles, 2u);
    EXPECT_TRUE(std::filesystem::exists(
        sweepShardPath(dir.string(), "w1")));

    // The drained-sweep compaction retires the shards.
    const SweepMergeStats stats = compactSweepStore(dir.string(), true);
    EXPECT_EQ(stats.uniqueRecords, 3u);
    EXPECT_FALSE(std::filesystem::exists(
        sweepShardPath(dir.string(), "w1")));
    EXPECT_FALSE(std::filesystem::exists(
        sweepShardPath(dir.string(), "w2")));

    // The compacted canonical store round-trips and the summary is on
    // disk; a second compaction is a byte-identical no-op.
    std::string store_once, summary_once;
    ASSERT_TRUE(readTextFile(sweepStorePath(dir.string()), store_once));
    ASSERT_TRUE(
        readTextFile(sweepSummaryPath(dir.string()), summary_once));
    compactSweepStore(dir.string(), true);
    std::string store_twice, summary_twice;
    ASSERT_TRUE(
        readTextFile(sweepStorePath(dir.string()), store_twice));
    ASSERT_TRUE(
        readTextFile(sweepSummaryPath(dir.string()), summary_twice));
    EXPECT_EQ(store_once, store_twice);
    EXPECT_EQ(summary_once, summary_twice);
    EXPECT_EQ(summary_once,
              sweepSummaryJson(merged).dump(2) + "\n");
}

TEST(StoreMerge, MergeOnlyPassesNeverInflateFailedAttempts)
{
    // Two workers each spent one attempt on the same failing job. A
    // merge over a live fleet must leave the record files alone: a
    // canonical store holding the summed attempts beside the shards'
    // originals would be folded again by every later load (2 -> 4 ->
    // 6).
    const auto dir = scratchDir("merge_only_attempts");
    std::filesystem::create_directories(sweepShardDir(dir.string()));
    const ScenarioSpec spec = tinySpec("flaky", 0.8);
    JobResult failed;
    failed.spec = spec;
    failed.fingerprint = scenarioFingerprint(spec);
    failed.failed = true;
    failed.errorMessage = "injected";
    failed.attempts = 1;
    ResultStore(sweepShardPath(dir.string(), "w1")).append(failed);
    ResultStore(sweepShardPath(dir.string(), "w2")).append(failed);
    std::string shard_before;
    ASSERT_TRUE(readTextFile(sweepShardPath(dir.string(), "w1"),
                             shard_before));

    for (int pass = 0; pass <= 2; ++pass) {
        if (pass > 0) {
            const SweepMergeStats stats =
                compactSweepStore(dir.string(), false);
            EXPECT_FALSE(stats.raced);
            EXPECT_EQ(stats.uniqueRecords, 1u);
        }
        const std::vector<JobResult> merged =
            loadMergedRecords(dir.string());
        ASSERT_EQ(merged.size(), 1u);
        EXPECT_EQ(merged[0].attempts, 2)
            << "after " << pass << " merge-only pass(es)";
    }
    // Only the derived summary was written.
    EXPECT_FALSE(std::filesystem::exists(sweepStorePath(dir.string())));
    EXPECT_TRUE(std::filesystem::exists(sweepSummaryPath(dir.string())));
    std::string shard_after;
    ASSERT_TRUE(readTextFile(sweepShardPath(dir.string(), "w1"),
                             shard_after));
    EXPECT_EQ(shard_after, shard_before);

    // The drained compaction still folds to the same count, once.
    compactSweepStore(dir.string(), true);
    const std::vector<JobResult> compacted =
        loadMergedRecords(dir.string());
    ASSERT_EQ(compacted.size(), 1u);
    EXPECT_EQ(compacted[0].attempts, 2);
}

TEST(StoreMerge, CompactionRacingAPeerCompactionLosesNoRecord)
{
    // Two drained workers compact at once. The slow one reads the old
    // (empty) canonical store, then stalls; the fast one compacts every
    // shard and tier into the store and deletes them. The slow one must
    // not then write its stale view over the fast one's store.
    const auto dir = scratchDir("merge_race");
    const std::string sweep = dir.string();
    std::filesystem::create_directories(sweepShardDir(sweep));
    const auto record = [](const std::string &name, double field) {
        JobResult r;
        r.spec = tinySpec(name, field);
        r.fingerprint = scenarioFingerprint(r.spec);
        r.completed = true;
        r.iterations = 1;
        r.trajectory = {1.0};
        r.bestLoss = 1.0;
        r.finalEnergy = -field;
        return r;
    };
    ResultStore(sweepShardPath(sweep, "w0")).append(record("a", 0.5));
    ResultStore(sweepShardPath(sweep, "w0")).append(record("b", 0.7));
    ResultStore(sweepShardPath(sweep, "w1")).append(record("c", 0.9));
    ASSERT_TRUE(rollShardToTier(sweep, "w1", 0));

    FaultInjection::instance().arm(
        R"({"seed": 1, "faults": [{"site": "merge.load_canonical",
            "action": "delay-ms", "ms": 300, "hit": 1}]})");
    SweepMergeStats slow;
    std::thread slow_worker(
        [&] { slow = compactSweepStore(sweep, true); });
    // The slow compaction has read the canonical store once it reaches
    // the site; the fast one runs entirely inside its delay.
    while (FaultInjection::instance()
               .counters()["merge.load_canonical"]
               .evaluations
           == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const SweepMergeStats fast = compactSweepStore(sweep, true);
    slow_worker.join();
    FaultInjection::instance().disarm();

    EXPECT_EQ(fast.uniqueRecords, 3u);
    EXPECT_FALSE(slow.raced);
    EXPECT_EQ(slow.uniqueRecords, 3u);
    const std::vector<JobResult> store =
        ResultStore(sweepStorePath(sweep)).load();
    ASSERT_EQ(store.size(), 3u);
    EXPECT_EQ(store[0].spec.name, "a");
    EXPECT_EQ(store[1].spec.name, "b");
    EXPECT_EQ(store[2].spec.name, "c");
    std::string summary;
    ASSERT_TRUE(readTextFile(sweepSummaryPath(sweep), summary));
    EXPECT_EQ(summary, sweepSummaryJson(store).dump(2) + "\n");
}

// -------------------------------------------------------- worker daemon

TEST(WorkerDaemon, SingleWorkerDrainsMatchingTheScheduler)
{
    const auto dir = scratchDir("one_worker");
    const std::vector<ScenarioSpec> specs = tinySweep(4);
    const std::vector<JobResult> reference =
        referenceRun(specs, "one_worker_ref");

    WorkerOptions options;
    options.sweepDir = dir.string();
    options.workerId = "w1";
    options.leaseMs = 60000;
    const WorkerReport report = WorkerDaemon(options).run(specs);

    EXPECT_EQ(report.completed, 4u);
    EXPECT_EQ(report.lostClaims, 0u);
    EXPECT_EQ(report.reapedLeases, 0u);
    EXPECT_TRUE(report.drained);
    EXPECT_TRUE(report.merged);

    const std::vector<JobResult> merged =
        loadMergedRecords(dir.string());
    ASSERT_EQ(merged.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectJobsBitIdentical(merged[i], reference[i]);
    // The deterministic summary agrees byte for byte.
    std::string summary;
    ASSERT_TRUE(readTextFile(sweepSummaryPath(dir.string()), summary));
    EXPECT_EQ(summary, sweepSummaryJson(reference).dump(2) + "\n");
    // No claims left behind.
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_FALSE(
            WorkClaim::peek(sweepClaimDir(dir.string()),
                            scenarioFingerprint(specs[i]))
                .has_value());
}

TEST(WorkerDaemon, TwoConcurrentWorkersShareOneSweep)
{
    const auto dir = scratchDir("two_workers");
    const std::vector<ScenarioSpec> specs = tinySweep(6);
    const std::vector<JobResult> reference =
        referenceRun(specs, "two_workers_ref");

    const auto make_options = [&](const char *id) {
        WorkerOptions options;
        options.sweepDir = dir.string();
        options.workerId = id;
        options.leaseMs = 60000; // never expires within the test
        options.pollMs = 5;
        return options;
    };
    WorkerDaemon wa(make_options("wa"));
    WorkerDaemon wb(make_options("wb"));
    WorkerReport ra, rb;
    std::thread ta([&] { ra = wa.run(specs); });
    std::thread tb([&] { rb = wb.run(specs); });
    ta.join();
    tb.join();

    // Every job ran exactly once across the fleet (no lease expired,
    // so no double work), and both workers saw the sweep drained.
    EXPECT_EQ(ra.completed + rb.completed, specs.size());
    EXPECT_EQ(ra.lostClaims + rb.lostClaims, 0u);
    EXPECT_TRUE(ra.drained);
    EXPECT_TRUE(rb.drained);

    const std::vector<JobResult> merged =
        loadMergedRecords(dir.string());
    ASSERT_EQ(merged.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectJobsBitIdentical(merged[i], reference[i]);
    std::string summary;
    ASSERT_TRUE(readTextFile(sweepSummaryPath(dir.string()), summary));
    EXPECT_EQ(summary, sweepSummaryJson(reference).dump(2) + "\n");
}

TEST(WorkerDaemon, CrashedWorkersJobIsReclaimedFromItsCheckpoint)
{
    const auto dir = scratchDir("takeover");
    const std::vector<ScenarioSpec> specs = tinySweep(3);
    const std::vector<JobResult> reference =
        referenceRun(specs, "takeover_ref");

    // Worker A "crashes" mid-job: the halt hook stops its first job
    // after 6 iterations (durable checkpoint at 4) and the daemon
    // returns without releasing the claim — the exact on-disk state a
    // SIGKILL leaves behind.
    WorkerOptions crash_options;
    crash_options.sweepDir = dir.string();
    crash_options.workerId = "crasher";
    crash_options.leaseMs = 200;
    // One claim at a time so exactly one (the crashed job's) is left;
    // BatchedClaimCrashAbandonsTheWholeBatch covers claimBatch > 1.
    crash_options.claimBatch = 1;
    crash_options.haltJobsAfterIterations = 6;
    const WorkerReport crashed =
        WorkerDaemon(crash_options).run(specs);
    EXPECT_TRUE(crashed.simulatedCrash);
    EXPECT_EQ(crashed.completed, 0u);

    // Exactly one claim (the crashed job's) and its checkpoint remain.
    std::size_t leftover_claims = 0;
    std::string crashed_fp;
    for (const ScenarioSpec &spec : specs) {
        const std::string fp = scenarioFingerprint(spec);
        if (WorkClaim::peek(sweepClaimDir(dir.string()), fp)) {
            ++leftover_claims;
            crashed_fp = fp;
        }
    }
    ASSERT_EQ(leftover_claims, 1u);
    const auto peeked =
        peekCheckpoint(sweepCheckpointPath(dir.string(), crashed_fp));
    ASSERT_TRUE(peeked.has_value());
    EXPECT_EQ(peeked->fingerprint, crashed_fp);
    EXPECT_EQ(peeked->iteration, 4);

    // The survivor waits out the stale lease, reaps it, resumes the
    // job from the checkpoint, and drains the rest of the sweep.
    WorkerOptions survivor_options;
    survivor_options.sweepDir = dir.string();
    survivor_options.workerId = "survivor";
    survivor_options.leaseMs = 60000;
    survivor_options.pollMs = 10;
    const WorkerReport survived =
        WorkerDaemon(survivor_options).run(specs);
    EXPECT_EQ(survived.completed, specs.size());
    EXPECT_GE(survived.reapedLeases, 1u);
    EXPECT_GE(survived.resumed, 1u);
    EXPECT_TRUE(survived.drained);
    EXPECT_TRUE(survived.merged);

    // The kill schedule is invisible in the results: bit-identical to
    // the uninterrupted single-process run, including the job that
    // crossed two workers.
    const std::vector<JobResult> merged =
        loadMergedRecords(dir.string());
    ASSERT_EQ(merged.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectJobsBitIdentical(merged[i], reference[i]);
    std::string summary;
    ASSERT_TRUE(readTextFile(sweepSummaryPath(dir.string()), summary));
    EXPECT_EQ(summary, sweepSummaryJson(reference).dump(2) + "\n");
}

TEST(WorkerDaemon, SkipsJobsAlreadyRecordedAndStopsAtMaxJobs)
{
    const auto dir = scratchDir("skip");
    const std::vector<ScenarioSpec> specs = tinySweep(4);

    WorkerOptions options;
    options.sweepDir = dir.string();
    options.workerId = "first";
    options.leaseMs = 60000;
    options.maxJobs = 1;
    options.mergeOnDrain = false;
    const WorkerReport first = WorkerDaemon(options).run(specs);
    EXPECT_EQ(first.completed, 1u);
    EXPECT_FALSE(first.drained);

    options.workerId = "second";
    options.maxJobs = 0;
    const WorkerReport second = WorkerDaemon(options).run(specs);
    EXPECT_EQ(second.completed, specs.size() - 1);
    EXPECT_TRUE(second.drained);

    // A third worker finds nothing to do.
    options.workerId = "third";
    const WorkerReport third = WorkerDaemon(options).run(specs);
    EXPECT_EQ(third.completed, 0u);
    EXPECT_TRUE(third.drained);
}

TEST(WorkerDaemon, RejectsBadOptionsAndDuplicateSpecs)
{
    WorkerOptions no_dir;
    EXPECT_THROW(WorkerDaemon{no_dir}, std::invalid_argument);

    WorkerOptions bad_id;
    bad_id.sweepDir = scratchDir("bad_id").string();
    bad_id.workerId = "no/slashes allowed";
    EXPECT_THROW(WorkerDaemon{bad_id}, std::invalid_argument);

    WorkerOptions options;
    options.sweepDir = scratchDir("dup_specs").string();
    options.workerId = "w";
    const std::vector<ScenarioSpec> dupes = {tinySpec("same", 1.0),
                                             tinySpec("same", 1.0)};
    EXPECT_THROW(WorkerDaemon(options).run(dupes),
                 std::invalid_argument);
}

TEST(WorkerDaemon, LoadsSweepSpecsFromTheSharedDirectory)
{
    const auto dir = scratchDir("spec_file");
    EXPECT_THROW(WorkerDaemon::loadSweepSpecs(dir.string()),
                 std::runtime_error);
    writeTextFileAtomic(
        sweepSpecPath(dir.string()),
        R"({"name": "s", "problem": "tfim", "size": 4,
            "sweep": {"field": [0.5, 1.0]}})");
    const std::vector<ScenarioSpec> specs =
        WorkerDaemon::loadSweepSpecs(dir.string());
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].name, "s/field=0.5");
}

// ---------------------------------------------- fleet robustness layer

TEST(WorkClaim, RenewStampsMonotonicProgressIntoTheClaim)
{
    const auto dir = scratchDir("progress");
    auto claim = WorkClaim::tryAcquire(dir.string(), "FP", "w", 60000);
    ASSERT_TRUE(claim.has_value());
    EXPECT_EQ(claim->info().progress, -1);

    ASSERT_TRUE(claim->renew(3));
    auto peeked = WorkClaim::peek(dir.string(), "FP");
    ASSERT_TRUE(peeked.has_value());
    EXPECT_EQ(peeked->progress, 3);

    // A renewal without a progress value keeps the previous stamp —
    // the watchdog distinguishes "lease alive, job frozen" from
    // "lease alive, job advancing".
    ASSERT_TRUE(claim->renew());
    peeked = WorkClaim::peek(dir.string(), "FP");
    ASSERT_TRUE(peeked.has_value());
    EXPECT_EQ(peeked->progress, 3);

    ASSERT_TRUE(claim->renew(7));
    peeked = WorkClaim::peek(dir.string(), "FP");
    ASSERT_TRUE(peeked.has_value());
    EXPECT_EQ(peeked->progress, 7);

    // And the stamp round-trips through the JSON claim format.
    const ClaimInfo back = claimFromJson(claimToJson(*peeked));
    EXPECT_EQ(back.progress, 7);
    claim->release();
}

TEST(WorkerDaemon, JitteredPollIsDeterministicAndBounded)
{
    // Same identity, same jitter — poll cadence must never introduce
    // run-to-run nondeterminism.
    EXPECT_EQ(jitteredPollMs(200, "w0"), jitteredPollMs(200, "w0"));
    // Distinct identities land in [0.75, 1.25] * pollMs, never below
    // 1 ms, and actually spread (not all on one value).
    std::set<std::int64_t> seen;
    for (int k = 0; k < 16; ++k) {
        const std::int64_t ms =
            jitteredPollMs(200, "worker-" + std::to_string(k));
        EXPECT_GE(ms, 150);
        EXPECT_LE(ms, 250);
        seen.insert(ms);
    }
    EXPECT_GT(seen.size(), 4u);
    EXPECT_GE(jitteredPollMs(1, "w"), 1);
}

TEST(WorkerDaemon, PoisonBudgetIsFleetWideAcrossWorkers)
{
    const auto dir = scratchDir("fleet_budget");
    const std::vector<ScenarioSpec> specs = tinySweep(2);
    const std::vector<JobResult> reference =
        referenceRun(specs, "fleet_budget_ref");

    // Worker A: every attempt throws; budget 2 → both jobs poisoned
    // with attempt-carrying records.
    FaultInjection::instance().arm(
        R"({"seed": 1, "faults": [{"site": "worker.job",
            "action": "fail-errno", "errno": "EIO",
            "hit": 1, "times": 0}]})");
    WorkerOptions options;
    options.sweepDir = dir.string();
    options.workerId = "wa";
    options.leaseMs = 60000;
    options.maxJobAttempts = 2;
    options.retryBackoffMs = 1;
    options.mergeOnDrain = false;
    const WorkerReport poisoner = WorkerDaemon(options).run(specs);
    FaultInjection::instance().disarm();
    EXPECT_EQ(poisoner.poisoned, specs.size());
    EXPECT_EQ(poisoner.completed, 0u);
    EXPECT_TRUE(poisoner.drained); // degraded: all jobs resolved-failed

    // Worker B, same budget: the fleet already spent it — nothing to
    // do, no extra attempts, even though B itself never failed once.
    options.workerId = "wb";
    const WorkerReport skipper = WorkerDaemon(options).run(specs);
    EXPECT_EQ(skipper.completed, 0u);
    EXPECT_EQ(skipper.failedAttempts, 0u);
    EXPECT_EQ(skipper.poisoned, 0u);
    EXPECT_TRUE(skipper.drained);
    for (const JobResult &record : loadMergedRecords(dir.string())) {
        EXPECT_TRUE(record.failed);
        EXPECT_EQ(record.attempts, 2);
    }

    // Worker C with a larger budget sees the jobs as unresolved again
    // (2 of 5 attempts spent), re-runs them fault-free, and the
    // completed records supersede the failure history bit-identically.
    options.workerId = "wc";
    options.maxJobAttempts = 5;
    options.mergeOnDrain = true;
    const WorkerReport healer = WorkerDaemon(options).run(specs);
    EXPECT_EQ(healer.completed, specs.size());
    EXPECT_TRUE(healer.drained);
    const std::vector<JobResult> merged =
        loadMergedRecords(dir.string());
    ASSERT_EQ(merged.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectJobsBitIdentical(merged[i], reference[i]);
}

TEST(WorkerDaemon, BatchedClaimCrashAbandonsTheWholeBatch)
{
    const auto dir = scratchDir("batch_crash");
    const std::vector<ScenarioSpec> specs = tinySweep(4);
    const std::vector<JobResult> reference =
        referenceRun(specs, "batch_crash_ref");

    // Worker A leases the whole sweep in one batch pass, then
    // "crashes" on its first job: every claim in the batch — the
    // running job's and the three queued ones — must be left on disk
    // exactly as a SIGKILL would leave them.
    WorkerOptions crash_options;
    crash_options.sweepDir = dir.string();
    crash_options.workerId = "crasher";
    crash_options.leaseMs = 200;
    crash_options.claimBatch = 8;
    crash_options.haltJobsAfterIterations = 6;
    const WorkerReport crashed =
        WorkerDaemon(crash_options).run(specs);
    EXPECT_TRUE(crashed.simulatedCrash);
    EXPECT_EQ(crashed.completed, 0u);
    for (const ScenarioSpec &spec : specs)
        EXPECT_TRUE(WorkClaim::peek(sweepClaimDir(dir.string()),
                                    scenarioFingerprint(spec))
                        .has_value())
            << spec.name;

    // A survivor reaps all four stale leases once they expire and
    // drains the sweep — the abandoned batch cost nothing but time.
    WorkerOptions survivor_options;
    survivor_options.sweepDir = dir.string();
    survivor_options.workerId = "survivor";
    survivor_options.leaseMs = 60000;
    survivor_options.pollMs = 10;
    const WorkerReport survived =
        WorkerDaemon(survivor_options).run(specs);
    EXPECT_EQ(survived.completed, specs.size());
    EXPECT_GE(survived.reapedLeases, specs.size());
    EXPECT_GE(survived.resumed, 1u);
    EXPECT_TRUE(survived.drained);

    const std::vector<JobResult> merged =
        loadMergedRecords(dir.string());
    ASSERT_EQ(merged.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectJobsBitIdentical(merged[i], reference[i]);
    std::string summary;
    ASSERT_TRUE(readTextFile(sweepSummaryPath(dir.string()), summary));
    EXPECT_EQ(summary, sweepSummaryJson(reference).dump(2) + "\n");
}

TEST(WorkerDaemon, BatchedRollingWorkersStayBitIdentical)
{
    // The full PR-8 claim path at once: two concurrent workers,
    // batched leasing, shard rolling at a tiny threshold (every
    // record triggers a roll) and fanout-2 tier folding — the final
    // compacted store and summary must still be byte-identical to the
    // single-process reference, like every other schedule.
    const auto dir = scratchDir("batch_roll");
    const std::vector<ScenarioSpec> specs = tinySweep(6);
    const std::vector<JobResult> reference =
        referenceRun(specs, "batch_roll_ref");

    const auto make_options = [&](const char *id) {
        WorkerOptions options;
        options.sweepDir = dir.string();
        options.workerId = id;
        options.leaseMs = 60000;
        options.pollMs = 5;
        options.claimBatch = 3;
        options.shardRollBytes = 1; // roll after every append
        options.tierFanout = 2;
        return options;
    };
    WorkerDaemon wa(make_options("wa"));
    WorkerDaemon wb(make_options("wb"));
    WorkerReport ra, rb;
    std::thread ta([&] { ra = wa.run(specs); });
    std::thread tb([&] { rb = wb.run(specs); });
    ta.join();
    tb.join();

    EXPECT_EQ(ra.completed + rb.completed, specs.size());
    EXPECT_EQ(ra.lostClaims + rb.lostClaims, 0u);
    EXPECT_GE(ra.shardRolls + rb.shardRolls, specs.size());
    EXPECT_TRUE(ra.drained);
    EXPECT_TRUE(rb.drained);

    const std::vector<JobResult> merged =
        loadMergedRecords(dir.string());
    ASSERT_EQ(merged.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectJobsBitIdentical(merged[i], reference[i]);
    std::string summary;
    ASSERT_TRUE(readTextFile(sweepSummaryPath(dir.string()), summary));
    EXPECT_EQ(summary, sweepSummaryJson(reference).dump(2) + "\n");
    // Compaction retired every tier and shard.
    std::error_code ec;
    std::size_t leftovers = 0;
    for (const auto *sub : {"tiers", "workers"}) {
        for (const auto &entry : std::filesystem::directory_iterator(
                 dir / sub, ec)) {
            (void)entry;
            ++leftovers;
        }
    }
    EXPECT_EQ(leftovers, 0u);
}

TEST(WorkerDaemon, StoreBytesReadStayWithinTheIoModel)
{
    // The claim path's I/O model, asserted end to end: the tail
    // reader reads each store byte once and the drain adds one
    // confirming full load — about twice the final store, whatever
    // the job count. Re-reading the store every scan round would grow
    // with jobs × store instead.
    const auto dir = scratchDir("io_model");
    const std::vector<ScenarioSpec> specs = tinySweep(8);
    WorkerOptions options;
    options.sweepDir = dir.string();
    options.workerId = "w";
    options.leaseMs = 60000;
    options.claimBatch = 1; // one scan per job: worst case
    options.mergeOnDrain = false;
    const WorkerReport report = WorkerDaemon(options).run(specs);
    EXPECT_EQ(report.completed, specs.size());
    EXPECT_EQ(loadMergedRecords(dir.string()).size(), specs.size());
    EXPECT_EQ(report.fullRescans, 0u);
    const std::uint64_t store = sweepStoreBytes(dir.string());
    ASSERT_GT(store, 0u);
    EXPECT_LE(report.storeBytesRead, 3 * store);
    // Amortized claim traffic: no more than a few acquire round-trips
    // per drained job even at batch size 1.
    EXPECT_LE(report.claimAttempts, specs.size() * 3);
}

TEST(WorkerDaemon, GracefulStopSealsCheckpointAndResumesBitIdentical)
{
    const auto dir = scratchDir("graceful");
    const std::vector<ScenarioSpec> specs = {tinySpec("seal", 1.3)};
    const std::vector<JobResult> reference =
        referenceRun(specs, "graceful_ref");

    // Stop is requested from inside the first durable checkpoint
    // write (iteration 4 of 12) — the moment a SIGTERM handler would
    // flip the same flag. The runner must seal a checkpoint at the
    // current iteration, release the claim, and record nothing.
    WorkerDaemon *running = nullptr;
    WorkerOptions options;
    options.sweepDir = dir.string();
    options.workerId = "stopped";
    options.leaseMs = 60000;
    options.onCheckpoint = [&running] {
        if (running != nullptr)
            running->requestStop();
    };
    WorkerDaemon daemon(options);
    running = &daemon;
    const WorkerReport report = daemon.run(specs);
    EXPECT_EQ(report.interrupted, 1u);
    EXPECT_EQ(report.completed, 0u);
    EXPECT_FALSE(report.drained);

    const std::string fp = scenarioFingerprint(specs[0]);
    EXPECT_FALSE(
        WorkClaim::peek(sweepClaimDir(dir.string()), fp).has_value());
    EXPECT_TRUE(loadMergedRecords(dir.string()).empty());
    const auto sealed =
        peekCheckpoint(sweepCheckpointPath(dir.string(), fp));
    ASSERT_TRUE(sealed.has_value());
    EXPECT_GE(sealed->iteration, 4);
    EXPECT_LT(sealed->iteration, specs[0].maxIterations);

    // The next claimant resumes from the sealed checkpoint and the
    // interruption is invisible in the results.
    options.workerId = "resumer";
    options.onCheckpoint = nullptr;
    const WorkerReport resumed = WorkerDaemon(options).run(specs);
    EXPECT_EQ(resumed.completed, 1u);
    EXPECT_GE(resumed.resumed, 1u);
    EXPECT_TRUE(resumed.drained);
    const std::vector<JobResult> merged =
        loadMergedRecords(dir.string());
    ASSERT_EQ(merged.size(), 1u);
    expectJobsBitIdentical(merged[0], reference[0]);
}

TEST(WorkerDaemon, HeartbeatWritesTheRunningJobToTheHealthView)
{
    // A job's "running" and attempt transitions only update memory;
    // the heartbeat (leaseMs 30: one beat per 10 ms) must carry them
    // to disk while the job runs. The job sleeps about four beats and
    // then reads the health view, as `treevqa_run --health` would.
    const auto dir = scratchDir("beat_health");
    const std::vector<ScenarioSpec> specs = {tinySpec("slow", 0.9, 3)};
    WorkerOptions options;
    options.sweepDir = dir.string();
    options.workerId = "beater";
    options.leaseMs = 30;
    WorkerHealth seen;
    options.jobRunner = [&](const ScenarioSpec &spec,
                            const ScenarioRunOptions &run) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
        // Poll on past the four beats only if the machine is loaded.
        while (seen.state != "running"
               && std::chrono::steady_clock::now() < deadline) {
            for (const WorkerHealth &row :
                 readHealthSnapshots(dir.string()))
                if (row.id == "beater")
                    seen = row;
            if (seen.state != "running")
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
        }
        return runScenario(spec, run);
    };
    const WorkerReport report = WorkerDaemon(options).run(specs);
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(seen.state, "running");
    EXPECT_EQ(seen.jobName, "slow");
    EXPECT_EQ(seen.jobFingerprint, scenarioFingerprint(specs[0]));
    EXPECT_EQ(seen.jobAttempt, 1);

    // The completion and stop writes follow.
    const std::vector<WorkerHealth> after =
        readHealthSnapshots(dir.string());
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after[0].state, "stopped");
    EXPECT_EQ(after[0].jobsCompleted, 1);
    EXPECT_TRUE(after[0].jobName.empty());
}

TEST(WorkerDaemon, FsyncsPerCompletedJobStayWithinBudget)
{
    // Every durable write of a drain, per job: the checkpoints, the
    // claim renewal and record append, the event-journal flushes and
    // the one telemetry write at completion, plus the drain's own
    // merge amortized over 16 jobs. leaseMs 60000 puts the heartbeat
    // at 5 s, so no beat fires and the count is deterministic. It is
    // 221 / 16 = 13.8; writing health and metrics as two files three
    // times per job made it 387 / 16 = 24.2.
    constexpr double kFsyncBudgetPerJob = 14.0;
    const auto dir = scratchDir("fsync_budget");
    std::vector<ScenarioSpec> specs;
    for (int j = 0; j < 16; ++j) {
        ScenarioSpec spec =
            tinySpec("fsync" + std::to_string(j), 0.4 + 0.05 * j, 3);
        spec.size = 2;
        spec.checkpointInterval = 1;
        specs.push_back(spec);
    }
    WorkerOptions options;
    options.sweepDir = dir.string();
    options.workerId = "budget";
    options.leaseMs = 60000;
    Counter &fsyncs = MetricsRegistry::instance().counter("file.fsyncs");
    const std::uint64_t before = fsyncs.total();
    const WorkerReport report = WorkerDaemon(options).run(specs);
    const std::uint64_t spent = fsyncs.total() - before;
    ASSERT_TRUE(report.drained);
    ASSERT_EQ(report.completed, specs.size());
    const double per_job = static_cast<double>(spent)
        / static_cast<double>(report.completed);
    RecordProperty("fsyncs_per_job", std::to_string(per_job));
    EXPECT_LE(per_job, kFsyncBudgetPerJob)
        << spent << " fsyncs over " << report.completed << " jobs";
}

} // namespace
} // namespace treevqa
