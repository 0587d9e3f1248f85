/**
 * @file
 * Tests for the self-healing fleet layer (src/dist/supervisor.h,
 * src/dist/health.h): spawn/reap/restart of worker children, the
 * crash-loop circuit breaker, the SIGTERM→SIGKILL shutdown cascade,
 * the frozen-progress hung-job watchdog with its budget-counted
 * timedOut records, and the machine-readable health surface. Worker
 * children are shell stubs here — the end-to-end drills with real
 * treevqa_worker fleets live in tools/treevqa_chaos.cpp and CI.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common/file_util.h"
#include "common/metrics.h"
#include "dist/health.h"
#include "dist/store_merge.h"
#include "dist/supervisor.h"
#include "dist/work_claim.h"
#include "svc/result_store.h"
#include "svc/scenario_runner.h"
#include "svc/scenario_spec.h"
#include "svc/sweep_dir.h"

namespace treevqa {
namespace {

std::filesystem::path
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / ("sup_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** A tiny, fast scenario (4-qubit TFIM, 1-layer HEA, SPSA). */
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

/** Seed `<dir>/sweep.json` with one tiny job; returns its spec. */
ScenarioSpec
seedSweep(const std::string &dir, const std::string &name)
{
    const ScenarioSpec spec = tinySpec(name, 1.0);
    writeTextFileAtomic(sweepSpecPath(dir),
                        scenarioToJson(spec).dump(2) + "\n");
    return spec;
}

/** Fast supervise-loop defaults for shell-stub fleets. */
SupervisorOptions
stubOptions(const std::string &dir,
            const std::vector<std::string> &command)
{
    SupervisorOptions options;
    options.sweepDir = dir;
    options.workerCommand = command;
    options.workers = 1;
    options.restartBackoffMs = 1;
    options.pollMs = 5;
    options.gracePeriodMs = 500;
    options.mergeOnDrain = false;
    return options;
}

std::int64_t
elapsedMsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** The supervisor's telemetry file carries its health row (in the
 * given final state) and its slot table. */
void
expectSupervisorRow(const std::string &dir, const std::string &state)
{
    bool found = false;
    for (const WorkerHealth &row : readHealthSnapshots(dir)) {
        if (row.id != "supervisor")
            continue;
        found = true;
        EXPECT_EQ(row.role, "supervisor");
        EXPECT_EQ(row.state, state);
    }
    EXPECT_TRUE(found) << "no supervisor row under " << dir;
    for (const auto &[token, dump] : readMetricsDumps(dir))
        if (token.rfind("supervisor-p", 0) == 0)
            EXPECT_TRUE(dump.at("slots").isArray()) << token;
}

// ----------------------------------------------------------- validation

TEST(Supervisor, RejectsBadOptions)
{
    SupervisorOptions no_dir;
    no_dir.workerCommand = {"/bin/true"};
    EXPECT_THROW(Supervisor{no_dir}, std::invalid_argument);

    SupervisorOptions no_command;
    no_command.sweepDir = scratchDir("no_command").string();
    EXPECT_THROW(Supervisor{no_command}, std::invalid_argument);

    SupervisorOptions bad_prefix;
    bad_prefix.sweepDir = scratchDir("bad_prefix").string();
    bad_prefix.workerCommand = {"/bin/true"};
    bad_prefix.idPrefix = "no/slashes";
    EXPECT_THROW(Supervisor{bad_prefix}, std::invalid_argument);

    SupervisorOptions zero_workers;
    zero_workers.sweepDir = scratchDir("zero_workers").string();
    zero_workers.workerCommand = {"/bin/true"};
    zero_workers.workers = 0;
    EXPECT_THROW(Supervisor{zero_workers}, std::invalid_argument);
}

// ------------------------------------------------------- supervise loop

TEST(Supervisor, AlreadyDrainedSweepStopsWithoutSpawning)
{
    const auto dir = scratchDir("drained");
    const ScenarioSpec spec = seedSweep(dir.string(), "done_job");
    const JobResult done = runScenario(spec);
    ResultStore(sweepStorePath(dir.string())).append(done);

    Supervisor supervisor(stubOptions(dir.string(), {"/bin/true"}));
    const SupervisorReport report = supervisor.run();
    EXPECT_TRUE(report.drained);
    EXPECT_FALSE(report.stoppedEarly);
    EXPECT_EQ(report.spawns, 0u);
    EXPECT_EQ(report.crashes, 0u);
    // The health surface reflects the run even without children.
    expectSupervisorRow(dir.string(), "stopped");
}

TEST(Supervisor, CrashLoopRetiresEverySlotAndGivesUp)
{
    const auto dir = scratchDir("crash_loop");
    seedSweep(dir.string(), "never_runs");

    // Every child life fails instantly; the circuit breaker must
    // retire both slots after 2 abnormal exits each instead of
    // restarting forever, and the supervisor gives up undrained.
    SupervisorOptions options = stubOptions(
        dir.string(), {"/bin/sh", "-c", "exit 3"});
    options.workers = 2;
    options.crashLoopBudget = 2;
    options.crashLoopWindowMs = 60000;
    Supervisor supervisor(std::move(options));
    const SupervisorReport report = supervisor.run();

    EXPECT_FALSE(report.drained);
    EXPECT_TRUE(report.stoppedEarly);
    ASSERT_EQ(report.retiredSlots.size(), 2u);
    EXPECT_NE(report.retiredSlots[0].find("sup-w0"), std::string::npos);
    EXPECT_NE(report.retiredSlots[1].find("sup-w1"), std::string::npos);
    EXPECT_GE(report.crashes, 4u);
    EXPECT_GE(report.spawns, 4u);
}

TEST(Supervisor, ShutdownCascadeEscalatesToSigkill)
{
    const auto dir = scratchDir("cascade");
    seedSweep(dir.string(), "never_drains");

    // The child ignores SIGTERM, so the cascade must SIGKILL it after
    // the grace window — but not sooner.
    SupervisorOptions options = stubOptions(
        dir.string(),
        {"/bin/sh", "-c",
         "trap '' TERM; while :; do sleep 0.01; done"});
    options.gracePeriodMs = 200;
    Supervisor supervisor(std::move(options));

    std::thread stopper([&supervisor] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        supervisor.requestStop();
    });
    const auto t0 = std::chrono::steady_clock::now();
    const SupervisorReport report = supervisor.run();
    stopper.join();

    EXPECT_TRUE(report.stoppedEarly);
    EXPECT_FALSE(report.drained);
    EXPECT_GE(report.spawns, 1u);
    // Stop at ~150ms + full 200ms grace burned by the stubborn child.
    EXPECT_GE(elapsedMsSince(t0), 300);
    // run() returned only after the straggler was reaped, and its
    // last telemetry write says so.
    expectSupervisorRow(dir.string(), "shutting-down");
}

TEST(Supervisor, CooperativeChildrenExitWithinTheGraceWindow)
{
    const auto dir = scratchDir("cascade_soft");
    seedSweep(dir.string(), "never_drains");

    SupervisorOptions options = stubOptions(
        dir.string(),
        {"/bin/sh", "-c",
         "trap 'exit 0' TERM; while :; do sleep 0.01; done"});
    options.gracePeriodMs = 5000; // never reached by a polite child
    Supervisor supervisor(std::move(options));

    std::thread stopper([&supervisor] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        supervisor.requestStop();
    });
    const auto t0 = std::chrono::steady_clock::now();
    const SupervisorReport report = supervisor.run();
    stopper.join();

    EXPECT_TRUE(report.stoppedEarly);
    // SIGTERM sufficed: nowhere near the 5 s escalation deadline.
    EXPECT_LT(elapsedMsSince(t0), 3000);
}

TEST(Supervisor, WatchdogKillsHungClaimAndRecordsTimeout)
{
    const auto dir = scratchDir("watchdog");
    const ScenarioSpec spec = seedSweep(dir.string(), "hung_job");
    const std::string fp = scenarioFingerprint(spec);

    // Simulate a wedged worker: its claim exists under the slot's id
    // with a frozen progress stamp (never renewed with progress), while
    // the child process itself — a sleeper stub — stays alive. The
    // live-lease/dead-work signature the watchdog exists to catch.
    std::filesystem::create_directories(sweepClaimDir(dir.string()));
    auto claim = WorkClaim::tryAcquire(sweepClaimDir(dir.string()), fp,
                                       "sup-w0", 600000);
    ASSERT_TRUE(claim.has_value());

    SupervisorOptions options = stubOptions(
        dir.string(), {"/bin/sh", "-c", "while :; do sleep 0.01; done"});
    options.jobTimeoutMs = 120;
    // One timedOut attempt exhausts the budget, so the job resolves
    // as poisoned and the supervisor drains right after the kill.
    options.maxJobAttempts = 1;
    Supervisor supervisor(std::move(options));
    const SupervisorReport report = supervisor.run();

    EXPECT_TRUE(report.drained);
    EXPECT_EQ(report.watchdogKills, 1u);
    EXPECT_EQ(report.timeoutRecords, 1u);
    // The dead child's claim was removed so the job is retryable
    // immediately (here: already resolved).
    EXPECT_FALSE(
        WorkClaim::peek(sweepClaimDir(dir.string()), fp).has_value());

    const std::vector<JobResult> records =
        loadMergedRecords(dir.string());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].fingerprint, fp);
    EXPECT_TRUE(records[0].failed);
    EXPECT_TRUE(records[0].timedOut);
    EXPECT_EQ(records[0].attempts, 1);
    EXPECT_NE(records[0].errorMessage.find("watchdog"),
              std::string::npos);
}

// -------------------------------------------------------------- health

TEST(Health, SnapshotRoundTripsAndAggregates)
{
    const auto dir = scratchDir("health");
    MetricsRegistry::instance().counter("health_test.beats").inc(5);

    WorkerHealth w;
    w.id = "w1";
    w.pid = 4242;
    w.state = "running";
    w.startedMs = 1000;
    w.jobFingerprint = "FP";
    w.jobName = "job0";
    w.jobProgress = 7;
    w.jobAttempt = 2;
    w.jobsCompleted = 3;
    w.jobsFailed = 1;
    w.jobsTimedOut = 1;
    w.flushIntervalMs = 100;
    ASSERT_TRUE(writeTelemetrySnapshot(dir.string(), w));

    // An older incarnation of the same slot: still summed by the
    // metrics view, but the health view shows only the newest.
    WorkerHealth earlier = w;
    earlier.pid = 9999;
    earlier.startedMs = 500;
    earlier.state = "stopped";
    ASSERT_TRUE(writeTelemetrySnapshot(dir.string(), earlier));

    WorkerHealth idle;
    idle.id = "w2";
    idle.pid = 4243;
    idle.state = "idle";
    idle.jobsCompleted = 2;
    ASSERT_TRUE(writeTelemetrySnapshot(dir.string(), idle));

    // A torn file must be skipped, not kill the aggregation.
    writeTextFileAtomic(sweepMetricsPath(dir.string(), "torn-p1"),
                        "{\"id\": \"to");

    const std::vector<WorkerHealth> snapshots =
        readHealthSnapshots(dir.string());
    ASSERT_EQ(snapshots.size(), 2u);
    EXPECT_EQ(snapshots[0].id, "w1"); // id-sorted
    EXPECT_EQ(snapshots[0].pid, 4242); // newest incarnation
    EXPECT_EQ(snapshots[0].state, "running");
    EXPECT_EQ(snapshots[0].jobName, "job0");
    EXPECT_EQ(snapshots[0].jobProgress, 7);
    EXPECT_EQ(snapshots[0].jobAttempt, 2);
    EXPECT_EQ(snapshots[0].flushIntervalMs, 100);
    EXPECT_GT(snapshots[0].updatedMs, 0); // stamped by the writer
    EXPECT_FALSE(snapshots[0].hlc.empty());
    EXPECT_GE(snapshots[0].rssKb, -1);
    EXPECT_EQ(snapshots[1].id, "w2");

    // The same files are the metrics dumps: one per incarnation,
    // each carrying the registry snapshot.
    const JsonValue metrics =
        aggregateMetricsJson(readMetricsDumps(dir.string()));
    EXPECT_EQ(metrics.at("processes").asInt(), 3);
    EXPECT_EQ(metrics.at("counters").at("health_test.beats").asUint(),
              15u);

    const JsonValue doc =
        aggregateHealthJson(snapshots, snapshots[0].updatedMs + 50);
    EXPECT_EQ(doc.at("processes").asInt(), 2);
    EXPECT_EQ(doc.at("states").at("running").asInt(), 1);
    EXPECT_EQ(doc.at("states").at("idle").asInt(), 1);
    EXPECT_EQ(doc.at("jobsCompleted").asInt(), 5);
    EXPECT_EQ(doc.at("jobsFailed").asInt(), 1);
    EXPECT_EQ(doc.at("jobsTimedOut").asInt(), 1);
    const JsonValue &row = doc.at("workers").asArray().at(0);
    EXPECT_EQ(doc.at("workers").asArray().size(), 2u);
    EXPECT_EQ(row.at("staleMs").asInt(), 50);
    EXPECT_FALSE(row.at("stale").asBool()); // 50 ms < 2 x 100 ms

    // And the JSON round-trips field-for-field.
    const WorkerHealth back = healthFromJson(healthToJson(w));
    EXPECT_EQ(back.id, w.id);
    EXPECT_EQ(back.pid, w.pid);
    EXPECT_EQ(back.role, w.role);
    EXPECT_EQ(back.state, w.state);
    EXPECT_EQ(back.jobFingerprint, w.jobFingerprint);
    EXPECT_EQ(back.jobProgress, w.jobProgress);
    EXPECT_EQ(back.jobAttempt, w.jobAttempt);
    EXPECT_EQ(back.jobsCompleted, w.jobsCompleted);
    EXPECT_EQ(back.jobsTimedOut, w.jobsTimedOut);
    EXPECT_EQ(back.flushIntervalMs, w.flushIntervalMs);
}

TEST(Health, SnapshotWriteFailureIsToleratedNotThrown)
{
    WorkerHealth h;
    h.id = "w";
    // An unwritable sweep root: writeTelemetrySnapshot must report
    // false, never throw — observability cannot take down the worker.
    EXPECT_FALSE(
        writeTelemetrySnapshot("/proc/definitely/not/writable", h));
}

} // namespace
} // namespace treevqa
