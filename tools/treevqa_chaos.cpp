/**
 * @file
 * treevqa_chaos — deterministic chaos drills for the distributed
 * sweep stack.
 *
 * The harness asserts the stack's one end-to-end robustness claim:
 * under any injected fault schedule (failed syscalls, torn writes,
 * heartbeat loss, mid-job SIGKILL at every checkpoint index), a sweep
 * still drains to a `summary.json` byte-identical to the fault-free
 * run — because jobs are pure functions of their specs and every
 * recovery path (checkpoint resume, lease reaping, record
 * re-execution, corrupt-line quarantine) converges on the same
 * records.
 *
 *   treevqa_chaos --seed S [--out DIR] [--jobs N] [--print-matrix]
 *
 *   --seed S         base seed for the drill matrix; the same seed
 *                    produces the identical fault schedule (drills,
 *                    plan seeds, probability streams)
 *   --out DIR        scratch root (default ./chaos_scratch); wiped
 *   --jobs N         sweep size (default 6 tiny 4-qubit TFIM jobs)
 *   --print-matrix   print the drill matrix (name + fault plan) and
 *                    exit — two invocations with the same seed must
 *                    print identical bytes
 *
 * Per drill: a fresh sweep directory, the fault plan written to disk,
 * one worker child re-executed with TREEVQA_FAULT_PLAN pointing at it
 * (arming happens in the child's static init; the parent stays
 * disarmed), then a fault-free recovery child to drain whatever the
 * faulted child left behind, then a byte compare of summary.json
 * against the fault-free reference, then a parse audit of every
 * observability dump the drill left (events/, metrics/, traces/):
 * a drill may lose dumps but a malformed one fails it. Results land
 * in `<out>/chaos_report.json`. Exit 0 iff every drill converged.
 *
 * The matrix ends with four supervisor drills exercising the
 * self-healing fleet layer: an in-process Supervisor fork/execs real
 * treevqa_worker children (which inherit the armed TREEVQA_FAULT_PLAN;
 * the parent consumed its own, empty, plan at static init and stays
 * disarmed) — a fleet-wide SIGKILL storm healed by restarts, a hung
 * job SIGKILLed by the frozen-progress watchdog, a crash-looping plan
 * that retires every slot through the circuit breaker, and a
 * poison-everything plan asserting the cumulative attempt budget is
 * fleet-wide (≤ max-job-attempts per job in total, not per worker).
 * Each supervisor drill ends with the same disarmed recovery worker
 * and byte compare against the fault-free reference.
 *
 * Internal --drill-child mode: run one drain-and-exit worker over
 * --sweep-dir (the harness re-execs itself instead of fork() — the
 * parent is threadless but the worker is not, and exec'ing fresh also
 * gives the child its own fault-plan bootstrap).
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/crc_line.h"
#include "common/file_util.h"
#include "common/json.h"
#include "dist/health.h"
#include "dist/store_merge.h"
#include "dist/supervisor.h"
#include "dist/worker_daemon.h"
#include "svc/scenario_spec.h"
#include "svc/sweep_dir.h"

#include "cli_util.h"

using namespace treevqa;

namespace {

int
usage(const char *argv0, bool requested)
{
    std::fprintf(requested ? stdout : stderr,
                 "usage: %s --seed S [--out DIR] [--jobs N] "
                 "[--print-matrix]\n",
                 argv0);
    return requested ? 0 : 2;
}

/** The same tiny, fast scenario family the dist tests drain (4-qubit
 * TFIM, 1-layer HEA, SPSA); checkpointInterval 4 over 12 iterations
 * gives every job interior checkpoints for the crash drills. */
std::vector<ScenarioSpec>
chaosSweep(int jobs)
{
    std::vector<ScenarioSpec> specs;
    for (int j = 0; j < jobs; ++j) {
        ScenarioSpec spec;
        spec.name = "chaos" + std::to_string(j);
        spec.problem = "tfim";
        spec.size = 4;
        spec.field = 0.5 + 0.2 * j;
        spec.ansatz = "hea";
        spec.layers = 1;
        spec.engine.shotsPerTerm = 256;
        spec.maxIterations = 12;
        spec.seed = 99;
        spec.checkpointInterval = 4;
        specs.push_back(std::move(spec));
    }
    return specs;
}

/** One drill: a name and the TREEVQA_FAULT_PLAN document (without its
 * "seed" member, which the harness derives from --seed + index so the
 * whole schedule keys off one number). */
struct Drill
{
    std::string name;
    std::string faults; // the "faults" array, as JSON text
};

/**
 * The fault matrix: ≥12 distinct site/action combinations covering
 * every recovery path — syscall failures on the atomic-write and
 * claim hot paths, torn store records and torn checkpoints (the CRC
 * quarantine paths), heartbeat loss, abandoned locks, injected I/O
 * latency, a probabilistic acquire-failure schedule, and mid-job
 * SIGKILL before the 1st/2nd/3rd/5th checkpoint write of the sweep
 * (crash at every checkpoint index a job has).
 */
std::vector<Drill>
drillMatrix()
{
    return {
        {"rename-fails-once",
         R"([{"site": "file.write_atomic.rename", "action": "fail-errno", "errno": "EIO", "hit": 1}])"},
        {"fsync-fails-once",
         R"([{"site": "file.write_atomic.fsync", "action": "fail-errno", "errno": "EIO", "hit": 1}])"},
        {"read-fails-once",
         R"([{"site": "file.read", "action": "fail-errno", "errno": "EIO", "hit": 2}])"},
        {"stage-write-torn",
         R"([{"site": "file.write_atomic.stage", "action": "torn-write", "keepFraction": 0.5, "hit": 1}])"},
        {"claim-acquire-fails",
         R"([{"site": "claim.acquire", "action": "fail-errno", "errno": "EAGAIN", "hit": 1, "times": 3}])"},
        {"claim-acquire-flaky",
         R"([{"site": "claim.acquire", "action": "fail-errno", "errno": "EAGAIN", "probability": 0.3, "times": 0}])"},
        {"heartbeat-loss",
         R"([{"site": "claim.renew", "action": "fail-errno", "errno": "EIO", "hit": 1}])"},
        {"release-leaves-lock",
         R"([{"site": "claim.release", "action": "fail-errno", "errno": "EIO", "hit": 1, "times": 2}])"},
        {"store-append-fails",
         R"([{"site": "store.append", "action": "fail-errno", "errno": "EIO", "hit": 1}])"},
        {"store-append-torn",
         R"([{"site": "store.append", "action": "torn-write", "keepFraction": 0.4, "hit": 1}])"},
        {"checkpoint-torn-then-crash",
         R"([{"site": "checkpoint.write", "action": "torn-write", "keepFraction": 0.6, "hit": 2}, {"site": "checkpoint.write", "action": "crash", "hit": 3}])"},
        {"checkpoint-write-slow",
         R"([{"site": "checkpoint.write", "action": "delay-ms", "ms": 600, "hit": 1}])"},
        {"crash-at-checkpoint-1",
         R"([{"site": "checkpoint.write", "action": "crash", "hit": 1}])"},
        {"crash-at-checkpoint-2",
         R"([{"site": "checkpoint.write", "action": "crash", "hit": 2}])"},
        {"crash-at-checkpoint-3",
         R"([{"site": "checkpoint.write", "action": "crash", "hit": 3}])"},
        {"crash-at-checkpoint-5",
         R"([{"site": "checkpoint.write", "action": "crash", "hit": 5}])"},
    };
}

/** SplitMix64 step: per-drill plan seed from the base seed, so one
 * --seed pins every probability stream in the matrix. */
std::uint64_t
drillPlanSeed(std::uint64_t base, std::size_t index)
{
    std::uint64_t z =
        base + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(index) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
drillPlanJson(const std::string &faults, std::uint64_t base,
              std::size_t index)
{
    return "{\"seed\": " + std::to_string(drillPlanSeed(base, index))
        + ", \"faults\": " + faults + "}";
}

/** Run one worker child over `sweepDir`; returns the shell status
 * decoded to "exit code or 128+signal". `planPath` empty = disarmed. */
int
runWorkerChild(const std::string &self, const std::string &sweepDir,
               int jobs, const std::string &planPath,
               const std::string &logPath)
{
    if (planPath.empty())
        ::unsetenv("TREEVQA_FAULT_PLAN");
    else
        ::setenv("TREEVQA_FAULT_PLAN", planPath.c_str(), 1);
    const std::string command = "\"" + self + "\" --drill-child"
        + " --sweep-dir \"" + sweepDir + "\" --jobs "
        + std::to_string(jobs) + " >> \"" + logPath + "\" 2>&1";
    const int status = std::system(command.c_str());
    ::unsetenv("TREEVQA_FAULT_PLAN");
    if (status == -1)
        return -1;
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return WEXITSTATUS(status);
}

/** Seed `<dir>/sweep.json` with the chaos specs so the supervisor's
 * exec'd treevqa_worker children (and its drained check) expand them
 * to the exact fingerprints the drill-child reference produced —
 * scenarioToJson/scenarioFromJson round-trip bit-exactly. */
void
writeChaosSpec(const std::string &sweepDir, int jobs)
{
    JsonValue request = JsonValue::array();
    for (const ScenarioSpec &spec : chaosSweep(jobs))
        request.push_back(scenarioToJson(spec));
    std::filesystem::create_directories(sweepDir);
    writeTextFileAtomic(sweepSpecPath(sweepDir),
                        request.dump(2) + "\n");
}

/** treevqa_worker beside this binary (the build tree), falling back
 * to a PATH lookup. */
std::string
chaosWorkerBin()
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        const std::filesystem::path sibling =
            std::filesystem::path(buf).parent_path()
            / "treevqa_worker";
        std::error_code ec;
        if (std::filesystem::exists(sibling, ec))
            return sibling.string();
    }
    return "treevqa_worker";
}

/** One supervisor drill: fault plan, fleet knobs, expectations on the
 * SupervisorReport, and the recovery worker's attempt budget. */
struct SupervisorDrill
{
    std::string name;
    std::string faults; // "[]" = the fleet runs disarmed
    std::vector<std::string> workerArgs;
    long jobTimeoutMs = 0;
    int crashLoopBudget = 5;
    int maxJobAttempts = 3;
    long recoveryMaxAttempts = 3;
    bool expectDrained = true;
    std::size_t expectRetired = 0;
    std::size_t minCrashes = 0;
    std::size_t minWatchdogKills = 0;
    std::size_t minTimeoutRecords = 0;
    bool checkAttemptBudget = false;
};

std::vector<SupervisorDrill>
supervisorDrillMatrix()
{
    std::vector<SupervisorDrill> drills;
    {
        // Child SIGKILL storm: exactly two fleet-wide kills via the
        // worker's O_EXCL killstorm tokens (a per-process counter
        // would re-fire in every restarted child). The supervisor
        // restarts the dead slots and the fleet still drains itself.
        SupervisorDrill d;
        d.name = "supervisor-kill-storm";
        d.faults = "[]";
        d.workerArgs = {"--sigkill-storm", "2"};
        d.minCrashes = 2;
        drills.push_back(std::move(d));
    }
    {
        // Hung job: worker.hang wedges the second scenario iteration
        // of every child life for 3 s. The heartbeat keeps renewing
        // the lease with a frozen progress stamp, so the supervisor
        // watchdog SIGKILLs the child and appends a timedOut attempt
        // record. Restarted children re-arm and hang again, so every
        // job drains by exhausting the fleet-wide attempt budget; the
        // disarmed recovery worker then re-runs them all.
        SupervisorDrill d;
        d.name = "supervisor-hang-timeout";
        d.faults =
            R"([{"site": "worker.hang", "action": "delay-ms", "ms": 3000, "hit": 2}])";
        d.jobTimeoutMs = 300;
        d.expectDrained = true;
        d.minWatchdogKills = 1;
        d.minTimeoutRecords = 1;
        d.recoveryMaxAttempts = 100;
        drills.push_back(std::move(d));
    }
    {
        // Crash loop: every child life SIGKILLs at its first
        // checkpoint write, so the circuit breaker retires all three
        // slots (two abnormal exits each) and the supervisor gives up
        // without draining. The disarmed recovery worker converges.
        SupervisorDrill d;
        d.name = "supervisor-crash-loop-retire";
        d.faults =
            R"([{"site": "checkpoint.write", "action": "crash", "hit": 1}])";
        d.crashLoopBudget = 2;
        d.expectDrained = false;
        d.expectRetired = 3;
        d.minCrashes = 6;
        drills.push_back(std::move(d));
    }
    {
        // Fleet-wide poison: every attempt of every job throws in
        // every child. The cumulative attempt records must cap each
        // job at maxJobAttempts across the whole fleet — not
        // maxJobAttempts per worker — after which every worker skips
        // it durably and the sweep drains degraded (all failed).
        SupervisorDrill d;
        d.name = "fleet-poison-skip";
        d.faults =
            R"([{"site": "worker.job", "action": "fail-errno", "errno": "EIO", "hit": 1, "times": 0}])";
        d.checkAttemptBudget = true;
        d.recoveryMaxAttempts = 100;
        drills.push_back(std::move(d));
    }
    return drills;
}

/** Disarmed recovery worker (the real binary) draining whatever the
 * supervised fleet left behind; decoded shell status like
 * runWorkerChild. `maxAttempts` above the drill's budget makes
 * poisoned records unresolved again so the jobs re-run fault-free. */
int
runRecoveryWorker(const std::string &workerBin,
                  const std::string &sweepDir, long maxAttempts,
                  const std::string &logPath)
{
    ::unsetenv("TREEVQA_FAULT_PLAN");
    const std::string command = "\"" + workerBin + "\" --sweep-dir \""
        + sweepDir
        + "\" --drain-and-exit --worker-id recovery --lease-ms 400"
        + " --poll-ms 25 --retry-backoff-ms 10 --max-job-attempts "
        + std::to_string(maxAttempts) + " >> \"" + logPath
        + "\" 2>&1";
    const int status = std::system(command.c_str());
    if (status == -1)
        return -1;
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return WEXITSTATUS(status);
}

/**
 * Post-drill observability audit. A fault schedule may legitimately
 * lose dumps (dropped batches, failed snapshot writes) but must never
 * leave a malformed one behind: metrics/trace snapshots are atomic
 * renames (whole-document or absent) and event journals are appended
 * a whole line batch at a time. The one tolerated exception is a torn
 * *final* journal line — a mid-append kill — which the CRC check
 * quarantines at read time by design. Returns a "; "-joined problem
 * list, empty when every dump parses.
 */
std::string
auditObservabilityDumps(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::string problems;
    const auto complain = [&](const std::string &what) {
        if (!problems.empty())
            problems += "; ";
        problems += what;
    };

    for (const char *sub : {"metrics", "traces"}) {
        std::error_code ec;
        fs::directory_iterator it(fs::path(dir) / sub, ec);
        if (ec)
            continue;
        for (const auto &entry : it) {
            if (!entry.is_regular_file()
                || entry.path().extension() != ".json")
                continue;
            const std::string name =
                entry.path().filename().string();
            std::string text;
            if (!readTextFile(entry.path().string(), text)) {
                complain(std::string(sub) + "/" + name
                         + ": unreadable");
                continue;
            }
            try {
                JsonValue::parse(text);
            } catch (const std::exception &) {
                complain(std::string(sub) + "/" + name
                         + ": malformed JSON");
            }
        }
    }

    for (const std::string &journal :
         sortedJsonlFiles((fs::path(dir) / "events").string())) {
        std::string text;
        if (!readTextFile(journal, text))
            continue;
        std::size_t lines = 0, bad = 0, last_bad = 0;
        forEachLine(text, lines, /*completeOnly=*/false,
                    [&](std::size_t number, const std::string &line) {
                        try {
                            JsonValue::parse(line);
                        } catch (const std::exception &) {
                            ++bad;
                            last_bad = number;
                        }
                    });
        const bool torn_tail_only = bad == 1 && last_bad == lines
            && !text.empty() && text.back() != '\n';
        if (bad > 0 && !torn_tail_only)
            complain("events/" + fs::path(journal).filename().string()
                     + ": " + std::to_string(bad)
                     + " malformed line(s)");
    }
    return problems;
}

int
runDrillChild(const std::string &sweepDir, int jobs)
{
    WorkerOptions options;
    options.sweepDir = sweepDir;
    // Short leases keep the abandoned-lock / heartbeat-loss drills
    // fast: recovery only ever waits lease + skew grace (clamped to
    // leaseMs/2) before reaping.
    options.leaseMs = 400;
    options.pollMs = 25;
    options.drainAndExit = true;
    options.mergeOnDrain = true;
    options.maxJobAttempts = 3;
    options.retryBackoffMs = 10;
    WorkerDaemon daemon(options);
    const WorkerReport report = daemon.run(chaosSweep(jobs));
    std::printf("drill child: completed=%zu resumed=%zu reaped=%zu "
                "lost=%zu poisoned=%zu drained=%s\n",
                report.completed, report.resumed, report.reapedLeases,
                report.lostClaims, report.poisoned,
                report.drained ? "yes" : "no");
    return report.drained ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = 0;
    bool have_seed = false;
    std::string out_root = "chaos_scratch";
    long jobs = 6;
    bool print_matrix = false;
    bool drill_child = false;
    std::string sweep_dir;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next_value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--seed") {
            seed = std::strtoull(next_value(), nullptr, 10);
            have_seed = true;
        } else if (arg == "--out") {
            out_root = next_value();
        } else if (arg == "--jobs") {
            if (!parsePositive(next_value(), jobs)) {
                std::fprintf(stderr, "--jobs must be >= 1\n");
                return 2;
            }
        } else if (arg == "--print-matrix") {
            print_matrix = true;
        } else if (arg == "--drill-child") {
            drill_child = true;
        } else if (arg == "--sweep-dir") {
            sweep_dir = next_value();
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0], true);
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return usage(argv[0], false);
        }
    }

    try {
        if (drill_child) {
            if (sweep_dir.empty())
                return usage(argv[0], false);
            return runDrillChild(sweep_dir, static_cast<int>(jobs));
        }
        if (!have_seed)
            return usage(argv[0], false);

        const std::vector<Drill> drills = drillMatrix();
        const std::vector<SupervisorDrill> sup_drills =
            supervisorDrillMatrix();
        if (print_matrix) {
            for (std::size_t i = 0; i < drills.size(); ++i)
                std::printf(
                    "%zu %s %s\n", i, drills[i].name.c_str(),
                    drillPlanJson(drills[i].faults, seed, i).c_str());
            for (std::size_t k = 0; k < sup_drills.size(); ++k) {
                const std::size_t i = drills.size() + k;
                std::printf(
                    "%zu %s %s\n", i, sup_drills[k].name.c_str(),
                    drillPlanJson(sup_drills[k].faults, seed, i)
                        .c_str());
            }
            return 0;
        }

        namespace fs = std::filesystem;
        fs::remove_all(out_root);
        fs::create_directories(out_root);
        const std::string self = argv[0];

        // Fault-free reference: the bytes every drill must converge to.
        const std::string ref_dir =
            (fs::path(out_root) / "reference").string();
        fs::create_directories(ref_dir);
        const int ref_status = runWorkerChild(
            self, ref_dir, static_cast<int>(jobs), "",
            (fs::path(out_root) / "reference.log").string());
        std::string reference;
        if (ref_status != 0
            || !readTextFile(sweepSummaryPath(ref_dir), reference)) {
            std::fprintf(stderr,
                         "treevqa_chaos: fault-free reference run "
                         "failed (status %d)\n",
                         ref_status);
            return 1;
        }

        JsonValue report_drills = JsonValue::array();
        std::size_t failures = 0;
        for (std::size_t i = 0; i < drills.size(); ++i) {
            const Drill &drill = drills[i];
            const std::string dir =
                (fs::path(out_root) / drill.name).string();
            const std::string log =
                (fs::path(out_root) / (drill.name + ".log")).string();
            fs::create_directories(dir);
            const std::string plan_path =
                (fs::path(out_root) / (drill.name + ".plan.json"))
                    .string();
            writeTextFileAtomic(
                plan_path, drillPlanJson(drill.faults, seed, i) + "\n");

            const int faulted_status = runWorkerChild(
                self, dir, static_cast<int>(jobs), plan_path, log);
            // Always run a disarmed recovery pass: it drains whatever
            // the faulted child left (stale claims, torn records,
            // corrupt checkpoints) and is a no-op when the faulted
            // child already finished.
            const int recovery_status = runWorkerChild(
                self, dir, static_cast<int>(jobs), "", log);

            std::string summary;
            const bool summary_read =
                readTextFile(sweepSummaryPath(dir), summary);
            const std::string obs_problems =
                auditObservabilityDumps(dir);
            const bool converged = recovery_status == 0 && summary_read
                && summary == reference && obs_problems.empty();
            if (!converged)
                ++failures;
            std::printf("drill %-28s fault-child=%-3d recovery=%-3d "
                        "summary=%s%s%s\n",
                        drill.name.c_str(), faulted_status,
                        recovery_status,
                        summary_read && summary == reference
                            ? "identical"
                            : summary_read ? "DIFFERENT"
                                           : "MISSING",
                        obs_problems.empty() ? "" : " DUMPS: ",
                        obs_problems.c_str());

            JsonValue entry = JsonValue::object();
            entry.set("name", JsonValue(drill.name));
            entry.set("plan", JsonValue::parse(
                                  drillPlanJson(drill.faults, seed, i)));
            entry.set("faultedChildStatus", JsonValue(faulted_status));
            entry.set("recoveryStatus", JsonValue(recovery_status));
            entry.set("summaryIdentical",
                      JsonValue(summary_read && summary == reference));
            entry.set("observabilityProblems",
                      JsonValue(obs_problems));
            entry.set("converged", JsonValue(converged));
            report_drills.push_back(std::move(entry));
        }

        // --- Supervisor drills: the self-healing fleet layer. ---
        const std::string worker_bin = chaosWorkerBin();
        for (std::size_t k = 0; k < sup_drills.size(); ++k) {
            const SupervisorDrill &drill = sup_drills[k];
            const std::size_t plan_index = drills.size() + k;
            const std::string dir =
                (fs::path(out_root) / drill.name).string();
            const std::string log =
                (fs::path(out_root) / (drill.name + ".log")).string();
            fs::create_directories(dir);
            writeChaosSpec(dir, static_cast<int>(jobs));

            const bool armed = drill.faults != "[]";
            if (armed) {
                const std::string plan_path =
                    (fs::path(out_root) / (drill.name + ".plan.json"))
                        .string();
                writeTextFileAtomic(
                    plan_path,
                    drillPlanJson(drill.faults, seed, plan_index)
                        + "\n");
                // The in-process Supervisor already consumed the (
                // empty) env plan at static init; only the exec'd
                // worker children arm from this.
                ::setenv("TREEVQA_FAULT_PLAN", plan_path.c_str(), 1);
            } else {
                ::unsetenv("TREEVQA_FAULT_PLAN");
            }

            SupervisorOptions options;
            options.sweepDir = dir;
            options.workers = 3;
            options.idPrefix = "chaos";
            options.restartBackoffMs = 50;
            options.crashLoopBudget = drill.crashLoopBudget;
            options.crashLoopWindowMs = 60000;
            options.jobTimeoutMs = drill.jobTimeoutMs;
            options.maxJobAttempts = drill.maxJobAttempts;
            options.gracePeriodMs = 2000;
            options.pollMs = 25;
            options.workerCommand = {
                worker_bin,       "--sweep-dir",
                dir,              "--drain-and-exit",
                "--no-merge",     "--lease-ms",
                "400",            "--poll-ms",
                "25",             "--retry-backoff-ms",
                "10",             "--max-job-attempts",
                std::to_string(drill.maxJobAttempts)};
            if (drill.jobTimeoutMs > 0) {
                options.workerCommand.push_back("--job-timeout-ms");
                options.workerCommand.push_back(
                    std::to_string(drill.jobTimeoutMs));
            }
            options.workerCommand.insert(options.workerCommand.end(),
                                         drill.workerArgs.begin(),
                                         drill.workerArgs.end());

            Supervisor supervisor(std::move(options));
            const SupervisorReport rep = supervisor.run();
            ::unsetenv("TREEVQA_FAULT_PLAN");

            std::string problems;
            const auto expect = [&](bool ok, const std::string &what) {
                if (!ok) {
                    if (!problems.empty())
                        problems += "; ";
                    problems += what;
                }
            };
            expect(rep.drained == drill.expectDrained,
                   std::string("drained=")
                       + (rep.drained ? "yes" : "no") + " expected "
                       + (drill.expectDrained ? "yes" : "no"));
            expect(rep.retiredSlots.size() == drill.expectRetired,
                   "retired " + std::to_string(rep.retiredSlots.size())
                       + " slots, expected "
                       + std::to_string(drill.expectRetired));
            expect(rep.crashes >= drill.minCrashes,
                   "crashes " + std::to_string(rep.crashes) + " < "
                       + std::to_string(drill.minCrashes));
            expect(rep.watchdogKills >= drill.minWatchdogKills,
                   "watchdog kills " + std::to_string(rep.watchdogKills)
                       + " < "
                       + std::to_string(drill.minWatchdogKills));
            expect(rep.timeoutRecords >= drill.minTimeoutRecords,
                   "timeout records "
                       + std::to_string(rep.timeoutRecords) + " < "
                       + std::to_string(drill.minTimeoutRecords));
            const std::vector<WorkerHealth> rows =
                readHealthSnapshots(dir);
            expect(std::any_of(rows.begin(), rows.end(),
                               [](const WorkerHealth &row) {
                                   return row.id == "supervisor";
                               }),
                   "missing supervisor health row");
            if (drill.checkAttemptBudget) {
                // The fleet-wide circuit breaker's contract: per job,
                // cumulative attempts ≤ budget even with 3 workers.
                std::size_t failed_records = 0;
                std::size_t over_budget = 0;
                for (const JobResult &r : loadMergedRecords(dir)) {
                    if (!r.failed)
                        continue;
                    ++failed_records;
                    if (r.attempts < 1
                        || r.attempts > drill.maxJobAttempts)
                        ++over_budget;
                }
                expect(failed_records
                           == static_cast<std::size_t>(jobs),
                       std::to_string(failed_records)
                           + " poisoned jobs, expected "
                           + std::to_string(jobs));
                expect(over_budget == 0,
                       std::to_string(over_budget)
                           + " job(s) exceeded the fleet-wide "
                             "attempt budget");
            }

            const int recovery_status = runRecoveryWorker(
                worker_bin, dir, drill.recoveryMaxAttempts, log);
            std::string summary;
            const bool summary_read =
                readTextFile(sweepSummaryPath(dir), summary);
            const std::string obs_problems =
                auditObservabilityDumps(dir);
            expect(obs_problems.empty(),
                   "observability dumps: " + obs_problems);
            const bool converged = problems.empty()
                && recovery_status == 0 && summary_read
                && summary == reference;
            if (!converged)
                ++failures;
            std::printf("drill %-28s supervisor(sp=%zu re=%zu cr=%zu "
                        "wd=%zu rt=%zu) recovery=%-3d summary=%s%s%s\n",
                        drill.name.c_str(), rep.spawns, rep.restarts,
                        rep.crashes, rep.watchdogKills,
                        rep.retiredSlots.size(), recovery_status,
                        !summary_read          ? "MISSING"
                            : summary == reference ? "identical"
                                                   : "DIFFERENT",
                        problems.empty() ? "" : " PROBLEMS: ",
                        problems.c_str());

            JsonValue entry = JsonValue::object();
            entry.set("name", JsonValue(drill.name));
            entry.set("mode", JsonValue(std::string("supervisor")));
            entry.set("plan",
                      JsonValue::parse(drillPlanJson(
                          drill.faults, seed, plan_index)));
            entry.set("spawns", JsonValue(static_cast<std::int64_t>(
                                    rep.spawns)));
            entry.set("restarts", JsonValue(static_cast<std::int64_t>(
                                      rep.restarts)));
            entry.set("crashes", JsonValue(static_cast<std::int64_t>(
                                     rep.crashes)));
            entry.set("watchdogKills",
                      JsonValue(static_cast<std::int64_t>(
                          rep.watchdogKills)));
            entry.set("timeoutRecords",
                      JsonValue(static_cast<std::int64_t>(
                          rep.timeoutRecords)));
            entry.set("retiredSlots",
                      JsonValue(static_cast<std::int64_t>(
                          rep.retiredSlots.size())));
            entry.set("drained", JsonValue(rep.drained));
            entry.set("problems", JsonValue(problems));
            entry.set("recoveryStatus", JsonValue(recovery_status));
            entry.set("summaryIdentical", JsonValue(converged));
            report_drills.push_back(std::move(entry));
        }

        JsonValue report = JsonValue::object();
        report.set("seed", JsonValue(seed));
        report.set("jobs", JsonValue(static_cast<std::int64_t>(jobs)));
        report.set("drills", std::move(report_drills));
        report.set("failures",
                   JsonValue(static_cast<std::int64_t>(failures)));
        writeTextFileAtomic(
            (fs::path(out_root) / "chaos_report.json").string(),
            report.dump(2) + "\n");

        const std::size_t total = drills.size() + sup_drills.size();
        std::printf("chaos: %zu/%zu drills converged (report: %s)\n",
                    total - failures, total,
                    (fs::path(out_root) / "chaos_report.json")
                        .string()
                        .c_str());
        return failures == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "treevqa_chaos: %s\n", e.what());
        return 1;
    }
}
