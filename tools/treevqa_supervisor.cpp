/**
 * @file
 * treevqa_supervisor — self-healing parent of a treevqa_worker fleet.
 *
 * Spawns N workers over one sweep directory and keeps the fleet
 * draining through crashes, hangs and poison jobs: crashed children
 * are restarted with exponential backoff, crash-looping slots are
 * retired by a circuit breaker (the fleet continues degraded), hung
 * jobs — lease renewing, progress stamp frozen — are SIGKILLed and
 * recorded as timedOut failures against the fleet-wide attempt
 * budget, and SIGTERM/SIGINT cascade to the children with a grace
 * window before SIGKILL. See src/dist/supervisor.h for the protocol.
 *
 *   treevqa_supervisor --sweep-dir DIR [--workers N]
 *                      [--worker-bin PATH] [--spec FILE]
 *                      [--id-prefix TOKEN]
 *                      [--restart-backoff-ms N] [--crash-loop-k N]
 *                      [--crash-loop-window-ms N]
 *                      [--job-timeout-ms N] [--max-job-attempts N]
 *                      [--grace-ms N] [--poll-ms N] [--no-merge]
 *                      [-- WORKER_ARGS...]
 *
 *   --sweep-dir DIR   the shared sweep directory (required)
 *   --workers N       fleet size (default 2)
 *   --worker-bin PATH worker executable (default: treevqa_worker
 *                     beside this binary)
 *   --spec FILE       seed DIR/sweep.json from FILE before spawning
 *   --id-prefix TOKEN slot ids are TOKEN-w0..TOKEN-w<N-1>
 *   --restart-backoff-ms N
 *                     base restart backoff, doubling per consecutive
 *                     crash (default 200)
 *   --crash-loop-k N  retire a slot after N abnormal exits ...
 *   --crash-loop-window-ms N
 *                     ... within this window (defaults 5 / 30000)
 *   --job-timeout-ms N
 *                     hung-job watchdog: SIGKILL a child whose claim
 *                     progress stamp is frozen this long (also passed
 *                     to the workers for the in-process variant)
 *   --max-job-attempts N
 *                     fleet-wide poison budget (default 3; passed to
 *                     the workers)
 *   --grace-ms N      SIGTERM->SIGKILL window of the shutdown cascade
 *                     (default 3000)
 *   --poll-ms N       supervise-loop cadence (default 100)
 *   --no-merge        skip the final shard compaction
 *   -- WORKER_ARGS    everything after -- is appended to the worker
 *                     command line verbatim (before --worker-id)
 *
 * Child stdout/stderr go to DIR/logs/<slot-id>.log; the supervisor's
 * slot table rides its telemetry file DIR/metrics/supervisor-p<pid>.json
 * (aggregate with treevqa_run --health).
 * Exit codes: 0 drained, 1 not drained (stopped early or every slot
 * retired), 2 usage error.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/event_log.h"
#include "common/file_util.h"
#include "common/trace.h"
#include "dist/supervisor.h"
#include "svc/sweep_dir.h"

#include "cli_util.h"

using namespace treevqa;

namespace {

int
usage(const char *argv0, bool requested)
{
    std::fprintf(
        requested ? stdout : stderr,
        "usage: %s --sweep-dir DIR [--workers N] [--worker-bin PATH]\n"
        "       [--spec FILE] [--id-prefix TOKEN]\n"
        "       [--restart-backoff-ms N] [--crash-loop-k N]\n"
        "       [--crash-loop-window-ms N] [--job-timeout-ms N]\n"
        "       [--max-job-attempts N] [--grace-ms N] [--poll-ms N]\n"
        "       [--no-merge] [-- WORKER_ARGS...]\n",
        argv0);
    return requested ? 0 : 2;
}

Supervisor *g_supervisor = nullptr;

extern "C" void
handleStopSignal(int)
{
    if (g_supervisor != nullptr)
        g_supervisor->requestStop();
}

/** Default worker binary: treevqa_worker in this executable's own
 * directory (the build tree or install prefix), falling back to a
 * bare PATH lookup. */
std::string
defaultWorkerBin()
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

} // namespace

int
main(int argc, char **argv)
{
    std::string sweep_dir;
    std::string spec_path;
    std::string worker_bin;
    std::string id_prefix = "sup";
    long workers = 2;
    long restart_backoff_ms = 200;
    long crash_loop_k = 5;
    long crash_loop_window_ms = 30000;
    long job_timeout_ms = 0;
    long max_job_attempts = 3;
    long grace_ms = 3000;
    long poll_ms = 100;
    bool merge_on_drain = true;
    std::vector<std::string> worker_args;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next_value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        const auto next_positive = [&](long &out) {
            if (!parsePositive(next_value(), out)) {
                std::fprintf(stderr, "%s must be an integer >= 1\n",
                             arg.c_str());
                std::exit(2);
            }
        };
        if (arg == "--sweep-dir") {
            sweep_dir = next_value();
        } else if (arg == "--spec") {
            spec_path = next_value();
        } else if (arg == "--worker-bin") {
            worker_bin = next_value();
        } else if (arg == "--id-prefix") {
            id_prefix = next_value();
        } else if (arg == "--workers") {
            next_positive(workers);
        } else if (arg == "--restart-backoff-ms") {
            next_positive(restart_backoff_ms);
        } else if (arg == "--crash-loop-k") {
            next_positive(crash_loop_k);
        } else if (arg == "--crash-loop-window-ms") {
            next_positive(crash_loop_window_ms);
        } else if (arg == "--job-timeout-ms") {
            next_positive(job_timeout_ms);
        } else if (arg == "--max-job-attempts") {
            next_positive(max_job_attempts);
        } else if (arg == "--grace-ms") {
            next_positive(grace_ms);
        } else if (arg == "--poll-ms") {
            next_positive(poll_ms);
        } else if (arg == "--no-merge") {
            merge_on_drain = false;
        } else if (arg == "--") {
            for (++i; i < argc; ++i)
                worker_args.push_back(argv[i]);
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0], true);
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return usage(argv[0], false);
        }
    }
    if (sweep_dir.empty())
        return usage(argv[0], false);

    try {
        if (!spec_path.empty()) {
            std::string text;
            if (!readTextFile(spec_path, text)) {
                std::fprintf(stderr, "cannot read %s\n",
                             spec_path.c_str());
                return 1;
            }
            const std::vector<ScenarioSpec> seeded =
                expandScenarios(JsonValue::parse(text));
            std::filesystem::create_directories(sweep_dir);
            writeTextFileAtomic(sweepSpecPath(sweep_dir), text);
            // Journal the sweep's birth: one job.expanded per job,
            // flushed before the fleet spawns. The supervisor's run
            // loop reopens the log under its own identity; that
            // retarget flushes this batch first.
            EventLog::instance().open(sweep_dir, "seed");
            for (const ScenarioSpec &spec : seeded) {
                JsonValue detail = JsonValue::object();
                detail.set("name", JsonValue(spec.name));
                EventLog::instance().emit(
                    event_type::kJobExpanded,
                    scenarioFingerprint(spec), std::move(detail));
            }
            EventLog::instance().flush();
        }

        if (worker_bin.empty())
            worker_bin = defaultWorkerBin();

        SupervisorOptions options;
        options.sweepDir = sweep_dir;
        options.workers = static_cast<int>(workers);
        options.idPrefix = id_prefix;
        options.restartBackoffMs = restart_backoff_ms;
        options.crashLoopBudget = static_cast<int>(crash_loop_k);
        options.crashLoopWindowMs = crash_loop_window_ms;
        options.jobTimeoutMs = job_timeout_ms;
        options.maxJobAttempts = static_cast<int>(max_job_attempts);
        options.gracePeriodMs = grace_ms;
        options.pollMs = poll_ms;
        options.mergeOnDrain = merge_on_drain;
        options.workerCommand = {worker_bin, "--sweep-dir", sweep_dir,
                                 "--drain-and-exit",
                                 "--max-job-attempts",
                                 std::to_string(max_job_attempts)};
        if (job_timeout_ms > 0) {
            options.workerCommand.push_back("--job-timeout-ms");
            options.workerCommand.push_back(
                std::to_string(job_timeout_ms));
        }
        options.workerCommand.insert(options.workerCommand.end(),
                                     worker_args.begin(),
                                     worker_args.end());

        Supervisor supervisor(std::move(options));
        g_supervisor = &supervisor;
        std::signal(SIGINT, handleStopSignal);
        std::signal(SIGTERM, handleStopSignal);

        // Flight recorder: the supervisor's own spans (spawn, reap,
        // watchdog scans) land beside the workers' traces.
        if (TraceRecorder::armed()) {
            TraceRecorder::instance().setExportPath(
                sweepTracePath(sweep_dir, "supervisor"));
            TraceRecorder::instance().installExitHandlers();
        }

        const SupervisorReport report = supervisor.run();
        g_supervisor = nullptr;
        std::printf("supervisor: spawns=%zu restarts=%zu crashes=%zu "
                    "watchdog-kills=%zu timeout-records=%zu "
                    "retired=%zu drained=%s merged=%s%s\n",
                    report.spawns, report.restarts, report.crashes,
                    report.watchdogKills, report.timeoutRecords,
                    report.retiredSlots.size(),
                    report.drained ? "yes" : "no",
                    report.merged ? "yes" : "no",
                    report.stoppedEarly ? " (stopped early)" : "");
        for (const std::string &retired : report.retiredSlots)
            std::printf("supervisor: retired %s\n", retired.c_str());
        return report.drained ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "treevqa_supervisor: %s\n", e.what());
        return 1;
    }
}
