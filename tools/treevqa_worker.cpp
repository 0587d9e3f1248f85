/**
 * @file
 * treevqa_worker — one distributed-sweep worker process.
 *
 * N of these (on any hosts sharing a filesystem) cooperatively drain
 * one sweep directory: each scans for unrecorded jobs, claims one via
 * an atomic lease file, runs it through the checkpointed scenario
 * runner (heartbeating the lease), and appends the record to its
 * private store shard. A crashed worker's lease expires and a
 * survivor resumes the job from its last checkpoint. See
 * src/dist/worker_daemon.h for the protocol.
 *
 *   treevqa_worker --sweep-dir DIR [--spec FILE] [--worker-id ID]
 *                  [--lease-ms N] [--max-jobs N] [--drain-and-exit]
 *                  [--poll-ms N] [--no-merge] [--merge-only]
 *                  [--sigkill-after-checkpoints N]
 *
 *   --sweep-dir DIR  the shared sweep directory (required)
 *   --spec FILE      seed DIR/sweep.json from FILE (validated first);
 *                    other workers need only --sweep-dir
 *   --worker-id ID   claim/shard identity (default "<host>-<pid>";
 *                    must be unique per worker)
 *   --lease-ms N     claim lease duration (default 30000); a crashed
 *                    worker's job becomes reclaimable after this
 *   --max-jobs N     exit after completing N jobs
 *   --drain-and-exit exit once every job has a record (default: keep
 *                    polling sweep.json for new work)
 *   --poll-ms N      idle rescan interval (default 200)
 *   --claim-batch N  jobs leased per scan pass (default 8); the batch
 *                    shares one heartbeat thread and releases (or, on
 *                    a crash, abandons) together
 *   --shard-roll-bytes N
 *                    roll the private shard into DIR/tiers/ once it
 *                    reaches N bytes and fold tiers as they pile up
 *                    (default 0 = never roll; the drain-time
 *                    compaction handles everything)
 *   --tier-fanout N  sealed tier files per fold (default 8, min 2)
 *   --no-merge       skip the shard→store compaction after draining
 *   --merge-only     fold every record file into DIR/summary.json
 *                    and exit, leaving the record files untouched
 *                    (the drained fleet compacts them); exits 1 when
 *                    corrupt store lines were found (the lines are
 *                    copied to DIR/quarantine/), and 75 when every
 *                    pass raced a concurrent fold or compaction
 *                    (nothing written; rerun)
 *   --max-job-attempts N
 *                    retry budget for throwing jobs before poison
 *                    quarantine (default 3)
 *   --retry-backoff-ms N
 *                    base backoff between attempts (default 50)
 *   --job-timeout-ms N
 *                    in-process hung-job watchdog: when the job's
 *                    progress counter stalls this long the heartbeat
 *                    abandons the lease so another worker can reap
 *                    the job (default off; the supervisor adds the
 *                    external SIGKILL variant)
 *   --sigkill-after-checkpoints N
 *                    raise(SIGKILL) after the Nth durable checkpoint
 *                    write — a genuinely uncleaned death at a
 *                    deterministic instant, used by the CI takeover
 *                    smoke test
 *   --sigkill-storm N
 *                    fleet-wide SIGKILL budget: at every checkpoint
 *                    the worker tries to claim one of N O_EXCL token
 *                    files under DIR/killstorm/ and SIGKILLs itself
 *                    on success — exactly N kills across the whole
 *                    (supervised, restarting) fleet, however many
 *                    times children re-arm. The supervised-restart
 *                    drill needs this: a per-process kill counter
 *                    would re-fire in every restarted child forever.
 *
 * SIGINT/SIGTERM stop the loop after the job in flight. Exit codes:
 * 0 success, 1 runtime error, 2 usage error (a --sigkill death shows
 * as signal 9 / shell status 137).
 */

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/event_log.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "dist/store_merge.h"
#include "dist/worker_daemon.h"
#include "svc/sweep_dir.h"

#include "cli_util.h"

using namespace treevqa;

namespace {

int
usage(const char *argv0, bool requested)
{
    std::fprintf(
        requested ? stdout : stderr,
        "usage: %s --sweep-dir DIR [--spec FILE] [--worker-id ID]\n"
        "       [--lease-ms N] [--max-jobs N] [--drain-and-exit]\n"
        "       [--poll-ms N] [--claim-batch N]\n"
        "       [--shard-roll-bytes N] [--tier-fanout N]\n"
        "       [--no-merge] [--merge-only]\n"
        "       [--max-job-attempts N] [--retry-backoff-ms N]\n"
        "       [--job-timeout-ms N] [--sigkill-after-checkpoints N]\n"
        "       [--sigkill-storm N]\n",
        argv0);
    return requested ? 0 : 2;
}

WorkerDaemon *g_daemon = nullptr;
std::atomic<long> g_checkpointsUntilSigkill{0};
std::string g_stormDir;
long g_stormBudget = 0;

/** Claim one of the fleet-wide kill tokens; SIGKILL on success. */
void
maybeStormSigkill()
{
    for (long k = 0; k < g_stormBudget; ++k) {
        const std::string token =
            g_stormDir + "/token-" + std::to_string(k);
        if (tryCreateExclusiveText(token, "claimed\n")) {
            std::fprintf(stderr,
                         "treevqa_worker: SIGKILL storm token %ld "
                         "claimed; dying (crash drill)\n",
                         k);
            std::fflush(nullptr);
            ::raise(SIGKILL);
        }
    }
}

extern "C" void
handleStopSignal(int)
{
    if (g_daemon != nullptr)
        g_daemon->requestStop();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string sweep_dir;
    std::string spec_path;
    std::string worker_id;
    long lease_ms = 30000;
    long max_jobs = 0;
    long poll_ms = 200;
    bool drain_and_exit = false;
    bool merge_on_drain = true;
    bool merge_only = false;
    long sigkill_after = 0;
    long sigkill_storm = 0;
    long max_job_attempts = 3;
    long retry_backoff_ms = 50;
    long job_timeout_ms = 0;
    long claim_batch = 8;
    long shard_roll_bytes = 0;
    long tier_fanout = 8;

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
                std::fprintf(stderr,
                             "%s must be an integer >= 1\n",
                             arg.c_str());
                std::exit(2);
            }
        };
        if (arg == "--sweep-dir") {
            sweep_dir = next_value();
        } else if (arg == "--spec") {
            spec_path = next_value();
        } else if (arg == "--worker-id") {
            worker_id = next_value();
        } else if (arg == "--lease-ms") {
            next_positive(lease_ms);
        } else if (arg == "--max-jobs") {
            next_positive(max_jobs);
        } else if (arg == "--poll-ms") {
            next_positive(poll_ms);
        } else if (arg == "--claim-batch") {
            next_positive(claim_batch);
        } else if (arg == "--shard-roll-bytes") {
            next_positive(shard_roll_bytes);
        } else if (arg == "--tier-fanout") {
            next_positive(tier_fanout);
        } else if (arg == "--drain-and-exit") {
            drain_and_exit = true;
        } else if (arg == "--no-merge") {
            merge_on_drain = false;
        } else if (arg == "--merge-only") {
            merge_only = true;
        } else if (arg == "--max-job-attempts") {
            next_positive(max_job_attempts);
        } else if (arg == "--retry-backoff-ms") {
            next_positive(retry_backoff_ms);
        } else if (arg == "--job-timeout-ms") {
            next_positive(job_timeout_ms);
        } else if (arg == "--sigkill-after-checkpoints") {
            next_positive(sigkill_after);
        } else if (arg == "--sigkill-storm") {
            next_positive(sigkill_storm);
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
            // Validate before seeding the shared directory: a broken
            // request must fail here, not in every worker.
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
            // flushed before any worker can claim them.
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

        if (merge_only) {
            // The fleet may still be live: write the summary only and
            // leave every record file to the drained worker's
            // compaction.
            const SweepMergeStats stats = compactSweepStore(
                sweep_dir, /*removeMergedShards=*/false);
            if (stats.raced) {
                std::fprintf(stderr,
                             "treevqa_worker: every merge pass raced a "
                             "concurrent fold or compaction; nothing "
                             "written, retry --merge-only\n");
                return 75;
            }
            std::printf("folded %zu records (%zu unique) from %zu "
                        "shard(s) and %zu tier(s) into %s (record "
                        "files kept)\n",
                        stats.inputRecords, stats.uniqueRecords,
                        stats.shardFiles, stats.tierFiles,
                        sweepSummaryPath(sweep_dir).c_str());
            if (stats.corruptLines > 0) {
                // Corruption is an operator-visible condition: the
                // bad lines were quarantined, but a clean exit would
                // hide that jobs may rerun. Fail the merge so scripts
                // see.
                std::fprintf(stderr,
                             "treevqa_worker: %zu corrupt line(s) "
                             "quarantined to %s; failing --merge-only\n",
                             stats.corruptLines,
                             quarantineDirFor(sweepStorePath(sweep_dir))
                                 .c_str());
                return 1;
            }
            return 0;
        }

        WorkerOptions options;
        options.sweepDir = sweep_dir;
        options.workerId = worker_id;
        options.leaseMs = lease_ms;
        options.maxJobs = static_cast<int>(max_jobs);
        options.pollMs = poll_ms;
        options.drainAndExit = drain_and_exit;
        options.mergeOnDrain = merge_on_drain;
        options.maxJobAttempts = static_cast<int>(max_job_attempts);
        options.retryBackoffMs = retry_backoff_ms;
        options.jobTimeoutMs = job_timeout_ms;
        options.claimBatch = static_cast<int>(claim_batch);
        options.shardRollBytes = shard_roll_bytes;
        options.tierFanout = static_cast<int>(tier_fanout);
        if (sigkill_storm > 0) {
            g_stormDir = (std::filesystem::path(sweep_dir)
                          / "killstorm")
                             .string();
            std::filesystem::create_directories(g_stormDir);
            g_stormBudget = sigkill_storm;
        }
        if (sigkill_after > 0)
            g_checkpointsUntilSigkill.store(sigkill_after);
        if (sigkill_after > 0 || sigkill_storm > 0) {
            options.onCheckpoint = [] {
                if (g_stormBudget > 0)
                    maybeStormSigkill();
                if (g_checkpointsUntilSigkill.load() > 0
                    && g_checkpointsUntilSigkill.fetch_sub(1) == 1) {
                    std::fprintf(stderr,
                                 "treevqa_worker: SIGKILLing self "
                                 "after checkpoint (crash drill)\n");
                    std::fflush(nullptr);
                    ::raise(SIGKILL);
                }
            };
        }

        WorkerDaemon daemon(options);
        g_daemon = &daemon;
        std::signal(SIGINT, handleStopSignal);
        std::signal(SIGTERM, handleStopSignal);

        // Flight recorder: dump into the sweep's traces/ directory
        // under this worker's identity, on normal exit, SIGTERM
        // (clean drain path), and fatal signals alike.
        if (TraceRecorder::armed()) {
            TraceRecorder::instance().setExportPath(sweepTracePath(
                sweep_dir, daemon.options().workerId));
            TraceRecorder::instance().installExitHandlers();
        }

        const WorkerReport report = daemon.run();
        g_daemon = nullptr;

        // Both report lines read the metrics registry (one daemon per
        // process, so registry totals == this run's totals): the same
        // instruments feed `treevqa_run --metrics`, keeping the two
        // views impossible to skew. Booleans stay on the report.
        const MetricsSnapshot metrics =
            MetricsRegistry::instance().snapshot();
        const auto counter = [&](const char *name) {
            const auto it = metrics.counters.find(name);
            return it == metrics.counters.end() ? std::uint64_t{0}
                                                : it->second;
        };
        const auto gauge = [&](const char *name) {
            const auto it = metrics.gauges.find(name);
            return it == metrics.gauges.end() ? std::int64_t{0}
                                              : it->second;
        };
        std::printf("worker %s: completed=%llu resumed=%llu "
                    "reaped=%llu lost=%llu poisoned=%llu "
                    "timedout=%llu interrupted=%llu drained=%s "
                    "merged=%s%s\n",
                    daemon.options().workerId.c_str(),
                    static_cast<unsigned long long>(
                        counter("worker.jobs_completed")),
                    static_cast<unsigned long long>(
                        counter("worker.jobs_resumed")),
                    static_cast<unsigned long long>(
                        counter("worker.leases_reaped")),
                    static_cast<unsigned long long>(
                        counter("worker.claims_lost")),
                    static_cast<unsigned long long>(
                        counter("worker.jobs_poisoned")),
                    static_cast<unsigned long long>(
                        counter("worker.jobs_timed_out")),
                    static_cast<unsigned long long>(
                        counter("worker.jobs_interrupted")),
                    report.drained ? "yes" : "no",
                    report.merged ? "yes" : "no",
                    report.simulatedCrash ? " (simulated crash)" : "");
        std::printf("worker %s: scans=%llu claims=%llu "
                    "store-bytes=%llu rescans=%llu expansions=%llu "
                    "rolls=%llu folds=%llu\n",
                    daemon.options().workerId.c_str(),
                    static_cast<unsigned long long>(
                        counter("worker.scan_rounds")),
                    static_cast<unsigned long long>(
                        counter("worker.claim_attempts")),
                    static_cast<unsigned long long>(
                        counter("worker.store_bytes_full_load")
                        + counter("store.tail_bytes_read")),
                    static_cast<unsigned long long>(
                        counter("store.tail_full_rescans")),
                    static_cast<unsigned long long>(
                        gauge("worker.spec_expansions")),
                    static_cast<unsigned long long>(
                        counter("merge.shard_rolls")),
                    static_cast<unsigned long long>(
                        counter("merge.tier_folds")));
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "treevqa_worker: %s\n", e.what());
        return 1;
    }
}
