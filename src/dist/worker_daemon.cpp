#include "dist/worker_daemon.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "common/event_log.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "dist/store_merge.h"
#include "svc/result_store.h"
#include "svc/sweep_dir.h"
#include "svc/sweep_index.h"

namespace treevqa {

namespace {

/** Registry instruments behind the worker report line and the
 * fleet-wide `--metrics` view; the per-run WorkerReport stays for
 * in-process callers (tests, benches) that need per-daemon numbers. */
struct WorkerMetrics
{
    Counter &scanRounds;
    Counter &claimAttempts;
    Counter &claimsAcquired;
    Counter &leasesReaped;
    Counter &claimsLost;
    Counter &failedAttempts;
    Counter &jobsCompleted;
    Counter &jobsResumed;
    Counter &jobsPoisoned;
    Counter &jobsTimedOut;
    Counter &jobsInterrupted;
    Counter &heartbeatRenewals;
    Counter &fullLoadBytes;
    Gauge &specExpansions;
    Histogram &scanNs;
    Histogram &claimNs;
    Histogram &jobNs;
    Histogram &recordNs;
    Histogram &renewNs;
};

WorkerMetrics &
workerMetrics()
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    static WorkerMetrics m{
        reg.counter("worker.scan_rounds"),
        reg.counter("worker.claim_attempts"),
        reg.counter("worker.claims_acquired"),
        reg.counter("worker.leases_reaped"),
        reg.counter("worker.claims_lost"),
        reg.counter("worker.failed_attempts"),
        reg.counter("worker.jobs_completed"),
        reg.counter("worker.jobs_resumed"),
        reg.counter("worker.jobs_poisoned"),
        reg.counter("worker.jobs_timed_out"),
        reg.counter("worker.jobs_interrupted"),
        reg.counter("worker.heartbeat_renewals"),
        reg.counter("worker.store_bytes_full_load"),
        reg.gauge("worker.spec_expansions"),
        reg.histogram("worker.scan_ns"),
        reg.histogram("worker.claim_ns"),
        reg.histogram("worker.job_ns"),
        reg.histogram("worker.record_ns"),
        reg.histogram("worker.heartbeat_renew_ns")};
    return m;
}

/** FNV-1a of the worker id: a stable per-worker scan offset so a
 * fleet fans out over the pending jobs instead of stampeding the
 * first claim file. */
std::size_t
workerScanOffset(const std::string &workerId)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (const char c : workerId) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return static_cast<std::size_t>(hash);
}

} // namespace

std::int64_t
jitteredPollMs(std::int64_t pollMs, const std::string &workerId)
{
    // [0.75, 1.25] scaling from the same stable FNV-1a the scan
    // offset uses; integer arithmetic so every platform agrees.
    const std::uint64_t hash =
        static_cast<std::uint64_t>(workerScanOffset(workerId));
    const std::int64_t permille = 750 + static_cast<std::int64_t>(
                                      hash % 501); // 750..1250
    return std::max<std::int64_t>(1, pollMs * permille / 1000);
}

WorkerDaemon::WorkerDaemon(WorkerOptions options)
    : options_(std::move(options))
{
    if (options_.sweepDir.empty())
        throw std::invalid_argument("worker: sweepDir must be set");
    if (options_.workerId.empty())
        options_.workerId = localWorkerId();
    if (options_.workerId != sanitizeFileToken(options_.workerId))
        throw std::invalid_argument(
            "worker: worker id \"" + options_.workerId
            + "\" must contain only [A-Za-z0-9._-] (it names claim "
              "and shard files)");
    if (options_.leaseMs < 10)
        throw std::invalid_argument(
            "worker: leaseMs must be at least 10");
    if (options_.pollMs < 1)
        options_.pollMs = 1;
    if (options_.maxJobAttempts < 1)
        throw std::invalid_argument(
            "worker: maxJobAttempts must be at least 1");
    if (options_.retryBackoffMs < 0)
        options_.retryBackoffMs = 0;
    if (options_.skewGraceMs < 0)
        options_.skewGraceMs = 0;
    if (options_.jobTimeoutMs < 0)
        options_.jobTimeoutMs = 0;
    if (options_.claimBatch < 1)
        options_.claimBatch = 1;
    if (options_.shardRollBytes < 0)
        options_.shardRollBytes = 0;
    if (options_.tierFanout < 2)
        options_.tierFanout = 2;
    // Wall-clock base makes roll names unique across restarts of one
    // worker id — a roll must never rename onto a prior incarnation's
    // still-unfolded tier.
    rollSeq_ = static_cast<std::uint64_t>(unixTimeMs());
    health_.id = options_.workerId;
    health_.pid = static_cast<std::int64_t>(::getpid());
    health_.role = "worker";
    health_.state = "starting";
    health_.startedMs = unixTimeMs();
    // Declared snapshot cadence (--health staleness detection): the
    // slower of the idle poll and the heartbeat interval, since both
    // paths rewrite the telemetry file (job completions only add
    // writes).
    health_.flushIntervalMs = std::max(
        jitteredPollMs(options_.pollMs, options_.workerId),
        std::clamp<std::int64_t>(options_.leaseMs / 3, 5, 5000));
}

void
WorkerDaemon::updateHealth(const std::function<void(WorkerHealth &)> &fn)
{
    std::lock_guard<std::mutex> lock(healthMutex_);
    fn(health_);
}

void
WorkerDaemon::publishHealth(
    const std::function<void(WorkerHealth &)> &fn)
{
    if (!options_.healthSnapshots)
        return;
    {
        // Held across the write, so a beat and a completion land on
        // disk in the order their states were made.
        std::lock_guard<std::mutex> lock(healthMutex_);
        fn(health_);
        writeTelemetrySnapshot(options_.sweepDir, health_);
    }
    // Keep the flight recorder's on-disk dump recent enough that a
    // SIGKILL mid-batch still leaves a useful tail behind.
    TraceRecorder::instance().maybePeriodicFlush(2000);
    // Same contract for the event journal: ride the telemetry cadence
    // so an unflushed process loses at most one beat's events.
    EventLog::instance().flush();
}

std::vector<ScenarioSpec>
WorkerDaemon::loadSweepSpecs(const std::string &sweepDir)
{
    std::string text;
    const std::string path = sweepSpecPath(sweepDir);
    if (!readTextFile(path, text))
        throw std::runtime_error(
            "worker: cannot read " + path
            + " (seed the sweep directory with treevqa_run --out or "
              "treevqa_worker --spec)");
    return expandScenarios(JsonValue::parse(text));
}

WorkerReport
WorkerDaemon::run()
{
    SweepIndex index(options_.sweepDir);
    return runLoop([&index]() {
        index.refresh();
        JobSet jobs;
        jobs.specs = &index.specs();
        jobs.fingerprints = &index.fingerprints();
        jobs.expansions = index.expansions();
        return jobs;
    });
}

WorkerReport
WorkerDaemon::run(const std::vector<ScenarioSpec> &specs)
{
    const std::vector<std::string> fingerprints =
        fingerprintSpecs(specs);
    return runLoop([&]() {
        JobSet jobs;
        jobs.specs = &specs;
        jobs.fingerprints = &fingerprints;
        jobs.expansions = 1;
        return jobs;
    });
}

WorkerReport
WorkerDaemon::runLoop(const std::function<JobSet()> &source)
{
    StoreTailReader tail(options_.sweepDir);
    WorkerReport report = scanLoop(source, tail);
    report.storeBytesRead += tail.counters().bytesRead;
    report.fullRescans = tail.counters().fullRescans;
    return report;
}

WorkerReport
WorkerDaemon::scanLoop(const std::function<JobSet()> &source,
                       StoreTailReader &tail)
{
    const std::string &dir = options_.sweepDir;
    std::filesystem::create_directories(sweepClaimDir(dir));
    std::filesystem::create_directories(sweepCheckpointDir(dir));
    std::filesystem::create_directories(sweepShardDir(dir));
    EventLog::instance().open(dir, options_.workerId);

    WorkerReport report;
    const std::size_t scan_salt = workerScanOffset(options_.workerId);
    publishHealth([](WorkerHealth &h) { h.state = "idle"; });

    while (!stop_.load()) {
        const JobSet jobs = source();
        const std::vector<ScenarioSpec> &specs = *jobs.specs;
        const std::vector<std::string> &fingerprints =
            *jobs.fingerprints;
        report.specExpansions = jobs.expansions;
        ++report.scanRounds;
        workerMetrics().scanRounds.inc();
        workerMetrics().specExpansions.set(
            static_cast<std::int64_t>(jobs.expansions));

        std::vector<std::size_t> pending;
        {
            TRACE_SPAN_TIMED("worker.scan", workerMetrics().scanNs);
            tail.refresh();
            const auto &resolutions = tail.resolutions();
            for (std::size_t i = 0; i < specs.size(); ++i) {
                if (poisoned_.count(fingerprints[i]))
                    continue;
                const auto it = resolutions.find(fingerprints[i]);
                if (it != resolutions.end()
                    && it->second.resolved(options_.maxJobAttempts))
                    continue;
                pending.push_back(i);
            }
        }

        if (pending.empty()) {
            // Drained verdicts are confirmed by one full load.
            std::uint64_t full_bytes = 0;
            pending = tail.confirmByFullLoad(
                fingerprints, jobs.expansions, options_.maxJobAttempts,
                poisoned_, &full_bytes);
            report.storeBytesRead += full_bytes;
            workerMetrics().fullLoadBytes.inc(full_bytes);
        }

        if (pending.empty()) {
            report.drained = true;
            if (options_.drainAndExit)
                break;
            publishHealth(
                [](WorkerHealth &h) { h.state = "idle"; });
            std::this_thread::sleep_for(std::chrono::milliseconds(
                jitteredPollMs(options_.pollMs, options_.workerId)));
            continue;
        }
        report.drained = false;

        // Gather up to claimBatch leases in one walk over the pending
        // rotation.
        std::size_t batch_target = static_cast<std::size_t>(
            std::max(1, options_.claimBatch));
        if (options_.maxJobs > 0) {
            const std::size_t limit =
                static_cast<std::size_t>(options_.maxJobs);
            batch_target = std::min(
                batch_target,
                limit > report.completed ? limit - report.completed
                                         : std::size_t{1});
        }
        std::vector<BatchSlot> batch;
        TraceSpan claim_span("worker.claim",
                             &workerMetrics().claimNs);
        const std::size_t offset = scan_salt % pending.size();
        for (std::size_t k = 0; k < pending.size() && !stop_.load();
             ++k) {
            const std::size_t index =
                pending[(k + offset) % pending.size()];
            bool reaped = false;
            ++report.claimAttempts;
            workerMetrics().claimAttempts.inc();
            std::optional<WorkClaim> claim = WorkClaim::tryAcquire(
                sweepClaimDir(dir), fingerprints[index],
                options_.workerId, options_.leaseMs, &reaped,
                options_.skewGraceMs);
            if (!claim)
                continue; // live lease elsewhere, or takeover lost
            workerMetrics().claimsAcquired.inc();
            if (reaped) {
                ++report.reapedLeases;
                workerMetrics().leasesReaped.inc();
                // The takeover observed the dead owner's claim stamp,
                // so this event orders after its last heartbeat.
                EventLog::instance().emit(event_type::kLeaseReaped,
                                          fingerprints[index]);
            }
            EventLog::instance().emit(event_type::kLeaseAcquired,
                                      fingerprints[index]);
            BatchSlot slot;
            slot.index = index;
            slot.claim = std::move(*claim);
            batch.push_back(std::move(slot));
            if (batch.size() >= batch_target)
                break;
        }
        claim_span.end();
        EventLog::instance().flush();

        if (batch.empty()) {
            // Nothing claimable this round: every pending job is
            // leased to a live worker. Wait for completions or lease
            // expiry.
            if (!stop_.load()) {
                publishHealth(
                    [](WorkerHealth &h) { h.state = "idle"; });
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    jitteredPollMs(options_.pollMs,
                                   options_.workerId)));
            }
            continue;
        }

        // Jobs may have been recorded (or their failure budget spent)
        // between our scan and these claims; re-check once under the
        // held claims — claims serialize failure writers per
        // fingerprint, so the attempt counts read here cannot be
        // raced past the budget while we hold the leases.
        {
            tail.refresh();
            const auto &resolutions = tail.resolutions();
            std::vector<BatchSlot> live;
            for (BatchSlot &slot : batch) {
                const std::string &fp = fingerprints[slot.index];
                const auto it = resolutions.find(fp);
                if (poisoned_.count(fp)
                    || (it != resolutions.end()
                        && it->second.resolved(
                            options_.maxJobAttempts))) {
                    slot.claim.release();
                    continue;
                }
                slot.priorAttempts = it != resolutions.end()
                    ? it->second.priorAttempts()
                    : 0;
                live.push_back(std::move(slot));
            }
            batch = std::move(live);
        }
        if (batch.empty())
            continue; // progress happened elsewhere; rescan now

        const JobOutcome outcome =
            runClaimedBatch(jobs, batch, report);
        if (outcome == JobOutcome::SimulatedCrash) {
            report.simulatedCrash = true;
            return report; // whole batch's claims + checkpoint left
        }
        if (outcome == JobOutcome::Interrupted) {
            // Graceful stop: checkpoint sealed, claims released.
            publishHealth(
                [](WorkerHealth &h) { h.state = "stopped"; });
            return report;
        }
        if (options_.maxJobs > 0
            && report.completed
                >= static_cast<std::size_t>(options_.maxJobs))
            return report;
    }

    if (report.drained && options_.mergeOnDrain && !stop_.load()) {
        // Drained = every job recorded (full-load confirmed), so
        // shard/tier removal is safe.
        publishHealth([](WorkerHealth &h) { h.state = "draining"; });
        report.merged =
            !compactSweepStore(dir, /*removeMergedShards=*/true).raced;
        tail.invalidate(); // canonical store was rewritten under us
    }
    publishHealth([](WorkerHealth &h) { h.state = "stopped"; });
    EventLog::instance().flush();
    return report;
}

void
WorkerDaemon::appendToShard(const JobResult &record,
                            WorkerReport &report)
{
    TRACE_SPAN_TIMED("worker.record", workerMetrics().recordNs);
    ResultStore shard(
        sweepShardPath(options_.sweepDir, options_.workerId));
    shard.append(record);
    if (options_.shardRollBytes <= 0)
        return;
    std::error_code ec;
    const auto size = std::filesystem::file_size(shard.path(), ec);
    if (ec || size < static_cast<std::uint64_t>(
            options_.shardRollBytes))
        return;
    if (!rollShardToTier(options_.sweepDir, options_.workerId,
                         rollSeq_++))
        return;
    ++report.shardRolls;
    report.tierFolds +=
        maintainTiers(options_.sweepDir, options_.tierFanout);
}

WorkerDaemon::JobOutcome
WorkerDaemon::runClaimedBatch(const JobSet &jobs,
                              std::vector<BatchSlot> &batch,
                              WorkerReport &report)
{
    const std::vector<ScenarioSpec> &specs = *jobs.specs;
    const std::vector<std::string> &fingerprints = *jobs.fingerprints;

    // Live progress surface: the runner stores the optimizer
    // iteration here; the heartbeat derives the batch tick from it
    // (and publishes it in the health snapshot), and the in-process
    // watchdog reads it for stall detection.
    std::atomic<std::int64_t> progress_counter{-1};

    // Serializes every WorkClaim touch (renew/release) and the
    // done/lost flags between this thread and the heartbeat.
    std::mutex batch_mutex;

    // Heartbeat: every held lease is renewed round-robin on one timer
    // thread (checkpoint cadence is spec-controlled and may be slower
    // than the lease). Renewals stamp a batch-wide monotonic tick
    // that advances whenever the running job's progress moves — so
    // queued claims of a live worker keep advancing for the
    // supervisor's external watchdog, and only a genuine wedge
    // freezes the whole batch. It is also the in-process hung-job
    // watchdog: when the progress stamp freezes past jobTimeoutMs it
    // stops renewing — deliberately letting every lease expire so
    // reapers can take the jobs — because a wedged runScenario cannot
    // be interrupted from inside.
    std::mutex hb_mutex;
    std::condition_variable hb_cv;
    bool hb_stop = false;
    std::atomic<bool> hb_timed_out{false};
    std::int64_t batch_tick = 0;
    const auto hb_interval = std::chrono::milliseconds(
        std::clamp<std::int64_t>(options_.leaseMs / 3, 5, 5000));
    std::thread heartbeat([&] {
        std::int64_t last_progress = progress_counter.load();
        auto last_advance = std::chrono::steady_clock::now();
        std::unique_lock<std::mutex> lock(hb_mutex);
        while (!hb_cv.wait_for(lock, hb_interval,
                               [&] { return hb_stop; })) {
            const std::int64_t now_progress = progress_counter.load();
            if (now_progress != last_progress) {
                last_progress = now_progress;
                last_advance = std::chrono::steady_clock::now();
                ++batch_tick;
            } else if (options_.jobTimeoutMs > 0
                       && std::chrono::steady_clock::now()
                               - last_advance
                           > std::chrono::milliseconds(
                               options_.jobTimeoutMs)) {
                hb_timed_out.store(true);
                return; // abandon every lease for the reapers
            }
            // A renewal I/O failure (ENOSPC, network-filesystem
            // hiccup) must degrade to "lease lost" — the recoverable
            // outcome this thread exists to report — not escape the
            // thread and terminate the process.
            bool any_live = false;
            {
                TraceSpan renew_span("worker.heartbeat_renew",
                                     &workerMetrics().renewNs);
                std::lock_guard<std::mutex> batch_lock(batch_mutex);
                for (BatchSlot &slot : batch) {
                    if (slot.done || slot.lost)
                        continue;
                    const std::string &fp =
                        fingerprints[slot.index];
                    try {
                        if (slot.claim.renew(batch_tick)) {
                            workerMetrics().heartbeatRenewals.inc();
                            JsonValue detail = JsonValue::object();
                            detail.set("tick",
                                       JsonValue(batch_tick));
                            EventLog::instance().emit(
                                event_type::kLeaseRenewed, fp,
                                std::move(detail));
                            any_live = true;
                            continue;
                        }
                    } catch (const std::exception &) {
                    }
                    slot.lost = true;
                    EventLog::instance().emit(
                        event_type::kLeaseLost, fp);
                }
            }
            if (!any_live)
                return;
            publishHealth([&](WorkerHealth &h) {
                h.jobProgress = now_progress;
            });
        }
    });
    const auto join_heartbeat = [&] {
        {
            std::lock_guard<std::mutex> lock(hb_mutex);
            hb_stop = true;
        }
        hb_cv.notify_all();
        heartbeat.join();
    };
    const auto slot_lost = [&](const BatchSlot &slot) {
        std::lock_guard<std::mutex> lock(batch_mutex);
        return slot.lost;
    };
    const auto release_undone = [&] {
        std::lock_guard<std::mutex> lock(batch_mutex);
        for (BatchSlot &slot : batch) {
            if (!slot.done)
                slot.claim.release();
            slot.done = true;
        }
    };

    for (BatchSlot &slot : batch) {
        if (hb_timed_out.load())
            break;
        if (stop_.load()) {
            // Stop requested between jobs: nothing to seal for the
            // queued jobs — just hand their leases back.
            join_heartbeat();
            release_undone();
            return JobOutcome::Interrupted;
        }
        if (slot_lost(slot)) {
            ++report.lostClaims;
            workerMetrics().claimsLost.inc();
            std::lock_guard<std::mutex> lock(batch_mutex);
            slot.claim.release();
            slot.done = true;
            continue;
        }
        const ScenarioSpec &spec = specs[slot.index];
        const std::string &fingerprint = fingerprints[slot.index];

        ScenarioRunOptions run_options;
        run_options.checkpointPath =
            sweepCheckpointPath(options_.sweepDir, fingerprint);
        run_options.haltAfterIterations =
            options_.haltJobsAfterIterations;
        run_options.onCheckpoint = options_.onCheckpoint;
        run_options.progressCounter = &progress_counter;
        run_options.shouldStop = [this] { return stop_.load(); };

        // In memory only: the next heartbeat beat writes it, so a job
        // longer than one beat shows as running on disk.
        updateHealth([&](WorkerHealth &h) {
            h.state = "running";
            h.jobFingerprint = fingerprint;
            h.jobName = spec.name;
            h.jobProgress = -1;
            h.jobAttempt = 1;
        });
        {
            // Flushed before the job runs: a SIGKILL mid-job must
            // still leave the claim on the record for --timeline.
            JsonValue detail = JsonValue::object();
            detail.set("name", JsonValue(spec.name));
            detail.set("priorAttempts",
                       JsonValue(static_cast<std::int64_t>(
                           slot.priorAttempts)));
            EventLog::instance().emit(event_type::kJobClaimed,
                                      fingerprint,
                                      std::move(detail));
            EventLog::instance().flush();
        }
        progress_counter.store(-1); // fresh stall window per job

        // Retry budget: a throwing job (defective spec, transient I/O
        // on its checkpoint) is retried with exponential backoff
        // while the heartbeat keeps the leases; after the budget it
        // degrades to a poison-quarantine record instead of killing
        // the worker — the sweep drains around the job, and the
        // failure is on the record. Only the budget *remaining* after
        // prior recorded fleet failures is spent here, so the whole
        // fleet stays within maxJobAttempts.
        const int attempt_budget =
            std::max(1, options_.maxJobAttempts - slot.priorAttempts);
        JobResult result;
        std::string last_error;
        bool job_ok = false;
        int attempts_made = 0;
        TraceSpan job_span("worker.job", &workerMetrics().jobNs);
        for (int attempt = 1; attempt <= attempt_budget; ++attempt) {
            if (slot_lost(slot) || hb_timed_out.load())
                break; // lease gone or watchdog fired: stop burning
            ++attempts_made;
            updateHealth(
                [&](WorkerHealth &h) { h.jobAttempt = attempt; });
            try {
                if (const FaultHit hit = FAULT_POINT("worker.job"))
                    if (hit.action == FaultAction::FailErrno)
                        throw std::runtime_error(
                            "injected job failure: "
                            + std::string(std::strerror(hit.err)));
                result = options_.jobRunner
                    ? options_.jobRunner(spec, run_options)
                    : runScenario(spec, run_options);
                job_ok = true;
                break;
            } catch (const std::exception &e) {
                last_error = e.what();
            } catch (...) {
                last_error = "unknown error";
            }
            ++report.failedAttempts;
            workerMetrics().failedAttempts.inc();
            {
                JsonValue detail = JsonValue::object();
                detail.set("attempt",
                           JsonValue(static_cast<std::int64_t>(
                               slot.priorAttempts + attempt)));
                detail.set("error", JsonValue(last_error));
                EventLog::instance().emit(event_type::kJobFailed,
                                          fingerprint,
                                          std::move(detail));
            }
            std::fprintf(stderr,
                         "treevqa: worker %s: job %s attempt %d/%d "
                         "failed: %s\n",
                         options_.workerId.c_str(), spec.name.c_str(),
                         slot.priorAttempts + attempt,
                         options_.maxJobAttempts, last_error.c_str());
            if (attempt < attempt_budget
                && options_.retryBackoffMs > 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    options_.retryBackoffMs << (attempt - 1)));
        }
        job_span.end();

        if (hb_timed_out.load())
            break; // common timeout unwind below

        if (job_ok && !result.completed) {
            if (stop_.load()) {
                // Graceful stop: the runner sealed a checkpoint at
                // the current iteration; release every lease so the
                // next claimant can resume immediately.
                ++report.interrupted;
                workerMetrics().jobsInterrupted.inc();
                join_heartbeat();
                release_undone();
                return JobOutcome::Interrupted;
            }
            // Simulated crash: leave every held claim and the
            // checkpoint exactly as a SIGKILL would.
            join_heartbeat();
            return JobOutcome::SimulatedCrash;
        }

        // Append only while provably still the owner; a lost lease
        // means the reaper will record the (bit-identical) result
        // instead. Like the heartbeat, an I/O failure during this
        // ownership re-check degrades to "lease lost" rather than
        // killing the worker with claims still held.
        bool still_owner;
        {
            std::lock_guard<std::mutex> lock(batch_mutex);
            still_owner = !slot.lost;
            if (still_owner) {
                try {
                    still_owner = slot.claim.renew();
                } catch (const std::exception &) {
                    still_owner = false;
                }
                if (!still_owner)
                    slot.lost = true;
            }
        }
        if (!still_owner) {
            ++report.lostClaims;
            workerMetrics().claimsLost.inc();
            std::lock_guard<std::mutex> lock(batch_mutex);
            slot.claim.release();
            slot.done = true;
            continue;
        }
        if (!job_ok) {
            // Poison quarantine: record the failure — carrying
            // exactly the attempts *this* claim session spent, so the
            // merged view's accumulated count stays a true fleet-wide
            // total — and treat the job as resolved locally. Whether
            // the rest of the fleet agrees depends on the accumulated
            // count reaching the budget.
            JobResult poison;
            poison.spec = spec;
            poison.fingerprint = fingerprint;
            poison.failed = true;
            poison.errorMessage = last_error;
            poison.attempts = attempts_made;
            appendToShard(poison, report);
            poisoned_.insert(fingerprint);
            ++report.poisoned;
            workerMetrics().jobsPoisoned.inc();
            {
                JsonValue detail = JsonValue::object();
                detail.set("attempts",
                           JsonValue(static_cast<std::int64_t>(
                               slot.priorAttempts + attempts_made)));
                detail.set("error", JsonValue(last_error));
                EventLog::instance().emit(event_type::kJobPoisoned,
                                          fingerprint,
                                          std::move(detail));
                EventLog::instance().flush();
            }
            publishHealth([&](WorkerHealth &h) {
                ++h.jobsFailed;
                h.state = "idle";
                h.jobFingerprint.clear();
                h.jobName.clear();
                h.jobProgress = -1;
                h.jobAttempt = 0;
            });
            std::fprintf(
                stderr,
                "treevqa: worker %s: quarantined poison job %s "
                "after %d/%d fleet-wide attempts (%s)\n",
                options_.workerId.c_str(), spec.name.c_str(),
                slot.priorAttempts + attempts_made,
                options_.maxJobAttempts, last_error.c_str());
        } else {
            appendToShard(result, report);
            ++report.completed;
            workerMetrics().jobsCompleted.inc();
            if (result.resumed) {
                ++report.resumed;
                workerMetrics().jobsResumed.inc();
            }
            {
                JsonValue detail = JsonValue::object();
                detail.set("resumed", JsonValue(result.resumed));
                EventLog::instance().emit(event_type::kJobCompleted,
                                          fingerprint,
                                          std::move(detail));
                EventLog::instance().flush();
            }
            publishHealth([&](WorkerHealth &h) {
                ++h.jobsCompleted;
                h.state = "idle";
                h.jobFingerprint.clear();
                h.jobName.clear();
                h.jobProgress = -1;
                h.jobAttempt = 0;
            });
        }
        {
            std::lock_guard<std::mutex> lock(batch_mutex);
            slot.claim.release();
            slot.done = true;
        }
        if (options_.maxJobs > 0
            && report.completed
                >= static_cast<std::size_t>(options_.maxJobs))
            break; // queued leases released below
    }

    join_heartbeat();
    if (hb_timed_out.load()) {
        // The watchdog abandoned every lease while runScenario was
        // wedged; whatever it eventually returned is stale — the jobs
        // belong to whoever reaps the expired claims (or to the
        // supervisor's SIGKILL, whichever lands first).
        ++report.timedOut;
        workerMetrics().jobsTimedOut.inc();
        {
            JsonValue detail = JsonValue::object();
            detail.set("timeoutMs",
                       JsonValue(options_.jobTimeoutMs));
            for (const BatchSlot &slot : batch)
                if (!slot.done)
                    EventLog::instance().emit(
                        event_type::kJobTimedOut,
                        fingerprints[slot.index], detail);
            EventLog::instance().flush();
        }
        release_undone();
        publishHealth([&](WorkerHealth &h) {
            ++h.jobsTimedOut;
            h.state = "idle";
            h.jobFingerprint.clear();
            h.jobName.clear();
            h.jobProgress = -1;
            h.jobAttempt = 0;
        });
        std::fprintf(stderr,
                     "treevqa: worker %s: job hung (no progress for "
                     "%lld ms); batch leases abandoned\n",
                     options_.workerId.c_str(),
                     static_cast<long long>(options_.jobTimeoutMs));
        return JobOutcome::TimedOut;
    }
    // Normal exit (or maxJobs cutoff): hand back any leases we never
    // got to.
    release_undone();
    return JobOutcome::Completed;
}

} // namespace treevqa
