#include "svc/job_scheduler.h"

#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>

#include "common/event_log.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "svc/sweep_dir.h"

namespace treevqa {

namespace {

struct SchedulerMetrics
{
    Counter &jobsExecuted;
    Counter &jobsSkipped;
    Histogram &jobNs;
};

SchedulerMetrics &
schedulerMetrics()
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    static SchedulerMetrics m{
        reg.counter("scheduler.jobs_executed"),
        reg.counter("scheduler.jobs_skipped"),
        reg.histogram("scheduler.job_ns")};
    return m;
}

} // namespace

JobScheduler::JobScheduler(SchedulerConfig config)
    : config_(std::move(config))
{
}

std::string
JobScheduler::resultStorePath() const
{
    if (config_.outDir.empty())
        return "";
    return sweepStorePath(config_.outDir);
}

std::string
JobScheduler::checkpointPathFor(const ScenarioSpec &spec) const
{
    if (config_.outDir.empty())
        return "";
    return sweepCheckpointPath(config_.outDir,
                               scenarioFingerprint(spec));
}

SweepResult
JobScheduler::run(const std::vector<ScenarioSpec> &specs)
{
    // Fingerprints key checkpoints and store records; duplicates would
    // alias state across jobs, so reject them up front.
    std::map<std::string, std::string> seen;
    std::vector<std::string> fingerprints;
    fingerprints.reserve(specs.size());
    for (const ScenarioSpec &spec : specs) {
        std::string fp = scenarioFingerprint(spec);
        const auto [it, inserted] = seen.emplace(fp, spec.name);
        if (!inserted)
            throw std::invalid_argument(
                "scheduler: specs \"" + it->second + "\" and \""
                + spec.name + "\" are identical (fingerprint " + fp
                + "); de-duplicate the sweep");
        fingerprints.push_back(std::move(fp));
    }

    SweepResult sweep;
    sweep.jobs.resize(specs.size());

    std::unique_ptr<ResultStore> store;
    std::map<std::string, JobResult> recorded;
    if (!config_.outDir.empty()) {
        std::filesystem::create_directories(
            sweepCheckpointDir(config_.outDir));
        EventLog::instance().open(config_.outDir, "scheduler");
        store = std::make_unique<ResultStore>(resultStorePath());
        if (config_.resume)
            // A reused run directory may hold duplicate records for a
            // fingerprint; the dedup pass keeps one by the record
            // resolution rule (warning once), so the skip decision is
            // well-defined.
            for (JobResult &record :
                 dedupeByFingerprint(store->load()))
                if (record.completed)
                    recorded.emplace(record.fingerprint,
                                     std::move(record));
    }

    // Partition into skipped (already recorded) and pending jobs.
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto it = recorded.find(fingerprints[i]);
        if (it != recorded.end()) {
            sweep.jobs[i] = it->second;
            ++sweep.skipped;
        } else {
            pending.push_back(i);
        }
    }
    sweep.executed = pending.size();
    schedulerMetrics().jobsExecuted.inc(pending.size());
    schedulerMetrics().jobsSkipped.inc(sweep.skipped);

    // One pool run is the whole scheduling loop: lanes claim jobs
    // dynamically, inner probe batches evaluate inline on the same
    // lanes. Job results are keyed by index, and each job's streams
    // derive from its spec, so concurrency and completion order
    // cannot change any record.
    ThreadPool::global().run(pending.size(), [&](std::size_t p) {
        TRACE_SPAN_TIMED("scheduler.job", schedulerMetrics().jobNs);
        const std::size_t index = pending[p];
        ScenarioRunOptions options;
        options.checkpointPath = checkpointPathFor(specs[index]);
        options.onCheckpoint = config_.onCheckpoint;
        options.haltAfterIterations = config_.haltJobsAfterIterations;
        JobResult result = runScenario(specs[index], options);
        if (store && result.completed)
            store->append(result);
        if (result.completed) {
            JsonValue detail = JsonValue::object();
            detail.set("name", JsonValue(specs[index].name));
            detail.set("resumed", JsonValue(result.resumed));
            EventLog::instance().emit(event_type::kJobCompleted,
                                      fingerprints[index],
                                      std::move(detail));
        }
        sweep.jobs[index] = std::move(result);
    });
    EventLog::instance().flush();

    return sweep;
}

} // namespace treevqa
