/**
 * @file
 * The sweep_drain workload: many tiny TFIM jobs drained three ways on
 * the checkout's own disk. One repetition, on fresh directories:
 *   1. an in-process WorkerDaemon fleet (default claim batching, shard
 *      rolling on, so rolls and tier folds happen);
 *   2. JobScheduler on the same specs with an on-disk outDir, four
 *      times;
 *   3. a fresh worker re-draining the fleet's finished directory.
 * The fleet's summary.json must equal each scheduler pass's summary
 * byte for byte, and the re-drain must append no record.
 *
 * The fleet and scheduler passes are mostly durable small writes. On a
 * shared virtual disk their speed swings by 2-3x over minutes with
 * other tenants' I/O, far past any bound: kernel time and I/O waits
 * grow, user-mode CPU time does not. So each pass is bracketed by two
 * disk probes -- a fixed burst of the same write discipline, in the
 * benchmark's own code -- and its bounded time is reported as its
 * user-mode CPU time plus the rest of its wall time scaled by the
 * probes (see kProbeRefSeconds). Raw times are in the detail line.
 */

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "bench.h"
#include "dist/worker_daemon.h"
#include "svc/job_scheduler.h"
#include "svc/result_store.h"
#include "svc/scenario_spec.h"
#include "svc/sweep_dir.h"

namespace perfbench {

namespace {

using namespace treevqa;
namespace fs = std::filesystem;

constexpr int kJobs = 200;
/** Timed set-ups before each repetition: the set-up takes well under a
 * millisecond, so it is sampled across the whole run, and a transient
 * at process start does not decide its median. */
constexpr int kSetupRepsPerRep = 10;
/** Small enough that a drain rolls shards and folds tiers. */
constexpr std::int64_t kShardRollBytes = 16 * 1024;
/** Scheduler passes per repetition: one pass is short, so it is sampled
 * more often than the fleet. */
constexpr int kSchedPasses = 4;
/** Durable-write cycles in one disk probe. */
constexpr int kProbeCycles = 80;
/** The disk probe's median duration on the machine the benchmark was
 * tuned on (4 vCPUs, ext4 on a virtio disk). A pass is reported as
 * user + (wall - user) * kProbeRefSeconds / probe, with user its
 * user-mode CPU time and probe the mean of the probes just before and
 * just after it: its wall time at that machine's disk speed. The
 * constant only fixes the unit, and the same value is used on every
 * commit. */
constexpr double kProbeRefSeconds = 0.03;

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

JsonValue
sweepRequest(std::uint64_t seed)
{
    JsonValue request = JsonValue::object();
    request.set("name", JsonValue("drain"));
    request.set("problem", JsonValue("tfim"));
    request.set("size", JsonValue(2));
    request.set("layers", JsonValue(1));
    request.set("maxIterations", JsonValue(3));
    request.set("checkpointInterval", JsonValue(1));
    request.set("seed", JsonValue(deriveScenarioSeed(seed, 0)));
    // Distinct fields give distinct fingerprints; the seed shifts them.
    const double shift =
        static_cast<double>(deriveScenarioSeed(seed, 1) % 1000) * 1e-6;
    JsonValue fields = JsonValue::array();
    for (int j = 0; j < kJobs; ++j)
        fields.push_back(JsonValue(0.3 + 0.004 * j + shift));
    JsonValue sweep = JsonValue::object();
    sweep.set("field", std::move(fields));
    request.set("sweep", std::move(sweep));
    return request;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, h);
    return hex;
}

/** Bytes of every record-holding file (store, shards, tiers). */
std::uintmax_t
recordBytes(const fs::path &dir)
{
    std::uintmax_t total = 0;
    if (fs::exists(sweepStorePath(dir.string())))
        total += fs::file_size(sweepStorePath(dir.string()));
    for (const char *sub : {"workers", "tiers"}) {
        if (!fs::exists(dir / sub))
            continue;
        for (const auto &entry : fs::directory_iterator(dir / sub))
            if (entry.is_regular_file())
                total += entry.file_size();
    }
    return total;
}

/** Flush the filesystem's dirty data, so the next timed pass does not
 * pay for the writeback of an earlier one. */
void
settleDisk(const fs::path &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::syncfs(fd);
        ::close(fd);
    }
}

/** Time one fixed burst of the stores' durable-write discipline under
 * `dir`: per cycle, write a temp file, fsync it, rename it, fsync the
 * directory, then append a line to a log and fsync it. */
double
diskProbeSeconds(const fs::path &dir)
{
    fs::create_directories(dir);
    const auto fail = [](const std::string &what) {
        throw std::runtime_error("disk probe: " + what + ": "
                                 + std::strerror(errno));
    };
    const std::string payload(256, 'x');
    const std::string log = (dir / "probe.log").string();
    const std::string tmp = (dir / "p.tmp").string();
    const std::int64_t start = nowNs();
    const int logFd =
        ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (logFd < 0)
        fail("open " + log);
    for (int i = 0; i < kProbeCycles; ++i) {
        const std::string dst = (dir / ("p" + std::to_string(i))).string();
        const int fd =
            ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
        bool ok = fd >= 0
            && ::write(fd, payload.data(), payload.size())
                == static_cast<ssize_t>(payload.size())
            && ::fsync(fd) == 0;
        if (fd >= 0)
            ::close(fd);
        ok = ok && ::rename(tmp.c_str(), dst.c_str()) == 0;
        const int dirFd =
            ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
        ok = ok && dirFd >= 0 && ::fsync(dirFd) == 0;
        if (dirFd >= 0)
            ::close(dirFd);
        ok = ok && ::write(logFd, payload.data(), 100) == 100
            && ::fsync(logFd) == 0;
        if (!ok) {
            ::close(logFd);
            fail("cycle in " + dir.string());
        }
    }
    ::close(logFd);
    return seconds(nowNs() - start);
}

/** A pass's time at the reference disk speed (see kProbeRefSeconds). */
double
atReferenceDisk(double wall, double user, double probe)
{
    return user + std::max(wall - user, 0.0) * kProbeRefSeconds / probe;
}

struct Rep
{
    double fleetWall = 0.0;
    /** The fleet pass at the reference disk speed. */
    double fleetScaled = 0.0;
    /** Mean of the disk probes just before and after the fleet pass. */
    double fleetProbe = 0.0;
    /** Per scheduler pass: wall time, the same at the reference disk
     * speed, and its probes' mean. */
    std::vector<double> schedWalls;
    std::vector<double> schedScaled;
    std::vector<double> schedProbes;
    double redrainWall = 0.0;
    double loadWall = 0.0;
    WorkerReport fleet;
    std::uintmax_t dirBytes = 0;
    std::uintmax_t dirFiles = 0;
    std::string summary;
};

void
addReport(WorkerReport &into, const WorkerReport &r)
{
    into.completed += r.completed;
    into.resumed += r.resumed;
    into.lostClaims += r.lostClaims;
    into.failedAttempts += r.failedAttempts;
    into.poisoned += r.poisoned;
    into.scanRounds += r.scanRounds;
    into.claimAttempts += r.claimAttempts;
    into.storeBytesRead += r.storeBytesRead;
    into.fullRescans += r.fullRescans;
    into.shardRolls += r.shardRolls;
    into.tierFolds += r.tierFolds;
}

WorkerOptions
workerOptions(const fs::path &dir, const std::string &id, bool traced)
{
    WorkerOptions options;
    options.sweepDir = dir.string();
    options.workerId = id;
    options.leaseMs = 60000;
    options.pollMs = 5;
    options.shardRollBytes = kShardRollBytes;
    if (traced)
        options.jobRunner = [](const ScenarioSpec &spec,
                               const ScenarioRunOptions &run) {
            const ScopedSpan job("svc.job");
            return runScenario(spec, run);
        };
    return options;
}

Rep
runRep(const std::vector<ScenarioSpec> &specs, const fs::path &root,
       int workers, bool traced, WorkloadResult &result)
{
    Rep rep;
    const fs::path fleetDir = root / "fleet";
    fs::create_directories(fleetDir);

    // 1. The fleet: one thread per WorkerDaemon.
    std::vector<WorkerReport> reports(static_cast<std::size_t>(workers));
    std::vector<std::string> errors(reports.size());
    const double fleetPre = diskProbeSeconds(root / "probe-fleet-pre");
    double user = processUserSeconds();
    std::int64_t start = nowNs();
    {
        const ScopedSpan fleet("dist.fleet");
        SpanRecorder::setRoot(fleet.id());
        std::vector<std::thread> threads;
        for (std::size_t w = 0; w < reports.size(); ++w)
            threads.emplace_back([&, w] {
                try {
                    const ScopedSpan worker("dist.worker");
                    WorkerDaemon daemon(workerOptions(
                        fleetDir, "w" + std::to_string(w), traced));
                    reports[w] = daemon.run(specs);
                } catch (const std::exception &e) {
                    errors[w] = e.what();
                }
            });
        for (std::thread &thread : threads)
            thread.join();
        SpanRecorder::setRoot(0);
    }
    rep.fleetWall = seconds(nowNs() - start);
    user = processUserSeconds() - user;
    rep.fleetProbe =
        0.5 * (fleetPre + diskProbeSeconds(root / "probe-fleet-post"));
    rep.fleetScaled = atReferenceDisk(rep.fleetWall, user, rep.fleetProbe);
    for (std::size_t w = 0; w < reports.size(); ++w) {
        result.check(errors[w].empty(), "fleet worker ran: " + errors[w]);
        addReport(rep.fleet, reports[w]);
    }
    // Every job is one operation: completed once, never poisoned.
    const std::size_t done = std::min<std::size_t>(rep.fleet.completed, kJobs);
    result.attempted += kJobs;
    result.failed += kJobs - done + rep.fleet.poisoned;
    if (done != kJobs || rep.fleet.poisoned != 0)
        result.failures.push_back("fleet drained every job");
    rep.summary = readFile(sweepSummaryPath(fleetDir.string()));

    // 2. The scheduler on the same specs, each pass on a fresh outDir.
    for (int pass = 0; pass < kSchedPasses; ++pass) {
        const std::string tag = std::to_string(pass);
        const fs::path schedDir = root / ("sched-" + tag);
        fs::create_directories(schedDir);
        settleDisk(root);
        const double pre = diskProbeSeconds(root / ("probe-sched-pre-" + tag));
        user = processUserSeconds();
        start = nowNs();
        SweepResult sched;
        {
            const ScopedSpan span("svc.scheduler");
            SchedulerConfig config;
            config.outDir = schedDir.string();
            sched = JobScheduler(config).run(specs);
        }
        rep.schedWalls.push_back(seconds(nowNs() - start));
        user = processUserSeconds() - user;
        rep.schedProbes.push_back(
            0.5 * (pre + diskProbeSeconds(root / ("probe-sched-post-" + tag))));
        rep.schedScaled.push_back(atReferenceDisk(
            rep.schedWalls.back(), user, rep.schedProbes.back()));
        std::size_t schedDone = 0;
        for (const JobResult &job : sched.jobs)
            schedDone += job.completed && !job.failed ? 1 : 0;
        result.attempted += kJobs;
        result.failed += kJobs - std::min<std::size_t>(schedDone, kJobs);
        if (schedDone != kJobs)
            result.failures.push_back("scheduler completed every job");
        result.check(
            rep.summary == sweepSummaryJson(sched.jobs).dump(2) + "\n",
            "fleet summary.json equals the scheduler's summary");
    }

    // The read path on its own: one full store load.
    start = nowNs();
    {
        const ScopedSpan span("svc.store_load");
        const std::vector<JobResult> records =
            ResultStore(sweepStorePath(fleetDir.string())).load();
        result.check(records.size() == kJobs, "store holds every record");
    }
    rep.loadWall = seconds(nowNs() - start);

    for (const auto &entry : fs::recursive_directory_iterator(fleetDir))
        if (entry.is_regular_file()) {
            ++rep.dirFiles;
            rep.dirBytes += entry.file_size();
        }

    // 3. Re-drain: a fresh worker must find nothing to do.
    const std::uintmax_t before = recordBytes(fleetDir);
    start = nowNs();
    WorkerReport redrain;
    {
        const ScopedSpan span("dist.redrain");
        WorkerDaemon daemon(workerOptions(fleetDir, "redrain", traced));
        redrain = daemon.run(specs);
    }
    rep.redrainWall = seconds(nowNs() - start);
    result.check(redrain.drained && redrain.completed == 0
                     && recordBytes(fleetDir) == before,
                 "re-drain appends no record");
    return rep;
}


JsonValue
outputsOf(const Rep &rep)
{
    JsonValue out = JsonValue::object();
    out.set("jobs", JsonValue(kJobs));
    out.set("summary_fnv1a", JsonValue(fnv1a(rep.summary)));
    return out;
}

} // namespace

WorkloadResult
runSweepWorkload(const RunOptions &options)
{
    WorkloadResult result;
    const fs::path work = fs::path(options.workDir) / "sweep_drain";
    fs::remove_all(work);

    // Set-up: spec expansion. The fleet and the scheduler create their
    // own directory layouts inside the timed passes; an empty mkdir by
    // the benchmark would time only the kernel, which on the shared
    // disk swung 7x from run to run.
    std::vector<ScenarioSpec> specs;
    std::vector<double> setupTimes;
    const auto runSetup = [&] {
        const std::int64_t start = nowNs();
        {
            const ScopedSpan span("setup.build");
            specs = expandScenarios(sweepRequest(options.seed));
        }
        setupTimes.push_back(seconds(nowNs() - start));
    };
    fs::create_directories(work);
    settleDisk(work);
    SpanRecorder::enable(options.trace);
    runSetup();
    SpanRecorder::enable(false);
    result.check(specs.size() == kJobs, "sweep expands to every job");

    int repIndex = 0;
    // Untraced repetitions until `budget` seconds have passed (at least
    // `minReps`): each must repeat the first's summary, and on the
    // default seed the first must equal reference.json.
    struct Plain
    {
        Rep first;
        /** Raw wall times per pass. */
        std::vector<double> fleet, sched, redrain;
        /** The same at the reference disk speed, and every pass's
         * probe mean. */
        std::vector<double> fleetScaled, schedScaled, probes;
        double cpuSeconds = 0.0;
    };
    const auto runPlain = [&](double budget, std::size_t minReps) {
        Plain plain;
        const std::int64_t start = nowNs();
        while (plain.fleet.size() < minReps
               || seconds(nowNs() - start) < budget) {
            settleDisk(work);
            for (int r = 0; !options.trace && r < kSetupRepsPerRep; ++r)
                runSetup();
            settleDisk(work);
            const double cpu0 = processCpuSeconds();
            Rep rep = runRep(specs, work / ("rep-" + std::to_string(repIndex++)),
                             options.fleetWorkers, false, result);
            plain.cpuSeconds += processCpuSeconds() - cpu0;
            plain.fleet.push_back(rep.fleetWall);
            plain.fleetScaled.push_back(rep.fleetScaled);
            plain.probes.push_back(rep.fleetProbe);
            for (std::size_t p = 0; p < rep.schedWalls.size(); ++p) {
                plain.sched.push_back(rep.schedWalls[p]);
                plain.schedScaled.push_back(rep.schedScaled[p]);
                plain.probes.push_back(rep.schedProbes[p]);
            }
            plain.redrain.push_back(rep.redrainWall);
            if (plain.fleet.size() > 1) {
                result.check(rep.summary == plain.first.summary,
                             "repetitions give identical summaries");
                continue;
            }
            if (options.seed == kDefaultSeed)
                result.check(!options.reference.isNull()
                                 && outputsOf(rep) == options.reference,
                             "outputs equal reference.json on the default "
                             "seed");
            plain.first = std::move(rep);
        }
        return plain;
    };

    if (!options.trace) {
        const Plain plain = runPlain(options.seconds, 3);
        result.endToEnd = {
            {"setup_s", median(setupTimes), "s"},
            {"run_wall_s", median(plain.fleetScaled), "s"},
            {"reference_wall_s", median(plain.schedScaled), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
        result.detail = {
            {"setup_s", median(setupTimes), "s"},
            {"fleet_jobs_per_s", kJobs / median(plain.fleet), "jobs/s"},
            {"sched_jobs_per_s", kJobs / median(plain.sched), "jobs/s"},
            {"redrain_s", median(plain.redrain), "s"},
            {"disk_probe_s", median(plain.probes), "s"},
            {"repetitions", static_cast<double>(plain.fleet.size()), "count"},
        };
        fs::remove_all(work);
        result.outputs = outputsOf(plain.first);
        return result;
    }

    // Traced pass: untraced repetitions for half the budget, then one
    // with spans on.
    const Plain plainReps = runPlain(options.seconds / 2, 1);
    const Rep &plain = plainReps.first;
    std::vector<double> plainWalls;
    double plainWallSum = 0.0;
    const auto passWall = [](const Rep &rep) {
        double wall = rep.fleetWall;
        for (const double sched : rep.schedWalls)
            wall += sched;
        return wall;
    };
    for (std::size_t r = 0; r < plainReps.fleet.size(); ++r) {
        double wall = plainReps.fleet[r];
        for (int p = 0; p < kSchedPasses; ++p)
            wall += plainReps.sched[r * kSchedPasses + p];
        plainWalls.push_back(wall);
        plainWallSum += wall + plainReps.redrain[r];
    }
    const double plainWall = median(plainWalls);
    settleDisk(work);
    SpanRecorder::enable(true);
    const Rep traced = runRep(specs, work / ("rep-" + std::to_string(repIndex++)),
                              options.fleetWorkers, true, result);
    SpanRecorder::enable(false);
    fs::remove_all(work);
    result.check(traced.summary == plain.summary,
                 "traced summary equals untraced summary");
    result.spans = SpanRecorder::drain();

    std::vector<double> jobMs;
    std::int64_t workerNs = 0;
    std::int64_t jobNs = 0;
    double buildSeconds = 0.0;
    for (const Span &span : result.spans) {
        const std::int64_t dur = span.endNs - span.startNs;
        if (span.name == "svc.job") {
            jobMs.push_back(static_cast<double>(dur) * 1e-6);
            jobNs += dur;
        } else if (span.name == "dist.worker") {
            workerNs += dur;
        } else if (span.name == "setup.build") {
            buildSeconds += seconds(dur);
        }
    }
    const double jobs = kJobs;
    const WorkerReport &r = plain.fleet;
    const double acquired =
        static_cast<double>(r.completed + r.poisoned + r.lostClaims);
    auto &m = result.perLayer;
    m.push_back({"setup.build_s", buildSeconds, "s"});
    m.push_back({"runner.job_ms_p50", jobMs.empty() ? 0.0 : quantile(jobMs, 0.5),
                 "ms"});
    m.push_back({"runner.job_ms_p99",
                 jobMs.empty() ? 0.0 : quantile(jobMs, 0.99), "ms"});
    m.push_back({"svc.store_load_s", plain.loadWall, "s"});
    m.push_back({"svc.redrain_s", median(plainReps.redrain), "s"});
    m.push_back({"dist.protocol_ms_per_job",
                 static_cast<double>(workerNs - jobNs) * 1e-6 / jobs, "ms"});
    m.push_back({"dist.claim_attempts_per_job",
                 static_cast<double>(r.claimAttempts) / jobs, "count"});
    m.push_back({"dist.claims_useful_frac",
                 acquired / static_cast<double>(std::max<std::size_t>(
                                r.claimAttempts, 1)),
                 "1"});
    m.push_back({"dist.scan_rounds_per_job",
                 static_cast<double>(r.scanRounds) / jobs, "count"});
    m.push_back({"dist.store_bytes_read_per_job",
                 static_cast<double>(r.storeBytesRead) / jobs, "B"});
    m.push_back({"dist.full_rescans", static_cast<double>(r.fullRescans),
                 "count"});
    m.push_back({"dist.shard_rolls", static_cast<double>(r.shardRolls),
                 "count"});
    m.push_back({"dist.tier_folds", static_cast<double>(r.tierFolds),
                 "count"});
    m.push_back({"dist.lost_claims", static_cast<double>(r.lostClaims),
                 "count"});
    m.push_back({"dist.failed_attempts", static_cast<double>(r.failedAttempts),
                 "count"});
    m.push_back({"fs.bytes_written_per_job",
                 static_cast<double>(plain.dirBytes) / jobs, "B"});
    m.push_back({"fs.files_per_job", static_cast<double>(plain.dirFiles) / jobs,
                 "count"});
    m.push_back({"pool.lanes", static_cast<double>(options.lanes), "count"});
    m.push_back({"proc.cpu_util",
                 plainReps.cpuSeconds
                     / (plainWallSum * static_cast<double>(options.lanes)),
                 "1"});
    m.push_back({"trace_overhead_frac",
                 (passWall(traced) - plainWall) / plainWall,
                 "1"});
    result.detail = {
        {"fleet_jobs_per_s", jobs / median(plainReps.fleet), "jobs/s"},
        {"sched_jobs_per_s", jobs / median(plainReps.sched), "jobs/s"},
        {"redrain_s", median(plainReps.redrain), "s"},
    };
    result.outputs = outputsOf(plain);
    return result;
}

} // namespace perfbench
