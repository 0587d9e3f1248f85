/**
 * @file
 * perfbench: one command for the repository benchmark.
 *
 *   perfbench --workload <chain_sv|molecule_sv|ising_paulprop|sweep_drain>
 *             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
 *             [--reference <reference.json>] [--commit <id>]
 *             [--source-digest <hex>] [--print-outputs]
 *
 * Prints a human table, a detail line with the workload's own
 * read-outs, a context line, and as the last line the result object:
 * the end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1. See README.md in this directory.
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "common/thread_pool.h"

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

namespace perfbench {

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
    return values[std::min(index, values.size() - 1)];
}

namespace {

double
timevalSeconds(const timeval &t)
{
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
}

} // namespace

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return timevalSeconds(usage.ru_utime) + timevalSeconds(usage.ru_stime);
}

double
processUserSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return timevalSeconds(usage.ru_utime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench

namespace {

using namespace perfbench;
using treevqa::JsonValue;

struct MetricDef
{
    const char *name;
    const char *unit;
};

// Every run of one kind prints every metric of its list, so a layer a
// workload does not exercise reads 0 there.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_wall_s", "s"},
    {"reference_wall_s", "s"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"setup.build_s", "s"},
    {"setup.ground_solve_s", "s"},
    {"setup.ground_solve_s_per_task", "s"},
    {"cluster.similarity_s", "s"},
    {"tree.splits", "count"},
    {"tree.final_clusters", "count"},
    {"core.tree_self_s", "s"},
    {"core.baseline_self_s", "s"},
    {"core.objective_batches", "count"},
    {"core.probes", "count"},
    {"core.probes_per_batch", "count"},
    {"core.tree_shots_to_target", "shots"},
    {"core.shot_savings_x", "ratio"},
    {"core.tree_min_fidelity", "1"},
    {"opt.step_self_s", "s"},
    {"opt.iterations", "count"},
    {"sim.objective_busy_s", "s"},
    {"sim.probe_us_p50", "us"},
    {"sim.probe_us_p99", "us"},
    {"sim.probes_per_s", "1/s"},
    {"sim.computed_state_bytes_per_probe", "B"},
    {"paulprop.probe_us_p50", "us"},
    {"paulprop.probe_us_p99", "us"},
    {"pool.lanes", "count"},
    {"proc.cpu_util", "1"},
    {"pool.speedup", "ratio"},
    {"runner.job_ms_p50", "ms"},
    {"runner.job_ms_p99", "ms"},
    {"svc.store_load_s", "s"},
    {"svc.redrain_s", "s"},
    {"dist.protocol_ms_per_job", "ms"},
    {"dist.claim_attempts_per_job", "count"},
    {"dist.claims_useful_frac", "1"},
    {"dist.scan_rounds_per_job", "count"},
    {"dist.store_bytes_read_per_job", "B"},
    {"dist.full_rescans", "count"},
    {"dist.shard_rolls", "count"},
    {"dist.tier_folds", "count"},
    {"dist.lost_claims", "count"},
    {"dist.failed_attempts", "count"},
    {"fs.bytes_written_per_job", "B"},
    {"fs.files_per_job", "count"},
    {"trace_overhead_frac", "1"},
};

std::size_t
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<std::size_t>(std::max(CPU_COUNT(&set), 1));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Filesystem type of `path`, by statfs magic. */
std::string
filesystemType(const std::string &path)
{
    struct statfs info{};
    if (statfs(path.c_str(), &info) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x2fc12fc1: return "zfs";
    case 0x65735546: return "fuse";
    default: {
        char hex[32];
        std::snprintf(hex, sizeof(hex), "0x%lx",
                      static_cast<unsigned long>(info.f_type));
        return hex;
    }
    }
}

JsonValue
metricsJson(const std::vector<Metric> &metrics)
{
    JsonValue out = JsonValue::object();
    for (const Metric &metric : metrics) {
        JsonValue entry = JsonValue::object();
        entry.set("value", JsonValue(metric.value));
        entry.set("unit", JsonValue(metric.unit));
        out.set(metric.name, std::move(entry));
    }
    return out;
}

/** `measured` in the order and units of `defs`; absent ones read 0. */
std::vector<Metric>
complete(const std::vector<Metric> &measured, const MetricDef *defs,
         std::size_t count, WorkloadResult &result)
{
    std::vector<Metric> out;
    for (std::size_t i = 0; i < count; ++i) {
        Metric metric{defs[i].name, 0.0, defs[i].unit};
        for (const Metric &m : measured)
            if (m.name == metric.name)
                metric.value = m.value;
        result.check(std::isfinite(metric.value),
                     std::string("finite ") + metric.name);
        if (!std::isfinite(metric.value))
            metric.value = 0.0;
        out.push_back(metric);
    }
    return out;
}

int
usage(const char *why)
{
    std::fprintf(stderr, "perfbench: %s\n", why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    std::string referencePath;
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
    bool printOutputs = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                options.workload = value();
            else if (arg == "--seed")
                options.seed = std::stoull(value());
            else if (arg == "--seconds")
                options.seconds = std::stod(value());
            else if (arg == "--trace")
                options.trace = value() != "0";
            else if (arg == "--work-dir")
                options.workDir = value();
            else if (arg == "--reference")
                referencePath = value();
            else if (arg == "--commit")
                commit = value();
            else if (arg == "--source-digest")
                sourceDigest = value();
            else if (arg == "--print-outputs")
                printOutputs = true;
            else
                return usage(("unknown argument " + arg).c_str());
        } catch (const std::exception &e) {
            return usage(e.what());
        }
    }
    if (options.workDir.empty())
        return usage("--work-dir is required");
    if (!isPaperWorkload(options.workload) && options.workload != "sweep_drain")
        return usage(("unknown workload '" + options.workload + "'").c_str());

    const std::size_t cpus = availableCpus();
    options.lanes = std::min<std::size_t>(2, cpus);
    // One fleet worker: the fleet-against-scheduler comparison per job,
    // without claim contention between workers on a small machine.
    options.fleetWorkers = 1;
    treevqa::ThreadPool::global().resize(options.lanes);
    std::filesystem::create_directories(options.workDir);

    if (!referencePath.empty()) {
        // A missing or unreadable reference leaves it null, which fails
        // the default seed's reference check.
        try {
            std::ifstream in(referencePath);
            std::ostringstream text;
            text << in.rdbuf();
            const JsonValue doc = JsonValue::parse(text.str());
            if (doc.at("seed").asUint() == kDefaultSeed)
                if (const JsonValue *entry =
                        doc.at("workloads").find(options.workload))
                    options.reference = *entry;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: no reference: %s\n", e.what());
        }
    }

    WorkloadResult result;
    try {
        result = options.workload == "sweep_drain" ? runSweepWorkload(options)
                                                   : runPaperWorkload(options);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     options.workload.c_str(), e.what());
        return 1;
    }

    const std::vector<Metric> metrics = options.trace
        ? complete(result.perLayer, kPerLayer, std::size(kPerLayer), result)
        : complete(result.endToEnd, kEndToEnd, std::size(kEndToEnd), result);

    if (options.trace) {
        const std::string path = options.workDir + "/spans-" + options.workload
            + "-seed" + std::to_string(options.seed) + ".json";
        std::ofstream(path) << spansToTraceJson(result.spans);
        std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                     result.spans.size(), path.c_str());
    }

    std::printf("workload %s seed %llu trace %d\n", options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.trace ? 1 : 0);
    for (const Metric &m : result.detail)
        std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-36s %16.6g %s\n", "failed_frac",
                static_cast<double>(result.failed)
                    / static_cast<double>(std::max<std::uint64_t>(
                        result.attempted, 1)),
                "1");
    for (const std::string &failure : result.failures)
        std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());

    JsonValue detail = metricsJson(result.detail);
    detail.set("failed_frac",
               JsonValue(static_cast<double>(result.failed)
                         / static_cast<double>(
                             std::max<std::uint64_t>(result.attempted, 1))));
    JsonValue detailLine = JsonValue::object();
    detailLine.set("detail", std::move(detail));
    std::printf("%s\n", detailLine.dump().c_str());

    JsonValue context = JsonValue::object();
    context.set("workload", JsonValue(options.workload));
    context.set("seed", JsonValue(options.seed));
    context.set("commit", JsonValue(commit));
    context.set("source_digest", JsonValue(sourceDigest));
    context.set("nproc", JsonValue(static_cast<std::uint64_t>(cpus)));
    context.set("pool_lanes", JsonValue(static_cast<std::uint64_t>(options.lanes)));
    context.set("fleet_workers", JsonValue(options.fleetWorkers));
    context.set("sweep_fs", JsonValue(filesystemType(options.workDir)));
    context.set("build_flags", JsonValue(PERFBENCH_BUILD_FLAGS));
    JsonValue contextLine = JsonValue::object();
    contextLine.set("context", std::move(context));
    std::printf("%s\n", contextLine.dump().c_str());
    if (printOutputs) {
        JsonValue outputsLine = JsonValue::object();
        outputsLine.set("outputs", result.outputs);
        std::printf("%s\n", outputsLine.dump().c_str());
    }

    JsonValue last = JsonValue::object();
    last.set("correct", JsonValue(result.failed == 0));
    last.set("attempted", JsonValue(result.attempted));
    last.set("failed", JsonValue(result.failed));
    last.set("metrics", metricsJson(metrics));
    std::printf("%s\n", last.dump().c_str());
    return 0;
}
