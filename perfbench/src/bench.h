/**
 * @file
 * Shared types of the benchmark: what a workload run reports, the
 * options it runs under, and small statistics helpers.
 */

#ifndef TREEVQA_PERFBENCH_BENCH_H
#define TREEVQA_PERFBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "spans.h"

namespace perfbench {

/** The seed whose outputs are pinned in reference.json. */
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one invocation measured and checked. */
struct WorkloadResult
{
    /** The bounded end-to-end metrics (untraced pass). */
    std::vector<Metric> endToEnd;
    /** Per-layer metrics (traced pass). */
    std::vector<Metric> perLayer;
    /** The workload's own end-to-end read-outs, printed for people. */
    std::vector<Metric> detail;
    /** Outputs of one repetition, for reference.json. */
    treevqa::JsonValue outputs;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<Span> spans;

    void check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            failures.push_back(what);
        }
    }
};

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch root for sweep directories (inside the checkout). */
    std::string workDir;
    /** Pinned thread-pool lanes and fleet workers. */
    std::size_t lanes = 1;
    int fleetWorkers = 1;
    /** reference.json's entry for this workload (null when absent). */
    treevqa::JsonValue reference;
};

WorkloadResult runPaperWorkload(const RunOptions &options);
WorkloadResult runSweepWorkload(const RunOptions &options);
bool isPaperWorkload(const std::string &name);

double median(std::vector<double> values);
/** Nearest-rank quantile, q in [0, 1]. */
double quantile(std::vector<double> values, double q);

/** User + system CPU seconds of this process so far. */
double processCpuSeconds();
/** User-mode CPU seconds of this process so far. */
double processUserSeconds();
/** Peak resident set of this process, MB. */
double peakRssMb();

} // namespace perfbench

#endif // TREEVQA_PERFBENCH_BENCH_H
