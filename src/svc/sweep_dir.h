/**
 * @file
 * The shared sweep-directory layout: every path the orchestration and
 * distribution layers agree on lives here, so a JobScheduler run, an
 * N-process worker fleet (src/dist/), the merge/compaction pass and
 * the `treevqa_run --status` view all read and write the same files.
 *
 *   <dir>/sweep.json                  the request document (written by
 *                                     treevqa_run --out / --spec; what
 *                                     workers expand into their job
 *                                     list)
 *   <dir>/results.jsonl               canonical append-only store
 *   <dir>/summary.json                deterministic aggregate view
 *   <dir>/checkpoints/<fp>.json       per-job resume state
 *   <dir>/claims/<fp>.lock            per-job work claim (lease)
 *   <dir>/workers/<worker>.jsonl      per-worker store shard (merged
 *                                     into results.jsonl on
 *                                     compaction)
 *   <dir>/tiers/L<k>-<tag>.jsonl      sealed compaction tiers: rolled
 *                                     shards (L0) and their folds
 *                                     (L1, L2, ...), merged into
 *                                     results.jsonl at final
 *                                     compaction (dist/store_merge.h)
 *   <dir>/logs/<worker>.log           child stdout/stderr when spawned
 *                                     by the supervisor
 *   <dir>/traces/<worker>.trace.json  Chrome trace_event dump of the
 *                                     worker's flight recorder
 *                                     (common/trace.h), written on
 *                                     exit and throttled heartbeats
 *   <dir>/metrics/<id>-p<pid>.json    per-incarnation telemetry:
 *                                     health fields beside the
 *                                     metrics-registry snapshot, one
 *                                     atomic write (dist/health.h);
 *                                     the newest incarnation per id
 *                                     is `treevqa_run --health`,
 *                                     the sum of all is `--metrics`
 *   <dir>/events/<token>.jsonl        per-incarnation causal event
 *                                     journal (common/event_log.h),
 *                                     HLC-stamped; merged by
 *                                     `treevqa_run --timeline` and
 *                                     `--events`
 */

#ifndef TREEVQA_SVC_SWEEP_DIR_H
#define TREEVQA_SVC_SWEEP_DIR_H

#include <filesystem>
#include <string>

namespace treevqa {

inline std::string
sweepSpecPath(const std::string &dir)
{
    return (std::filesystem::path(dir) / "sweep.json").string();
}

inline std::string
sweepStorePath(const std::string &dir)
{
    return (std::filesystem::path(dir) / "results.jsonl").string();
}

inline std::string
sweepSummaryPath(const std::string &dir)
{
    return (std::filesystem::path(dir) / "summary.json").string();
}

inline std::string
sweepCheckpointDir(const std::string &dir)
{
    return (std::filesystem::path(dir) / "checkpoints").string();
}

inline std::string
sweepCheckpointPath(const std::string &dir,
                    const std::string &fingerprint)
{
    return (std::filesystem::path(dir) / "checkpoints"
            / (fingerprint + ".json"))
        .string();
}

inline std::string
sweepClaimDir(const std::string &dir)
{
    return (std::filesystem::path(dir) / "claims").string();
}

inline std::string
sweepShardDir(const std::string &dir)
{
    return (std::filesystem::path(dir) / "workers").string();
}

inline std::string
sweepShardPath(const std::string &dir, const std::string &workerId)
{
    return (std::filesystem::path(dir) / "workers"
            / (workerId + ".jsonl"))
        .string();
}

inline std::string
sweepTierDir(const std::string &dir)
{
    return (std::filesystem::path(dir) / "tiers").string();
}

/** One sealed tier file. `level` orders tiers oldest-fold-first at
 * merge time; `tag` makes the name unique and, for folded tiers,
 * deterministic in the set of inputs folded (store_merge.cpp). */
inline std::string
sweepTierPath(const std::string &dir, int level,
              const std::string &tag)
{
    return (std::filesystem::path(dir) / "tiers"
            / ("L" + std::to_string(level) + "-" + tag + ".jsonl"))
        .string();
}

inline std::string
sweepLogDir(const std::string &dir)
{
    return (std::filesystem::path(dir) / "logs").string();
}

inline std::string
sweepLogPath(const std::string &dir, const std::string &workerId)
{
    return (std::filesystem::path(dir) / "logs"
            / (workerId + ".log"))
        .string();
}

inline std::string
sweepTraceDir(const std::string &dir)
{
    return (std::filesystem::path(dir) / "traces").string();
}

inline std::string
sweepTracePath(const std::string &dir, const std::string &workerId)
{
    return (std::filesystem::path(dir) / "traces"
            / (workerId + ".trace.json"))
        .string();
}

inline std::string
sweepMetricsDir(const std::string &dir)
{
    return (std::filesystem::path(dir) / "metrics").string();
}

/** One per-incarnation telemetry file. `fileToken` embeds the pid
 * (e.g. "<worker>-p1234") so restarted slots add files instead of
 * overwriting their predecessor's totals. */
inline std::string
sweepMetricsPath(const std::string &dir,
                 const std::string &fileToken)
{
    return (std::filesystem::path(dir) / "metrics"
            / (fileToken + ".json"))
        .string();
}

inline std::string
sweepEventDir(const std::string &dir)
{
    return (std::filesystem::path(dir) / "events").string();
}

/** One per-incarnation event journal. `fileToken` embeds the pid
 * (e.g. "<worker>-p1234") so every incarnation appends to its own
 * journal and handoffs stay attributable. */
inline std::string
sweepEventPath(const std::string &dir, const std::string &fileToken)
{
    return (std::filesystem::path(dir) / "events"
            / (fileToken + ".jsonl"))
        .string();
}

} // namespace treevqa

#endif // TREEVQA_SVC_SWEEP_DIR_H
