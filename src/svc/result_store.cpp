#include "svc/result_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "common/crc_line.h"
#include "common/event_log.h"
#include "common/fault_injection.h"
#include "common/file_util.h"

namespace treevqa {

namespace {

/** The summary views walk records sorted by job name so their output
 * is independent of completion order. */
std::vector<const JobResult *>
sortedByName(const std::vector<JobResult> &results)
{
    std::vector<const JobResult *> sorted;
    sorted.reserve(results.size());
    for (const JobResult &r : results)
        sorted.push_back(&r);
    std::sort(sorted.begin(), sorted.end(),
              [](const JobResult *a, const JobResult *b) {
                  return a->spec.name < b->spec.name;
              });
    return sorted;
}

} // namespace

void
quarantineStoreLine(const std::string &storePath,
                    std::size_t lineNumber, const std::string &line,
                    const std::string &reason)
{
    const std::filesystem::path store(storePath);
    if (!quarantineLineOnce(
            storePath,
            (std::filesystem::path(quarantineDirFor(storePath))
             / store.filename())
                .string(),
            lineNumber, line, reason))
        return;
    JsonValue detail = JsonValue::object();
    detail.set("source", JsonValue(store.filename().string()));
    detail.set("line",
               JsonValue(static_cast<std::int64_t>(lineNumber)));
    detail.set("reason", JsonValue(reason));
    EventLog::instance().emit(event_type::kStoreQuarantine, "",
                              std::move(detail));
}

StoredLineStatus
decodeStoredLine(const std::string &line, JobResult &record,
                 std::string *reason)
{
    JsonValue json;
    switch (decodeCrcJson(line, json, reason)) {
    case CrcStatus::Ok:
        break;
    case CrcStatus::Unparseable:
        return StoredLineStatus::ParseFailure;
    case CrcStatus::CrcMismatch:
        return StoredLineStatus::CrcMismatch;
    }
    try {
        record = jobResultFromJson(json);
    } catch (const std::exception &e) {
        if (reason)
            *reason = std::string("invalid record: ") + e.what();
        return StoredLineStatus::ParseFailure;
    }
    // A record whose stored fingerprint contradicts its own spec was
    // corrupted (or forged) in a way the CRC cannot see when the whole
    // line was rewritten consistently.
    if (record.fingerprint != scenarioFingerprint(record.spec)) {
        if (reason)
            *reason = "fingerprint does not match spec";
        return StoredLineStatus::FingerprintMismatch;
    }
    return StoredLineStatus::Ok;
}

std::string
quarantineDirFor(const std::string &storePath)
{
    std::filesystem::path parent =
        std::filesystem::path(storePath).parent_path();
    // Worker shards and sealed tiers live one level down
    // (<sweep>/workers/<id>.jsonl, <sweep>/tiers/L<k>-<tag>.jsonl);
    // their quarantine belongs with the sweep's, in <sweep>/quarantine
    // (sweep_dir.h layout).
    if (parent.filename() == "workers" || parent.filename() == "tiers")
        parent = parent.parent_path();
    return (parent / "quarantine").string();
}

JsonValue
jobResultToJson(const JobResult &result)
{
    JsonValue out = JsonValue::object();
    out.set("name", JsonValue(result.spec.name));
    out.set("fingerprint", JsonValue(result.fingerprint));
    out.set("spec", scenarioToJson(result.spec));
    out.set("completed", JsonValue(result.completed));
    out.set("resumed", JsonValue(result.resumed));
    // Poison-job quarantine records only; absent on healthy records
    // so their serialization (and any byte-level diff against older
    // stores) is unchanged.
    if (result.failed) {
        out.set("failed", JsonValue(true));
        out.set("error", JsonValue(result.errorMessage));
        out.set("attempts",
                JsonValue(static_cast<std::int64_t>(result.attempts)));
        out.set("timedOut", JsonValue(result.timedOut));
    }
    out.set("backend", JsonValue(result.backend));
    out.set("iterations",
            JsonValue(static_cast<std::int64_t>(result.iterations)));
    out.set("shotsUsed", JsonValue(result.shotsUsed));
    out.set("bestLoss", jsonNumberOrNull(result.bestLoss));
    out.set("finalEnergy", jsonNumberOrNull(result.finalEnergy));
    out.set("groundEnergy", jsonNumberOrNull(result.groundEnergy));
    out.set("fidelity", jsonNumberOrNull(result.fidelity));
    out.set("trajectory", paramsToJson(result.trajectory));
    out.set("bestParams", paramsToJson(result.bestParams));
    out.set("wallSeconds", JsonValue(result.wallSeconds));
    return out;
}

JobResult
jobResultFromJson(const JsonValue &json)
{
    JobResult result;
    result.spec = scenarioFromJson(json.at("spec"));
    result.fingerprint = json.at("fingerprint").asString();
    result.completed = json.at("completed").asBool();
    result.resumed = json.at("resumed").asBool();
    jsonMaybe(json, "failed", [&](const JsonValue &v) {
        result.failed = v.asBool();
    });
    jsonMaybe(json, "error", [&](const JsonValue &v) {
        result.errorMessage = v.asString();
    });
    jsonMaybe(json, "attempts", [&](const JsonValue &v) {
        const std::int64_t attempts = v.asInt();
        if (attempts > std::numeric_limits<int>::max())
            throw std::runtime_error("attempts out of range");
        result.attempts = static_cast<int>(attempts);
    });
    // Every failure record accounts for at least the attempt that
    // wrote it; the fleet budget sums these counts.
    if (result.failed && result.attempts < 1)
        throw std::runtime_error("failed record with attempts < 1");
    jsonMaybe(json, "timedOut", [&](const JsonValue &v) {
        result.timedOut = v.asBool();
    });
    result.backend = json.at("backend").asString();
    result.iterations = static_cast<int>(json.at("iterations").asInt());
    result.shotsUsed = json.at("shotsUsed").asUint();
    const auto number_or_nan = [&](const char *key) {
        const JsonValue &v = json.at(key);
        return v.isNull() ? std::numeric_limits<double>::quiet_NaN()
                          : v.asDouble();
    };
    result.bestLoss = number_or_nan("bestLoss");
    result.finalEnergy = number_or_nan("finalEnergy");
    result.groundEnergy = number_or_nan("groundEnergy");
    result.fidelity = number_or_nan("fidelity");
    result.trajectory = paramsFromJson(json.at("trajectory"));
    result.bestParams = paramsFromJson(json.at("bestParams"));
    result.wallSeconds = json.at("wallSeconds").asDouble();
    return result;
}

ResultStore::ResultStore(std::string path) : path_(std::move(path)) {}

std::string
jobResultToStoredLine(const JobResult &result)
{
    return crcStampedLine(jobResultToJson(result));
}

std::vector<JobResult>
ResultStore::load(StoreLoadStats *stats) const
{
    std::vector<JobResult> records;
    StoreLoadStats local;
    const auto decode = [&](std::size_t number, const std::string &line) {
        JobResult record;
        std::string reason;
        switch (decodeStoredLine(line, record, &reason)) {
        case StoredLineStatus::Ok:
            ++local.records;
            records.push_back(std::move(record));
            return;
        case StoredLineStatus::ParseFailure:
            ++local.parseFailures;
            break;
        case StoredLineStatus::CrcMismatch:
            ++local.crcMismatches;
            break;
        case StoredLineStatus::FingerprintMismatch:
            ++local.fingerprintMismatches;
            break;
        }
        quarantineStoreLine(path_, number, line, reason);
    };
    std::string text;
    std::size_t line_number = 0;
    if (readTextFile(path_, text))
        forEachLine(text, line_number, /*completeOnly=*/false, decode);
    if (stats)
        *stats = local;
    return records;
}

void
ResultStore::append(const JobResult &result)
{
    std::string line = jobResultToStoredLine(result) + "\n";
    std::lock_guard<std::mutex> lock(mutex_);
    if (const FaultHit hit = FAULT_POINT("store.append")) {
        if (hit.action == FaultAction::FailErrno)
            throw std::runtime_error(
                "result store: cannot append to " + path_ + ": "
                + std::strerror(hit.err));
        if (hit.action == FaultAction::TornWrite)
            line.resize(hit.tornPrefix(line.size()));
    }
    appendTextDurable(path_, line);
}

namespace {

/** A record's survivor key: class (complete > failed > partial), then
 * iterations, then error message. */
std::tuple<int, int, const std::string &>
survivorKey(bool completed, bool failed, int iterations,
            const std::string &errorMessage)
{
    return {completed ? 2 : failed ? 1 : 0, iterations, errorMessage};
}

std::tuple<int, int, const std::string &>
survivorKey(const JobResult &r)
{
    return survivorKey(r.completed, r.failed, r.iterations,
                       r.errorMessage);
}

} // namespace

void
JobResolution::fold(const JobResult &record)
{
    if (record.failed) {
        attempts = record.attempts
                > std::numeric_limits<int>::max() - attempts
            ? std::numeric_limits<int>::max()
            : attempts + record.attempts;
        timedOut = timedOut || record.timedOut;
    }
    if (records++ > 0
        && !(survivorKey(completed, failed, iterations, errorMessage)
             < survivorKey(record)))
        return;
    completed = record.completed;
    failed = record.failed && !record.completed;
    iterations = record.iterations;
    finalEnergy = record.finalEnergy;
    shotsUsed = record.shotsUsed;
    errorMessage = record.errorMessage;
}

std::vector<JobResult>
dedupeByFingerprint(std::vector<JobResult> records,
                    bool warnOnDuplicates)
{
    // Survivors in first-seen order, with each fingerprint's fold.
    std::vector<JobResult> kept;
    std::vector<JobResolution> folds;
    std::map<std::string, std::size_t> by_fingerprint;
    for (JobResult &record : records) {
        const auto [it, inserted] =
            by_fingerprint.emplace(record.fingerprint, kept.size());
        if (inserted) {
            folds.emplace_back().fold(record);
            kept.push_back(std::move(record));
            continue;
        }
        JobResult &held = kept[it->second];
        JobResolution &fold = folds[it->second];
        if (warnOnDuplicates && fold.records == 1)
            std::fprintf(stderr,
                         "treevqa: duplicate records for job \"%s\" "
                         "(fingerprint %s); keeping one by the record "
                         "resolution rule\n",
                         record.spec.name.c_str(),
                         record.fingerprint.c_str());
        fold.fold(record);
        if (survivorKey(held) < survivorKey(record))
            held = std::move(record);
    }
    for (std::size_t i = 0; i < kept.size(); ++i)
        if (kept[i].failed) {
            kept[i].attempts = folds[i].attempts;
            kept[i].timedOut = folds[i].timedOut;
        }
    return kept;
}

JsonValue
sweepSummaryJson(const std::vector<JobResult> &results)
{
    const std::vector<const JobResult *> sorted = sortedByName(results);
    JsonValue out = JsonValue::object();
    std::uint64_t total_shots = 0;
    std::int64_t total_iterations = 0;
    std::size_t completed = 0;
    JsonValue jobs = JsonValue::array();
    for (const JobResult *r : sorted) {
        total_shots += r->shotsUsed;
        total_iterations += r->iterations;
        completed += r->completed ? 1 : 0;
        JsonValue entry = JsonValue::object();
        entry.set("name", JsonValue(r->spec.name));
        entry.set("fingerprint", JsonValue(r->fingerprint));
        entry.set("backend", JsonValue(r->backend));
        entry.set("completed", JsonValue(r->completed));
        entry.set("iterations",
                  JsonValue(static_cast<std::int64_t>(r->iterations)));
        entry.set("shotsUsed", JsonValue(r->shotsUsed));
        entry.set("bestLoss", jsonNumberOrNull(r->bestLoss));
        entry.set("finalEnergy", jsonNumberOrNull(r->finalEnergy));
        entry.set("fidelity", jsonNumberOrNull(r->fidelity));
        jobs.push_back(std::move(entry));
    }
    out.set("jobs", JsonValue(static_cast<std::uint64_t>(results.size())));
    out.set("completedJobs",
            JsonValue(static_cast<std::uint64_t>(completed)));
    out.set("totalIterations", JsonValue(total_iterations));
    out.set("totalShots", JsonValue(total_shots));
    out.set("records", std::move(jobs));
    return out;
}

std::string
sweepSummaryText(const std::vector<JobResult> &results)
{
    const std::vector<const JobResult *> sorted = sortedByName(results);
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line), "%-32s %-12s %6s %12s %14s %9s\n",
                  "job", "backend", "iters", "shots", "energy",
                  "wall(s)");
    out += line;
    double total_wall = 0.0;
    std::uint64_t total_shots = 0;
    for (const JobResult *r : sorted) {
        total_wall += r->wallSeconds;
        total_shots += r->shotsUsed;
        std::snprintf(line, sizeof(line),
                      "%-32s %-12s %6d %12llu %14.8f %9.3f%s\n",
                      r->spec.name.c_str(), r->backend.c_str(),
                      r->iterations,
                      static_cast<unsigned long long>(r->shotsUsed),
                      r->finalEnergy, r->wallSeconds,
                      r->completed ? "" : "  [halted]");
        out += line;
    }
    std::snprintf(line, sizeof(line),
                  "%zu jobs, %.3e shots, %.3f s total wall\n",
                  results.size(), static_cast<double>(total_shots),
                  total_wall);
    out += line;
    return out;
}

} // namespace treevqa
