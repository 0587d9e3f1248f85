#include "svc/scenario_runner.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/crc_line.h"
#include "common/event_log.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/metrics.h"
#include "core/objective.h"

namespace treevqa {

namespace {

constexpr std::int64_t kCheckpointVersion = 1;

/** Registry instruments for the per-job phases, looked up once. */
struct RunnerMetrics
{
    Histogram &compileNs;
    Histogram &prepNs;
    Histogram &stepNs;
    Histogram &checkpointNs;
    Counter &jobs;
    Counter &checkpointsWritten;
};

RunnerMetrics &
runnerMetrics()
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    static RunnerMetrics m{
        reg.histogram("runner.compile_ns"),
        reg.histogram("runner.prep_ns"),
        reg.histogram("runner.step_ns"),
        reg.histogram("runner.checkpoint_write_ns"),
        reg.counter("runner.jobs"),
        reg.counter("runner.checkpoints_written")};
    return m;
}

/** Mutable loop state shared between fresh start, checkpoint save and
 * restore. */
struct RunState
{
    int iteration = 0;
    std::uint64_t shots = 0;
    std::vector<double> trajectory;
    double bestLoss = std::numeric_limits<double>::infinity();
    std::vector<double> bestParams;
};

JsonValue
checkpointToJson(const std::string &fingerprint, const RunState &state,
                 const IterativeOptimizer &optimizer, const Rng &rng)
{
    JsonValue out = JsonValue::object();
    out.set("version", JsonValue(kCheckpointVersion));
    out.set("fingerprint", JsonValue(fingerprint));
    out.set("iteration",
            JsonValue(static_cast<std::int64_t>(state.iteration)));
    out.set("shots", JsonValue(state.shots));
    out.set("trajectory", paramsToJson(state.trajectory));
    out.set("bestLoss", jsonNumberOrNull(state.bestLoss));
    out.set("bestParams", paramsToJson(state.bestParams));
    out.set("optimizer", optimizer.saveState());
    out.set("evalRng", rngStateToJson(rng.state()));
    return out;
}

/** The last-good previous checkpoint generation kept beside the
 * current file (rotated on every write, consumed by restore when the
 * current file fails validation). */
std::string
checkpointPrevPath(const std::string &path)
{
    return path + ".prev";
}

/**
 * Durable checkpoint write: the body is CRC-stamped by the line codec
 * (common/crc_line.h; pretty-printed, which the stamp survives because
 * restore re-dumps compactly to verify), the previous
 * checkpoint is rotated to `<path>.prev` as the last-good fallback,
 * and the new file lands via atomic tmp + rename, so a kill at any
 * instant leaves at least one valid generation on disk. Fault site
 * "checkpoint.write": fail-errno throws (the worker retry budget's
 * food), torn-write truncates the body so a *renamed-whole but
 * internally corrupt* checkpoint lands — the case the CRC exists for
 * — and crash kills the process right before the write (the
 * crash-at-checkpoint-index drill).
 */
void
writeCheckpoint(const std::string &path, const JsonValue &checkpoint)
{
    TRACE_SPAN_TIMED("runner.checkpoint_write",
                     runnerMetrics().checkpointNs);
    JsonValue stamped = checkpoint;
    stampCrc(stamped);
    std::string body = stamped.dump(2) + "\n";
    if (const FaultHit hit = FAULT_POINT("checkpoint.write")) {
        if (hit.action == FaultAction::FailErrno)
            throw std::runtime_error("checkpoint write failed: " + path
                                     + ": "
                                     + std::strerror(hit.err));
        if (hit.action == FaultAction::TornWrite)
            body.resize(hit.tornPrefix(body.size()));
    }
    // Rotate the current (validated-on-write, so presumed good)
    // generation out of harm's way before replacing it; a failed
    // rotate (first write: no current file) is fine.
    std::rename(path.c_str(), checkpointPrevPath(path).c_str());
    writeTextFileAtomic(path, body);
    runnerMetrics().checkpointsWritten.inc();
}

/** Restore loop state from one checkpoint file. Returns false (and
 * warns when the file existed) when it is absent, unreadable, fails
 * its CRC, or belongs to a different spec. */
bool
tryRestoreFile(const std::string &path, const std::string &fingerprint,
               RunState &state, IterativeOptimizer &optimizer, Rng &rng)
{
    std::string text;
    if (!readTextFile(path, text))
        return false;
    try {
        JsonValue checkpoint;
        std::string reason;
        if (decodeCrcJson(text, checkpoint, &reason) != CrcStatus::Ok)
            throw std::runtime_error(reason);
        if (checkpoint.at("version").asInt() != kCheckpointVersion)
            throw std::runtime_error("unsupported checkpoint version");
        if (checkpoint.at("fingerprint").asString() != fingerprint)
            throw std::runtime_error(
                "checkpoint belongs to a different spec");
        RunState restored;
        restored.iteration =
            static_cast<int>(checkpoint.at("iteration").asInt());
        restored.shots = checkpoint.at("shots").asUint();
        restored.trajectory =
            paramsFromJson(checkpoint.at("trajectory"));
        const JsonValue &best = checkpoint.at("bestLoss");
        restored.bestLoss = best.isNull()
            ? std::numeric_limits<double>::infinity()
            : best.asDouble();
        restored.bestParams = paramsFromJson(checkpoint.at("bestParams"));
        optimizer.loadState(checkpoint.at("optimizer"));
        rng.setState(rngStateFromJson(checkpoint.at("evalRng")));
        state = std::move(restored);
        return true;
    } catch (const std::exception &e) {
        std::fprintf(stderr,
                     "treevqa: ignoring checkpoint %s (%s)\n",
                     path.c_str(), e.what());
        return false;
    }
}

/** Restore from the current checkpoint, falling back to the rotated
 * last-good `.prev` generation when the current file fails
 * validation. False = fresh start. */
bool
tryRestore(const std::string &path, const std::string &fingerprint,
           RunState &state, IterativeOptimizer &optimizer, Rng &rng)
{
    if (tryRestoreFile(path, fingerprint, state, optimizer, rng))
        return true;
    if (tryRestoreFile(checkpointPrevPath(path), fingerprint, state,
                       optimizer, rng)) {
        std::fprintf(stderr,
                     "treevqa: restored last-good checkpoint %s\n",
                     checkpointPrevPath(path).c_str());
        return true;
    }
    return false;
}

} // namespace

JobResult
runScenario(const ScenarioSpec &spec, const ScenarioRunOptions &options)
{
    const auto t0 = std::chrono::steady_clock::now();

    JobResult result;
    result.spec = spec;
    result.fingerprint = scenarioFingerprint(spec);
    runnerMetrics().jobs.inc();

    TraceSpan compile_span("runner.compile",
                           &runnerMetrics().compileNs);
    const VqaTask task = buildScenarioTask(spec);
    const Ansatz ansatz =
        buildScenarioAnsatz(spec, task).withInitialBits(task.initialBits);
    ClusterObjective objective({task.hamiltonian}, ansatz, spec.engine);
    result.backend = objective.backendName();
    result.groundEnergy = task.groundEnergy;

    auto optimizer = makeScenarioOptimizer(spec);
    compile_span.end();
    // The evaluation-noise stream: private to the job, derived from
    // the spec seed, so results are independent of scheduling.
    Rng eval_rng(deriveScenarioSeed(spec.seed, 0xe7a1));

    RunState state;
    TraceSpan prep_span("runner.prep", &runnerMetrics().prepNs);
    if (!options.checkpointPath.empty()
        && tryRestore(options.checkpointPath, result.fingerprint, state,
                      *optimizer, eval_rng)) {
        result.resumed = true;
        JsonValue detail = JsonValue::object();
        detail.set("iteration",
                   JsonValue(static_cast<std::int64_t>(
                       state.iteration)));
        EventLog::instance().emit(event_type::kJobResumed,
                                  result.fingerprint,
                                  std::move(detail));
        EventLog::instance().flush();
    } else {
        // A failed restore may have partially applied loadState (e.g.
        // a corrupt evalRng block after a valid optimizer block), and
        // reset() does not re-seed private optimizer RNGs — rebuild
        // from the spec so the fallback is a true fresh start.
        optimizer = makeScenarioOptimizer(spec);
        eval_rng = Rng(deriveScenarioSeed(spec.seed, 0xe7a1));
        optimizer->reset(std::vector<double>(
            static_cast<std::size_t>(ansatz.numParams()), 0.0));
    }
    prep_span.end();

    const BatchObjective batch =
        [&](const std::vector<std::vector<double>> &thetas) {
            const std::vector<ClusterEvaluation> evals =
                objective.evaluateBatch(thetas, eval_rng);
            std::vector<double> losses;
            losses.reserve(evals.size());
            for (const ClusterEvaluation &eval : evals) {
                state.shots += eval.shotsUsed;
                losses.push_back(eval.mixedEnergy);
            }
            return losses;
        };

    const std::uint64_t step_bound =
        static_cast<std::uint64_t>(optimizer->maxEvalsPerStep())
        * objective.evalCost();
    const bool checkpoints_enabled = !options.checkpointPath.empty()
        && spec.checkpointInterval > 0;

    if (options.progressCounter)
        options.progressCounter->store(state.iteration);

    int executed_this_call = 0;
    bool halted = false;
    while (state.iteration < spec.maxIterations) {
        // The budget check uses the worst-case bound so the decision
        // is identical whether or not the run was interrupted here.
        if (spec.shotBudget != 0
            && state.shots + step_bound > spec.shotBudget)
            break;
        // Injectable wedge (delay-ms): the optimizer step stalls while
        // the heartbeat thread keeps renewing the lease with an
        // unchanged progress stamp — exactly the signature the
        // hung-job watchdog kills on.
        if (const FaultHit hit = FAULT_POINT("worker.hang"))
            (void)hit; // delay already served inside evaluate()
        TraceSpan step_span("runner.step", &runnerMetrics().stepNs);
        const double loss = optimizer->stepBatch(batch);
        step_span.end();
        ++state.iteration;
        ++executed_this_call;
        if (options.progressCounter)
            options.progressCounter->store(state.iteration);
        state.trajectory.push_back(loss);
        if (loss < state.bestLoss) {
            state.bestLoss = loss;
            state.bestParams = optimizer->params();
        }

        if (checkpoints_enabled
            && state.iteration % spec.checkpointInterval == 0
            && state.iteration < spec.maxIterations) {
            writeCheckpoint(options.checkpointPath,
                            checkpointToJson(result.fingerprint, state,
                                             *optimizer, eval_rng));
            {
                // Flushed before onCheckpoint: the crash drills kill
                // the process inside that hook, and the journal must
                // already show the checkpoint the next claimant will
                // resume from.
                JsonValue detail = JsonValue::object();
                detail.set("iteration",
                           JsonValue(static_cast<std::int64_t>(
                               state.iteration)));
                EventLog::instance().emit(
                    event_type::kJobCheckpointed, result.fingerprint,
                    std::move(detail));
                EventLog::instance().flush();
            }
            if (options.onCheckpoint)
                options.onCheckpoint();
        }
        if (options.haltAfterIterations > 0
            && executed_this_call >= options.haltAfterIterations
            && state.iteration < spec.maxIterations) {
            halted = true;
            break;
        }
        // Graceful stop (SIGTERM cascade): seal a checkpoint at this
        // exact iteration so the next claimant resumes here instead of
        // replaying from the last interval-aligned write, then report
        // the job as interrupted (completed=false, nothing recorded).
        if (options.shouldStop && state.iteration < spec.maxIterations
            && options.shouldStop()) {
            if (checkpoints_enabled) {
                writeCheckpoint(options.checkpointPath,
                                checkpointToJson(result.fingerprint,
                                                 state, *optimizer,
                                                 eval_rng));
                JsonValue detail = JsonValue::object();
                detail.set("iteration",
                           JsonValue(static_cast<std::int64_t>(
                               state.iteration)));
                detail.set("graceful", JsonValue(true));
                EventLog::instance().emit(
                    event_type::kJobCheckpointed, result.fingerprint,
                    std::move(detail));
                EventLog::instance().flush();
            }
            halted = true;
            break;
        }
    }

    result.iterations = state.iteration;
    result.shotsUsed = state.shots;
    result.trajectory = state.trajectory;
    result.bestLoss = state.trajectory.empty()
        ? std::numeric_limits<double>::quiet_NaN()
        : state.bestLoss;
    result.bestParams = state.bestParams;

    if (halted) {
        // Simulated kill: leave the checkpoint on disk, report the
        // partial state without finalizing.
        result.completed = false;
        result.wallSeconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now()
                                          - t0)
                .count();
        return result;
    }

    const std::vector<double> &final_params =
        state.bestParams.empty() ? optimizer->params()
                                 : state.bestParams;
    result.finalEnergy = objective.exactTaskEnergy(0, final_params);
    if (task.hasGroundEnergy())
        result.fidelity =
            energyFidelity(result.finalEnergy, task.groundEnergy);
    result.completed = true;

    // The job is durably finished; its record supersedes the
    // checkpoint (both generations).
    if (!options.checkpointPath.empty()) {
        std::remove(options.checkpointPath.c_str());
        std::remove(
            checkpointPrevPath(options.checkpointPath).c_str());
    }

    result.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    return result;
}

std::optional<CheckpointPeek>
peekCheckpoint(const std::string &path)
{
    std::string text;
    if (!readTextFile(path, text))
        return std::nullopt;
    try {
        const JsonValue checkpoint = JsonValue::parse(text);
        CheckpointPeek peek;
        peek.fingerprint = checkpoint.at("fingerprint").asString();
        peek.iteration =
            static_cast<int>(checkpoint.at("iteration").asInt());
        return peek;
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

} // namespace treevqa
