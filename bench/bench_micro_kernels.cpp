/**
 * @file
 * Microbenchmarks of the hot kernels underneath every experiment: gate
 * application, batched Pauli expectations and the cluster objective
 * evaluation. Each optimized kernel is timed against its
 * pre-optimization reference (see sim/reference_kernels.h) over a
 * qubit sweep, so the speedup trajectory stays measurable across PRs.
 *
 * Self-contained harness (no google-benchmark): results are printed as
 * a table and mirrored machine-readably into BENCH_micro_kernels.json
 * in the working directory.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuit/hardware_efficient.h"
#include "circuit/uccsd_min.h"
#include "common/event_log.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/engine_config.h"
#include "core/objective.h"
#include "core/vqa_task.h"
#include "dist/supervisor.h"
#include "dist/work_claim.h"
#include "dist/worker_daemon.h"
#include "ham/spin_chains.h"
#include "ham/synthetic_molecule.h"
#include "linalg/lanczos.h"
#include "paulprop/pauli_propagation.h"
#include "sim/eval_plan.h"
#include "sim/expectation.h"
#include "sim/reference_kernels.h"
#include "sim/workspace_pool.h"
#include "svc/job_scheduler.h"
#include "svc/result_store.h"
#include "svc/sweep_dir.h"

using namespace treevqa;

namespace {

/** One timed kernel (ref_ns == 0 means no reference counterpart). */
struct BenchResult
{
    std::string name;
    int qubits;
    double fastNs;
    double refNs;

    double speedup() const { return refNs > 0.0 ? refNs / fastNs : 0.0; }
};

/**
 * ns per call: one warmup call, then repeat until ~80 ms of samples or
 * 64 reps, whichever first, and report the minimum (the usual
 * least-noise estimator for deterministic kernels).
 */
double
timeNs(const std::function<void()> &fn)
{
    using clock = std::chrono::steady_clock;
    fn(); // warmup
    double best = 1e30;
    double total = 0.0;
    for (int rep = 0; rep < 64 && total < 80e6; ++rep) {
        const auto t0 = clock::now();
        fn();
        const auto t1 = clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count();
        best = std::min(best, ns);
        total += ns;
    }
    return best;
}

/** A pseudo-random normalized n-qubit state. */
Statevector
randomState(int n, std::uint64_t seed)
{
    Rng rng(seed);
    Statevector s(n);
    for (int g = 0; g < 6 * n; ++g) {
        const int q = static_cast<int>(rng.uniformInt(n));
        const int p = static_cast<int>((q + 1) % n);
        switch (rng.uniformInt(5)) {
          case 0: s.applyRx(q, rng.uniform(-3, 3)); break;
          case 1: s.applyRy(q, rng.uniform(-3, 3)); break;
          case 2: s.applyRz(q, rng.uniform(-3, 3)); break;
          case 3: s.applyCx(q, p); break;
          default: s.applyH(q); break;
        }
    }
    return s;
}

/** Random Pauli set with deliberate X-mask collisions (chemistry-like:
 * several members per measurement group). */
std::vector<PauliString>
randomStrings(int n, int num_groups, int members_per_group,
              std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<PauliString> strings;
    const char ops[4] = {'I', 'X', 'Y', 'Z'};
    for (int g = 0; g < num_groups; ++g) {
        PauliString base(n);
        for (int q = 0; q < n; ++q)
            base.setOp(q, ops[rng.uniformInt(4)]);
        strings.push_back(base);
        for (int m = 1; m < members_per_group; ++m) {
            PauliString sib = base;
            for (int q = 0; q < n; ++q) {
                if (rng.uniformInt(2) == 0)
                    continue;
                const char c = sib.opAt(q);
                if (c == 'I')
                    sib.setOp(q, 'Z');
                else if (c == 'Z')
                    sib.setOp(q, 'I');
                else if (c == 'X')
                    sib.setOp(q, 'Y');
                else
                    sib.setOp(q, 'X');
            }
            strings.push_back(sib);
        }
    }
    return strings;
}

std::vector<BenchResult> g_results;

void
record(const std::string &name, int qubits, double fast_ns,
       double ref_ns)
{
    g_results.push_back(BenchResult{name, qubits, fast_ns, ref_ns});
    if (ref_ns > 0.0)
        std::printf("  %-24s %2dq  %12.0f ns  ref %12.0f ns  %6.2fx\n",
                    name.c_str(), qubits, fast_ns, ref_ns,
                    ref_ns / fast_ns);
    else
        std::printf("  %-24s %2dq  %12.0f ns\n", name.c_str(), qubits,
                    fast_ns);
}

void
benchGateKernels(int n)
{
    Statevector sv = randomState(n, 17);
    const int a = 1;
    const int b = n / 2;
    double theta = 0.3;

    record("rxx", n,
           timeNs([&] { sv.applyRxx(a, b, theta); theta += 1e-4; }),
           timeNs([&] { refApplyRxx(sv, a, b, theta); theta += 1e-4; }));
    record("ryy", n,
           timeNs([&] { sv.applyRyy(a, b, theta); theta += 1e-4; }),
           timeNs([&] { refApplyRyy(sv, a, b, theta); theta += 1e-4; }));
    record("rzz", n,
           timeNs([&] { sv.applyRzz(a, b, theta); theta += 1e-4; }),
           timeNs([&] { refApplyRzz(sv, a, b, theta); theta += 1e-4; }));
    record("cx", n, timeNs([&] { sv.applyCx(a, b); }),
           timeNs([&] { refApplyCx(sv, a, b); }));
    record("x", n, timeNs([&] { sv.applyX(a); }),
           timeNs([&] { refApplyX(sv, a); }));
    record("z", n, timeNs([&] { sv.applyZ(a); }),
           timeNs([&] { refApplyZ(sv, a); }));
    record("s", n, timeNs([&] { sv.applyS(a); }),
           timeNs([&] { refApplyS(sv, a); }));
    record("h", n, timeNs([&] { sv.applyH(a); }),
           timeNs([&] { refApplyH(sv, a); }));
    record("ry", n,
           timeNs([&] { sv.applyRy(a, theta); theta += 1e-4; }), 0.0);

    // A full rotation layer (the HEA building block).
    record("rotation_layer", n, timeNs([&] {
               for (int q = 0; q < n; ++q)
                   sv.applyRy(q, theta);
               theta += 1e-4;
           }),
           0.0);
}

void
benchBatchedExpectations(int n)
{
    const Statevector sv = randomState(n, 23);
    const auto strings = randomStrings(n, 40, 5, 31);
    record("batched_expectations", n,
           timeNs([&] {
               auto v = perStringExpectations(sv, strings);
               (void)v;
           }),
           timeNs([&] {
               auto v = refPerStringExpectations(sv, strings);
               (void)v;
           }));
}

void
benchExpectationsLih12()
{
    // One probe's expectation pass in the molecule_sv shape: the
    // aligned 4-task LiH-12 strings on a seeded HEA state, one lane.
    // The plan is built once, as the statevector backend does; ref is
    // the sign-table evaluator that regrouped the strings on every
    // call.
    const SyntheticMoleculeSpec lih = syntheticLiH();
    const AlignedTerms aligned =
        alignTerms(syntheticFamily(lih, familyBonds(lih, 4)));
    const Ansatz ansatz = makeHardwareEfficientAnsatz(12, 2);
    Rng rng(7);
    std::vector<double> theta(ansatz.numParams());
    for (auto &t : theta)
        t = rng.uniform(-3.0, 3.0);
    const Statevector sv = ansatz.prepare(theta);
    const ExpectationPlan plan(aligned.strings);
    ThreadPool::global().resize(1);
    const double fast = timeNs([&] {
        auto v = plan.evaluate(sv);
        (void)v;
    });
    const double ref = timeNs([&] {
        auto v = refLutPerStringExpectations(sv, aligned.strings);
        (void)v;
    });
    ThreadPool::global().resize(0);
    record("expectations_lih12", 12, fast, ref);
}

void
benchCircuitApply(int n)
{
    const Ansatz ansatz = makeHardwareEfficientAnsatz(n, 2, 0);
    Rng rng(5);
    std::vector<double> theta(ansatz.numParams());
    for (auto &t : theta)
        t = rng.uniform(-1, 1);
    Statevector sv(n);
    record("hea_prepare", n,
           timeNs([&] { ansatz.prepareInto(sv, theta); }), 0.0);
}

void
benchThreadedExpectations(int n)
{
    // Same workload as batched_expectations, but comparing the full
    // pool against a single lane (ref): the speedup column is the
    // thread-parallel scaling of perStringExpectations.
    const Statevector sv = randomState(n, 23);
    const auto strings = randomStrings(n, 40, 5, 31);
    ThreadPool::global().resize(0); // machine default
    const double fast = timeNs([&] {
        auto v = perStringExpectations(sv, strings);
        (void)v;
    });
    ThreadPool::global().resize(1);
    const double ref = timeNs([&] {
        auto v = perStringExpectations(sv, strings);
        (void)v;
    });
    ThreadPool::global().resize(0);
    record("threaded_expectations", n, fast, ref);
}

void
benchBatchedEvaluation()
{
    // Batched multi-theta evaluation: one evaluateBatch call vs the
    // same number of sequential evaluate() calls (identical probe RNG
    // streams), on a 14-qubit 6-task TFIM cluster objective. This is
    // the per-iterate unit of work SPSA/Nelder-Mead submit per step.
    const int n = 14;
    const auto fam = tfimFamily(n, 0.5, 1.5, 6);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(n, 2, 0);
    ClusterObjective obj(fam, ansatz, EngineConfig{});

    Rng theta_rng(3);
    std::vector<std::vector<double>> thetas(8);
    for (auto &theta : thetas) {
        theta.resize(ansatz.numParams());
        for (auto &t : theta)
            t = theta_rng.uniform(-2, 2);
    }

    ThreadPool::global().resize(0);
    for (const std::size_t batch : {1u, 2u, 4u, 8u}) {
        const std::vector<std::vector<double>> probes(
            thetas.begin(), thetas.begin() + batch);
        Rng rng_fast(9);
        const double fast = timeNs([&] {
            auto evs = obj.evaluateBatch(probes, rng_fast);
            (void)evs;
        });
        Rng rng_ref(9);
        const double ref = timeNs([&] {
            const std::uint64_t base = rng_ref.nextU64();
            for (std::size_t i = 0; i < probes.size(); ++i) {
                Rng probe = ClusterObjective::probeRng(base, i);
                auto ev = obj.evaluate(probes[i], probe);
                (void)ev;
            }
        });
        record("evaluate_batch_" + std::to_string(batch), n, fast,
               ref);
    }
}

void
benchCompiledPrepSharedPrefix()
{
    // Shared-prefix batched preparation on an SPSA ± pair over the
    // UCCSD-minimal ansatz. SPSA perturbs every parameter, so the
    // sharing is exactly the fixed preamble (basis changes + CX
    // ladders); the EvalPlan must do strictly less gate-application
    // work than two independent preparations. Reported as applied-op
    // counts (fast = plan, ref = independent), which is robust to a
    // single-core CI container — the "speedup" column is the work
    // ratio, not a timing.
    const Ansatz ansatz = makeUccsdMinimalAnsatz();
    Rng rng(77);
    std::vector<double> x(ansatz.numParams());
    for (auto &t : x)
        t = rng.uniform(-1, 1);
    const std::vector<double> delta = rng.rademacherVector(x.size());
    std::vector<std::vector<double>> probes(2, x);
    for (std::size_t i = 0; i < x.size(); ++i) {
        probes[0][i] += 0.1 * delta[i];
        probes[1][i] -= 0.1 * delta[i];
    }

    const EvalPlan plan(ansatz.compiled(), probes, ansatz.initialBits());
    // Drive the plan once so the numbers reflect a real execution.
    StatevectorPool pool(ansatz.numQubits());
    std::size_t leaves = 0;
    plan.execute(pool, [&](const std::vector<std::size_t> &p,
                           const Statevector &) { leaves += p.size(); });

    record("compiled_prep_shared_prefix", ansatz.numQubits(),
           static_cast<double>(plan.stats().appliedOps),
           static_cast<double>(plan.stats().independentOps));
    (void)leaves;
}

void
benchPaulpropSharded(int n)
{
    // One multi-observable propagation at 1/2/4/8 live-map shards vs
    // the serial single-shard reference (ref column). On a single-core
    // container the ratio is ~1.0x; sharding pays off on multi-core.
    const auto fam = tfimFamily(n, 0.7, 1.3, 4);
    const Ansatz ansatz = makeHardwareEfficientAnsatz(n, 2, 0);
    Rng rng(13);
    std::vector<double> theta(ansatz.numParams());
    for (auto &t : theta)
        t = rng.uniform(-1.5, 1.5);

    PauliPropConfig serial_cfg;
    serial_cfg.maxWeight = 6;
    serial_cfg.shards = 1;
    const PauliPropagator serial(ansatz.compiled(), serial_cfg);
    const double ref = timeNs([&] {
        auto v = serial.expectations(theta, fam, 0);
        (void)v;
    });

    ThreadPool::global().resize(0); // machine default
    for (const int shards : {1, 2, 4, 8}) {
        PauliPropConfig cfg = serial_cfg;
        cfg.shards = shards;
        const PauliPropagator prop(ansatz.compiled(), cfg);
        const double fast = timeNs([&] {
            auto v = prop.expectations(theta, fam, 0);
            (void)v;
        });
        record("paulprop_sharded_" + std::to_string(shards), n, fast,
               ref);
    }
}

void
benchClusterObjective()
{
    // One full noisy evaluation of a 10-task LiH cluster objective.
    const auto spec = syntheticLiH();
    const auto fam = syntheticFamily(spec, familyBonds(spec, 10));
    const Ansatz ansatz =
        makeHardwareEfficientAnsatz(12, 2, halfFillingBits(12));
    ClusterObjective obj(fam, ansatz, EngineConfig{});
    Rng rng(2);
    std::vector<double> theta(ansatz.numParams(), 0.1);
    record("cluster_objective_eval", 12, timeNs([&] {
               auto ev = obj.evaluate(theta, rng);
               (void)ev;
           }),
           0.0);
}

void
benchSchedulerThroughput()
{
    // Scheduler overhead series: a fixed 16-job sweep of tiny
    // scenarios (6-qubit TFIM, 1-layer HEA, 6 SPSA iterations,
    // in-memory — no store/checkpoint I/O) run at 1/2/4/8 pool lanes.
    // The ref column is the 1-lane time, so "speedup" is the
    // scheduler's parallel scaling (~1.0x on a single-core
    // container); the jobs/sec trajectory tracks per-job dispatch
    // overhead across PRs.
    JsonValue request = JsonValue::object();
    request.set("name", JsonValue("bench"));
    request.set("problem", JsonValue("tfim"));
    request.set("size", JsonValue(std::int64_t{6}));
    request.set("ansatz", JsonValue("hea"));
    request.set("layers", JsonValue(std::int64_t{1}));
    request.set("maxIterations", JsonValue(std::int64_t{6}));
    request.set("checkpointInterval", JsonValue(std::int64_t{0}));
    JsonValue fields = JsonValue::array();
    for (int j = 0; j < 16; ++j)
        fields.push_back(JsonValue(0.5 + 0.1 * j));
    JsonValue sweep = JsonValue::object();
    sweep.set("field", std::move(fields));
    request.set("sweep", std::move(sweep));
    const std::vector<ScenarioSpec> specs = expandScenarios(request);

    double ref = 0.0;
    for (const int lanes : {1, 2, 4, 8}) {
        ThreadPool::global().resize(static_cast<std::size_t>(lanes));
        const double ns = timeNs([&] {
            const SweepResult sweep_result =
                JobScheduler().run(specs);
            (void)sweep_result;
        });
        if (lanes == 1)
            ref = ns;
        record("scheduler_throughput_" + std::to_string(lanes), 6, ns,
               ref);
    }
    ThreadPool::global().resize(0); // back to the machine default
}

void
benchDistThroughput()
{
    // Distributed-layer series alongside scheduler_throughput_*: the
    // same class of tiny 12-job sweep drained by 1/2/4 in-process
    // WorkerDaemons sharing one sweep directory — the full filesystem
    // protocol (claim files, heartbeats, per-worker shards, final
    // merge/compaction) is on the clock. The thread pool is pinned to
    // one lane so worker count is the only parallelism; ref is the
    // 1-worker time, so the speedup column is the fleet's scaling
    // (~1.0x on a single-core container) and the ns trajectory tracks
    // claim/merge overhead across PRs.
    std::vector<ScenarioSpec> specs;
    for (int j = 0; j < 12; ++j) {
        ScenarioSpec spec;
        spec.name = "dist" + std::to_string(j);
        spec.problem = "tfim";
        spec.size = 6;
        spec.field = 0.5 + 0.1 * j;
        spec.ansatz = "hea";
        spec.layers = 1;
        spec.maxIterations = 6;
        specs.push_back(spec);
    }

    ThreadPool::global().resize(1);
    static int run_counter = 0;
    const std::filesystem::path root =
        std::filesystem::temp_directory_path()
        / ("treevqa_bench_" + localWorkerId());
    double ref = 0.0;
    for (const int workers : {1, 2, 4}) {
        const double ns = timeNs([&] {
            const std::filesystem::path dir =
                root / std::to_string(run_counter++);
            std::filesystem::create_directories(dir);
            std::vector<std::unique_ptr<WorkerDaemon>> daemons;
            for (int w = 0; w < workers; ++w) {
                WorkerOptions options;
                options.sweepDir = dir.string();
                options.workerId = "w" + std::to_string(w);
                options.leaseMs = 60000;
                options.pollMs = 2;
                daemons.push_back(
                    std::make_unique<WorkerDaemon>(options));
            }
            std::vector<std::thread> threads;
            for (auto &daemon : daemons)
                threads.emplace_back(
                    [&daemon, &specs] { daemon->run(specs); });
            for (std::thread &thread : threads)
                thread.join();
            std::filesystem::remove_all(dir);
        });
        if (workers == 1)
            ref = ns;
        record("dist_throughput_" + std::to_string(workers), 6, ns,
               ref);
    }
    std::filesystem::remove_all(root);
    ThreadPool::global().resize(0); // back to the machine default
}

void
benchClaimPath()
{
    // PR 8 claim-path scaling series: one worker drains N synthetic
    // no-op jobs (options.jobRunner returns a fixed completed record,
    // so the claim/scan/record protocol is the *whole* cost) and the
    // rows report counters, not timings — store bytes read per drained
    // job, WorkClaim::tryAcquire round-trips per drained job, and scan
    // rounds per drain. The tail reader is measured at 2000/10000
    // jobs — with shard rolling + tier folding live at 10000 — and
    // must stay asymptotically flat.
    const std::filesystem::path root =
        std::filesystem::temp_directory_path()
        / ("treevqa_bench_claim_" + localWorkerId());
    int run_counter = 0;

    const auto specs_for = [](int n) {
        std::vector<ScenarioSpec> specs;
        for (int j = 0; j < n; ++j) {
            ScenarioSpec spec;
            spec.name = "claim" + std::to_string(j);
            spec.problem = "tfim";
            spec.size = 4;
            spec.field = 0.25 + 1e-4 * j;
            spec.ansatz = "hea";
            spec.layers = 1;
            spec.maxIterations = 1;
            spec.checkpointInterval = 0;
            specs.push_back(spec);
        }
        return specs;
    };

    struct Config
    {
        const char *tag;
        int jobs;
        std::int64_t rollBytes;
    };
    const Config configs[] = {
        {"incr_2000", 2000, 0},
        {"incr_10000", 10000, 256 * 1024},
    };
    for (const Config &config : configs) {
        const std::vector<ScenarioSpec> specs =
            specs_for(config.jobs);
        const std::filesystem::path dir =
            root / std::to_string(run_counter++);
        std::filesystem::create_directories(dir);

        WorkerOptions options;
        options.sweepDir = dir.string();
        options.workerId = "bench";
        options.leaseMs = 60000;
        options.pollMs = 1;
        options.claimBatch = 8;
        options.shardRollBytes = config.rollBytes;
        options.healthSnapshots = false;
        options.jobRunner = [](const ScenarioSpec &spec,
                               const ScenarioRunOptions &) {
            JobResult r;
            r.spec = spec;
            r.fingerprint = scenarioFingerprint(spec);
            r.completed = true;
            r.iterations = 1;
            r.trajectory = {1.0};
            r.bestLoss = 1.0;
            r.finalEnergy = -spec.field;
            return r;
        };
        WorkerDaemon daemon(options);
        const WorkerReport report = daemon.run(specs);
        if (report.completed != static_cast<std::size_t>(config.jobs))
            std::fprintf(stderr,
                         "claim-path bench %s: drained %zu of %d\n",
                         config.tag, report.completed, config.jobs);

        const double jobs = static_cast<double>(config.jobs);
        const double bytes_job =
            static_cast<double>(report.storeBytesRead) / jobs;
        record(std::string("dist_scan_bytes_job_") + config.tag, 0,
               bytes_job, 0.0);
        record(std::string("dist_claim_ops_job_") + config.tag, 0,
               static_cast<double>(report.claimAttempts) / jobs, 0.0);
        record(std::string("dist_scans_drain_") + config.tag, 0,
               static_cast<double>(report.scanRounds), 0.0);
        std::filesystem::remove_all(dir);
    }
    std::filesystem::remove_all(root);
}

void
benchGroundSolve()
{
    // Exact ground-state set-up, which every paper workload runs first
    // for its fidelity reference: wall time per task of
    // solveGroundEnergies over a family, and Lanczos matvecs per solve
    // on the same per-task start streams — a deterministic work
    // counter, gated in CI.
    const SyntheticMoleculeSpec lih = syntheticLiH();
    const struct
    {
        const char *tag;
        std::vector<PauliSum> hams;
    } families[] = {
        {"tfim10", tfimFamily(10, 0.6, 1.4, 10)},
        {"lih12", syntheticFamily(lih, familyBonds(lih, 4))},
    };
    constexpr std::uint64_t kSeed = 0x9d5f; // solveGroundEnergies default
    for (const auto &family : families) {
        const double ns = timeNs([&] {
            std::vector<VqaTask> tasks =
                makeTasks(family.tag, family.hams, 0);
            solveGroundEnergies(tasks, kSeed);
        });
        std::size_t matvecs = 0;
        for (std::size_t i = 0; i < family.hams.size(); ++i) {
            const PauliSum &h = family.hams[i];
            const MatVec counted = [&](const CVector &x, CVector &y) {
                ++matvecs;
                h.applyTo(x, y);
            };
            Rng rng = probeRng(kSeed, i);
            lanczosGroundState(std::size_t{1} << h.numQubits(), counted,
                               rng);
        }
        const double tasks = static_cast<double>(family.hams.size());
        const int qubits = family.hams[0].numQubits();
        record(std::string("ground_solve_") + family.tag, qubits,
               ns / tasks, 0.0);
        record(std::string("ground_solve_matvecs_") + family.tag, qubits,
               static_cast<double>(matvecs) / tasks, 0.0);
    }
}

void
benchFaultPointsDisarmed()
{
    // Guard series for the fault-injection layer: a disarmed
    // FAULT_POINT must stay one relaxed atomic load, so the hardened
    // claim/append hot paths pay nothing unless a chaos plan is armed.
    // fast = registry fully disarmed, ref = registry armed on an
    // *unrelated* site (every site then takes the evaluate() slow
    // path and misses), so the speedup column reads "what the
    // disarmed fast path saves" and the disarmed ns trajectory guards
    // against work creeping back onto it.
    constexpr int kCalls = 4096;
    const auto fault_loop = [] {
        for (int i = 0; i < kCalls; ++i)
            if (const FaultHit hit = FAULT_POINT("bench.disarmed"))
                std::abort(); // no plan ever targets this site
    };
    const std::string unrelated_plan = "{\"seed\": 7, \"faults\": "
        "[{\"site\": \"bench.unrelated\", \"action\": \"fail-errno\", "
        "\"errno\": \"EIO\", \"hit\": 1}]}";

    FaultInjection::instance().disarm();
    const double site_disarmed = timeNs(fault_loop) / kCalls;
    FaultInjection::instance().arm(unrelated_plan);
    const double site_armed = timeNs(fault_loop) / kCalls;
    FaultInjection::instance().disarm();
    record("fault_points_disarmed", 0, site_disarmed, site_armed);

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path()
        / ("treevqa_bench_fp_" + localWorkerId());
    std::filesystem::create_directories(dir);

    // The two hardened hot paths a worker hammers: the claim
    // acquire/renew/release cycle (4 sites) and a durable store
    // append (3 sites). Same fast/ref convention as above.
    const auto claim_cycle = [&] {
        auto claim = WorkClaim::tryAcquire(dir.string(), "benchfp",
                                           "bench-worker", 60000);
        if (!claim) {
            std::fprintf(stderr, "bench claim unexpectedly contended\n");
            std::abort();
        }
        claim->renew();
        claim->release();
    };
    const double claim_disarmed = timeNs(claim_cycle);
    FaultInjection::instance().arm(unrelated_plan);
    const double claim_armed = timeNs(claim_cycle);
    FaultInjection::instance().disarm();
    record("fault_points_claim_cycle", 0, claim_disarmed, claim_armed);

    JobResult sample;
    sample.spec.name = "benchfp";
    sample.spec.problem = "tfim";
    sample.spec.size = 6;
    sample.spec.ansatz = "hea";
    sample.spec.layers = 1;
    sample.spec.maxIterations = 4;
    sample.fingerprint = scenarioFingerprint(sample.spec);
    sample.completed = true;
    sample.iterations = 4;
    sample.trajectory = {1.0, 0.5, 0.25, 0.125};
    sample.bestLoss = 0.125;
    sample.finalEnergy = -1.0;
    ResultStore store((dir / "bench.jsonl").string());
    const auto append_once = [&] { store.append(sample); };
    const double append_disarmed = timeNs(append_once);
    FaultInjection::instance().arm(unrelated_plan);
    const double append_armed = timeNs(append_once);
    FaultInjection::instance().disarm();
    record("fault_points_store_append", 0, append_disarmed,
           append_armed);

    std::filesystem::remove_all(dir);
}

void
benchFleetSupervision()
{
    // PR 7 fleet-supervision series. heartbeat_progress_stamp: the
    // worker heartbeat now stamps monotonic progress into the claim on
    // every renew (the watchdog's liveness signal). fast = renew with
    // a progress stamp, ref = the plain renew it replaced, so the
    // speedup column reads ~1.0x when the stamp is free (both are one
    // atomic tmp+rename rewrite) and drifts below 1.0 if stamping ever
    // grows extra I/O.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path()
        / ("treevqa_bench_sup_" + localWorkerId());
    std::filesystem::create_directories(dir);

    auto claim = WorkClaim::tryAcquire(dir.string(), "benchhb",
                                       "bench-worker", 60000);
    if (!claim) {
        std::fprintf(stderr, "bench claim unexpectedly contended\n");
        std::abort();
    }
    std::int64_t progress = 0;
    const double stamped_ns =
        timeNs([&] { claim->renew(++progress); });
    const double plain_ns = timeNs([&] { claim->renew(); });
    claim->release();
    record("heartbeat_progress_stamp", 0, stamped_ns, plain_ns);

    // supervisor_overhead: the fixed cost of one Supervisor::run()
    // over an already-drained one-job sweep with a trivial worker
    // command — spec load, drained check, health publish and the
    // shutdown cascade, with no real work to hide behind. No ref
    // counterpart; the ns trajectory guards the supervise loop's
    // per-sweep floor across PRs.
    ScenarioSpec spec;
    spec.name = "benchsup";
    spec.problem = "tfim";
    spec.size = 4;
    spec.ansatz = "hea";
    spec.layers = 1;
    spec.maxIterations = 4;
    JsonValue sweep = JsonValue::array();
    sweep.push_back(scenarioToJson(spec));
    writeTextFileAtomic(sweepSpecPath(dir.string()),
                        sweep.dump(2) + "\n");
    JobResult done;
    done.spec = spec;
    done.fingerprint = scenarioFingerprint(spec);
    done.completed = true;
    done.iterations = 4;
    done.trajectory = {1.0, 0.5, 0.25, 0.125};
    done.bestLoss = 0.125;
    done.finalEnergy = -1.0;
    ResultStore(sweepStorePath(dir.string())).append(done);

    SupervisorOptions options;
    options.sweepDir = dir.string();
    options.workerCommand = {"/bin/true"};
    options.workers = 1;
    options.idPrefix = "bench";
    options.pollMs = 1;
    options.gracePeriodMs = 500;
    options.redirectChildLogs = false;
    options.mergeOnDrain = false;
    const double supervise_ns =
        timeNs([&] { Supervisor(options).run(); });
    record("supervisor_overhead", 0, supervise_ns, 0.0);

    std::filesystem::remove_all(dir);
}

void
benchObservability()
{
    // PR 9 observability series, same convention as the fault_points_*
    // guards: a disarmed TRACE_SPAN must cost one relaxed atomic load
    // (trace_overhead_off is the bare loop, so the disarmed row's delta
    // over it is the span's whole disarmed price), the armed row prices
    // the two clock reads + ring write, and metrics_counter_inc guards
    // the sharded counter's uncontended fast path. ref of the disarmed
    // and armed rows is the bare loop, so their speedup columns read
    // "fraction of the loop the instrumentation costs" (~1.0x disarmed
    // = within noise of no instrumentation at all).
    constexpr int kCalls = 4096;
    volatile std::uint64_t sink = 0;
    const auto bare_loop = [&] {
        for (int i = 0; i < kCalls; ++i)
            sink = sink + 1;
    };
    const auto span_loop = [&] {
        for (int i = 0; i < kCalls; ++i) {
            TRACE_SPAN("bench.span");
            sink = sink + 1;
        }
    };

    TraceRecorder::instance().disarm();
    const double off = timeNs(bare_loop) / kCalls;
    const double disarmed = timeNs(span_loop) / kCalls;
    TraceRecorder::instance().arm(kCalls);
    const double armed = timeNs(span_loop) / kCalls;
    TraceRecorder::instance().disarm();
    TraceRecorder::instance().clear();
    record("trace_overhead_off", 0, off, 0.0);
    record("trace_overhead_disarmed", 0, disarmed, off);
    record("trace_overhead_armed", 0, armed, off);

    Counter &counter =
        MetricsRegistry::instance().counter("bench.counter");
    const double inc = timeNs([&] {
                           for (int i = 0; i < kCalls; ++i)
                               counter.inc();
                       })
        / kCalls;
    record("metrics_counter_inc", 0, inc, 0.0);

    Histogram &hist =
        MetricsRegistry::instance().histogram("bench.hist_ns");
    const double observe = timeNs([&] {
                               for (int i = 0; i < kCalls; ++i)
                                   hist.observe(
                                       static_cast<std::uint64_t>(i));
                           })
        / kCalls;
    record("metrics_histogram_observe", 0, observe, 0.0);
}

void
benchEventLog()
{
    // PR 10 causal-journal series. hlc_tick guards the clock stamp
    // every claim/heartbeat/event takes; event_append guards emit()
    // — stamp + serialize + CRC + buffer, no I/O — which runs inside
    // the worker's claim and record loops and must stay well under a
    // microsecond (the durable append happens in the explicit,
    // untimed flush). kEmits stays below kAutoFlushLines so the
    // series never accidentally prices a disk write.
    HlcClock clock("bench-p0");
    constexpr int kCalls = 4096;
    volatile std::int64_t sink = 0;
    const double tick_ns = timeNs([&] {
                               for (int i = 0; i < kCalls; ++i)
                                   sink = sink
                                       + clock.tick(1000000 + i)
                                             .counter;
                           })
        / kCalls;
    record("hlc_tick", 0, tick_ns, 0.0);

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path()
        / ("treevqa_bench_evl_" + localWorkerId());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    EventLog log;
    log.open(dir.string(), "bench");
    constexpr int kEmits = 512;
    static_assert(kEmits < EventLog::kAutoFlushLines,
                  "emit series must not hit the auto-flush");
    const double emit_ns =
        timeNs([&] {
            for (int i = 0; i < kEmits; ++i)
                log.emit(event_type::kLeaseRenewed, "benchfp");
        })
        / kEmits;
    log.flush();
    log.close();
    record("event_append", 0, emit_ns, 0.0);
    std::filesystem::remove_all(dir);
}

/** JSON string escaping for the provenance stamps (env-supplied). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

void
writeJson(const std::string &path)
{
    // Provenance stamps come from the harness (CI passes the checkout
    // SHA and the run date); a bare local run stamps "unknown" so the
    // document stays schema-complete either way.
    const char *sha = std::getenv("TREEVQA_BENCH_GIT_SHA");
    const char *date = std::getenv("TREEVQA_BENCH_DATE");
    std::ofstream out(path);
    out << "{\n  \"bench\": \"micro_kernels\",\n"
        << "  \"schemaVersion\": 2,\n"
        << "  \"gitSha\": \""
        << jsonEscape(sha && *sha ? sha : "unknown") << "\",\n"
        << "  \"date\": \""
        << jsonEscape(date && *date ? date : "unknown") << "\",\n"
        << "  \"unit\": \"ns_per_op\","
        << "\n  \"results\": [\n";
    for (std::size_t i = 0; i < g_results.size(); ++i) {
        const BenchResult &r = g_results[i];
        char line[256];
        if (r.refNs > 0.0)
            std::snprintf(line, sizeof(line),
                          "    {\"name\": \"%s\", \"qubits\": %d, "
                          "\"ns_per_op\": %.1f, \"ref_ns_per_op\": %.1f, "
                          "\"speedup\": %.3f}",
                          r.name.c_str(), r.qubits, r.fastNs, r.refNs,
                          r.speedup());
        else
            std::snprintf(line, sizeof(line),
                          "    {\"name\": \"%s\", \"qubits\": %d, "
                          "\"ns_per_op\": %.1f}",
                          r.name.c_str(), r.qubits, r.fastNs);
        out << line << (i + 1 < g_results.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
}

} // namespace

int
main()
{
    std::printf("micro-kernel benchmarks (min-of-reps, ns/op)\n");
    for (int n : {10, 12, 14, 16, 18}) {
        std::printf("--- %d qubits ---\n", n);
        benchGateKernels(n);
        benchBatchedExpectations(n);
        benchThreadedExpectations(n);
        benchCircuitApply(n);
    }
    benchClusterObjective();
    benchExpectationsLih12();
    benchGroundSolve();
    benchBatchedEvaluation();
    benchCompiledPrepSharedPrefix();
    benchPaulpropSharded(10);
    benchSchedulerThroughput();
    benchDistThroughput();
    benchClaimPath();
    benchFaultPointsDisarmed();
    benchFleetSupervision();
    benchObservability();
    benchEventLog();
    writeJson("BENCH_micro_kernels.json");
    std::printf("wrote BENCH_micro_kernels.json (%zu entries)\n",
                g_results.size());
    return 0;
}
