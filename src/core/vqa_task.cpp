#include "core/vqa_task.h"

#include <algorithm>
#include <atomic>

#include "common/thread_pool.h"
#include "core/engine_config.h"
#include "linalg/lanczos.h"

namespace treevqa {

std::vector<VqaTask>
makeTasks(const std::string &name_prefix,
          const std::vector<PauliSum> &hamiltonians,
          std::uint64_t initial_bits)
{
    std::vector<VqaTask> tasks;
    tasks.reserve(hamiltonians.size());
    for (std::size_t i = 0; i < hamiltonians.size(); ++i) {
        VqaTask task;
        task.name = name_prefix;
        task.name += '[';
        task.name += std::to_string(i);
        task.name += ']';
        task.hamiltonian = hamiltonians[i];
        task.initialBits = initial_bits;
        tasks.push_back(std::move(task));
    }
    return tasks;
}

void
solveGroundEnergies(std::vector<VqaTask> &tasks, std::uint64_t seed)
{
    // Two concurrent solves: the bench_suites.h families converge
    // within 65 Krylov vectors per pass, so two lanes hold no more
    // than one pass at the 160-vector cap.
    constexpr std::size_t kMaxConcurrentSolves = 2;
    std::atomic<std::size_t> next{0};
    const auto solve_next = [&](std::size_t) {
        for (std::size_t index = next++; index < tasks.size();
             index = next++) {
            VqaTask &task = tasks[index];
            if (task.hasGroundEnergy())
                continue;
            const std::size_t dim =
                std::size_t{1} << task.hamiltonian.numQubits();
            const PauliSum &h = task.hamiltonian;
            const MatVec matvec = [&h](const CVector &x, CVector &y) {
                h.applyTo(x, y);
            };
            Rng rng = probeRng(seed, index);
            task.groundEnergy =
                lanczosGroundState(dim, matvec, rng).eigenvalue;
        }
    };
    ThreadPool::global().run(
        std::min(tasks.size(), kMaxConcurrentSolves), solve_next);
}

} // namespace treevqa
