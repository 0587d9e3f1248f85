/**
 * @file
 * A VQA task: one Hamiltonian of an application family (paper
 * terminology, Fig. 1).
 */

#ifndef TREEVQA_CORE_VQA_TASK_H
#define TREEVQA_CORE_VQA_TASK_H

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "pauli/pauli_sum.h"

namespace treevqa {

/** One task of a VQA application. */
struct VqaTask
{
    std::string name;
    PauliSum hamiltonian;
    /** Initial computational-basis state (e.g. Hartree-Fock bits). */
    std::uint64_t initialBits = 0;
    /**
     * Exact ground-state energy for the fidelity metric; NaN until
     * computed (solveGroundEnergies) or supplied by a reference method.
     */
    double groundEnergy = std::numeric_limits<double>::quiet_NaN();

    bool hasGroundEnergy() const { return groundEnergy == groundEnergy; }
};

/** Bundle a Hamiltonian family into tasks with a common initial state. */
std::vector<VqaTask> makeTasks(const std::string &name_prefix,
                               const std::vector<PauliSum> &hamiltonians,
                               std::uint64_t initial_bits);

/**
 * Fill in ground energies by Lanczos over the dense statevector space.
 * Only valid for dense-simulable sizes (<= ~20 qubits); large problems
 * keep NaN and use surrogate references as the paper does (Section 8.4).
 *
 * Tasks are solved in parallel over ThreadPool::global(), at most two
 * at a time so the Krylov bases held at once stay within one capped
 * Lanczos pass. Task i draws its start vector from its own stream
 * probeRng(seed, i), so the energies are bit-identical at any pool
 * size; called from inside a pool job, the solves run inline on that
 * worker.
 */
void solveGroundEnergies(std::vector<VqaTask> &tasks,
                         std::uint64_t seed = 0x9d5f);

} // namespace treevqa

#endif // TREEVQA_CORE_VQA_TASK_H
