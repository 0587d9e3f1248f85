/**
 * @file
 * Lanczos ground-state solver for Hermitian operators.
 *
 * TreeVQA's evaluation metric is the energy fidelity
 * F_i = 1 - |(E_gs - E_i) / E_gs| (Section 7.2), which requires the exact
 * ground-state energy E_gs of every task Hamiltonian. For the dense
 * benchmarks (4-14 qubits) we obtain it with Lanczos iteration over the
 * statevector space, using the Hamiltonian only through a matvec callback
 * so the 2^n x 2^n matrix is never materialized.
 *
 * Each pass keeps full reorthogonalization (it eliminates ghost
 * eigenvalues) but stops as soon as it has converged: every few steps
 * the lowest Ritz pair of the tridiagonal Rayleigh matrix T_j is
 * solved (Sturm-count bisection plus inverse iteration, O(j)) and the
 * pass ends once the standard residual estimate beta_j |s_last| is
 * below tolerance. Typical spin-chain and molecular tasks converge in
 * 40-80 Krylov steps, so the basis stays far below the cap and the
 * reorthogonalization cost, quadratic in the steps taken, stays small.
 * The true residual ||Hx - lambda x|| is then checked with one more
 * matvec; a pass that misses the tolerance is restarted.
 */

#ifndef TREEVQA_LINALG_LANCZOS_H
#define TREEVQA_LINALG_LANCZOS_H

#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace treevqa {

/** y = H x for a Hermitian operator H on a complex vector space. */
using MatVec = std::function<void(const CVector &x, CVector &y)>;

/** Result of a Lanczos ground-state computation. */
struct LanczosResult
{
    /** Lowest eigenvalue found. */
    double eigenvalue = 0.0;
    /** Corresponding normalized eigenvector. */
    CVector eigenvector;
    /** Krylov dimension actually used. */
    int krylovDim = 0;
    /** True if the residual ||Hx - lambda x|| fell below tolerance. */
    bool converged = false;
    /** Final residual norm. */
    double residual = 0.0;
};

/** Lowest eigenpair of a real symmetric tridiagonal matrix. */
struct TridiagonalEigenpair
{
    double value = 0.0;
    /** Unit-norm eigenvector (sign unspecified). */
    std::vector<double> vector;
};

/**
 * Lowest eigenpair of the symmetric tridiagonal matrix with diagonal
 * `diag` (m >= 1 entries) and off-diagonal `off` (entries 0..m-2 used):
 * Sturm-count bisection for the eigenvalue, to a few ulps of the
 * matrix norm, then inverse iteration just below it with the Thomas
 * algorithm for the eigenvector. O(m) per bisection step, no dense
 * storage — the Ritz solve inside each Lanczos convergence check.
 */
TridiagonalEigenpair
lowestTridiagonalEigenpair(const std::vector<double> &diag,
                           const std::vector<double> &off);

/**
 * Compute the lowest eigenpair of a Hermitian operator.
 *
 * @param dim dimension of the vector space (2^n for n qubits).
 * @param matvec operator application.
 * @param rng source for the random start vector.
 * @param max_krylov Krylov space cap.
 * @param tol convergence tolerance on the residual norm.
 * @param restarts implicit restarts (restart from current Ritz vector).
 */
LanczosResult lanczosGroundState(std::size_t dim, const MatVec &matvec,
                                 Rng &rng, int max_krylov = 160,
                                 double tol = 1e-9, int restarts = 6);

} // namespace treevqa

#endif // TREEVQA_LINALG_LANCZOS_H
