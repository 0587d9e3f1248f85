#include "linalg/lanczos.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace treevqa {

namespace {

/** Krylov steps between convergence estimates of a Lanczos pass. */
constexpr int kCheckInterval = 8;

double
cnorm(const CVector &v)
{
    double s = 0.0;
    for (const auto &z : v)
        s += std::norm(z);
    return std::sqrt(s);
}

Complex
cdot(const CVector &a, const CVector &b)
{
    Complex s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        s += std::conj(a[i]) * b[i];
    return s;
}

void
normalize(CVector &v)
{
    const double n = cnorm(v);
    if (n == 0.0)
        return;
    for (auto &z : v)
        z /= n;
}

/**
 * Pivots of the LDL^T factorization of T - x I (written to `pivots`
 * when non-null); returns the Sturm count, the number of eigenvalues
 * of T below x. A pivot smaller than `pivmin` in magnitude is replaced
 * by -pivmin (the LAPACK dlaebz convention), so a count of 0 means
 * every pivot is at least pivmin.
 */
std::size_t
sturmPivots(const std::vector<double> &diag,
            const std::vector<double> &off, double x, double pivmin,
            double *pivots)
{
    std::size_t negative = 0;
    double d = 1.0;
    for (std::size_t i = 0; i < diag.size(); ++i) {
        d = diag[i] - x - (i > 0 ? off[i - 1] * off[i - 1] / d : 0.0);
        if (std::fabs(d) < pivmin)
            d = -pivmin;
        if (d < 0.0)
            ++negative;
        if (pivots)
            pivots[i] = d;
    }
    return negative;
}

/** Solve (T - sigma I) s = r in place given the pivots of T - sigma I
 * (Thomas algorithm on the LDL^T factors). */
void
tridiagonalSolve(const std::vector<double> &off,
                 const std::vector<double> &pivots, std::vector<double> &r)
{
    const std::size_t m = pivots.size();
    for (std::size_t i = 1; i < m; ++i)
        r[i] -= off[i - 1] / pivots[i - 1] * r[i - 1];
    r[m - 1] /= pivots[m - 1];
    for (std::size_t i = m - 1; i-- > 0;)
        r[i] = (r[i] - off[i] * r[i + 1]) / pivots[i];
}

/**
 * One Lanczos pass starting from `start`; returns the lowest Ritz pair.
 * Full reorthogonalization against all previous Krylov vectors. The
 * pass stops as soon as the residual estimate beta_j |s_last| of the
 * lowest Ritz pair of T_j falls below `tol` (checked every
 * kCheckInterval steps), at invariant-subspace exhaustion, or at the
 * Krylov cap.
 */
LanczosResult
lanczosPass(std::size_t dim, const MatVec &matvec, const CVector &start,
            int max_krylov, double tol)
{
    std::vector<CVector> basis;
    std::vector<double> alpha;
    std::vector<double> beta; // beta[j] couples basis[j] and basis[j+1]

    CVector q = start;
    normalize(q);
    basis.push_back(q);

    CVector w(dim);
    LanczosResult out;
    TridiagonalEigenpair ritz;

    for (int j = 0; j < max_krylov; ++j) {
        matvec(basis[j], w);
        const double a = std::real(cdot(basis[j], w));
        alpha.push_back(a);

        // w -= alpha_j q_j + beta_{j-1} q_{j-1}; then full reorth.
        for (std::size_t i = 0; i < dim; ++i)
            w[i] -= a * basis[j][i];
        if (j > 0)
            for (std::size_t i = 0; i < dim; ++i)
                w[i] -= beta[j - 1] * basis[j - 1][i];
        for (const auto &qk : basis) {
            const Complex c = cdot(qk, w);
            if (std::abs(c) > 1e-14)
                for (std::size_t i = 0; i < dim; ++i)
                    w[i] -= c * qk[i];
        }

        const double b = cnorm(w);
        // Krylov space exhausted (invariant subspace) or cap hit.
        const bool last = b < 1e-12 || j == max_krylov - 1;
        if (last || (j + 1) % kCheckInterval == 0) {
            ritz = lowestTridiagonalEigenpair(alpha, beta);
            if (last || b * std::fabs(ritz.vector.back()) < tol)
                break;
        }
        beta.push_back(b);
        CVector next(dim);
        for (std::size_t i = 0; i < dim; ++i)
            next[i] = w[i] / b;
        basis.push_back(std::move(next));
    }

    const std::size_t m = alpha.size();
    out.krylovDim = static_cast<int>(m);
    out.eigenvalue = ritz.value;

    out.eigenvector.assign(dim, Complex(0.0, 0.0));
    for (std::size_t j = 0; j < m; ++j) {
        const double coef = ritz.vector[j];
        for (std::size_t i = 0; i < dim; ++i)
            out.eigenvector[i] += coef * basis[j][i];
    }
    normalize(out.eigenvector);

    matvec(out.eigenvector, w);
    for (std::size_t i = 0; i < dim; ++i)
        w[i] -= out.eigenvalue * out.eigenvector[i];
    out.residual = cnorm(w);
    out.converged = out.residual < tol;
    return out;
}

} // namespace

TridiagonalEigenpair
lowestTridiagonalEigenpair(const std::vector<double> &diag,
                           const std::vector<double> &off)
{
    const std::size_t m = diag.size();
    assert(m > 0 && off.size() + 1 >= m);

    // Gershgorin: every eigenvalue lies in [lower, upper]; `scale`
    // bounds the spectral radius.
    double lower = std::numeric_limits<double>::infinity();
    double upper = -lower;
    double scale = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        const double radius = (i > 0 ? std::fabs(off[i - 1]) : 0.0)
            + (i + 1 < m ? std::fabs(off[i]) : 0.0);
        lower = std::min(lower, diag[i] - radius);
        upper = std::max(upper, diag[i] + radius);
        scale = std::max(scale, std::fabs(diag[i]) + radius);
    }

    TridiagonalEigenpair out;
    if (scale == 0.0) {
        out.vector.assign(m, 0.0);
        out.vector[0] = 1.0;
        return out;
    }

    // Bisection on the Sturm count, keeping count(lo) == 0 and
    // count(hi) >= 1, down to a bracket of a few ulps of `scale`.
    const double eps = std::numeric_limits<double>::epsilon();
    const double pivmin = eps * scale;
    double lo = lower - 4.0 * pivmin;
    double hi = upper + 4.0 * pivmin;
    while (hi - lo > 2.0 * pivmin) {
        const double mid = 0.5 * (lo + hi);
        if (mid <= lo || mid >= hi)
            break;
        if (sturmPivots(diag, off, mid, pivmin, nullptr) == 0)
            lo = mid;
        else
            hi = mid;
    }
    out.value = 0.5 * (lo + hi);

    // Inverse iteration at sigma = lo, just below the lowest
    // eigenvalue: T - sigma I is positive definite (every pivot is at
    // least pivmin), so the pivot-free Thomas solve is stable, and the
    // lowest eigenvector is amplified by ~1 / pivmin relative to the
    // rest. Two solves from a flat start vector suffice.
    std::vector<double> pivots(m);
    sturmPivots(diag, off, lo, pivmin, pivots.data());
    out.vector.assign(m, 1.0);
    for (int solve = 0; solve < 2; ++solve) {
        tridiagonalSolve(off, pivots, out.vector);
        double norm = 0.0;
        for (const double v : out.vector)
            norm += v * v;
        norm = std::sqrt(norm);
        for (double &v : out.vector)
            v /= norm;
    }
    return out;
}

LanczosResult
lanczosGroundState(std::size_t dim, const MatVec &matvec, Rng &rng,
                   int max_krylov, double tol, int restarts)
{
    assert(dim > 0);

    CVector start(dim);
    for (auto &z : start)
        z = Complex(rng.normal(), rng.normal());

    LanczosResult best = lanczosPass(dim, matvec, start, max_krylov, tol);
    for (int r = 0; r < restarts && !best.converged; ++r) {
        // Implicit restart: new pass seeded from the current Ritz vector,
        // lightly perturbed so a locked-in invariant subspace can escape.
        CVector seed = best.eigenvector;
        for (auto &z : seed)
            z += 1e-6 * Complex(rng.normal(), rng.normal());
        LanczosResult next =
            lanczosPass(dim, matvec, seed, max_krylov, tol);
        if (next.eigenvalue <= best.eigenvalue || next.converged)
            best = std::move(next);
    }
    return best;
}

} // namespace treevqa
