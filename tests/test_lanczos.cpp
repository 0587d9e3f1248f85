/**
 * @file
 * Tests for the Lanczos ground-state solver against exactly-known
 * spectra.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ham/spin_chains.h"
#include "linalg/jacobi.h"
#include "linalg/lanczos.h"
#include "pauli/pauli_sum.h"

namespace treevqa {
namespace {

/** Ascending spectrum of a Hermitian Pauli sum by dense Jacobi on the
 * realified embedding [[Re, -Im], [Im, Re]] (each eigenvalue of H
 * appears twice). */
std::vector<double>
denseSpectrum(const PauliSum &h)
{
    const std::size_t dim = std::size_t{1} << h.numQubits();
    Matrix real_embed(2 * dim, 2 * dim, 0.0);
    for (std::size_t col = 0; col < dim; ++col) {
        CVector e(dim, Complex(0, 0)), out;
        e[col] = 1.0;
        h.applyTo(e, out);
        for (std::size_t row = 0; row < dim; ++row) {
            real_embed(row, col) = out[row].real();
            real_embed(row + dim, col + dim) = out[row].real();
            real_embed(row + dim, col) = out[row].imag();
            real_embed(row, col + dim) = -out[row].imag();
        }
    }
    return jacobiEigen(real_embed).values;
}

LanczosResult
solve(const PauliSum &h, std::uint64_t seed)
{
    const MatVec matvec = [&h](const CVector &x, CVector &y) {
        h.applyTo(x, y);
    };
    Rng rng(seed);
    return lanczosGroundState(std::size_t{1} << h.numQubits(), matvec,
                              rng);
}

TEST(Lanczos, DiagonalOperator)
{
    // H = diag(3, -1, 4, 2): ground value -1, eigenvector e_1.
    const std::vector<double> diag = {3.0, -1.0, 4.0, 2.0};
    const MatVec matvec = [&](const CVector &x, CVector &y) {
        y.resize(x.size());
        for (std::size_t i = 0; i < x.size(); ++i)
            y[i] = diag[i] * x[i];
    };
    Rng rng(1);
    const LanczosResult res = lanczosGroundState(4, matvec, rng);
    EXPECT_TRUE(res.converged);
    EXPECT_NEAR(res.eigenvalue, -1.0, 1e-9);
    EXPECT_NEAR(std::norm(res.eigenvector[1]), 1.0, 1e-8);
}

TEST(Lanczos, SingleQubitPauliX)
{
    PauliSum h(1);
    h.add(1.0, "X");
    const MatVec matvec = [&](const CVector &x, CVector &y) {
        h.applyTo(x, y);
    };
    Rng rng(2);
    const LanczosResult res = lanczosGroundState(2, matvec, rng);
    EXPECT_NEAR(res.eigenvalue, -1.0, 1e-10);
}

TEST(Lanczos, MatchesDenseDiagonalizationTfim)
{
    // 3-site TFIM is real symmetric in the computational basis: build
    // the dense matrix column by column and cross-check with Jacobi.
    const PauliSum h = transverseFieldIsing(3, 1.0, 0.7);
    const std::size_t dim = 8;

    Matrix dense(dim, dim, 0.0);
    for (std::size_t col = 0; col < dim; ++col) {
        CVector e(dim, Complex(0, 0)), out;
        e[col] = 1.0;
        h.applyTo(e, out);
        for (std::size_t row = 0; row < dim; ++row) {
            EXPECT_NEAR(out[row].imag(), 0.0, 1e-12);
            dense(row, col) = out[row].real();
        }
    }
    const EigenDecomposition ed = jacobiEigen(dense);

    const MatVec matvec = [&](const CVector &x, CVector &y) {
        h.applyTo(x, y);
    };
    Rng rng(3);
    const LanczosResult res = lanczosGroundState(dim, matvec, rng);
    EXPECT_TRUE(res.converged);
    EXPECT_NEAR(res.eigenvalue, ed.values[0], 1e-9);
}

TEST(Lanczos, EigenvectorSatisfiesEquation)
{
    const PauliSum h = xxzChain(4, 1.0, 0.5);
    const std::size_t dim = 16;
    const MatVec matvec = [&](const CVector &x, CVector &y) {
        h.applyTo(x, y);
    };
    Rng rng(4);
    const LanczosResult res = lanczosGroundState(dim, matvec, rng);
    ASSERT_TRUE(res.converged);

    CVector hv;
    h.applyTo(res.eigenvector, hv);
    for (std::size_t i = 0; i < dim; ++i) {
        EXPECT_NEAR(hv[i].real(), res.eigenvalue
                    * res.eigenvector[i].real(), 1e-7);
        EXPECT_NEAR(hv[i].imag(), res.eigenvalue
                    * res.eigenvector[i].imag(), 1e-7);
    }
}

TEST(Lanczos, ResidualReported)
{
    const PauliSum h = transverseFieldIsing(4, 1.0, 1.0);
    const MatVec matvec = [&](const CVector &x, CVector &y) {
        h.applyTo(x, y);
    };
    Rng rng(5);
    const LanczosResult res = lanczosGroundState(16, matvec, rng);
    EXPECT_TRUE(res.converged);
    EXPECT_LT(res.residual, 1e-9);
    EXPECT_GT(res.krylovDim, 1);
}

TEST(Lanczos, TenSiteTfimStopsEarly)
{
    // The pass ends once the Ritz residual estimate converges, far
    // below the 160-step cap.
    const LanczosResult res = solve(transverseFieldIsing(10, 1.0, 1.0), 7);
    EXPECT_TRUE(res.converged);
    EXPECT_LT(res.residual, 1e-9);
    EXPECT_LE(res.krylovDim, 100);
}

TEST(Lanczos, ComplexOperatorMatchesDense)
{
    // Terms with an odd number of Y factors make H complex in the
    // computational basis.
    PauliSum h(5);
    h.add(0.8, "YZIII");
    h.add(-0.6, "XYIII");
    h.add(0.5, "IXYZI");
    h.add(0.3, "IIIYX");
    h.add(-0.9, "ZIZIZ");
    h.add(0.4, "YYYII");
    h.add(0.7, "IIXIY");
    h.add(-0.2, "XXXXX");
    const LanczosResult res = solve(h, 8);
    EXPECT_TRUE(res.converged);
    EXPECT_NEAR(res.eigenvalue, denseSpectrum(h)[0], 1e-9);
}

TEST(Lanczos, DegenerateGroundStateMatchesDense)
{
    // An odd-length XXZ chain has a doubly degenerate ground state
    // (total Sz = +1/2 and -1/2, related by a global spin flip).
    const PauliSum h = xxzChain(5, 1.0, 0.5);
    const std::vector<double> spectrum = denseSpectrum(h);
    ASSERT_NEAR(spectrum[3], spectrum[0], 1e-9); // two states, twice
    const LanczosResult res = solve(h, 9);
    EXPECT_TRUE(res.converged);
    EXPECT_NEAR(res.eigenvalue, spectrum[0], 1e-9);
}

TEST(LowestTridiagonalEigenpair, MatchesJacobiOnRandomMatrices)
{
    Rng rng(10);
    for (std::size_t m = 1; m <= 64; ++m) {
        std::vector<double> diag(m), off(m > 1 ? m - 1 : 0);
        for (double &d : diag)
            d = rng.uniform(-2.0, 2.0);
        for (double &b : off)
            b = rng.uniform(-1.0, 1.0);
        Matrix t(m, m, 0.0);
        for (std::size_t i = 0; i < m; ++i) {
            t(i, i) = diag[i];
            if (i + 1 < m)
                t(i, i + 1) = t(i + 1, i) = off[i];
        }
        const EigenDecomposition ed = jacobiEigen(t);
        const TridiagonalEigenpair pair =
            lowestTridiagonalEigenpair(diag, off);
        EXPECT_NEAR(pair.value, ed.values[0], 1e-12) << "m=" << m;
        // Eigenvectors agree up to sign.
        double dot = 0.0;
        for (std::size_t i = 0; i < m; ++i)
            dot += pair.vector[i] * ed.vectors(i, 0);
        const double sign = dot < 0.0 ? -1.0 : 1.0;
        for (std::size_t i = 0; i < m; ++i)
            EXPECT_NEAR(sign * pair.vector[i], ed.vectors(i, 0), 1e-12)
                << "m=" << m << " i=" << i;
    }
}

/** Known closed form: single-spin field H = -h X has E0 = -h. */
class LanczosFieldSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(LanczosFieldSweep, TwoSiteTfimClosedForm)
{
    // Open 2-site TFIM: H = -Z0 Z1 - h (X0 + X1).
    // Closed form ground energy: -sqrt(1 + 4 h^2 + ...) — avoid
    // rederiving; instead verify against dense diagonalization.
    const double h_field = GetParam();
    const PauliSum h = transverseFieldIsing(2, 1.0, h_field);
    Matrix dense(4, 4, 0.0);
    for (std::size_t col = 0; col < 4; ++col) {
        CVector e(4, Complex(0, 0)), out;
        e[col] = 1.0;
        h.applyTo(e, out);
        for (std::size_t row = 0; row < 4; ++row)
            dense(row, col) = out[row].real();
    }
    const double exact = jacobiEigen(dense).values[0];

    const MatVec matvec = [&](const CVector &x, CVector &y) {
        h.applyTo(x, y);
    };
    Rng rng(6);
    EXPECT_NEAR(lanczosGroundState(4, matvec, rng).eigenvalue, exact,
                1e-9);
}

INSTANTIATE_TEST_SUITE_P(Fields, LanczosFieldSweep,
                         ::testing::Values(0.0, 0.3, 0.7, 1.0, 1.5,
                                           3.0));

} // namespace
} // namespace treevqa
