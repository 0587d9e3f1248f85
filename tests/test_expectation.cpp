/**
 * @file
 * Tests for exact Pauli expectations on statevectors, including the
 * grouped batch evaluator against the single-string reference and the
 * ExpectationPlan's bit-identity with the sign-table evaluator it
 * replaced.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "circuit/hardware_efficient.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ham/spin_chains.h"
#include "ham/synthetic_molecule.h"
#include "sim/expectation.h"
#include "sim/reference_kernels.h"

namespace treevqa {
namespace {

/** A pseudo-random but normalized 4-qubit state. */
Statevector
randomState(std::uint64_t seed)
{
    Rng rng(seed);
    Statevector s(4);
    for (int g = 0; g < 40; ++g) {
        const int q = static_cast<int>(rng.uniformInt(4));
        const int p = static_cast<int>((q + 1) % 4);
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

TEST(Expectation, DiagonalOnBasisState)
{
    Statevector s(3);
    s.setBasisState(0b110);
    EXPECT_NEAR(expectation(s, PauliString::fromLabel("ZII")), 1.0,
                1e-14);
    EXPECT_NEAR(expectation(s, PauliString::fromLabel("IZI")), -1.0,
                1e-14);
    EXPECT_NEAR(expectation(s, PauliString::fromLabel("IZZ")), 1.0,
                1e-14);
}

TEST(Expectation, XOnPlusState)
{
    Statevector s(1);
    s.applyH(0);
    EXPECT_NEAR(expectation(s, PauliString::fromLabel("X")), 1.0, 1e-14);
    EXPECT_NEAR(expectation(s, PauliString::fromLabel("Z")), 0.0, 1e-14);
}

TEST(Expectation, YOnCircularState)
{
    // |psi> = (|0> + i|1>)/sqrt(2) has <Y> = 1.
    Statevector s(1);
    s.applyH(0);
    s.applyS(0);
    EXPECT_NEAR(expectation(s, PauliString::fromLabel("Y")), 1.0, 1e-14);
}

TEST(Expectation, MatchesPauliSumExpectation)
{
    const PauliSum h = xxzChain(4, 1.0, 0.8);
    const Statevector s = randomState(5);
    EXPECT_NEAR(expectation(s, h), h.expectation(s.amplitudes()), 1e-10);
}

TEST(Expectation, PerTermMatchesSingleString)
{
    const PauliSum h = xxzChain(4, 1.0, 0.8);
    const Statevector s = randomState(6);
    const auto terms = perTermExpectations(s, h);
    ASSERT_EQ(terms.size(), h.numTerms());
    for (std::size_t k = 0; k < h.numTerms(); ++k)
        EXPECT_NEAR(terms[k], expectation(s, h.terms()[k].string),
                    1e-12);
}

TEST(Expectation, RecombineIsDotProduct)
{
    EXPECT_DOUBLE_EQ(recombine({1.0, 2.0}, {0.5, -0.25}), 0.0);
    EXPECT_DOUBLE_EQ(recombine({}, {}), 0.0);
}

/** Property: the grouped batch evaluator agrees with the per-string
 * reference on random states and mixed string sets. */
class BatchExpectationSweep
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BatchExpectationSweep, GroupedMatchesReference)
{
    Rng rng(GetParam());
    const Statevector s = randomState(GetParam() * 31 + 7);

    // A string set with deliberate x-mask collisions (hopping pairs
    // share X support, like the chemistry Hamiltonians).
    std::vector<PauliString> strings;
    strings.push_back(PauliString(4)); // identity
    for (int trial = 0; trial < 30; ++trial) {
        PauliString p(4);
        for (int q = 0; q < 4; ++q) {
            const char ops[4] = {'I', 'X', 'Y', 'Z'};
            p.setOp(q, ops[rng.uniformInt(4)]);
        }
        strings.push_back(p);
    }

    const auto batch = perStringExpectations(s, strings);
    ASSERT_EQ(batch.size(), strings.size());
    for (std::size_t k = 0; k < strings.size(); ++k) {
        const double reference = strings[k].isIdentity()
            ? 1.0
            : expectation(s, strings[k]);
        EXPECT_NEAR(batch[k], reference, 1e-11)
            << strings[k].toLabel();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchExpectationSweep,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull,
                                           6ull, 7ull, 8ull));

/** A pseudo-random normalized n-qubit state. */
Statevector
randomStateN(int n, std::uint64_t seed)
{
    Rng rng(seed);
    Statevector s(n);
    for (int g = 0; g < 12 * n; ++g) {
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

/**
 * Property: the pairing-optimized single-string expectation and the
 * blocked batch evaluator both agree with the naive full-scan
 * reference on random 6-qubit states and random Pauli sets, to 1e-12.
 */
class KernelEquivalenceSweep
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(KernelEquivalenceSweep, OptimizedMatchesFullScanReference)
{
    Rng rng(GetParam() * 557 + 11);
    const int n = 6;
    const Statevector s = randomStateN(n, GetParam() * 8191 + 5);

    // Random strings with forced x-mask collisions so multi-member
    // groups exercise the blocked member loop.
    std::vector<PauliString> strings;
    strings.push_back(PauliString(n)); // identity
    const char ops[4] = {'I', 'X', 'Y', 'Z'};
    for (int trial = 0; trial < 40; ++trial) {
        PauliString p(n);
        for (int q = 0; q < n; ++q)
            p.setOp(q, ops[rng.uniformInt(4)]);
        strings.push_back(p);
        // A sibling with the same X mask but different Z mask.
        PauliString sib = p;
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

    const auto batch = perStringExpectations(s, strings);
    ASSERT_EQ(batch.size(), strings.size());
    for (std::size_t k = 0; k < strings.size(); ++k) {
        if (strings[k].isIdentity()) {
            EXPECT_NEAR(batch[k], 1.0, 1e-12);
            continue;
        }
        const double reference = refExpectation(s, strings[k]);
        EXPECT_NEAR(batch[k], reference, 1e-12)
            << "batch " << strings[k].toLabel();
        EXPECT_NEAR(expectation(s, strings[k]), reference, 1e-12)
            << "single " << strings[k].toLabel();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalenceSweep,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull,
                                           6ull, 7ull, 8ull, 9ull,
                                           10ull));

/**
 * Large-n equivalence: at 16 qubits the OpenMP gate paths (dim >=
 * 2^16) and the contiguous-run blocked path of perStringExpectations
 * (highest X bit >= block size) are active; at 11 qubits strings mix
 * the blocked and per-element fallback fills. Both must still match
 * the naive full-scan reference to 1e-12.
 */
TEST(Expectation, LargeSystemBlockedPathsMatchReference)
{
    for (int n : {11, 16}) {
        const Statevector s = randomStateN(n, 271 + n);
        Rng rng(1000 + n);
        std::vector<PauliString> strings;
        const char ops[4] = {'I', 'X', 'Y', 'Z'};
        for (int trial = 0; trial < 12; ++trial) {
            PauliString p(n);
            for (int q = 0; q < n; ++q)
                p.setOp(q, ops[rng.uniformInt(4)]);
            // Half the strings get a forced high-qubit X so the
            // hbit >= kBlockSize contiguous-run path triggers.
            if (trial % 2 == 0)
                p.setOp(n - 1, 'X');
            strings.push_back(p);
        }
        const auto batch = perStringExpectations(s, strings);
        for (std::size_t k = 0; k < strings.size(); ++k) {
            if (strings[k].isIdentity())
                continue;
            EXPECT_NEAR(batch[k], refExpectation(s, strings[k]), 1e-12)
                << n << "q " << strings[k].toLabel();
        }
    }
}

/** |psi(theta)> of a 2-layer HEA with seeded angles in [-pi, pi]. */
Statevector
heaState(int n, std::uint64_t seed)
{
    const Ansatz ansatz = makeHardwareEfficientAnsatz(n, 2);
    Rng rng(seed);
    std::vector<double> theta(ansatz.numParams());
    for (double &t : theta)
        t = rng.uniform(-M_PI, M_PI);
    return ansatz.prepare(theta);
}

std::vector<PauliString>
stringsOf(const PauliSum &h)
{
    std::vector<PauliString> out;
    for (const auto &term : h.terms())
        out.push_back(term.string);
    return out;
}

/**
 * 14 qubits (8 blocks of pairs): X-mask groups whose pairing bit lies
 * above and below the 1024-amplitude block size, with zero and nonzero
 * low X bits (xlo); members with odd and even Y counts in groups of one
 * lane set (Re-only and Im-only) and of several (Re, Im and mixed); a
 * diagonal group and identity strings.
 */
std::vector<PauliString>
boundaryStrings()
{
    const int n = 14;
    const struct
    {
        std::uint64_t xMask;
        std::size_t members;
        int yParity; ///< 0 even, 1 odd, -1 either
    } groups[] = {
        {0, 6, 0},                                       // diagonal
        {1u << 13, 3, 1},                                // xlo = 0
        {(1u << 13) | (1u << 3), 2, 0},                  // xlo != 0
        {(1u << 13) | (1u << 5), 3, 1},
        {(1u << 13) | (1u << 12), 6, 1},                 // Im, 2 sets
        {(1u << 10) | (1u << 9) | (1u << 1), 11, -1},    // hbit = 1024
        {(1u << 9) | 1u, 1, 1},                          // hbit = 512
        {(1u << 8) | (1u << 4), 4, 0},
        {(1u << 2) | (1u << 1), 9, -1},                  // small hbit
        {(1u << 12) | (1u << 11) | (1u << 4) | 1u, 7, -1},
    };
    Rng rng(4242);
    std::vector<PauliString> strings;
    strings.push_back(PauliString(n));
    for (const auto &g : groups) {
        for (std::size_t m = 0; m < g.members; ++m) {
            PauliString p(n);
            int firstX = -1;
            for (int q = 0; q < n; ++q) {
                const bool x = (g.xMask >> q) & 1u;
                const bool z = rng.uniformInt(2) == 1;
                p.setOp(q, x ? (z ? 'Y' : 'X') : (z ? 'Z' : 'I'));
                if (x && firstX < 0)
                    firstX = q;
            }
            if (g.yParity >= 0 && p.yCount() % 2 != g.yParity)
                p.setOp(firstX, p.opAt(firstX) == 'X' ? 'Y' : 'X');
            if (!p.isIdentity())
                strings.push_back(p);
        }
    }
    strings.push_back(PauliString(n));
    return strings;
}

/**
 * The ExpectationPlan must reproduce the sign-table evaluator it
 * replaced bit-for-bit — the run energies pinned by the benchmark
 * depend on it — at any pool size.
 */
TEST(ExpectationPlan, BitIdenticalToSignTableKernel)
{
    const SyntheticMoleculeSpec lih = syntheticLiH();
    const struct
    {
        const char *name;
        int qubits;
        std::vector<PauliString> strings;
    } cases[] = {
        {"tfim10", 10, stringsOf(transverseFieldIsing(10, 1.0, 0.7))},
        {"xxz10", 10, stringsOf(xxzChain(10, 1.0, 0.5))},
        {"lih12", 12,
         alignTerms(syntheticFamily(lih, familyBonds(lih, 4))).strings},
        {"boundary14", 14, boundaryStrings()},
    };
    for (const auto &c : cases) {
        const ExpectationPlan plan(c.strings);
        ASSERT_EQ(plan.numStrings(), c.strings.size());
        for (std::uint64_t seed : {3u, 17u}) {
            const Statevector state = heaState(c.qubits, seed);
            ThreadPool::global().resize(1);
            const std::vector<double> expected =
                refLutPerStringExpectations(state, c.strings);
            for (std::size_t lanes : {1u, 2u, 4u}) {
                ThreadPool::global().resize(lanes);
                const std::vector<double> got = plan.evaluate(state);
                const std::vector<double> oneShot =
                    perStringExpectations(state, c.strings);
                const std::vector<double> ref =
                    refLutPerStringExpectations(state, c.strings);
                const std::string where = std::string(c.name) + " seed "
                    + std::to_string(seed) + " lanes "
                    + std::to_string(lanes);
                ASSERT_EQ(got.size(), expected.size()) << where;
                EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                                      got.size() * sizeof(double)),
                          0)
                    << where;
                EXPECT_EQ(std::memcmp(oneShot.data(), expected.data(),
                                      got.size() * sizeof(double)),
                          0)
                    << where;
                EXPECT_EQ(std::memcmp(ref.data(), expected.data(),
                                      got.size() * sizeof(double)),
                          0)
                    << where;
            }
        }
    }
    ThreadPool::global().resize(0);
}

TEST(ExpectationPlan, EmptyAndIdentityOnlySets)
{
    const Statevector s = randomState(9);
    EXPECT_TRUE(ExpectationPlan({}).evaluate(s).empty());
    const std::vector<double> ones =
        ExpectationPlan({PauliString(4), PauliString(4)}).evaluate(s);
    EXPECT_EQ(ones, (std::vector<double>{1.0, 1.0}));
}

TEST(Expectation, ExpectationBoundsRespected)
{
    // |<P>| <= 1 for any state and non-identity string.
    const Statevector s = randomState(77);
    const char ops[3] = {'X', 'Y', 'Z'};
    for (char a : ops)
        for (char b : ops) {
            PauliString p(4);
            p.setOp(0, a);
            p.setOp(2, b);
            const double e = expectation(s, p);
            EXPECT_LE(std::fabs(e), 1.0 + 1e-12);
        }
}

} // namespace
} // namespace treevqa
