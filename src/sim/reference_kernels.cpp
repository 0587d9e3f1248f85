#include "sim/reference_kernels.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "sim/bit_ops.h"

namespace treevqa {

namespace {

Gate2q
identity4()
{
    Gate2q m{};
    m[0] = m[5] = m[10] = m[15] = Complex(1.0, 0.0);
    return m;
}

} // namespace

Gate2q
rxxMatrix(double theta)
{
    const double c = std::cos(theta / 2.0);
    const Complex mis(0.0, -std::sin(theta / 2.0));
    Gate2q m{};
    m[0 * 4 + 0] = m[1 * 4 + 1] = m[2 * 4 + 2] = m[3 * 4 + 3] =
        Complex(c, 0.0);
    m[0 * 4 + 3] = m[3 * 4 + 0] = mis;
    m[1 * 4 + 2] = m[2 * 4 + 1] = mis;
    return m;
}

Gate2q
ryyMatrix(double theta)
{
    const double c = std::cos(theta / 2.0);
    const Complex is(0.0, std::sin(theta / 2.0));
    Gate2q m{};
    m[0 * 4 + 0] = m[1 * 4 + 1] = m[2 * 4 + 2] = m[3 * 4 + 3] =
        Complex(c, 0.0);
    m[0 * 4 + 3] = m[3 * 4 + 0] = is;
    m[1 * 4 + 2] = m[2 * 4 + 1] = -is;
    return m;
}

Gate2q
rzzMatrix(double theta)
{
    const Complex e_neg = std::polar(1.0, -theta / 2.0);
    const Complex e_pos = std::polar(1.0, theta / 2.0);
    Gate2q m{};
    m[0 * 4 + 0] = e_neg;
    m[1 * 4 + 1] = e_pos;
    m[2 * 4 + 2] = e_pos;
    m[3 * 4 + 3] = e_neg;
    return m;
}

Gate2q
cxMatrix()
{
    // q0 = control: basis states 1 (01) and 3 (11) swap the q1 bit.
    Gate2q m{};
    m[0 * 4 + 0] = m[2 * 4 + 2] = Complex(1.0, 0.0);
    m[1 * 4 + 3] = m[3 * 4 + 1] = Complex(1.0, 0.0);
    return m;
}

Gate2q
czMatrix()
{
    Gate2q m = identity4();
    m[3 * 4 + 3] = Complex(-1.0, 0.0);
    return m;
}

void
refApplyGate2(Statevector &state, int q0, int q1, const Gate2q &gate)
{
    assert(q0 != q1);
    CVector &amps = state.amplitudes();
    const std::size_t b0 = std::size_t{1} << q0;
    const std::size_t b1 = std::size_t{1} << q1;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        if (i & (b0 | b1))
            continue; // visit each 4-block once, from its 00 corner
        const std::size_t idx[4] = {i, i | b0, i | b1, i | b0 | b1};
        Complex in[4], out[4];
        for (int j = 0; j < 4; ++j)
            in[j] = amps[idx[j]];
        for (int r = 0; r < 4; ++r) {
            out[r] = Complex(0.0, 0.0);
            for (int c = 0; c < 4; ++c)
                out[r] += gate[r * 4 + c] * in[c];
        }
        for (int j = 0; j < 4; ++j)
            amps[idx[j]] = out[j];
    }
}

double
refExpectation(const Statevector &state, const PauliString &string)
{
    assert(string.numQubits() == state.numQubits());
    const CVector &amps = state.amplitudes();
    const std::uint64_t xm = string.xMask();
    const std::uint64_t zm = string.zMask();

    static const Complex kPhases[4] = {
        Complex(1, 0), Complex(0, 1), Complex(-1, 0), Complex(0, -1)};
    const Complex base = kPhases[string.yCount() % 4];

    Complex acc(0.0, 0.0);
    for (std::size_t b = 0; b < amps.size(); ++b) {
        const int sign = std::popcount(b & zm) & 1 ? -1 : 1;
        acc += std::conj(amps[b ^ xm]) * static_cast<double>(sign)
             * amps[b];
    }
    return std::real(base * acc);
}

void
refApplyX(Statevector &state, int q)
{
    CVector &amps = state.amplitudes();
    const std::size_t bit = std::size_t{1} << q;
    for (std::size_t i = 0; i < amps.size(); ++i)
        if (!(i & bit))
            std::swap(amps[i], amps[i | bit]);
}

void
refApplyZ(Statevector &state, int q)
{
    CVector &amps = state.amplitudes();
    const std::size_t bit = std::size_t{1} << q;
    for (std::size_t i = 0; i < amps.size(); ++i)
        if (i & bit)
            amps[i] = -amps[i];
}

void
refApplyS(Statevector &state, int q)
{
    CVector &amps = state.amplitudes();
    const std::size_t bit = std::size_t{1} << q;
    for (std::size_t i = 0; i < amps.size(); ++i)
        if (i & bit)
            amps[i] *= Complex(0, 1);
}

void
refApplySdg(Statevector &state, int q)
{
    CVector &amps = state.amplitudes();
    const std::size_t bit = std::size_t{1} << q;
    for (std::size_t i = 0; i < amps.size(); ++i)
        if (i & bit)
            amps[i] *= Complex(0, -1);
}

void
refApplyH(Statevector &state, int q)
{
    CVector &amps = state.amplitudes();
    const double r = 1.0 / std::sqrt(2.0);
    const std::size_t stride = std::size_t{1} << q;
    for (std::size_t base = 0; base < amps.size(); base += 2 * stride) {
        for (std::size_t offset = 0; offset < stride; ++offset) {
            const std::size_t i0 = base + offset;
            const std::size_t i1 = i0 + stride;
            const Complex a0 = amps[i0];
            const Complex a1 = amps[i1];
            amps[i0] = r * (a0 + a1);
            amps[i1] = r * (a0 - a1);
        }
    }
}

void
refApplyCx(Statevector &state, int control, int target)
{
    CVector &amps = state.amplitudes();
    const std::size_t cbit = std::size_t{1} << control;
    const std::size_t tbit = std::size_t{1} << target;
    for (std::size_t i = 0; i < amps.size(); ++i)
        if ((i & cbit) && !(i & tbit))
            std::swap(amps[i], amps[i | tbit]);
}

void
refApplyRzz(Statevector &state, int a, int b, double theta)
{
    CVector &amps = state.amplitudes();
    const Complex e_neg = std::polar(1.0, -theta / 2.0);
    const Complex e_pos = std::polar(1.0, theta / 2.0);
    const std::size_t abit = std::size_t{1} << a;
    const std::size_t bbit = std::size_t{1} << b;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        const bool za = i & abit;
        const bool zb = i & bbit;
        amps[i] *= (za == zb) ? e_neg : e_pos;
    }
}

void
refApplyRxx(Statevector &state, int a, int b, double theta)
{
    refApplyH(state, a);
    refApplyH(state, b);
    refApplyRzz(state, a, b, theta);
    refApplyH(state, a);
    refApplyH(state, b);
}

void
refApplyRyy(Statevector &state, int a, int b, double theta)
{
    refApplySdg(state, a);
    refApplySdg(state, b);
    refApplyH(state, a);
    refApplyH(state, b);
    refApplyRzz(state, a, b, theta);
    refApplyH(state, a);
    refApplyH(state, b);
    refApplyS(state, a);
    refApplyS(state, b);
}

std::vector<double>
refPerStringExpectations(const Statevector &state,
                         const std::vector<PauliString> &strings)
{
    static const Complex kPhases[4] = {
        Complex(1, 0), Complex(0, 1), Complex(-1, 0), Complex(0, -1)};

    const CVector &amps = state.amplitudes();
    const std::size_t dim = amps.size();
    std::vector<double> out(strings.size(), 0.0);

    std::unordered_map<std::uint64_t, std::vector<std::size_t>> groups;
    groups.reserve(strings.size());
    for (std::size_t k = 0; k < strings.size(); ++k)
        groups[strings[k].xMask()].push_back(k);

    std::vector<Complex> acc;
    for (const auto &[xm, members] : groups) {
        acc.assign(members.size(), Complex(0.0, 0.0));
        if (xm == 0) {
            for (std::size_t b = 0; b < dim; ++b) {
                const double p = std::norm(amps[b]);
                if (p == 0.0)
                    continue;
                for (std::size_t m = 0; m < members.size(); ++m) {
                    const std::uint64_t zm = strings[members[m]].zMask();
                    const int sign = std::popcount(b & zm) & 1 ? -1 : 1;
                    acc[m] += sign * p;
                }
            }
        } else {
            for (std::size_t b = 0; b < dim; ++b) {
                const Complex t = std::conj(amps[b ^ xm]) * amps[b];
                if (t == Complex(0.0, 0.0))
                    continue;
                for (std::size_t m = 0; m < members.size(); ++m) {
                    const std::uint64_t zm = strings[members[m]].zMask();
                    const int sign = std::popcount(b & zm) & 1 ? -1 : 1;
                    acc[m] += static_cast<double>(sign) * t;
                }
            }
        }
        for (std::size_t m = 0; m < members.size(); ++m) {
            const PauliString &s = strings[members[m]];
            if (s.isIdentity()) {
                out[members[m]] = 1.0;
                continue;
            }
            out[members[m]] =
                std::real(kPhases[s.yCount() % 4] * acc[m]);
        }
    }
    return out;
}

namespace {

/** Amplitudes per block: 3 doubles/entry keeps a block well inside L1. */
constexpr std::size_t kBlockSize = 1024;

/** One X-mask group member, flattened for the hot loop. */
struct GroupMember
{
    std::uint64_t zMask;
    std::size_t outIndex;
    double weight; ///< +-2 (off-diagonal) or +-1 (diagonal) phase factor
};

/**
 * One X-mask group, prepared for block-parallel evaluation. The block
 * loop is the hot path; every (group, block) pair is an independent
 * task whose per-member dot products land in block-indexed partial
 * slots, and the final reduction walks blocks in ascending order —
 * so the summation order (and therefore the result, bitwise) is the
 * same for any thread count, including the serial path.
 *
 * Every member's Z-parity sign splits as sign(k) = sign(k0) * sign(j)
 * for a block-aligned k0, so the per-j factor is the same for every
 * block: it is built once per group as a +-1 lookup table, and the
 * member loop over a block becomes a pure multiply-accumulate stream
 * with no per-element popcount.
 */
struct GroupTask
{
    std::uint64_t xm = 0;
    std::size_t hbit = 0; ///< pairing bit (0 for diagonal groups)
    std::size_t xlo = 0;
    std::size_t range = 0; ///< dim (diagonal) or dim/2 (off-diagonal)
    std::size_t nblocks = 0;
    std::size_t lutLen = 0;
    std::vector<GroupMember> membersRe, membersIm;
    std::vector<double> lutRe, lutIm;
    /** Per-block partial sums, nblocks x members, block-major. */
    std::vector<double> partialRe, partialIm;
};

void
buildLuts(const std::vector<GroupMember> &members,
          std::vector<double> &luts, std::size_t lut_len)
{
    luts.resize(members.size() * lut_len);
    for (std::size_t m = 0; m < members.size(); ++m) {
        const std::uint64_t zlo = members[m].zMask & (kBlockSize - 1);
        double *lut = luts.data() + m * lut_len;
        for (std::size_t j = 0; j < lut_len; ++j)
            lut[j] = paritySign(j, zlo);
    }
}

/** Evaluate one block of one group into its partial slots. */
void
processBlock(const GroupTask &task, std::size_t block,
             const CVector &amps, double *partial_re,
             double *partial_im)
{
    double tre[kBlockSize], tim[kBlockSize];
    const std::size_t k0 = block * kBlockSize;
    const std::size_t kn = std::min(kBlockSize, task.range - k0);

    if (task.hbit == 0) {
        // Diagonal group: one probability pass serves all members.
        for (std::size_t j = 0; j < kn; ++j)
            tre[j] = std::norm(amps[k0 + j]);
    } else if (task.hbit >= kBlockSize) {
        // Blocks never straddle a run boundary (hbit is a multiple of
        // the block size), so b = b0 + j and the partner differs only
        // by an XOR of the low X bits within the cache-resident
        // window.
        const std::size_t b0 = expandBit(k0, task.hbit);
        const Complex *pa = amps.data() + b0;
        const Complex *pb =
            amps.data() + ((b0 ^ task.xm) & ~(kBlockSize - 1));
        if (task.xlo == 0) {
            for (std::size_t j = 0; j < kn; ++j) {
                const Complex t = std::conj(pb[j]) * pa[j];
                tre[j] = t.real();
                tim[j] = t.imag();
            }
        } else {
            for (std::size_t j = 0; j < kn; ++j) {
                const Complex t = std::conj(pb[j ^ task.xlo]) * pa[j];
                tre[j] = t.real();
                tim[j] = t.imag();
            }
        }
    } else {
        for (std::size_t j = 0; j < kn; ++j) {
            const std::size_t b = expandBit(k0 + j, task.hbit);
            const Complex t =
                std::conj(amps[b ^ task.xm]) * amps[b];
            tre[j] = t.real();
            tim[j] = t.imag();
        }
    }

    for (std::size_t m = 0; m < task.membersRe.size(); ++m) {
        const double base = paritySign(k0, task.membersRe[m].zMask);
        const double *lut = task.lutRe.data() + m * task.lutLen;
        double a = 0.0;
        for (std::size_t j = 0; j < kn; ++j)
            a += lut[j] * tre[j];
        partial_re[m] = base * a;
    }
    for (std::size_t m = 0; m < task.membersIm.size(); ++m) {
        const double base = paritySign(k0, task.membersIm[m].zMask);
        const double *lut = task.lutIm.data() + m * task.lutLen;
        double a = 0.0;
        for (std::size_t j = 0; j < kn; ++j)
            a += lut[j] * tim[j];
        partial_im[m] = base * a;
    }
}

} // namespace

std::vector<double>
refLutPerStringExpectations(const Statevector &state,
                            const std::vector<PauliString> &strings)
{
    const CVector &amps = state.amplitudes();
    const std::size_t dim = amps.size();
    std::vector<double> out(strings.size(), 0.0);

    // Group string indices by X mask.
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> groups;
    groups.reserve(strings.size());
    for (std::size_t k = 0; k < strings.size(); ++k) {
        if (strings[k].isIdentity()) {
            out[k] = 1.0;
            continue;
        }
        groups[strings[k].xMask()].push_back(k);
    }

    // Prepare one GroupTask per X-mask group (members, sign LUTs,
    // block-indexed partial slots). See file comment for the pairing
    // symmetry behind the off-diagonal path: pairing on the *highest*
    // X bit keeps both amplitude streams (nearly) sequential, member
    // signs are evaluated in the compressed index space k with
    // parity(b & z) == parity(k & compress(z)), and members split by
    // Y-count parity — even-|Y| members read Re(t), odd-|Y| members
    // read Im(t), with weight +-2 folding the canonical i^{|Y|} phase.
    std::vector<GroupTask> tasks;
    tasks.reserve(groups.size());
    for (const auto &[xm, indices] : groups) {
        GroupTask task;
        task.xm = xm;
        if (xm == 0) {
            task.hbit = 0;
            task.range = dim;
            for (std::size_t idx : indices)
                task.membersRe.push_back(
                    GroupMember{strings[idx].zMask(), idx, 1.0});
        } else {
            const std::size_t hbit = std::bit_floor(xm);
            task.hbit = hbit;
            task.xlo = xm & (kBlockSize - 1);
            task.range = dim >> 1;
            for (std::size_t idx : indices) {
                const int y = strings[idx].yCount();
                const double w =
                    (y % 4 == 0 || y % 4 == 3) ? 2.0 : -2.0;
                const std::uint64_t zm = strings[idx].zMask();
                const std::uint64_t zmc = (zm & (hbit - 1))
                    | ((zm >> 1) & ~(hbit - 1));
                const GroupMember gm{zmc, idx, w};
                if (y % 2 == 0)
                    task.membersRe.push_back(gm);
                else
                    task.membersIm.push_back(gm);
            }
        }
        task.nblocks = (task.range + kBlockSize - 1) / kBlockSize;
        task.lutLen = std::min(kBlockSize, task.range);
        buildLuts(task.membersRe, task.lutRe, task.lutLen);
        buildLuts(task.membersIm, task.lutIm, task.lutLen);
        task.partialRe.resize(task.nblocks * task.membersRe.size());
        task.partialIm.resize(task.nblocks * task.membersIm.size());
        tasks.push_back(std::move(task));
    }

    // Flatten to (group, block) work items and fan out over the pool.
    std::vector<std::pair<std::size_t, std::size_t>> work;
    for (std::size_t g = 0; g < tasks.size(); ++g)
        for (std::size_t b = 0; b < tasks[g].nblocks; ++b)
            work.emplace_back(g, b);
    ThreadPool::global().run(work.size(), [&](std::size_t w) {
        const auto [g, b] = work[w];
        GroupTask &task = tasks[g];
        processBlock(task, b, amps,
                     task.partialRe.data() + b * task.membersRe.size(),
                     task.partialIm.data() + b * task.membersIm.size());
    });

    // Ordered reduction: blocks in ascending order per member, which
    // reproduces the serial accumulation order bit-for-bit.
    for (const GroupTask &task : tasks) {
        for (std::size_t m = 0; m < task.membersRe.size(); ++m) {
            double acc = 0.0;
            for (std::size_t b = 0; b < task.nblocks; ++b)
                acc += task.partialRe[b * task.membersRe.size() + m];
            out[task.membersRe[m].outIndex] =
                task.membersRe[m].weight * acc;
        }
        for (std::size_t m = 0; m < task.membersIm.size(); ++m) {
            double acc = 0.0;
            for (std::size_t b = 0; b < task.nblocks; ++b)
                acc += task.partialIm[b * task.membersIm.size() + m];
            out[task.membersIm[m].outIndex] =
                task.membersIm[m].weight * acc;
        }
    }
    return out;
}

} // namespace treevqa
