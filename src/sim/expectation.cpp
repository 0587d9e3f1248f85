#include "sim/expectation.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <map>
#include <type_traits>

#include "common/thread_pool.h"
#include "sim/bit_ops.h"

namespace treevqa {

namespace {

/**
 * The batched evaluator exploits a pairing symmetry: for a string with
 * X mask x != 0, the amplitude pairs (b, b ^ x) contribute
 *
 *   sign(b) * [t + (-1)^{|Y|} conj(t)],   t = conj(a[b^x]) * a[b],
 *
 * because sign(b ^ x) = sign(b) * (-1)^{popcount(x & z)}. So only half
 * the basis states need visiting, and after multiplying by the
 * canonical phase i^{|Y|} the per-member contribution collapses to a
 * purely *real* accumulation of either Re(t) (|Y| even) or Im(t)
 * (|Y| odd) with weight +-2. Amplitudes are processed in cache-sized
 * blocks whose t values are shared by every member of the X-mask
 * group.
 *
 * ExpectationPlan keeps every member's sum in the order the sign-table
 * evaluator used (refLutPerStringExpectations): one chain per member
 * and block, starting from +0.0 and adding +-t[j] in ascending j, then
 * scaled by the block's +-1 offset sign; blocks are summed in
 * ascending order and the total scaled by the phase weight. Each step
 * is either exact (sign flips, +-1 and +-2 scalings) or the same IEEE
 * operation on the same operands, so the results match bit-for-bit.
 */

/** Amplitudes per block: 3 doubles/entry keeps a block well inside L1. */
constexpr std::size_t kBlockSize = 1024;

/** Block indices per sign chunk: the low six bits of an index select a
 * bit of a member's lowParity word. */
constexpr std::size_t kChunk = 64;

static_assert(kBlockSize % kChunk == 0);

} // namespace

double
expectation(const Statevector &state, const PauliString &string)
{
    assert(string.numQubits() == state.numQubits());
    const CVector &amps = state.amplitudes();
    const std::uint64_t xm = string.xMask();
    const std::uint64_t zm = string.zMask();

    if (xm == 0) {
        // Diagonal string: real sum of signed probabilities.
        double s = 0.0;
        for (std::size_t b = 0; b < amps.size(); ++b)
            s += paritySign(b, zm) * std::norm(amps[b]);
        return s;
    }

    // Pairing symmetry (see file comment): visit only b with the
    // highest X bit clear — those form contiguous runs of length
    // 2^{hi}, so both amplitude streams are sequential.
    const std::size_t hbit = std::bit_floor(xm);
    const std::size_t dim = amps.size();
    const int y = string.yCount();
    double acc = 0.0;
    for (std::size_t base = 0; base < dim; base += 2 * hbit) {
        if (y % 2 == 0) {
            for (std::size_t b = base; b < base + hbit; ++b) {
                const Complex t = std::conj(amps[b ^ xm]) * amps[b];
                acc += paritySign(b, zm) * t.real();
            }
        } else {
            for (std::size_t b = base; b < base + hbit; ++b) {
                const Complex t = std::conj(amps[b ^ xm]) * amps[b];
                acc += paritySign(b, zm) * t.imag();
            }
        }
    }
    const double w = (y % 4 == 0 || y % 4 == 3) ? 2.0 : -2.0;
    return w * acc;
}

double
expectation(const Statevector &state, const PauliSum &hamiltonian)
{
    double total = 0.0;
    for (const auto &term : hamiltonian.terms()) {
        if (term.string.isIdentity()) {
            total += term.coefficient;
            continue;
        }
        total += term.coefficient * expectation(state, term.string);
    }
    return total;
}

std::vector<double>
perTermExpectations(const Statevector &state, const PauliSum &hamiltonian)
{
    std::vector<PauliString> strings;
    strings.reserve(hamiltonian.numTerms());
    for (const auto &term : hamiltonian.terms())
        strings.push_back(term.string);
    return perStringExpectations(state, strings);
}

namespace {

using LaneVec = double __attribute__((vector_size(4 * sizeof(double))));
using LaneBits =
    std::uint64_t __attribute__((vector_size(4 * sizeof(double))));

/**
 * t = conj(b) * a from interleaved (re, im) pairs in explicit real
 * arithmetic, with x = conj(b), y = a:
 *
 *   re = xr*yr - xi*yi,   im = xi*yr + xr*yi.
 *
 * These operand orders give the same roundings (including which
 * product the compiler fuses into an FMA) as GCC's lowering of the
 * std::complex product, whose NaN-recovery branch otherwise blocks
 * vectorisation. ExpectationPlan.BitIdenticalToSignTableKernel pins
 * this against the std::complex kernel.
 */
inline void
pairProduct(const double *b, const double *a, double &re, double &im)
{
    const double xr = b[0];
    const double xi = -b[1];
    re = xr * a[0] - xi * a[1];
    im = xi * a[0] + xr * a[1];
}

} // namespace

ExpectationPlan::ExpectationPlan(const std::vector<PauliString> &strings)
    : numStrings_(strings.size())
{
    if (strings.empty())
        return;
    numQubits_ = strings[0].numQubits();
    const std::size_t dim = std::size_t{1} << numQubits_;

    // Group string indices by X mask, in ascending mask order; members
    // keep ascending string order.
    std::map<std::uint64_t, std::vector<std::size_t>> byMask;
    for (std::size_t k = 0; k < strings.size(); ++k) {
        assert(strings[k].numQubits() == numQubits_);
        if (strings[k].isIdentity())
            identitySlots_.push_back(k);
        else
            byMask[strings[k].xMask()].push_back(k);
    }

    // See the file comment for the pairing symmetry behind the
    // off-diagonal path: pairing on the *highest* X bit keeps both
    // amplitude streams (nearly) sequential, member signs are
    // evaluated in the compressed index space k with
    // parity(b & z) == parity(k & compress(z)), and members split by
    // Y-count parity — even-|Y| members read Re(t), odd-|Y| members
    // read Im(t), with weight +-2 folding the canonical i^{|Y|} phase.
    for (const auto &[xm, indices] : byMask) {
        Group group;
        group.xMask = xm;
        group.firstLanes = lanes_.size();
        group.hbit = xm == 0 ? 0 : std::bit_floor(xm);
        group.xlo = xm & (kBlockSize - 1);
        group.range = xm == 0 ? dim : dim >> 1;
        group.numBlocks = (group.range + kBlockSize - 1) / kBlockSize;

        MemberLanes re, im;
        im.imag = true;
        const auto flush = [&](MemberLanes &lanes) {
            if (lanes.live == 0)
                return;
            lanes.partialOffset = partialSize_;
            partialSize_ += group.numBlocks * kLanes;
            lanes_.push_back(lanes);
            const bool imag = lanes.imag;
            lanes = MemberLanes{};
            lanes.imag = imag;
        };
        for (std::size_t idx : indices) {
            const PauliString &string = strings[idx];
            std::uint64_t zm = string.zMask();
            double weight = 1.0;
            bool imag = false;
            if (xm != 0) {
                const int y = string.yCount();
                weight = (y % 4 == 0 || y % 4 == 3) ? 2.0 : -2.0;
                imag = y % 2 != 0;
                zm = (zm & (group.hbit - 1))
                   | ((zm >> 1) & ~(group.hbit - 1));
            }
            MemberLanes &lanes = imag ? im : re;
            const std::size_t l = lanes.live++;
            for (std::uint64_t i = 0; i < kChunk; ++i)
                lanes.lowParity[l] |=
                    static_cast<std::uint64_t>(std::popcount(i & zm) & 1)
                    << i;
            lanes.chunkMask[l] = (zm & (kBlockSize - 1)) / kChunk;
            lanes.zMask[l] = zm;
            lanes.weight[l] = weight;
            lanes.outIndex[l] = idx;
            if (lanes.live == kLanes)
                flush(lanes);
        }
        flush(re);
        flush(im);
        group.numLanes = lanes_.size() - group.firstLanes;

        for (std::size_t block = 0; block < group.numBlocks; ++block)
            work_.emplace_back(groups_.size(), block);
        groups_.push_back(group);
    }
}

template <std::size_t Q, typename Source>
void
ExpectationPlan::accumulate(const MemberLanes *const *lanes,
                            const Source &source, std::size_t block,
                            std::size_t kn, double *partial)
{
    // One ascending-j chain per lane, kLanes * Q chains in flight. The
    // sign of member z at block index j is parity(j & z), split into
    // the chunk's parity (bits 6..9) and bit (j mod 64) of lowParity;
    // it flips t's sign bit, which is exactly the +-1 * t product.
    static_assert(sizeof(LaneVec) == kLanes * sizeof(double));
    LaneVec acc[Q] = {};
    LaneBits low[Q], chunkMask[Q];
    for (std::size_t q = 0; q < Q; ++q) {
        std::memcpy(&low[q], lanes[q]->lowParity, sizeof(LaneBits));
        std::memcpy(&chunkMask[q], lanes[q]->chunkMask, sizeof(LaneBits));
    }
    const std::size_t chunk = std::min(kChunk, kn);
    for (std::size_t c = 0; c < kn; c += chunk) {
        const std::uint64_t h = c / kChunk;
        LaneBits flips[Q];
        for (std::size_t q = 0; q < Q; ++q)
            for (std::size_t l = 0; l < kLanes; ++l)
                flips[q][l] = low[q][l]
                    ^ (std::uint64_t{0}
                       - (std::popcount(h & chunkMask[q][l]) & 1u));
        for (std::size_t j = 0; j < chunk; ++j) {
            for (std::size_t q = 0; q < Q; ++q) {
                const double t = source(q, c + j);
                const LaneVec tv = {t, t, t, t};
                const LaneBits sign = (flips[q] >> j) << 63;
                acc[q] += reinterpret_cast<LaneVec>(
                    reinterpret_cast<LaneBits>(tv) ^ sign);
            }
        }
    }
    const std::size_t k0 = block * kBlockSize;
    for (std::size_t q = 0; q < Q; ++q) {
        double *slots = partial + lanes[q]->partialOffset + block * kLanes;
        for (std::size_t l = 0; l < kLanes; ++l)
            slots[l] = paritySign(k0, lanes[q]->zMask[l]) * acc[q][l];
    }
}

void
ExpectationPlan::evaluateBlock(const Group &group, std::size_t block,
                               const Statevector &state,
                               double *partial) const
{
    const CVector &amps = state.amplitudes();
    const double *raw = reinterpret_cast<const double *>(amps.data());
    const std::size_t k0 = block * kBlockSize;
    const std::size_t kn = std::min(kBlockSize, group.range - k0);
    const MemberLanes *const first = &lanes_[group.firstLanes];

    // Pair addressing. Contiguous runs: blocks never straddle a run
    // boundary when hbit is a multiple of the block size, so b = b0 + j
    // and the partner differs only by an XOR of the low X bits within
    // the cache-resident window. Otherwise b is expanded per index.
    const bool contiguous = group.hbit >= kBlockSize;
    const std::size_t b0 = contiguous ? expandBit(k0, group.hbit) : 0;
    const double *pa = raw + 2 * b0;
    const double *pb =
        raw + 2 * ((b0 ^ group.xMask) & ~(kBlockSize - 1));
    const auto pair = [&](std::size_t j, double &re, double &im) {
        if (contiguous) {
            pairProduct(pb + 2 * (j ^ group.xlo), pa + 2 * j, re, im);
        } else {
            const std::size_t b = expandBit(k0 + j, group.hbit);
            pairProduct(raw + 2 * (b ^ group.xMask), raw + 2 * b, re, im);
        }
    };

    if (group.hbit != 0 && group.numLanes == 1) {
        // A lone lane set has only kLanes chains in flight, each bound
        // by the add latency: computing t inside the chain loop fills
        // that latency with the pair products instead of running them
        // as a separate pass. Only the component the lanes read is
        // formed.
        const auto run = [&](auto imag) {
            accumulate<1>(
                &first,
                [&](std::size_t, std::size_t j) {
                    double re, im;
                    pair(j, re, im);
                    return imag ? im : re;
                },
                block, kn, partial);
        };
        if (first->imag)
            run(std::true_type{});
        else
            run(std::false_type{});
        return;
    }

    alignas(64) double tre[kBlockSize];
    alignas(64) double tim[kBlockSize];
    if (group.hbit == 0) {
        // Diagonal group: one probability pass serves all members.
        for (std::size_t j = 0; j < kn; ++j)
            tre[j] = std::norm(amps[k0 + j]);
    } else if (contiguous && group.xlo == 0) {
        for (std::size_t j = 0; j < kn; ++j)
            pairProduct(pb + 2 * j, pa + 2 * j, tre[j], tim[j]);
    } else {
        for (std::size_t j = 0; j < kn; ++j)
            pair(j, tre[j], tim[j]);
    }

    // Lane sets in passes of up to four, so up to 16 members' chains
    // are in flight at once.
    const MemberLanes *lanes[4];
    const double *sources[4];
    const auto fromArrays = [&](std::size_t q, std::size_t j) {
        return sources[q][j];
    };
    std::size_t i = 0;
    while (i < group.numLanes) {
        const std::size_t q = std::min<std::size_t>(4, group.numLanes - i);
        for (std::size_t p = 0; p < q; ++p) {
            lanes[p] = first + i + p;
            sources[p] = lanes[p]->imag ? tim : tre;
        }
        switch (q) {
          case 1: accumulate<1>(lanes, fromArrays, block, kn, partial); break;
          case 2: accumulate<2>(lanes, fromArrays, block, kn, partial); break;
          case 3: accumulate<3>(lanes, fromArrays, block, kn, partial); break;
          default: accumulate<4>(lanes, fromArrays, block, kn, partial); break;
        }
        i += q;
    }
}

std::vector<double>
ExpectationPlan::evaluate(const Statevector &state) const
{
    std::vector<double> out(numStrings_, 0.0);
    for (std::size_t k : identitySlots_)
        out[k] = 1.0;
    if (groups_.empty())
        return out;
    assert(state.numQubits() == numQubits_);

    std::vector<double> partial(partialSize_);
    ThreadPool::global().run(work_.size(), [&](std::size_t w) {
        const auto [g, block] = work_[w];
        evaluateBlock(groups_[g], block, state, partial.data());
    });

    // Ordered reduction: blocks in ascending order per member, which
    // reproduces the serial accumulation order bit-for-bit.
    for (const Group &group : groups_) {
        for (std::size_t i = 0; i < group.numLanes; ++i) {
            const MemberLanes &lanes = lanes_[group.firstLanes + i];
            for (std::size_t l = 0; l < lanes.live; ++l) {
                double acc = 0.0;
                for (std::size_t b = 0; b < group.numBlocks; ++b)
                    acc += partial[lanes.partialOffset + b * kLanes + l];
                out[lanes.outIndex[l]] = lanes.weight[l] * acc;
            }
        }
    }
    return out;
}

std::vector<double>
perStringExpectations(const Statevector &state,
                      const std::vector<PauliString> &strings)
{
    return ExpectationPlan(strings).evaluate(state);
}

double
recombine(const std::vector<double> &coefficients,
          const std::vector<double> &term_expectations)
{
    assert(coefficients.size() == term_expectations.size());
    double s = 0.0;
    for (std::size_t k = 0; k < coefficients.size(); ++k)
        s += coefficients[k] * term_expectations[k];
    return s;
}

} // namespace treevqa
