#include "pauli/pauli_sum.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <map>
#include <sstream>
#include <unordered_map>

namespace treevqa {

PauliSum::PauliSum(int num_qubits)
    : numQubits_(num_qubits)
{
    assert(num_qubits >= 0 && num_qubits <= kMaxQubits);
}

void
PauliSum::add(double coefficient, const PauliString &string)
{
    assert(string.numQubits() == numQubits_);
    for (auto &term : terms_) {
        if (term.string == string) {
            term.coefficient += coefficient;
            return;
        }
    }
    terms_.push_back(PauliTerm{coefficient, string});
}

void
PauliSum::add(double coefficient, const std::string &label)
{
    assert(static_cast<int>(label.size()) == numQubits_);
    add(coefficient, PauliString::fromLabel(label));
}

void
PauliSum::addScaled(const PauliSum &other, double factor)
{
    assert(other.numQubits_ == numQubits_);
    // Merge through a hash map: O(terms) instead of O(terms^2).
    std::unordered_map<PauliString, std::size_t, PauliStringHash> index;
    index.reserve(terms_.size() * 2);
    for (std::size_t k = 0; k < terms_.size(); ++k)
        index.emplace(terms_[k].string, k);
    for (const auto &term : other.terms_) {
        auto it = index.find(term.string);
        if (it != index.end()) {
            terms_[it->second].coefficient += factor * term.coefficient;
        } else {
            index.emplace(term.string, terms_.size());
            terms_.push_back(
                PauliTerm{factor * term.coefficient, term.string});
        }
    }
}

void
PauliSum::compress(double threshold)
{
    std::map<PauliString, double> merged;
    for (const auto &term : terms_)
        merged[term.string] += term.coefficient;
    terms_.clear();
    for (const auto &[string, coefficient] : merged)
        if (std::fabs(coefficient) > threshold)
            terms_.push_back(PauliTerm{coefficient, string});
}

double
PauliSum::coefficientOf(const PauliString &string) const
{
    for (const auto &term : terms_)
        if (term.string == string)
            return term.coefficient;
    return 0.0;
}

double
PauliSum::l1Norm() const
{
    double s = 0.0;
    for (const auto &term : terms_)
        if (!term.string.isIdentity())
            s += std::fabs(term.coefficient);
    return s;
}

double
PauliSum::l1NormWithIdentity() const
{
    double s = 0.0;
    for (const auto &term : terms_)
        s += std::fabs(term.coefficient);
    return s;
}

std::size_t
PauliSum::numMeasuredTerms() const
{
    std::size_t n = 0;
    for (const auto &term : terms_)
        if (!term.string.isIdentity())
            ++n;
    return n;
}

double
PauliSum::normalizedTrace() const
{
    for (const auto &term : terms_)
        if (term.string.isIdentity())
            return term.coefficient;
    return 0.0;
}

namespace {

/** Output amplitudes per applyTo block: six 4 KiB real buffers. */
constexpr std::size_t kApplyBlock = 512;

/** Block indices per sign chunk in the weight build. */
constexpr std::size_t kApplyChunk = 64;

/** One term of an X-mask group, for the weight build. */
struct ApplyMember
{
    std::uint64_t zMask;
    /** c * i^{|Y|} with the i folded out: the real or imaginary part. */
    double coefficient;
    bool imag;
};

/** w[j] (=|+=) c * (-1)^{popcount(j & z)} for j in [0, n): the sign
 * splits into a 64-entry pattern and a per-chunk parity. */
void
addSignedWeights(double *w, std::size_t n, double c, std::uint64_t z,
                 bool assign)
{
    const std::size_t chunk = std::min(kApplyChunk, n);
    double pattern[kApplyChunk];
    for (std::size_t l = 0; l < chunk; ++l)
        pattern[l] = (std::popcount(l & z) & 1) ? -c : c;
    for (std::size_t h = 0; h < n; h += chunk) {
        double *row = w + h;
        const double s = (std::popcount(h & z) & 1) ? -1.0 : 1.0;
        if (assign) {
            for (std::size_t l = 0; l < chunk; ++l)
                row[l] = s * pattern[l];
        } else {
            for (std::size_t l = 0; l < chunk; ++l)
                row[l] += s * pattern[l];
        }
    }
}

} // namespace

void
PauliSum::applyTo(const CVector &x, CVector &y) const
{
    const std::size_t dim = std::size_t{1} << numQubits_;
    assert(x.size() == dim);
    y.resize(dim);

    // P|b> = i^{|Y|} (-1)^{popcount(b & z)} |b ^ x>, so the terms
    // sharing an X mask act as one diagonal complex weight W followed
    // by the permutation b -> b ^ x:
    //   y[a] += W(a) x[a ^ x],
    //   W(a)  = sum_k c_k i^{|Y_k|} (-1)^{popcount((a ^ x) & z_k)}.
    // Even-|Y| terms make W's real part, odd-|Y| terms its imaginary
    // part. Groups are visited in ascending X-mask order and members
    // in term order, so the result is deterministic.
    std::vector<std::pair<std::uint64_t, ApplyMember>> members;
    members.reserve(terms_.size());
    for (const auto &term : terms_) {
        const int y4 = term.string.yCount() % 4;
        members.emplace_back(
            term.string.xMask(),
            ApplyMember{term.string.zMask(),
                        y4 < 2 ? term.coefficient : -term.coefficient,
                        (y4 & 1) != 0});
    }
    std::stable_sort(members.begin(), members.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });

    const double *xs = reinterpret_cast<const double *>(x.data());
    const std::size_t n = std::min(kApplyBlock, dim);
    for (std::size_t a0 = 0; a0 < dim; a0 += n) {
        double yr[kApplyBlock] = {}, yi[kApplyBlock] = {};
        for (std::size_t g = 0; g < members.size();) {
            const std::uint64_t xm = members[g].first;
            double wr[kApplyBlock], wi[kApplyBlock];
            bool hasRe = false, hasIm = false;
            for (; g < members.size() && members[g].first == xm; ++g) {
                const ApplyMember &m = members[g].second;
                // (a0 + j) ^ x = (a0 ^ x) ^ j for the block-aligned a0,
                // so the block-constant part of the sign folds into c.
                const double c = (std::popcount((a0 ^ xm) & m.zMask) & 1)
                    ? -m.coefficient
                    : m.coefficient;
                bool &seen = m.imag ? hasIm : hasRe;
                addSignedWeights(m.imag ? wi : wr, n, c, m.zMask, !seen);
                seen = true;
            }

            // The partners of the block lie in one aligned window,
            // permuted by the low X bits.
            double xr[kApplyBlock], xi[kApplyBlock];
            const double *src = xs + 2 * ((a0 ^ xm) & ~(n - 1));
            const std::size_t xlo = xm & (n - 1);
            for (std::size_t j = 0; j < n; ++j) {
                xr[j] = src[2 * (j ^ xlo)];
                xi[j] = src[2 * (j ^ xlo) + 1];
            }
            if (hasRe) {
                for (std::size_t j = 0; j < n; ++j) {
                    yr[j] += wr[j] * xr[j];
                    yi[j] += wr[j] * xi[j];
                }
            }
            if (hasIm) {
                for (std::size_t j = 0; j < n; ++j) {
                    yr[j] -= wi[j] * xi[j];
                    yi[j] += wi[j] * xr[j];
                }
            }
        }
        for (std::size_t j = 0; j < n; ++j)
            y[a0 + j] = Complex(yr[j], yi[j]);
    }
}

double
PauliSum::expectation(const CVector &x) const
{
    const std::size_t dim = std::size_t{1} << numQubits_;
    assert(x.size() == dim);

    static const Complex kPhases[4] = {
        Complex(1, 0), Complex(0, 1), Complex(-1, 0), Complex(0, -1)};

    Complex total(0.0, 0.0);
    for (const auto &term : terms_) {
        const std::uint64_t xm = term.string.xMask();
        const std::uint64_t zm = term.string.zMask();
        const Complex base = kPhases[term.string.yCount() % 4];
        Complex acc(0.0, 0.0);
        for (std::size_t b = 0; b < dim; ++b) {
            const int sign = std::popcount(b & zm) & 1 ? -1 : 1;
            acc += std::conj(x[b ^ xm]) * static_cast<double>(sign) * x[b];
        }
        total += term.coefficient * base * acc;
    }
    return std::real(total);
}

void
PauliSum::scaleCoefficients(double factor)
{
    for (auto &term : terms_)
        term.coefficient *= factor;
}

std::string
PauliSum::toString(std::size_t max_terms) const
{
    std::ostringstream os;
    os << "PauliSum(" << numQubits_ << " qubits, " << terms_.size()
       << " terms)";
    std::size_t shown = 0;
    for (const auto &term : terms_) {
        if (shown++ >= max_terms) {
            os << "\n  ...";
            break;
        }
        os << "\n  " << (term.coefficient >= 0 ? "+" : "")
           << term.coefficient << " * " << term.string.toLabel();
    }
    return os.str();
}

AlignedTerms
alignTerms(const std::vector<PauliSum> &hamiltonians)
{
    AlignedTerms out;
    if (hamiltonians.empty())
        return out;

    // Deterministic superset ordering via an ordered map.
    std::map<PauliString, std::size_t> index;
    for (const auto &h : hamiltonians)
        for (const auto &term : h.terms())
            index.emplace(term.string, 0);

    std::size_t k = 0;
    out.strings.reserve(index.size());
    for (auto &[string, position] : index) {
        position = k++;
        out.strings.push_back(string);
    }

    out.coefficients.assign(
        hamiltonians.size(), std::vector<double>(out.strings.size(), 0.0));
    for (std::size_t i = 0; i < hamiltonians.size(); ++i)
        for (const auto &term : hamiltonians[i].terms())
            out.coefficients[i][index.at(term.string)] = term.coefficient;
    return out;
}

PauliSum
mixedHamiltonian(const std::vector<PauliSum> &hamiltonians)
{
    assert(!hamiltonians.empty());
    PauliSum mixed(hamiltonians.front().numQubits());
    const double inv = 1.0 / static_cast<double>(hamiltonians.size());
    for (const auto &h : hamiltonians)
        mixed.addScaled(h, inv);
    mixed.compress(0.0);
    return mixed;
}

double
l1Distance(const AlignedTerms &aligned, std::size_t i, std::size_t j)
{
    assert(i < aligned.coefficients.size());
    assert(j < aligned.coefficients.size());
    const auto &ci = aligned.coefficients[i];
    const auto &cj = aligned.coefficients[j];
    double s = 0.0;
    for (std::size_t k = 0; k < ci.size(); ++k)
        s += std::fabs(ci[k] - cj[k]);
    return s;
}

double
l1Distance(const PauliSum &a, const PauliSum &b)
{
    const AlignedTerms aligned = alignTerms({a, b});
    return l1Distance(aligned, 0, 1);
}

} // namespace treevqa
