/**
 * @file
 * Exact Pauli expectations on a dense statevector.
 *
 * Every VQA objective evaluation reduces to per-term expectations
 * <psi|P_j|psi>. They are computed here directly from the amplitudes in
 * O(2^n) per term, with no measurement sampling; the finite-shot
 * statistics the paper's optimizer actually sees are injected afterwards
 * by the ShotEstimator, using these exact values as the means.
 *
 * Keeping the per-term values around is also exactly what enables the
 * paper's cheap post-processing (Section 5.3): re-evaluating a task
 * Hamiltonian on another cluster's state is a classical recombination of
 * stored per-term expectations with different coefficients.
 */

#ifndef TREEVQA_SIM_EXPECTATION_H
#define TREEVQA_SIM_EXPECTATION_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "pauli/pauli_sum.h"
#include "sim/statevector.h"

namespace treevqa {

/** <psi|P|psi> for a single Pauli string (exact, real). */
double expectation(const Statevector &state, const PauliString &string);

/** <psi|H|psi> for a Pauli sum (exact). */
double expectation(const Statevector &state, const PauliSum &hamiltonian);

/** Exact per-term expectations <psi|P_j|psi>, one per Hamiltonian term,
 * in term order (identity terms get 1). */
std::vector<double> perTermExpectations(const Statevector &state,
                                        const PauliSum &hamiltonian);

/**
 * Batched exact expectations of a fixed set of Pauli strings, compiled
 * once and evaluated on many states.
 *
 * Strings sharing an X mask share one amplitude pass (the product
 * conj(psi[b ^ x]) * psi[b] is independent of the Z mask), which speeds
 * up chemistry-style Hamiltonians where many hopping/exchange terms act
 * on the same qubit support. Construction does all the string-side
 * work: the X-mask groups (ascending mask order), each member's Z mask
 * compressed past the pairing bit, its +-2 phase weight, and the slots
 * of identity strings (which yield 1). A cluster's strings never
 * change, so the objective's backend builds one plan and evaluates
 * every probe through it; evaluate() keeps no per-call tables.
 *
 * evaluate() fans (X-mask group, amplitude block) pairs out over the
 * global thread pool. Each member sums its block in ascending index
 * order, applying its Z-parity sign as an exact sign-bit flip, while
 * several members' sums run side by side in vector lanes; partial sums
 * land in block-indexed slots and the final reduction walks blocks in
 * ascending order. Results are therefore bit-identical for any pool
 * size (including 1), and bit-identical to the sign-table evaluator
 * the plan replaced (refLutPerStringExpectations). A plan is immutable
 * after construction, so concurrent evaluate() calls are safe.
 */
class ExpectationPlan
{
  public:
    /** Compile the string set; all strings must share one qubit count. */
    explicit ExpectationPlan(const std::vector<PauliString> &strings);

    /** Number of strings, i.e. the size of evaluate()'s result. */
    std::size_t numStrings() const { return numStrings_; }

    /** <psi|P_k|psi> for every string k, in string order. */
    std::vector<double> evaluate(const Statevector &state) const;

  private:
    /** Members accumulated side by side in one vector. */
    static constexpr std::size_t kLanes = 4;

    /**
     * Up to kLanes members of one X-mask group that read the same
     * pair-product component (Re for even |Y|, Im for odd |Y|).
     * Unused lanes carry zero masks and are never read back.
     */
    struct MemberLanes
    {
        /** Bit l: parity of (l & z) over the low six bits of z. */
        std::uint64_t lowParity[kLanes] = {};
        /** Bits 6..9 of z, shifted down: the parity of the 64-index
         * chunk within a block. */
        std::uint64_t chunkMask[kLanes] = {};
        /** Full (compressed) Z mask: the sign of a block's offset. */
        std::uint64_t zMask[kLanes] = {};
        double weight[kLanes] = {};
        std::size_t outIndex[kLanes] = {};
        std::size_t live = 0;
        bool imag = false;
        /** First partial slot; slots are block-major, kLanes wide. */
        std::size_t partialOffset = 0;
    };

    /** One X-mask group and the amplitude range it pairs over. */
    struct Group
    {
        std::uint64_t xMask = 0;
        std::size_t hbit = 0; ///< pairing bit (0 for the diagonal group)
        std::size_t xlo = 0;  ///< X bits below the block size
        std::size_t range = 0; ///< dim (diagonal) or dim / 2
        std::size_t numBlocks = 0;
        std::size_t firstLanes = 0;
        std::size_t numLanes = 0;
    };

    void evaluateBlock(const Group &group, std::size_t block,
                       const Statevector &state, double *partial) const;

    /** Sum Q lane sets over one block into their partial slots;
     * source(q, j) yields the j-th pair-product component lane set q
     * reads. */
    template <std::size_t Q, typename Source>
    static void accumulate(const MemberLanes *const *lanes,
                           const Source &source, std::size_t block,
                           std::size_t kn, double *partial);

    int numQubits_ = 0;
    std::size_t numStrings_ = 0;
    std::vector<Group> groups_;
    std::vector<MemberLanes> lanes_;
    std::vector<std::size_t> identitySlots_;
    /** (group, block) work items in fan-out order. */
    std::vector<std::pair<std::size_t, std::size_t>> work_;
    std::size_t partialSize_ = 0;
};

/** One-shot ExpectationPlan(strings).evaluate(state). */
std::vector<double> perStringExpectations(
    const Statevector &state, const std::vector<PauliString> &strings);

/** Recombine stored per-term expectations with a coefficient vector:
 * sum_j c_j <P_j>. Sizes must agree. */
double recombine(const std::vector<double> &coefficients,
                 const std::vector<double> &term_expectations);

} // namespace treevqa

#endif // TREEVQA_SIM_EXPECTATION_H
