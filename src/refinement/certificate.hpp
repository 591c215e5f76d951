#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "refinement/checker.hpp"
#include "util/bitset.hpp"

namespace cref {

/// A locally-checkable proof that C is stabilizing to A — the output of
/// a CERTIFYING model checker. The verdict of RefinementChecker::
/// stabilizing_to rests on global graph analyses (SCC, BFS); the
/// certificate reduces it to per-edge conditions a small independent
/// validator can re-check, so trust moves from the checker to the
/// validator (~60 lines):
///
///  - `a_reachable` with a parent/depth forest proves (by explicit
///    witness paths) that every marked state is truly reachable in A
///    from A's initial states; an under-approximation is sound, the
///    generator emits the exact set.
///  - `rho` is non-increasing along every "good" transition (image in
///    T_A within a_reachable, or a stutter whose image is inside
///    a_reachable) and STRICTLY decreasing along every other transition:
///    bad steps can happen only finitely often. Generated as the Tarjan
///    component index of C (cross-component edges decrease it).
///  - `sigma` strictly decreases along stutter transitions whose image
///    is not an A-deadlock (within equal `rho`): the image cannot stall
///    forever at a non-final state of A. Generated as the longest-path
///    index of the (acyclic) global stutter subgraph.
///  - deadlocks of C must map to reachable deadlocks of A (checked
///    directly by the validator; no certificate component needed).
struct StabilizationCertificate {
  static constexpr StateId kNoParent = ~StateId{0};

  std::vector<char> a_reachable;      // indexed by A-state
  std::vector<StateId> a_parent;      // kNoParent for roots/non-members
  std::vector<std::uint32_t> a_depth; // BFS depth from A's initial states
  std::vector<std::uint64_t> rho;     // indexed by C-state
  std::vector<std::uint64_t> sigma;   // indexed by C-state
};

/// Produces a certificate for the (C, A, alpha) triple held by `rc`
/// from `verdict`, the caller's rc.stabilizing_to() result, so the
/// relation is not decided twice; nullopt when the verdict does not
/// hold (it carries the counterexample).
std::optional<StabilizationCertificate> make_certificate(const RefinementChecker& rc,
                                                         const CheckResult& verdict);

/// The stutter rank sigma of every certificate that carries one: the
/// longest-path index (per C-state) of the subgraph of C's stutter edges
/// whose image is not an A-deadlock, restricted to edges with both
/// endpoints in `region` when given. nullopt if that subgraph has a
/// cycle — then no strictly decreasing sigma exists.
std::optional<std::vector<std::uint64_t>> stutter_sigma(
    const RefinementChecker& rc, const util::DenseBitset* region = nullptr);

/// Independently validates `cert` against the raw graphs — shares no
/// analysis code with the generator. `alpha_table` empty means identity.
CheckResult validate_certificate(const TransitionGraph& c, const TransitionGraph& a,
                                 const std::vector<StateId>& a_init,
                                 const std::vector<StateId>& alpha_table,
                                 const StabilizationCertificate& cert);

/// A closed-region certificate: a membership vector over Sigma claimed
/// closed under the system's transitions — the Theorem 1/3 precondition
/// ("B is closed under T") in graph form. Generators are the static
/// closure prover (src/absint/closure.hpp, which derives the claim from
/// the program text without enumerating Sigma) or any explicit
/// computation; validate_closed_region re-checks the claim edge by edge
/// and shares no code with either.
struct ClosedRegionCertificate {
  std::vector<char> members;  // indexed by StateId; nonzero = in B
};

CheckResult validate_closed_region(const TransitionGraph& g,
                                   const ClosedRegionCertificate& cert);

}  // namespace cref
