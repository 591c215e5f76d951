#pragma once

// The shared ranking-template machinery of the static provers: the
// interference-ordered candidate pool that prove.cpp's stabilization
// synthesis greedily walks, extracted so the refinement prover
// (refine.cpp) can synthesize stutter and visible rankings from the
// SAME pool — one template grammar, two proof rules. Also the
// mixed-radix state packing used by enumerated table components and by
// both validators' complete-replay modes.

#include <cstddef>
#include <string>
#include <vector>

#include "core/space.hpp"
#include "gcl/ast.hpp"
#include "prover/interference.hpp"

namespace cref::prover {

/// Mixed-radix packing matching core::Space (variable 0 least
/// significant) — the index space of table components.
struct Packing {
  std::vector<std::size_t> strides;
  std::size_t total = 1;

  explicit Packing(const std::vector<int>& cards) {
    strides.resize(cards.size());
    for (std::size_t i = 0; i < cards.size(); ++i) {
      strides[i] = total;
      total *= static_cast<std::size_t>(cards[i]);
    }
  }
  std::size_t encode(const StateVec& s) const {
    std::size_t id = 0;
    for (std::size_t i = 0; i < strides.size(); ++i)
      id += static_cast<std::size_t>(s[i]) * strides[i];
    return id;
  }
  void decode(std::size_t id, const std::vector<int>& cards, StateVec& out) const {
    out.resize(strides.size());
    for (std::size_t i = 0; i < strides.size(); ++i)
      out[i] = static_cast<Value>(id / strides[i] % static_cast<std::size_t>(cards[i]));
  }
};

/// One ranking candidate from the template pool.
struct Candidate {
  std::string pretty;
  gcl::Expr expr;
};

/// Appends a candidate unless the pool is full or an expr_equal
/// duplicate is already present.
void push_candidate(std::vector<Candidate>& pool, std::string pretty, gcl::Expr e,
                    std::size_t max_pool);

/// The ordered template pool: guard indicators by dependency layer (DAG
/// programs only), the enabled count, linear sums over written
/// variables, per-variable terms (layer order), mod-k differences along
/// dependency edges. Order is the synthesis priority.
std::vector<Candidate> template_pool(const gcl::SystemAst& ast,
                                     const InterferenceGraph& ig,
                                     std::size_t max_pool);

}  // namespace cref::prover
