#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cref {

/// Dense index of a state within a `Space`. States are packed mixed-radix:
/// a space over variables v0..vk with cardinalities c0..ck has
/// size = c0*...*ck and `id = sum_i value_i * stride_i`.
using StateId = std::uint64_t;

/// Value of a single variable. All protocol variables in this library are
/// tiny (booleans, mod-K counters, token bits), so one byte suffices.
using Value = std::uint8_t;

/// A decoded state: one `Value` per variable, in declaration order.
using StateVec = std::vector<Value>;

/// Declaration of one state variable: display name plus the number of
/// values it ranges over (values are 0 .. cardinality-1).
struct VarSpec {
  std::string name;
  Value cardinality;
};

/// A finite state space Sigma presented as the cross product of a fixed
/// list of small-domain variables, with a dense mixed-radix encoding of
/// states into `StateId`s. All model-checking algorithms in the
/// `refinement` module index arrays by `StateId`, so `size()` is also the
/// exhaustive-exploration cost.
///
/// Spaces whose product overflows the StateId range are still usable —
/// the simulation substrate works on decoded `StateVec`s and never packs
/// — but they are SPARSE: `dense()` is false, `size()` saturates to the
/// maximum StateId, and encode/decode throw std::logic_error.
class Space {
 public:
  /// Builds the space over `vars` (in order). Throws std::invalid_argument
  /// if `vars` is empty or any cardinality is zero.
  explicit Space(std::vector<VarSpec> vars);

  /// False if the state count overflows StateId (simulation-only space).
  bool dense() const { return dense_; }

  /// Number of variables.
  std::size_t var_count() const { return vars_.size(); }

  /// Declaration of variable `i`.
  const VarSpec& var(std::size_t i) const { return vars_[i]; }

  /// Place value of variable `i` in the packed id (meaningful only for
  /// dense spaces).
  StateId stride(std::size_t i) const { return strides_[i]; }

  /// Total number of states (product of cardinalities); saturated to the
  /// maximum StateId for sparse spaces.
  StateId size() const { return size_; }

  /// Packs a decoded state into its dense id. Precondition: `v` has
  /// var_count() entries each within its cardinality (assert-checked).
  StateId encode(const StateVec& v) const;

  /// Unpacks a dense id into a fresh vector.
  StateVec decode(StateId id) const;

  /// Unpacks a dense id into `out` (resized as needed); avoids allocation
  /// in hot loops.
  void decode_into(StateId id, StateVec& out) const;

  /// Value of variable `i` in packed state `id` without full decode.
  Value value_of(StateId id, std::size_t i) const;

  /// Human-readable rendering "name0=v0 name1=v1 ..." of a packed state.
  std::string format(StateId id) const;

  /// True if both spaces declare the same variables (names and
  /// cardinalities) in the same order — required for same-space
  /// refinement checks and box composition.
  bool same_shape_as(const Space& other) const;

 private:
  std::vector<VarSpec> vars_;
  std::vector<StateId> strides_;
  std::vector<StateId> recips_;  // ceil(2^64 / cardinality), for decode
  StateId size_ = 1;
  bool dense_ = true;
};

/// Spaces are shared between the systems defined over them.
using SpacePtr = std::shared_ptr<const Space>;

/// Convenience: a space of `n` variables named `<prefix>0..<prefix>n-1`,
/// each with the same cardinality (e.g. mod-3 counters of a ring).
SpacePtr make_uniform_space(std::size_t n, Value cardinality,
                            const std::string& prefix = "v");

}  // namespace cref
