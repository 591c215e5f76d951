#include "core/space.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>

namespace cref {

Space::Space(std::vector<VarSpec> vars) : vars_(std::move(vars)) {
  if (vars_.empty()) throw std::invalid_argument("Space: no variables");
  strides_.reserve(vars_.size());
  for (const auto& v : vars_) {
    if (v.cardinality == 0) throw std::invalid_argument("Space: zero cardinality for " + v.name);
    // ceil(2^64 / card), wrapping to 0 for card 1 (whose digit is 0).
    recips_.push_back(~StateId{0} / v.cardinality + 1);
    strides_.push_back(size_);
    if (!dense_ || size_ > std::numeric_limits<StateId>::max() / v.cardinality) {
      // Too large to pack: saturate and mark sparse (simulation-only).
      dense_ = false;
      size_ = std::numeric_limits<StateId>::max();
    } else {
      size_ *= v.cardinality;
    }
  }
}

StateId Space::encode(const StateVec& v) const {
  if (!dense_) throw std::logic_error("Space::encode: space is sparse (too large to pack)");
  assert(v.size() == vars_.size());
  StateId id = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    assert(v[i] < vars_[i].cardinality);
    id += strides_[i] * v[i];
  }
  return id;
}

StateVec Space::decode(StateId id) const {
  StateVec out;
  decode_into(id, out);
  return out;
}

void Space::decode_into(StateId id, StateVec& out) const {
  if (!dense_) throw std::logic_error("Space::decode: space is sparse (too large to pack)");
  assert(id < size_);
  out.resize(vars_.size());
  if (id <= 0xffffffffu) {
    // Every space the engines enumerate: divide by multiplying with the
    // reciprocal, exact for 32-bit dividends (Lemire, Kaser & Kurz).
    for (std::size_t i = 0; i < vars_.size(); ++i) {
      const unsigned __int128 product = static_cast<unsigned __int128>(id) * recips_[i];
      const StateId q = recips_[i] == 0 ? id : static_cast<StateId>(product >> 64);
      out[i] = static_cast<Value>(id - q * vars_[i].cardinality);
      id = q;
    }
    return;
  }
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    out[i] = static_cast<Value>(id % vars_[i].cardinality);
    id /= vars_[i].cardinality;
  }
}

Value Space::value_of(StateId id, std::size_t i) const {
  assert(i < vars_.size());
  return static_cast<Value>((id / strides_[i]) % vars_[i].cardinality);
}

std::string Space::format(StateId id) const {
  std::string out;
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    if (i > 0) out += ' ';
    out += vars_[i].name;
    out += '=';
    out += std::to_string(static_cast<int>(value_of(id, i)));
  }
  return out;
}

bool Space::same_shape_as(const Space& other) const {
  if (vars_.size() != other.vars_.size()) return false;
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i].name != other.vars_[i].name ||
        vars_[i].cardinality != other.vars_[i].cardinality)
      return false;
  }
  return true;
}

SpacePtr make_uniform_space(std::size_t n, Value cardinality, const std::string& prefix) {
  std::vector<VarSpec> vars;
  vars.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    vars.push_back({prefix + std::to_string(i), cardinality});
  return std::make_shared<Space>(std::move(vars));
}

}  // namespace cref
