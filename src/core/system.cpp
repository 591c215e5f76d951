#include "core/system.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <unordered_set>

namespace cref {

System::System(std::string name, SpacePtr space, std::vector<Action> actions,
               std::optional<StatePredicate> initial,
               std::shared_ptr<const SuccessorKernel> kernel)
    : name_(std::move(name)),
      space_(std::move(space)),
      actions_(std::move(actions)),
      initial_(std::move(initial)),
      kernel_(std::move(kernel)) {
  if (!space_) throw std::invalid_argument("System: null space");
}

const std::vector<StateId>& System::initial_states() const {
  if (!initial_cache_) {
    std::vector<StateId> ids;
    if (initial_) {
      // Same scratch-decode discipline as successors_into: one decode
      // buffer for the whole scan of Sigma, no per-state StateVec.
      SuccessorScratch scratch;
      for (StateId id = 0; id < space_->size(); ++id) {
        space_->decode_into(id, scratch.decoded);
        if ((*initial_)(scratch.decoded)) ids.push_back(id);
      }
    }
    initial_cache_ = std::move(ids);
  }
  return *initial_cache_;
}

std::vector<StateId> System::successors(StateId s) const {
  SuccessorScratch scratch;
  successors_into(s, scratch);
  return std::move(scratch.out);
}

std::size_t System::successors_into(StateId s, SuccessorScratch& scratch) const {
  if (kernel_) return kernel_->successors_into(s, scratch);
  const std::size_t base = scratch.out.size();
  space_->decode_into(s, scratch.decoded);
  for (const auto& a : actions_) {
    if (!a.guard(scratch.decoded)) continue;
    scratch.effect = scratch.decoded;
    a.effect(scratch.effect);
    StateId t = space_->encode(scratch.effect);
    if (t != s) scratch.out.push_back(t);
  }
  // Sort + dedupe only the slice this state appended.
  auto first = scratch.out.begin() + static_cast<std::ptrdiff_t>(base);
  std::sort(first, scratch.out.end());
  scratch.out.erase(std::unique(first, scratch.out.end()), scratch.out.end());
  return scratch.out.size() - base;
}

bool System::passes_filter(StateId s, SuccessorScratch& scratch) const {
  space_->decode_into(s, scratch.decoded);
  return state_filter_(scratch.decoded);
}

std::vector<std::string> System::enabled_actions(StateId s) const {
  std::vector<std::string> out;
  StateVec v;
  space_->decode_into(s, v);
  for (const auto& a : actions_)
    if (a.guard(v)) out.push_back(a.name);
  return out;
}

System box(const System& a, const System& b) {
  if (!a.space().same_shape_as(b.space()))
    throw std::invalid_argument("box: state spaces differ (" + a.name() + " vs " + b.name() + ")");
  std::vector<Action> actions = a.actions();
  actions.insert(actions.end(), b.actions().begin(), b.actions().end());
  // The operands may be temporaries, so the composite's predicate must not
  // reference them: materialize the donor's initial set by value.
  std::optional<StatePredicate> initial;
  if (a.has_initial() || b.has_initial()) {
    const System& donor = a.has_initial() ? a : b;
    SpacePtr space = a.space_ptr();
    initial = [ids = donor.initial_states(), space](const StateVec& s) {
      return std::binary_search(ids.begin(), ids.end(), space->encode(s));
    };
  }
  return System(a.name() + " [] " + b.name(), a.space_ptr(), std::move(actions),
                std::move(initial));
}

System box_priority(const System& sys, const System& wrapper) {
  if (!sys.space().same_shape_as(wrapper.space()))
    throw std::invalid_argument("box_priority: state spaces differ (" + sys.name() + " vs " +
                                wrapper.name() + ")");
  // Copy the wrapper's actions by value so the preemption test does not
  // dangle if `wrapper` is a temporary.
  auto wrapper_actions = std::make_shared<const std::vector<Action>>(wrapper.actions());
  auto wrapper_changes_state = [wrapper_actions](const StateVec& s) {
    // One effect buffer per thread, reused across calls. A nested
    // composition's preemption test can only run inside w.guard below,
    // before this call writes the buffer, so reuse never clobbers it.
    thread_local StateVec scratch;
    for (const Action& w : *wrapper_actions) {
      if (!w.guard(s)) continue;
      scratch = s;
      w.effect(scratch);
      if (scratch != s) return true;
    }
    return false;
  };
  std::vector<Action> actions;
  for (const Action& a : sys.actions()) {
    Action guarded = a;
    guarded.guard = [inner = a.guard, wrapper_changes_state](const StateVec& s) {
      return inner(s) && !wrapper_changes_state(s);
    };
    actions.push_back(std::move(guarded));
  }
  actions.insert(actions.end(), wrapper_actions->begin(), wrapper_actions->end());
  std::optional<StatePredicate> initial;
  if (sys.has_initial() || wrapper.has_initial()) {
    const System& donor = sys.has_initial() ? sys : wrapper;
    SpacePtr space = sys.space_ptr();
    initial = [ids = donor.initial_states(), space](const StateVec& s) {
      return std::binary_search(ids.begin(), ids.end(), space->encode(s));
    };
  }
  return System(sys.name() + " <| " + wrapper.name(), sys.space_ptr(), std::move(actions),
                std::move(initial));
}

System with_reachable_initial(const System& sys, const StateVec& seed) {
  std::unordered_set<StateId> seen;
  std::deque<StateId> queue;
  StateId start = sys.space().encode(seed);
  seen.insert(start);
  queue.push_back(start);
  SuccessorScratch scratch;
  while (!queue.empty()) {
    StateId s = queue.front();
    queue.pop_front();
    scratch.out.clear();
    sys.successors_into(s, scratch);
    for (StateId t : scratch.out)
      if (seen.insert(t).second) queue.push_back(t);
  }
  std::vector<StateId> ids(seen.begin(), seen.end());
  std::sort(ids.begin(), ids.end());
  SpacePtr space = sys.space_ptr();
  StatePredicate pred = [ids = std::move(ids), space](const StateVec& s) {
    return std::binary_search(ids.begin(), ids.end(), space->encode(s));
  };
  return System(sys.name(), space, sys.actions(), std::move(pred), sys.kernel());
}

}  // namespace cref
