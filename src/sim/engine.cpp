#include "sim/engine.hpp"

#include <algorithm>
#include <functional>

#include "common/profiler.hpp"
#include "common/tracing.hpp"

namespace glap::sim {

namespace {

/// in_list_round_ stamp that never equals a real round number.
constexpr Round kNeverInList = static_cast<Round>(-1);

}  // namespace

Engine::Engine(std::size_t node_count, std::uint64_t seed)
    : status_(node_count, NodeStatus::kActive),
      active_count_(node_count),
      rank_keys_(node_count),
      rng_(hash_combine(seed, hash_tag("engine"))),
      order_seed_(hash_combine(seed, hash_tag("order"))),
      quiescent_(node_count, 0),
      in_list_round_(node_count, kNeverInList) {
  GLAP_REQUIRE(node_count > 0, "engine needs at least one node");
  GLAP_REQUIRE(node_count < static_cast<std::size_t>(kInvalidNode),
               "too many nodes");
  run_list_.reserve(node_count);
}

Engine::ProtocolSlot Engine::add_protocol_slot(
    std::vector<std::unique_ptr<Protocol>> instances) {
  GLAP_REQUIRE(instances.size() == status_.size(),
               "need exactly one protocol instance per node");
  for (const auto& p : instances)
    GLAP_REQUIRE(p != nullptr, "null protocol instance");
  Slot slot;
  slot.instances.reserve(instances.size());
  for (const auto& p : instances) slot.instances.push_back(p.get());
  slot.storage = std::make_shared<std::vector<std::unique_ptr<Protocol>>>(
      std::move(instances));
  return push_slot(std::move(slot));
}

Engine::ProtocolSlot Engine::push_slot(Slot slot) {
  GLAP_REQUIRE(slot.instances.size() == status_.size(),
               "need exactly one protocol instance per node");
  slots_.push_back(std::move(slot));
  views_.emplace_back();
  return slots_.size() - 1;
}

void Engine::append_view(ProtocolSlot slot, TypeTag tag,
                         std::vector<void*> ptrs) {
  views_[slot].push_back({tag, std::move(ptrs)});
}

const Engine::TypedView* Engine::find_view(ProtocolSlot slot,
                                           TypeTag tag) const {
  for (const TypedView& view : views_[slot])
    if (view.tag == tag) return &view;
  return nullptr;
}

void Engine::add_observer(Observer* observer) {
  GLAP_REQUIRE(observer != nullptr, "null observer");
  observers_.push_back(observer);
}

void Engine::enable_quiescence(Round recheck_rounds) {
  quiescence_ = true;
  recheck_rounds_ = recheck_rounds;
}

void Engine::set_status(NodeId node, NodeStatus status) {
  GLAP_REQUIRE(node < status_.size(), "node id out of range");
  const NodeStatus old = status_[node];
  if (old == status) return;
  GLAP_REQUIRE(old != NodeStatus::kFailed, "failed nodes cannot transition");
  // A parked node leaving the active state is un-parked first, so the
  // quiescent set only ever contains active nodes and the activity trace
  // alternates cleanly per node.
  if (status != NodeStatus::kActive) clear_quiescent(node, WakeReason::kStatus);
  status_[node] = status;
  if (old == NodeStatus::kActive) --active_count_;
  if (status == NodeStatus::kActive) {
    ++active_count_;
    // A node switched back on mid-round joins the remaining schedule iff
    // its rank has not passed.
    if (in_round_) insert_runnable(node);
  }
  for (auto& slot : slots_)
    slot.instances[node]->on_status_change(*this, node, status);
}

void Engine::trace_activity(NodeId node, bool awake, WakeReason reason) {
  if (!quiescence_ || trace_ == nullptr) return;
  trace_->activity(node, awake, static_cast<std::uint8_t>(reason));
}

bool Engine::clear_quiescent(NodeId node, WakeReason reason) {
  if (quiescent_[node] == 0) return false;
  quiescent_[node] = 0;
  --quiescent_count_;
  trace_activity(node, /*awake=*/true, reason);
  return true;
}

void Engine::wake(NodeId node, WakeReason reason) {
  GLAP_REQUIRE(node < status_.size(), "node id out of range");
  if (!clear_quiescent(node, reason)) return;
  if (in_round_) insert_runnable(node);
}

void Engine::wake_all(WakeReason reason) {
  if (quiescent_count_ == 0) return;
  for (std::size_t node = 0; node < status_.size(); ++node)
    wake(static_cast<NodeId>(node), reason);
}

void Engine::schedule_wake(NodeId node, Round round, WakeReason reason) {
  GLAP_REQUIRE(node < status_.size(), "node id out of range");
  wake_queue_.emplace_back(round, std::make_pair(node, reason));
  std::push_heap(wake_queue_.begin(), wake_queue_.end(),
                 std::greater<>());
}

void Engine::drain_wake_queue() {
  while (!wake_queue_.empty() && wake_queue_.front().first <= round_) {
    std::pop_heap(wake_queue_.begin(), wake_queue_.end(), std::greater<>());
    const auto [node, reason] = wake_queue_.back().second;
    wake_queue_.pop_back();
    wake(node, reason);
  }
}

bool Engine::poll_quiesce(NodeId node) {
  if (!quiescence_ || quiescent_[node] != 0) return false;
  if (status_[node] != NodeStatus::kActive) return false;
  for (const Slot& slot : slots_)
    if (!slot.instances[node]->can_quiesce(*this, node)) return false;
  quiescent_[node] = 1;
  ++quiescent_count_;
  trace_activity(node, /*awake=*/false, WakeReason::kConverged);
  if (recheck_rounds_ > 0)
    schedule_wake(node, round_ + recheck_rounds_, WakeReason::kSchedule);
  return true;
}

void Engine::execute_node(NodeId node) {
  static const PeerSet kNoPeers;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    // A protocol earlier in the stack may have put this node to sleep
    // (e.g. consolidation switched the PM off mid-round).
    if (status_[node] != NodeStatus::kActive) break;
    prof::PhaseScope timer(profiler_, prof::PhaseProfiler::kFirstSlot + s);
    slots_[s].instances[node]->execute(*this, node, kNoPeers);
  }
}

void Engine::run_round() {
  // Runnable subset only: key, sort and visit the nodes that can actually
  // run. Parked and non-active nodes pay nothing this round.
  run_list_.clear();
  for (std::size_t node = 0; node < status_.size(); ++node) {
    if (status_[node] != NodeStatus::kActive || quiescent_[node] != 0)
      continue;
    run_list_.push_back(static_cast<NodeId>(node));
    rank_keys_[node] = hash_combine(round_seed_cur_, node);
    in_list_round_[node] = round_;
  }
  std::sort(run_list_.begin(), run_list_.end(), [this](NodeId a, NodeId b) {
    return rank_keys_[a] != rank_keys_[b] ? rank_keys_[a] < rank_keys_[b]
                                            : a < b;
  });
  in_round_ = true;
  for (run_cursor_ = 0; run_cursor_ < run_list_.size(); ++run_cursor_) {
    const NodeId node = run_list_[run_cursor_];
    // Status may have flipped since scheduling (a peer put the node to
    // sleep mid-round).
    if (status_[node] != NodeStatus::kActive) continue;
    if (quiescent_[node] != 0) continue;
    execute_node(node);
    if (quiescence_) poll_quiesce(node);
  }
  in_round_ = false;
}

void Engine::insert_runnable(NodeId node) {
  // Already scheduled this round (visited or still ahead of the cursor):
  // a node runs at most once per round.
  if (in_list_round_[node] == round_) return;
  const std::uint64_t key = hash_combine(round_seed_cur_, node);
  rank_keys_[node] = key;
  const NodeId current = run_list_[run_cursor_];
  // Rank already passed (or ties the executing node): runs next round.
  if (key < rank_keys_[current] ||
      (key == rank_keys_[current] && node <= current))
    return;
  const auto pos = std::lower_bound(
      run_list_.begin() + static_cast<std::ptrdiff_t>(run_cursor_) + 1,
      run_list_.end(), node, [this](NodeId a, NodeId b) {
        return rank_keys_[a] != rank_keys_[b]
                   ? rank_keys_[a] < rank_keys_[b]
                   : a < b;
      });
  run_list_.insert(pos, node);
  in_list_round_[node] = round_;
}

void Engine::step() {
  round_seed_cur_ = hash_combine(order_seed_, round_);
  drain_wake_queue();
  run_round();
  ++round_;
  for (Observer* obs : observers_) {
    if (!obs->on_round_end(*this, round_)) stop_requested_ = true;
  }
}

Round Engine::run(Round rounds) {
  stop_requested_ = false;
  Round executed = 0;
  while (executed < rounds && !stop_requested_) {
    step();
    ++executed;
  }
  return executed;
}

}  // namespace glap::sim
