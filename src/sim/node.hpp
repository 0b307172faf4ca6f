// Node identity and lifecycle states for the cycle-driven simulator.
#pragma once

#include <cstdint>

namespace glap::sim {

using NodeId = std::uint32_t;
using Round = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Lifecycle of a simulated machine.
///  - Active:   participates in gossip, initiates rounds.
///  - Sleeping: powered down by consolidation; does not initiate or answer
///              gossip, but can be woken (e.g. by a centralized manager).
///  - Failed:   crashed; never comes back (used by failure-injection tests).
enum class NodeStatus : std::uint8_t { kActive, kSleeping, kFailed };

[[nodiscard]] constexpr const char* to_string(NodeStatus s) noexcept {
  switch (s) {
    case NodeStatus::kActive:
      return "active";
    case NodeStatus::kSleeping:
      return "sleeping";
    case NodeStatus::kFailed:
      return "failed";
  }
  return "?";
}

/// Cause attached to a quiescence/activity transition (DESIGN.md §12).
/// kConverged tags the parking transition itself; the rest tag the event
/// that re-activated a quiescent node. "activity" trace events carry the
/// code, named by trace::kWakeReasonNames (common/trace_schema.hpp).
enum class WakeReason : std::uint8_t {
  kConverged,  ///< every protocol slot voted can_quiesce — node parked
  kGossip,     ///< an incoming gossip exchange touched the node's state
  kDemand,     ///< a hosted VM's demand moved past the wake epsilon
  kMigration,  ///< a migration / placement / departure landed on the PM
  kStatus,     ///< lifecycle transition (sleep/wake/fail)
  kSchedule,   ///< round-indexed re-check fired (Engine::schedule_wake)
  kRelearn,    ///< fleet-wide re-learning trigger
  kNetwork,    ///< a delayed network delivery came due (DESIGN.md §13)
};

}  // namespace glap::sim
