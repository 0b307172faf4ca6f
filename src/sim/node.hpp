// Node identity and lifecycle states for the cycle-driven simulator.
#pragma once

#include <cstdint>

#include "common/trace_schema.hpp"

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

/// Cause attached to a quiescence/activity transition (DESIGN.md §12).
/// "activity" trace events carry it as a code, so it is declared with its
/// names in common/trace_schema.hpp.
using WakeReason = trace::WakeReason;

}  // namespace glap::sim
