// Quiescence + event-scheduler semantics (DESIGN.md §12): unanimous
// can_quiesce votes park a node, any veto blocks parking, wake /
// schedule_wake / set_status re-activate, and the executed sequence is
// the serial visit order — every active, unparked node in hash-rank order
// each round, computed independently here — including mid-round wakes and
// switch-ons, which run this round iff their rank has not passed.
// Protocol storage goes through add_protocol_pool, so these tests also
// cover the struct-of-arrays arena path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace glap::sim {
namespace {

/// Logs every execute; votes to park once it has run `threshold` times.
/// poke() models an incoming state change that invalidates convergence.
class CountingProtocol final : public Protocol {
 public:
  CountingProtocol(std::vector<NodeId>* log, int threshold)
      : log_(log), threshold_(threshold) {}

  void execute(Engine&, NodeId self, const PeerSet&) override {
    log_->push_back(self);
    ++runs_;
  }
  bool can_quiesce(const Engine&, NodeId) const override {
    return runs_ >= threshold_;
  }

  void poke() { runs_ = 0; }
  [[nodiscard]] int runs() const { return runs_; }

 private:
  std::vector<NodeId>* log_;
  int threshold_;
  int runs_ = 0;
};

/// A protocol that never votes to park (the default Protocol vote).
class VetoProtocol final : public Protocol {
 public:
  void execute(Engine&, NodeId, const PeerSet&) override {}
};

Engine::ProtocolSlot install_counters(Engine& engine, std::vector<NodeId>* log,
                                      int threshold) {
  return engine.add_protocol_pool<CountingProtocol>(
      [&](NodeId) { return CountingProtocol(log, threshold); });
}

TEST(Quiescence, UnanimousVoteParksAfterThreshold) {
  Engine engine(4, 1);
  engine.enable_quiescence();
  std::vector<NodeId> log;
  install_counters(engine, &log, 2);

  engine.step();
  EXPECT_EQ(engine.quiescent_count(), 0u);  // runs=1 < threshold
  engine.step();
  EXPECT_EQ(engine.quiescent_count(), 4u);  // unanimous vote after round 2
  EXPECT_EQ(log.size(), 8u);

  engine.step();
  engine.step();
  EXPECT_EQ(log.size(), 8u) << "parked nodes must not execute";
  EXPECT_TRUE(engine.is_quiescent(0));
}

TEST(Quiescence, AnyVetoBlocksParking) {
  Engine engine(4, 1);
  engine.enable_quiescence();
  std::vector<NodeId> log;
  install_counters(engine, &log, 1);
  std::vector<std::unique_ptr<Protocol>> vetoes;
  for (int i = 0; i < 4; ++i) vetoes.push_back(std::make_unique<VetoProtocol>());
  engine.add_protocol_slot(std::move(vetoes));

  for (int i = 0; i < 3; ++i) engine.step();
  EXPECT_EQ(engine.quiescent_count(), 0u);
  EXPECT_EQ(log.size(), 12u) << "vetoed nodes keep executing every round";
}

TEST(Quiescence, WakeReactivatesAndReparksAfterOneRound) {
  Engine engine(4, 1);
  engine.enable_quiescence();
  std::vector<NodeId> log;
  const auto slot = install_counters(engine, &log, 1);
  engine.step();
  ASSERT_EQ(engine.quiescent_count(), 4u);

  // Model an incoming gossip exchange touching node 2's state.
  engine.protocol_at<CountingProtocol>(slot, 2).poke();
  engine.wake(2, WakeReason::kGossip);
  EXPECT_FALSE(engine.is_quiescent(2));
  EXPECT_EQ(engine.quiescent_count(), 3u);

  log.clear();
  engine.step();
  EXPECT_EQ(log, std::vector<NodeId>{2}) << "only the woken node runs";
  EXPECT_EQ(engine.quiescent_count(), 4u) << "it re-parks after executing";
}

TEST(Quiescence, WakeOnNonParkedNodeIsANoOp) {
  Engine engine(3, 1);
  engine.enable_quiescence();
  std::vector<NodeId> log;
  install_counters(engine, &log, 100);  // never parks
  engine.step();
  engine.wake(1, WakeReason::kGossip);
  engine.step();
  EXPECT_EQ(log.size(), 6u);
  EXPECT_EQ(engine.quiescent_count(), 0u);
}

TEST(Quiescence, ScheduleWakeFiresAtTheRequestedRound) {
  Engine engine(2, 1);
  engine.enable_quiescence();
  std::vector<NodeId> log;
  install_counters(engine, &log, 1);
  engine.step();
  ASSERT_EQ(engine.quiescent_count(), 2u);

  const Round target = engine.current_round() + 2;
  engine.schedule_wake(0, target, WakeReason::kSchedule);
  log.clear();
  engine.step();  // current_round()     < target: still parked
  engine.step();  // current_round() + 1 < target: still parked
  EXPECT_TRUE(log.empty());
  engine.step();  // target round: node 0 runs, then re-parks
  EXPECT_EQ(log, std::vector<NodeId>{0});
  EXPECT_EQ(engine.quiescent_count(), 2u);
}

TEST(Quiescence, RecheckHeartbeatWakesParkedNodes) {
  Engine engine(3, 1);
  engine.enable_quiescence(/*recheck_rounds=*/2);
  std::vector<NodeId> log;
  install_counters(engine, &log, 1);
  engine.step();  // all run, all park, heartbeat scheduled +2
  ASSERT_EQ(engine.quiescent_count(), 3u);
  log.clear();
  engine.step();  // parked
  EXPECT_TRUE(log.empty());
  engine.step();  // heartbeat: every node re-checks (and re-parks)
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(engine.quiescent_count(), 3u);
}

TEST(Quiescence, WakeAllReactivatesEveryParkedNode) {
  Engine engine(5, 1);
  engine.enable_quiescence();
  std::vector<NodeId> log;
  install_counters(engine, &log, 1);
  engine.step();
  ASSERT_EQ(engine.quiescent_count(), 5u);
  engine.wake_all(WakeReason::kRelearn);
  EXPECT_EQ(engine.quiescent_count(), 0u);
  log.clear();
  engine.step();
  EXPECT_EQ(log.size(), 5u);
}

TEST(Quiescence, StatusTransitionUnparks) {
  Engine engine(3, 1);
  engine.enable_quiescence();
  std::vector<NodeId> log;
  install_counters(engine, &log, 1);
  engine.step();
  ASSERT_TRUE(engine.is_quiescent(1));
  engine.set_status(1, NodeStatus::kSleeping);
  EXPECT_FALSE(engine.is_quiescent(1)) << "lifecycle changes clear the park";
  // A sleeping node does not execute, parked or not.
  log.clear();
  engine.step();
  EXPECT_TRUE(log.empty());
}

/// Runs `rounds` rounds on a fresh engine, injecting a fixed wake
/// (node, after-round) pattern, and returns the executed node sequence.
std::vector<NodeId> executed_sequence(Round rounds, int threshold) {
  Engine engine(16, 99);
  engine.enable_quiescence();
  std::vector<NodeId> log;
  const auto slot = install_counters(engine, &log, threshold);
  for (Round r = 0; r < rounds; ++r) {
    engine.step();
    // Deterministic wake pattern: after every second round, poke two nodes.
    if (r % 2 == 1) {
      for (NodeId n : {static_cast<NodeId>(r % 16),
                       static_cast<NodeId>((3 * r) % 16)}) {
        engine.protocol_at<CountingProtocol>(slot, n).poke();
        engine.wake(n, WakeReason::kGossip);
      }
    }
  }
  return log;
}

TEST(EventScheduler, ExecutedSequenceIsIdenticalToSerial) {
  // Recorded on the serial reference loop (every active node visited in
  // hash-rank order each round), which the event loop replaced.
  const std::vector<NodeId> serial = {
      15, 4,  7, 8,  2,  10, 12, 14, 6, 13, 9, 1,  3,  11, 0,  5,  8, 6,
      13, 10, 4, 11, 5,  12, 14, 15, 3, 1,  2, 7,  0,  9,  15, 13, 8, 2,
      4,  9,  7, 5,  0,  3,  1,  11, 12, 10, 6, 14, 1,  3,  3,  1,  9, 3,
      9,  5,  3, 15, 9,  5,  15, 7,  15, 5,  7, 5,  7,  11, 9,  5,  11, 9};
  EXPECT_EQ(executed_sequence(12, 3), serial);
}

/// The serial visit order of `round`, computed from its definition:
/// nodes sorted by (hash_combine(hash_combine(order_seed, round), node),
/// node), where order_seed = hash_combine(seed, hash_tag("order")).
std::vector<NodeId> round_order(std::uint64_t seed, Round round,
                                std::size_t nodes) {
  const std::uint64_t round_seed =
      hash_combine(hash_combine(seed, hash_tag("order")), round);
  std::vector<std::pair<std::uint64_t, NodeId>> keyed;
  for (std::size_t n = 0; n < nodes; ++n)
    keyed.emplace_back(hash_combine(round_seed, n), static_cast<NodeId>(n));
  std::sort(keyed.begin(), keyed.end());
  std::vector<NodeId> order;
  for (const auto& [key, node] : keyed) order.push_back(node);
  return order;
}

TEST(EventScheduler, PlainRunMatchesSerialWithoutQuiescence) {
  std::vector<NodeId> log;
  Engine engine(32, 5);
  install_counters(engine, &log, 1 << 20);
  for (int i = 0; i < 5; ++i) engine.step();

  std::vector<NodeId> expected;
  for (Round r = 0; r < 5; ++r) {
    const std::vector<NodeId> order = round_order(5, r, 32);
    expected.insert(expected.end(), order.begin(), order.end());
  }
  EXPECT_EQ(log, expected);
  EXPECT_EQ(log.size(), 160u);
}

/// Logs every execute; when `trigger` runs in round 0, switches every node
/// in `targets` back to kActive.
class SwitchOnProtocol final : public Protocol {
 public:
  SwitchOnProtocol(std::vector<NodeId>* log, NodeId trigger,
                   std::vector<NodeId> targets)
      : log_(log), trigger_(trigger), targets_(std::move(targets)) {}

  void execute(Engine& engine, NodeId self, const PeerSet&) override {
    log_->push_back(self);
    if (self != trigger_ || engine.current_round() != 0) return;
    for (NodeId t : targets_) engine.set_status(t, NodeStatus::kActive);
  }

 private:
  std::vector<NodeId>* log_;
  NodeId trigger_;
  std::vector<NodeId> targets_;
};

TEST(EventScheduler, NodeSwitchedOnMidRoundRunsIffItsRankIsAhead) {
  // Two sleeping nodes are switched back on by the node at rank 8 of
  // round 0: the one ranked after it still runs this round, the one
  // ranked before it first runs in round 1 — the serial visit rule.
  constexpr std::size_t kNodes = 16;
  const std::vector<NodeId> order0 = round_order(3, 0, kNodes);
  const NodeId trigger = order0[8];
  const NodeId ahead = order0[12];
  const NodeId behind = order0[3];

  Engine engine(kNodes, 3);
  std::vector<NodeId> log;
  engine.add_protocol_pool<SwitchOnProtocol>([&](NodeId) {
    return SwitchOnProtocol(&log, trigger, {behind, ahead});
  });
  engine.set_status(ahead, NodeStatus::kSleeping);
  engine.set_status(behind, NodeStatus::kSleeping);
  engine.step();
  engine.step();

  std::vector<NodeId> expected;
  for (const NodeId n : order0)
    if (n != behind) expected.push_back(n);
  const std::vector<NodeId> order1 = round_order(3, 1, kNodes);
  expected.insert(expected.end(), order1.begin(), order1.end());
  EXPECT_EQ(log, expected);
  EXPECT_EQ(engine.active_count(), kNodes);
}

}  // namespace
}  // namespace glap::sim
