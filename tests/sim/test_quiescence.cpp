// Quiescence + event-scheduler semantics (DESIGN.md §12): unanimous
// can_quiesce votes park a node, any veto blocks parking, wake /
// schedule_wake / set_status re-activate, and the event engine's executed
// sequence is exactly the serial engine's at the same configuration —
// including mid-round wakes, which insert iff the woken rank has not
// passed. Protocol storage goes through add_protocol_pool, so these tests
// also cover the struct-of-arrays arena path.
#include <gtest/gtest.h>

#include <vector>

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

/// Runs `rounds` rounds on a fresh engine with the given mode, injecting
/// the same wake (node, after-round) sequence, and returns the executed
/// node sequence.
std::vector<NodeId> executed_sequence(bool event, Round rounds,
                                      int threshold) {
  Engine engine(16, 99);
  if (event) engine.enable_event_scheduler();
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
  const std::vector<NodeId> serial = executed_sequence(false, 12, 3);
  const std::vector<NodeId> event = executed_sequence(true, 12, 3);
  EXPECT_EQ(serial, event);
  EXPECT_FALSE(serial.empty());
}

TEST(EventScheduler, PlainRunMatchesSerialWithoutQuiescence) {
  std::vector<NodeId> serial_log, event_log;
  {
    Engine engine(32, 5);
    install_counters(engine, &serial_log, 1 << 20);
    for (int i = 0; i < 5; ++i) engine.step();
  }
  {
    Engine engine(32, 5);
    engine.enable_event_scheduler();
    install_counters(engine, &event_log, 1 << 20);
    for (int i = 0; i < 5; ++i) engine.step();
  }
  EXPECT_EQ(serial_log, event_log);
  EXPECT_EQ(serial_log.size(), 160u);
}

}  // namespace
}  // namespace glap::sim
