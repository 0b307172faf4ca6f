// trace_check: lineage reconstruction, overload-episode detection, and one
// synthetic counterexample per invariant-checker rule.
#include "trace_analysis/trace_check.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace glap::trace {
namespace {

TraceEvent migration(std::uint64_t round, std::int64_t vm, std::int64_t from,
                     std::int64_t to, double cpu = 10.0,
                     double energy_j = 5.0) {
  TraceEvent e;
  e.kind = EventKind::kMigration;
  e.round = round;
  e.migration = {vm, from, to, cpu, energy_j};
  return e;
}

TraceEvent power(std::uint64_t round, std::int64_t pm, bool on) {
  TraceEvent e;
  e.kind = EventKind::kPower;
  e.round = round;
  e.power = {pm, on};
  return e;
}

TraceEvent shuffle(std::uint64_t round, std::int64_t initiator,
                   std::int64_t peer, std::int64_t sent = 8,
                   std::int64_t reply = 8) {
  TraceEvent e;
  e.kind = EventKind::kShuffle;
  e.round = round;
  e.shuffle = {initiator, peer, sent, reply};
  return e;
}

TraceEvent overload(std::uint64_t round, std::int64_t pm, double cpu = 1.1) {
  TraceEvent e;
  e.kind = EventKind::kOverload;
  e.round = round;
  e.overload = {pm, cpu};
  return e;
}

TraceEvent summary(std::uint64_t round, std::uint64_t active,
                   std::uint64_t overloaded, std::uint64_t migrations) {
  TraceEvent e;
  e.kind = EventKind::kRound;
  e.round = round;
  e.summary = {active, overloaded, migrations, 0, 0};
  return e;
}

TraceEvent activity(std::uint64_t round, std::int64_t pm, bool awake,
                    std::string_view reason) {
  std::uint8_t code = 0;
  EXPECT_TRUE(code_of(kWakeReasons, reason, &code)) << reason;
  return TraceEvent(round, Activity{pm, awake, code});
}

TraceEvent qsim(std::uint64_t round, double similarity) {
  TraceEvent e;
  e.kind = EventKind::kQsim;
  e.round = round;
  e.qsim = {similarity};
  return e;
}

/// Feeds `events` with 1-based line numbers and returns the violations.
std::vector<Violation> check(const std::vector<TraceEvent>& events,
                             InvariantChecker::Options options = {}) {
  InvariantChecker checker(options);
  std::size_t line = 0;
  for (const TraceEvent& e : events) checker.add(e, ++line);
  checker.finish();
  return checker.violations();
}

void expect_single(const std::vector<Violation>& violations,
                   const char* rule) {
  ASSERT_EQ(violations.size(), 1u)
      << (violations.empty() ? "no violations" : violations[0].rule);
  EXPECT_EQ(violations[0].rule, rule) << violations[0].message;
  EXPECT_FALSE(violations[0].message.empty());
}

// ---- LineageBuilder -----------------------------------------------------

TEST(Lineage, ChainsAndTimelines) {
  LineageBuilder lineage;
  lineage.add(migration(1, 7, 0, 1));
  lineage.add(power(2, 0, false));
  lineage.add(migration(3, 7, 1, 2));

  const auto& chains = lineage.vm_chains();
  ASSERT_EQ(chains.size(), 1u);
  const auto& hops = chains.at(7);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0].from, 0);
  EXPECT_EQ(hops[0].to, 1);
  EXPECT_EQ(hops[1].round, 3u);
  EXPECT_EQ(hops[1].to, 2);

  const auto& timelines = lineage.pm_timelines();
  ASSERT_EQ(timelines.count(1), 1u);
  const auto& pm1 = timelines.at(1);
  ASSERT_EQ(pm1.size(), 2u);
  EXPECT_EQ(pm1[0].what, OccupancyEvent::What::kVmIn);
  EXPECT_EQ(pm1[1].what, OccupancyEvent::What::kVmOut);
  ASSERT_EQ(timelines.count(0), 1u);
  EXPECT_EQ(timelines.at(0)[1].what, OccupancyEvent::What::kPowerOff);
  EXPECT_EQ(timelines.at(0)[1].vm, -1);
}

// ---- EpisodeDetector ----------------------------------------------------

TEST(Episodes, MigrationResolvedDemandDropAndOngoing) {
  EpisodeDetector detector;
  // pm 5: overloaded rounds 2-4, shed a VM in round 5 -> resolved.
  detector.add(overload(2, 5, 1.05));
  detector.add(overload(3, 5, 1.30));
  detector.add(overload(4, 5, 1.10));
  detector.add(migration(5, 9, 5, 6));
  // pm 7: one report in round 3, no shed -> demand drop.
  detector.add(overload(3, 7, 1.02));
  // pm 8: reported in the final round -> ongoing.
  detector.add(overload(6, 8, 1.40));

  const auto episodes = detector.finish();
  ASSERT_EQ(episodes.size(), 3u);

  EXPECT_EQ(episodes[0].pm, 5);
  EXPECT_EQ(episodes[0].onset_round, 2u);
  EXPECT_EQ(episodes[0].rounds, 3u);
  EXPECT_EQ(episodes[0].peak_cpu, 1.30);
  EXPECT_TRUE(episodes[0].resolved_by_migration);
  EXPECT_EQ(episodes[0].resolving_vm, 9);
  EXPECT_EQ(episodes[0].resolving_round, 5u);
  EXPECT_FALSE(episodes[0].ongoing);

  EXPECT_EQ(episodes[1].pm, 7);
  EXPECT_FALSE(episodes[1].resolved_by_migration);
  EXPECT_FALSE(episodes[1].ongoing);

  EXPECT_EQ(episodes[2].pm, 8);
  EXPECT_TRUE(episodes[2].ongoing);
}

TEST(Episodes, SplitsNonConsecutiveReportsIntoTwoEpisodes) {
  EpisodeDetector detector;
  detector.add(overload(1, 3));
  detector.add(overload(2, 3));
  detector.add(overload(6, 3));
  const auto episodes = detector.finish();
  ASSERT_EQ(episodes.size(), 2u);
  EXPECT_EQ(episodes[0].rounds, 2u);
  EXPECT_EQ(episodes[1].onset_round, 6u);
}

// ---- InvariantChecker ---------------------------------------------------

TEST(Invariants, CleanTracePasses) {
  const auto violations = check({
      migration(0, 1, 0, 1),
      summary(0, 2, 1, 1),
      overload(0, 1, 1.2),
      migration(1, 1, 1, 0),
      summary(1, 2, 0, 1),
      qsim(1, 0.875),
  });
  EXPECT_TRUE(violations.empty())
      << violations[0].rule << ": " << violations[0].message;
}

TEST(Invariants, MonotoneRounds) {
  expect_single(check({power(5, 1, true), shuffle(3, 1, 2)}),
                "monotone-rounds");
}

TEST(Invariants, MigrationSelf) {
  expect_single(check({migration(0, 1, 4, 4)}), "migration-self");
}

TEST(Invariants, MigrationChain) {
  expect_single(check({migration(0, 1, 0, 1), migration(1, 1, 5, 2)}),
                "migration-chain");
}

TEST(Invariants, MigrationChainRelaxedUnderChurn) {
  InvariantChecker::Options options;
  options.churn_tolerant = true;
  EXPECT_TRUE(
      check({migration(0, 1, 0, 1), migration(1, 1, 5, 2)}, options).empty());
}

TEST(Invariants, MigrationFromOff) {
  expect_single(check({power(0, 3, false), migration(0, 1, 3, 2)}),
                "migration-from-off");
}

TEST(Invariants, MigrationIntoOff) {
  expect_single(check({power(0, 3, false), migration(0, 1, 0, 3)}),
                "migration-into-off");
}

TEST(Invariants, MigrationIntoOverloadedIsStrictOnly) {
  const std::vector<TraceEvent> events = {
      summary(0, 3, 1, 0),
      overload(0, 2, 1.3),
      migration(1, 1, 0, 2),
      summary(1, 3, 0, 1),
  };
  EXPECT_TRUE(check(events).empty());  // advisory by default
  InvariantChecker::Options options;
  options.strict_overload_target = true;
  expect_single(check(events, options), "migration-into-overloaded");
}

TEST(Invariants, StrictOverloadMarkClearsAfterShed) {
  InvariantChecker::Options options;
  options.strict_overload_target = true;
  // pm 2 sheds a VM in round 1; a later migration into it is fine.
  EXPECT_TRUE(check(
                  {
                      summary(0, 3, 1, 0),
                      overload(0, 2, 1.3),
                      migration(1, 9, 2, 0),
                      migration(1, 1, 0, 2),
                      summary(1, 3, 0, 2),
                  },
                  options)
                  .empty());
}

TEST(Invariants, PowerAlternation) {
  expect_single(check({power(0, 1, true), power(1, 1, true)}),
                "power-alternation");
}

TEST(Invariants, PowerOffOccupied) {
  expect_single(check({migration(0, 1, 0, 2), power(0, 2, false)}),
                "power-off-occupied");
}

TEST(Invariants, PowerOffOccupiedRelaxedUnderChurn) {
  InvariantChecker::Options options;
  options.churn_tolerant = true;
  EXPECT_TRUE(
      check({migration(0, 1, 0, 2), power(0, 2, false)}, options).empty());
}

TEST(Invariants, OverloadOffPm) {
  expect_single(check({power(0, 4, false), overload(0, 4)}),
                "overload-off-pm");
}

TEST(Invariants, OverloadDuplicate) {
  // The summary claims one distinct overloaded PM; the scan names it twice.
  const auto violations =
      check({summary(0, 2, 1, 0), overload(0, 4), overload(0, 4)});
  expect_single(violations, "overload-duplicate");
}

TEST(Invariants, SummaryMigrations) {
  expect_single(check({migration(0, 1, 0, 1), summary(0, 2, 0, 5)}),
                "summary-migrations");
}

TEST(Invariants, SummaryOverloadedCountMismatch) {
  expect_single(check({summary(0, 2, 2, 0), overload(0, 1)}),
                "summary-overloaded");
}

TEST(Invariants, SummaryClaimsOverloadsButNoneFollow) {
  const auto violations = check({summary(0, 2, 1, 0), summary(1, 2, 0, 0)});
  expect_single(violations, "summary-overloaded");
  EXPECT_EQ(violations[0].line, 1u);  // anchored at the claiming summary
}

TEST(Invariants, SummaryGap) {
  expect_single(check({summary(0, 2, 0, 0), summary(2, 2, 0, 0)}),
                "summary-gap");
}

TEST(Invariants, SummaryActiveDelta) {
  // One PM wakes between the summaries, but active_pms does not move.
  expect_single(check({summary(0, 5, 0, 0), power(1, 9, true),
                       summary(1, 5, 0, 0)}),
                "summary-active-delta");
}

TEST(Invariants, SummaryActiveDeltaAcceptsConsistentTransitions) {
  EXPECT_TRUE(check({summary(0, 5, 0, 0), power(1, 9, true),
                     power(1, 3, true), power(1, 4, false),
                     summary(1, 6, 0, 0)})
                  .empty());
}

TEST(Invariants, QsimRange) {
  expect_single(check({qsim(0, 1.5)}), "qsim-range");
}

TEST(Invariants, ShuffleSelf) {
  expect_single(check({shuffle(0, 3, 3)}), "shuffle-self");
}

TEST(Invariants, ShuffleNegative) {
  expect_single(check({shuffle(0, 1, 2, -1, 8)}), "shuffle-negative");
}

TEST(Invariants, ActivityParkWakeCyclePasses) {
  EXPECT_TRUE(check({activity(1, 3, false, "converged"),
                     activity(4, 3, true, "gossip"),
                     activity(5, 3, false, "converged")})
                  .empty());
}

TEST(Invariants, ActivityParkMustBeConvergedAndWakeMustNot) {
  expect_single(check({activity(1, 3, false, "gossip")}), "activity-reason");
  // Park legitimately first so only the reason (not alternation) trips.
  expect_single(check({activity(1, 3, false, "converged"),
                       activity(2, 3, true, "converged")}),
                "activity-reason");
}

TEST(Invariants, ActivityWakeWithoutPark) {
  expect_single(check({activity(2, 5, true, "demand")}),
                "activity-alternation");
}

TEST(Invariants, ActivityDoublePark) {
  expect_single(check({activity(1, 5, false, "converged"),
                       activity(2, 5, false, "converged")}),
                "activity-alternation");
}

TEST(Invariants, ActivityParkOnPoweredOffPm) {
  expect_single(check({power(0, 6, false), activity(1, 6, false, "converged")}),
                "activity-park-off-pm");
}

// ---- Network-model events (DESIGN.md §13) -------------------------------

TraceEvent net_send(std::uint64_t round, std::int64_t msg,
                    std::int64_t src = 0, std::int64_t dst = 1,
                    std::int64_t bytes = 128) {
  return TraceEvent(round, NetSend{src, dst, msg, bytes, /*shuffle*/ 0});
}

TraceEvent net_deliver(std::uint64_t round, std::int64_t msg,
                       std::int64_t delay = 0) {
  return TraceEvent(round, NetDeliver{0, 1, msg, delay});
}

TraceEvent net_drop(std::uint64_t round, std::int64_t msg) {
  return TraceEvent(round, NetDrop{0, 1, msg, /*loss*/ 1});
}

TEST(Invariants, NetSendDeliverDropLifecyclesPass) {
  EXPECT_TRUE(check({net_send(0, 1), net_deliver(0, 1, 0),  // same round
                     net_send(0, 2), net_drop(0, 2),        // lost at send
                     net_send(1, 3), net_deliver(3, 3, 2)}) // deferred
                  .empty());
}

TEST(Invariants, NetDeliverWithoutSend) {
  expect_single(check({net_deliver(2, 9)}), "net-deliver-unsent");
}

TEST(Invariants, NetDuplicateSend) {
  expect_single(check({net_send(0, 4), net_send(1, 4)}), "net-deliver-unsent");
}

TEST(Invariants, NetSecondTerminalForOneMessage) {
  expect_single(check({net_send(0, 5), net_deliver(0, 5, 0),
                       net_deliver(1, 5, 1)}),
                "net-terminal-duplicate");
}

TEST(Invariants, NetDelayArithmeticMustHold) {
  // Sent round 1 with delay 2 but delivered round 2.
  expect_single(check({net_send(1, 6), net_deliver(2, 6, 2)}),
                "net-delay-arithmetic");
  // Drops are decided at send time; a later drop round is a lie.
  expect_single(check({net_send(1, 7), net_drop(3, 7)}),
                "net-delay-arithmetic");
}

TEST(Invariants, NetQueueMustReportAPositiveBacklog) {
  // The writer skips idle links (DESIGN.md §13.6): a zero-backlog queue
  // line can only come from a corrupt or hand-edited trace.
  TraceEvent q(0, NetQueue{static_cast<std::uint8_t>(NetLink::kUplink), 2, 0});
  expect_single(check({q}), "net-queue-zero");
  q.net_queue.bytes = 1;
  EXPECT_TRUE(check({q}).empty());
}

TEST(Invariants, NetworkWakeReasonIsAccepted) {
  EXPECT_TRUE(check({activity(1, 3, false, "converged"),
                     activity(4, 3, true, "network")})
                  .empty());
}

TEST(Invariants, FaultEventsAreAcceptedUnchecked) {
  TraceEvent fault;
  fault.kind = EventKind::kFault;
  fault.round = 3;
  fault.fault = {7, 1, 0.5};
  EXPECT_TRUE(check({fault}).empty());
}

TEST(Invariants, ViolationCarriesLineAndRound) {
  const auto violations =
      check({power(2, 1, true), migration(2, 1, 4, 4)});
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].line, 2u);
  EXPECT_EQ(violations[0].round, 2u);
}

TEST(Invariants, CountsEventsChecked) {
  InvariantChecker checker;
  checker.add(power(0, 1, true), 1);
  checker.add(summary(0, 1, 0, 0), 2);
  checker.finish();
  EXPECT_EQ(checker.events_checked(), 2u);
  EXPECT_TRUE(checker.violations().empty());
}

// ---- StatsCollector -----------------------------------------------------

TEST(Stats, CountsAndSeries) {
  StatsCollector collector;
  collector.add(migration(4, 1, 0, 1, 25.0, 12.5));
  collector.add(shuffle(4, 1, 2, 8, 7));
  collector.add(summary(4, 10, 0, 1));
  collector.add(overload(5, 3, 1.25));

  const TraceStats& stats = collector.stats();
  EXPECT_EQ(stats.counts[static_cast<std::size_t>(EventKind::kMigration)],
            1u);
  EXPECT_EQ(stats.counts[static_cast<std::size_t>(EventKind::kFault)], 0u);
  EXPECT_EQ(stats.total_lines, 4u);
  EXPECT_EQ(stats.first_round, 4u);
  EXPECT_EQ(stats.last_round, 5u);
  ASSERT_EQ(stats.migration_cpu.size(), 1u);
  EXPECT_EQ(stats.migration_cpu[0], 25.0);
  ASSERT_EQ(stats.round_active_pms.size(), 1u);
  EXPECT_EQ(stats.round_active_pms[0], 10.0);
  ASSERT_EQ(stats.overload_cpu.size(), 1u);
  EXPECT_EQ(stats.overload_cpu[0], 1.25);
}

TEST(Stats, NetSeriesCollectBytesAndDelay) {
  StatsCollector collector;
  collector.add(net_send(0, 1, 0, 1, 512));
  collector.add(net_deliver(2, 1, 2));
  collector.add(net_send(2, 2, 0, 1, 64));
  collector.add(net_drop(2, 2));

  const TraceStats& stats = collector.stats();
  EXPECT_EQ(stats.counts[static_cast<std::size_t>(EventKind::kNet)], 4u);
  ASSERT_EQ(stats.net_send_bytes.size(), 2u);
  EXPECT_EQ(stats.net_send_bytes[0], 512.0);
  EXPECT_EQ(stats.net_send_bytes[1], 64.0);
  ASSERT_EQ(stats.net_deliver_delay.size(), 1u);
  EXPECT_EQ(stats.net_deliver_delay[0], 2.0);
}

}  // namespace
}  // namespace glap::trace
