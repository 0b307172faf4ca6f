// Flight recorder (DESIGN.md §10.7): the bounded per-round ring, the
// GTB validity of its dumps, the metrics sidecar, and the CrashDumpScope
// activation of the assertion hook.
#include "common/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/metrics.hpp"
#include "common/trace_format.hpp"
#include "trace_analysis/trace_reader.hpp"

namespace glap::flight {
namespace {

/// One encoded relearn record for `round` — the smallest schema record.
std::string relearn_record(std::uint64_t round) {
  trace::TraceEvent e;
  e.kind = trace::EventKind::kRelearn;
  e.round = round;
  std::string bytes;
  EXPECT_TRUE(trace::append_gtb_record(e, &bytes, nullptr));
  return bytes;
}

/// Feeds rounds [first, last] into the recorder, one record per round.
void record_rounds(FlightRecorder* recorder, std::uint64_t first,
                   std::uint64_t last) {
  for (std::uint64_t r = first; r <= last; ++r) {
    recorder->begin_round(r);
    const std::string bytes = relearn_record(r);
    recorder->append(bytes.data(), bytes.size());
  }
}

/// Parses a dump file back into events; fails the test on any error.
std::vector<trace::TraceEvent> read_dump(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  trace::TraceReader reader(in);
  std::vector<trace::TraceEvent> events;
  trace::TraceEvent e;
  std::string error;
  while (true) {
    const auto status = reader.next(&e, &error);
    EXPECT_NE(status, trace::TraceReader::Status::kError)
        << "record " << reader.line_number() << ": " << error;
    if (status != trace::TraceReader::Status::kEvent) break;
    events.push_back(e);
  }
  EXPECT_TRUE(reader.binary()) << "dump is not a GTB file";
  return events;
}

TEST(FlightRecorder, RingKeepsOnlyTheNewestRounds) {
  FlightRecorder recorder(3);
  EXPECT_EQ(recorder.max_rounds(), 3u);
  EXPECT_EQ(recorder.rounds_retained(), 0u);

  record_rounds(&recorder, 1, 2);
  EXPECT_EQ(recorder.rounds_retained(), 2u);
  EXPECT_EQ(recorder.oldest_round(), 1u);

  record_rounds(&recorder, 3, 10);
  EXPECT_EQ(recorder.rounds_retained(), 3u);
  EXPECT_EQ(recorder.oldest_round(), 8u);
}

TEST(FlightRecorder, DumpIsAValidGtbTraceOfTheRetainedWindow) {
  FlightRecorder recorder(4);
  record_rounds(&recorder, 0, 9);

  const std::string path = ::testing::TempDir() + "glap_flight_ring.gtb";
  ASSERT_TRUE(recorder.dump(path));
  const std::vector<trace::TraceEvent> events = read_dump(path);
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].kind, trace::EventKind::kRelearn);
    EXPECT_EQ(events[i].round, 6u + i) << "dump is not oldest-first";
  }
  std::remove(path.c_str());
}

TEST(FlightRecorder, EmptyRecorderDumpsAHeaderOnlyTrace) {
  FlightRecorder recorder(2);
  const std::string path = ::testing::TempDir() + "glap_flight_empty.gtb";
  ASSERT_TRUE(recorder.dump(path));
  EXPECT_TRUE(read_dump(path).empty());
  std::remove(path.c_str());
}

TEST(FlightRecorder, DumpToFdMatchesDump) {
  FlightRecorder recorder(2);
  record_rounds(&recorder, 5, 9);

  const std::string path = ::testing::TempDir() + "glap_flight_file.gtb";
  const std::string fd_path = ::testing::TempDir() + "glap_flight_fd.gtb";
  ASSERT_TRUE(recorder.dump(path));
  std::FILE* f = std::fopen(fd_path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  recorder.dump_to_fd(fileno(f));
  std::fclose(f);

  std::ifstream a(path, std::ios::binary), b(fd_path, std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  std::remove(path.c_str());
  std::remove(fd_path.c_str());
}

TEST(FlightRecorder, AttachedRegistrySnapshotJoinsTheDump) {
  FlightRecorder recorder(2);
  record_rounds(&recorder, 1, 1);
  metrics::MetricsRegistry registry;
  registry.counter("dc.migrations")->inc(7);
  recorder.set_registry(&registry);

  const std::string path = ::testing::TempDir() + "glap_flight_reg.gtb";
  ASSERT_TRUE(recorder.dump(path));
  std::ifstream side(path + ".metrics.json");
  ASSERT_TRUE(side.is_open());
  std::stringstream json;
  json << side.rdbuf();
  EXPECT_NE(json.str().find("\"dc.migrations\""), std::string::npos);
  std::remove(path.c_str());
  std::remove((path + ".metrics.json").c_str());
}

TEST(CrashDumpScope, FailedContractCheckLeavesAPostMortem) {
  FlightRecorder recorder(2);
  record_rounds(&recorder, 3, 4);
  const std::string path = ::testing::TempDir() + "glap_flight_crash.gtb";

  {
    const CrashDumpScope scope(&recorder, path);
    ASSERT_TRUE(scope.active());
    EXPECT_THROW(GLAP_ASSERT(false, "synthetic failure"), invariant_error);
  }

  const std::vector<trace::TraceEvent> events = read_dump(path);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].round, 3u);

  std::ifstream what(path + ".what.txt");
  ASSERT_TRUE(what.is_open()) << "failure text sidecar missing";
  std::string text;
  std::getline(what, text);
  EXPECT_NE(text.find("synthetic failure"), std::string::npos) << text;
  std::remove(path.c_str());
  std::remove((path + ".what.txt").c_str());
}

TEST(CrashDumpScope, SecondConcurrentScopeIsANoOp) {
  FlightRecorder outer_recorder(2);
  FlightRecorder inner_recorder(2);
  record_rounds(&outer_recorder, 1, 1);
  const std::string outer = ::testing::TempDir() + "glap_flight_outer.gtb";
  const std::string inner = ::testing::TempDir() + "glap_flight_inner.gtb";
  std::remove(inner.c_str());

  {
    const CrashDumpScope first(&outer_recorder, outer);
    const CrashDumpScope second(&inner_recorder, inner);
    EXPECT_TRUE(first.active());
    EXPECT_FALSE(second.active());
    EXPECT_THROW(GLAP_ASSERT(false, "inner must not win"), invariant_error);
  }

  // The dump landed at the first scope's path; the second left nothing.
  EXPECT_EQ(read_dump(outer).size(), 1u);
  std::ifstream none(inner, std::ios::binary);
  EXPECT_FALSE(none.is_open());
  std::remove(outer.c_str());
  std::remove((outer + ".what.txt").c_str());
}

TEST(CrashDumpScope, HookIsDisarmedOnExit) {
  FlightRecorder recorder(2);
  record_rounds(&recorder, 1, 1);
  const std::string path = ::testing::TempDir() + "glap_flight_gone.gtb";
  { const CrashDumpScope scope(&recorder, path); }
  std::remove(path.c_str());

  EXPECT_THROW(GLAP_ASSERT(false, "after scope"), invariant_error);
  std::ifstream in(path, std::ios::binary);
  EXPECT_FALSE(in.is_open()) << "disarmed scope still dumped";
}

}  // namespace
}  // namespace glap::flight
