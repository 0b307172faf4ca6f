// The schema-exhaustive golden pair (golden/trace_schema.{jsonl,gtb}):
// one line per line shape of common/trace_schema.hpp, using every name of
// every name table — the kinds, channels, links, drop and wake reasons the
// run goldens never show. TraceLog writes both files through its typed
// entry points; each file parses or decodes back and re-encodes into both
// files byte for byte, which is what `glap-trace convert` does (CI stage 3
// runs the binary over the pair as well).
//
// The pair is the wire-format reference, so it has no regeneration
// path: a diff here is a wire format change.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/trace_format.hpp"
#include "common/tracing.hpp"
#include "trace_analysis/trace_reader.hpp"

namespace glap::trace {
namespace {

std::string golden(const char* ext) {
  const std::string path =
      std::string(GLAP_TESTS_DIR) + "/integration/golden/trace_schema." + ext;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void write_all(TraceLog& log) {
  log.begin_round(3);
  log.migration(7, 2, 4, 0.5, 125.25);
  log.power(9, true);
  log.power(11, false);
  log.shuffle(3, 5, 8, 7);
  log.fault(17, -1, -2.5);
  for (std::uint8_t reason = 0; reason < 8; ++reason)
    log.activity(20 + reason, reason != 0, reason);
  for (std::uint8_t channel = 0; channel < 6; ++channel)
    log.net_send(5, 37, 100 + channel, 256 * (channel + 1), channel);
  log.net_deliver(5, 37, 100, 2);
  log.net_drop(5, 37, 101, 1);
  log.net_drop(37, 5, 102, 2);
  log.migration(8, 4, 2, 1e-300, 6.02e+23);
  log.commit_round();
  log.round_summary(3, 12, 1, 2, 9, 18446744073709551615ull);
  log.qsim(3, 0.9999999999999999);
  log.overload(3, 42, 1.0625);
  log.relearn(3);
  log.net_queue(3, NetLink::kAccess, 3, 4096);
  log.net_queue(3, NetLink::kUplink, 0, 1048576);
}

std::string written(Format format) {
  std::ostringstream out;
  TraceLog log(&out, format);
  write_all(log);
  return out.str();
}

std::vector<TraceEvent> read_all(const std::string& bytes) {
  std::istringstream in(bytes);
  TraceReader reader(in);
  std::vector<TraceEvent> events;
  TraceEvent e;
  std::string error;
  TraceReader::Status status;
  while ((status = reader.next(&e, &error)) == TraceReader::Status::kEvent)
    events.push_back(e);
  EXPECT_EQ(status, TraceReader::Status::kEof) << error;
  return events;
}

/// What `glap-trace convert --to jsonl` / `--to gtb` writes for `events`.
std::string reencoded(const std::vector<TraceEvent>& events, Format format) {
  std::string out;
  if (format == Format::kGtb) append_gtb_header(&out);
  for (const TraceEvent& e : events) {
    if (format == Format::kGtb)
      EXPECT_TRUE(append_gtb_record(e, &out));
    else
      render_jsonl(e, &out);
  }
  return out;
}

TEST(SchemaGolden, TraceLogWritesBothGoldens) {
  EXPECT_EQ(written(Format::kJsonl), golden("jsonl"));
  EXPECT_EQ(written(Format::kGtb), golden("gtb"));
}

TEST(SchemaGolden, JsonlGoldenReencodesIntoBothGoldens) {
  const std::vector<TraceEvent> events = read_all(golden("jsonl"));
  EXPECT_EQ(reencoded(events, Format::kJsonl), golden("jsonl"));
  EXPECT_EQ(reencoded(events, Format::kGtb), golden("gtb"));
}

TEST(SchemaGolden, GtbGoldenReencodesIntoBothGoldens) {
  const std::vector<TraceEvent> events = read_all(golden("gtb"));
  EXPECT_EQ(reencoded(events, Format::kJsonl), golden("jsonl"));
  EXPECT_EQ(reencoded(events, Format::kGtb), golden("gtb"));
}

TEST(SchemaGolden, CoversEveryShapeAndEveryName) {
  std::set<std::pair<EventKind, NetOp>> shapes;
  std::map<const NameTable*, std::set<std::uint8_t>> codes;
  for (const TraceEvent& e : read_all(golden("gtb"))) {
    shapes.insert({e.kind, e.op});
    codes[&kEventKinds].insert(static_cast<std::uint8_t>(e.kind));
    if (e.kind == EventKind::kNet)
      codes[&kNetOps].insert(static_cast<std::uint8_t>(e.op));
    visit_payload(e, [&codes](const auto& payload) {
      for_each_field(payload, [&codes](std::string_view, auto type,
                                       const auto& value) {
        if constexpr (requires { decltype(type)::table; })
          codes[&decltype(type)::table].insert(value);
      });
    });
  }
  EXPECT_EQ(shapes.size(), kEventKindCount - 1 + std::size(kNetOpNames));
  for (const NameTable* table : {&kEventKinds, &kNetOps, &kNetLinks,
                                 &kChannels, &kDropReasons, &kWakeReasons})
    for (std::size_t c = 0; c < table->names.size(); ++c)
      if (!table->names[c].empty()) {
        EXPECT_EQ(codes[table].count(static_cast<std::uint8_t>(c)), 1u)
            << table->what << " '" << table->names[c] << "' missing";
      }
}

}  // namespace
}  // namespace glap::trace
