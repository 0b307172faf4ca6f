// GTB wire format (DESIGN.md §10.6): per-kind encode/decode round-trips,
// the versioned header, the schema's name tables, and the strict
// rejection of corrupt records. render_jsonl is pinned against
// parse_trace_line so the two encodings stay interchangeable carriers of
// the same event stream.
#include "common/trace_format.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "trace_analysis/trace_reader.hpp"

namespace glap::trace {
namespace {

/// Encodes `e` as one GTB record and decodes it back.
TraceEvent gtb_round_trip(const TraceEvent& e) {
  std::string bytes;
  std::string error;
  EXPECT_TRUE(append_gtb_record(e, &bytes, &error)) << error;
  EXPECT_GE(bytes.size(), 4u + 9u);
  // Length prefix covers exactly the payload that follows.
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[i]))
           << (8 * i);
  EXPECT_EQ(len, bytes.size() - 4);
  TraceEvent out;
  EXPECT_TRUE(decode_gtb_payload(
      std::string_view(bytes).substr(4), &out, &error))
      << error;
  return out;
}

/// JSONL round-trip through the line renderer and the line parser.
TraceEvent jsonl_round_trip(const TraceEvent& e) {
  std::string line;
  render_jsonl(e, &line);
  EXPECT_FALSE(line.empty()) << "render_jsonl produced nothing";
  EXPECT_EQ(line.back(), '\n');
  TraceEvent out;
  std::string error;
  EXPECT_TRUE(parse_trace_line(
      std::string_view(line).substr(0, line.size() - 1), &out, &error))
      << line << ": " << error;
  return out;
}

TEST(GtbHeader, EightVersionedMagicBytes) {
  std::string header;
  append_gtb_header(&header);
  ASSERT_EQ(header.size(), kGtbHeaderBytes);
  EXPECT_EQ(std::memcmp(header.data(), kGtbMagic, sizeof kGtbMagic), 0);
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i)
    version |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(header[4 + i]))
               << (8 * i);
  EXPECT_EQ(version, kGtbVersion);
}

TEST(GtbRoundTrip, Migration) {
  TraceEvent e;
  e.kind = EventKind::kMigration;
  e.round = 41;
  e.migration = {7, 2, 4, 0.59375, 125.5};
  const TraceEvent r = gtb_round_trip(e);
  ASSERT_EQ(r.kind, EventKind::kMigration);
  EXPECT_EQ(r.round, 41u);
  EXPECT_EQ(r.migration.vm, 7);
  EXPECT_EQ(r.migration.from, 2);
  EXPECT_EQ(r.migration.to, 4);
  EXPECT_EQ(r.migration.cpu, 0.59375);
  EXPECT_EQ(r.migration.energy_j, 125.5);
}

TEST(GtbRoundTrip, PowerBothPolarities) {
  TraceEvent e;
  e.kind = EventKind::kPower;
  e.round = 3;
  e.power = {19, true};
  EXPECT_TRUE(gtb_round_trip(e).power.on);
  e.power.on = false;
  const TraceEvent r = gtb_round_trip(e);
  EXPECT_EQ(r.power.pm, 19);
  EXPECT_FALSE(r.power.on);
}

TEST(GtbRoundTrip, Shuffle) {
  TraceEvent e;
  e.kind = EventKind::kShuffle;
  e.round = 9;
  e.shuffle = {1, 2, 3, 4};
  const TraceEvent r = gtb_round_trip(e);
  EXPECT_EQ(r.shuffle.initiator, 1);
  EXPECT_EQ(r.shuffle.peer, 2);
  EXPECT_EQ(r.shuffle.sent, 3);
  EXPECT_EQ(r.shuffle.reply, 4);
}

TEST(GtbRoundTrip, OverloadAndFaultAndQsim) {
  TraceEvent e;
  e.kind = EventKind::kOverload;
  e.round = 12;
  e.overload = {42, 0.96875};
  EXPECT_EQ(gtb_round_trip(e).overload.cpu, 0.96875);

  e.kind = EventKind::kFault;
  e.fault = {17, 3, 2.5};
  const TraceEvent f = gtb_round_trip(e);
  EXPECT_EQ(f.fault.pm, 17);
  EXPECT_EQ(f.fault.kind, 3);
  EXPECT_EQ(f.fault.value, 2.5);

  e.kind = EventKind::kQsim;
  e.qsim.similarity = -0.125;
  EXPECT_EQ(gtb_round_trip(e).qsim.similarity, -0.125);
}

TEST(GtbRoundTrip, ActivityCarriesReasonByCode) {
  TraceEvent e;
  e.kind = EventKind::kActivity;
  e.round = 6;
  e.activity.pm = 5;
  e.activity.awake = true;
  // Every code in the table survives.
  for (std::uint8_t reason = 0; reason < std::size(kWakeReasonNames);
       ++reason) {
    e.activity.reason = reason;
    EXPECT_EQ(gtb_round_trip(e).activity.reason, reason);
  }
}

TEST(GtbRoundTrip, NetAllFourOps) {
  const TraceEvent s =
      gtb_round_trip(TraceEvent(20, NetSend{3, 8, 101, 512, 1}));
  ASSERT_EQ(s.op, NetOp::kSend);
  EXPECT_EQ(s.net_send.bytes, 512);
  EXPECT_EQ(code_name(kChannels, s.net_send.channel), "learning");

  const TraceEvent d =
      gtb_round_trip(TraceEvent(20, NetDeliver{3, 8, 101, 2}));
  ASSERT_EQ(d.op, NetOp::kDeliver);
  EXPECT_EQ(d.net_deliver.delay, 2);

  const TraceEvent x = gtb_round_trip(TraceEvent(20, NetDrop{3, 8, 102, 2}));
  ASSERT_EQ(x.op, NetOp::kDrop);
  EXPECT_EQ(code_name(kDropReasons, x.net_drop.reason), "congestion");

  const TraceEvent q = gtb_round_trip(TraceEvent(20, NetQueue{1, 3, 65536}));
  ASSERT_EQ(q.op, NetOp::kQueue);
  EXPECT_EQ(code_name(kNetLinks, q.net_queue.link), "uplink");
  EXPECT_EQ(q.net_queue.id, 3);
  EXPECT_EQ(q.net_queue.bytes, 65536);
}

TEST(GtbRoundTrip, DriverSummaryAndRelearn) {
  TraceEvent e;
  e.kind = EventKind::kRound;
  e.round = 12;
  e.summary = {100, 3, 7, 450, 9000};
  const TraceEvent s = gtb_round_trip(e);
  EXPECT_EQ(s.summary.active_pms, 100u);
  EXPECT_EQ(s.summary.bytes, 9000u);

  e.kind = EventKind::kRelearn;
  e.round = 13;
  EXPECT_EQ(gtb_round_trip(e).round, 13u);
}

TEST(GtbRoundTrip, ExtremeDoublesSurviveBitExactly) {
  // f64 travels as the raw IEEE-754 bit pattern — no text rendering.
  const double values[] = {1.0 / 3.0, 1e-300, 5e-324,
                           1.7976931348623157e308, -0.0};
  TraceEvent e;
  e.kind = EventKind::kQsim;
  for (const double v : values) {
    e.qsim.similarity = v;
    const TraceEvent r = gtb_round_trip(e);
    EXPECT_EQ(std::memcmp(&r.qsim.similarity, &v, sizeof v), 0) << v;
  }
}

/// Every schema shape, its fields filled with distinct non-zero values
/// (codes with their last name).
std::vector<TraceEvent> one_event_per_shape() {
  std::vector<TraceEvent> events;
  for (std::size_t k = 0; k < kEventKindCount; ++k)
    for (std::uint8_t op = 0; op <= static_cast<std::uint8_t>(NetOp::kNone);
         ++op) {
      TraceEvent e;
      if (!blank_event(static_cast<EventKind>(k), static_cast<NetOp>(op),
                       7 + k, &e))
        continue;
      if (!events.empty() && events.back().kind == e.kind &&
          events.back().op == e.op)
        continue;  // non-net shapes ignore the op
      int next = 1;
      visit_payload(e, [&next](auto& payload) {
        for_each_field(payload, [&next](std::string_view, auto type,
                                        auto& value) {
          if constexpr (requires { decltype(type)::table; })
            value = static_cast<std::uint8_t>(type.table.names.size() - 1);
          else
            value = static_cast<std::remove_reference_t<decltype(value)>>(
                next++);
        });
      });
      events.push_back(e);
    }
  return events;
}

TEST(RenderJsonl, AgreesWithLineParserForEveryKind) {
  const std::vector<TraceEvent> events = one_event_per_shape();
  EXPECT_EQ(events.size(), kEventKindCount - 1 + std::size(kNetOpNames));
  for (const TraceEvent& e : events) {
    std::string want, got, gtb;
    render_jsonl(e, &want);
    render_jsonl(jsonl_round_trip(e), &got);
    EXPECT_EQ(got, want);
    render_jsonl(gtb_round_trip(e), &gtb);
    EXPECT_EQ(gtb, want);
  }
}

TEST(GtbEncode, RejectsUnknownStringCodes) {
  // A code with no name, or a net event with no op, cannot be encoded.
  const TraceEvent unknown[] = {
      TraceEvent(1, NetSend{0, 1, 9, 80, 42}),
      TraceEvent(1, NetDrop{0, 1, 9, 0}),  // net::DropReason::kNone
      TraceEvent(1, Activity{1, true, 99}),
      TraceEvent(1, NetQueue{7, 0, 10}),
  };
  for (const TraceEvent& e : unknown) {
    std::string bytes;
    std::string error;
    EXPECT_FALSE(append_gtb_record(e, &bytes, &error));
    EXPECT_FALSE(error.empty());
    // A failed encode must not leave a partial record behind.
    EXPECT_TRUE(bytes.empty());
  }
  TraceEvent no_op(1, NetDeliver{0, 1, 9, 2});
  no_op.op = NetOp::kNone;
  std::string bytes;
  std::string error;
  EXPECT_FALSE(append_gtb_record(no_op, &bytes, &error));
  EXPECT_TRUE(bytes.empty());
  EXPECT_FALSE(error.empty());
}

TEST(GtbDecode, RejectsCorruptPayloads) {
  // A valid record to mutate.
  TraceEvent e;
  e.kind = EventKind::kPower;
  e.round = 3;
  e.power = {19, true};
  std::string bytes;
  ASSERT_TRUE(append_gtb_record(e, &bytes, nullptr));
  const std::string payload = bytes.substr(4);

  TraceEvent out;
  std::string error;
  // Unknown kind byte.
  std::string bad = payload;
  bad[0] = static_cast<char>(0x7f);
  EXPECT_FALSE(decode_gtb_payload(bad, &out, &error));
  EXPECT_FALSE(error.empty());

  // Every strict prefix is short, never accepted.
  for (std::size_t len = 0; len < payload.size(); ++len) {
    error.clear();
    EXPECT_FALSE(
        decode_gtb_payload(std::string_view(payload).substr(0, len), &out,
                           &error))
        << "prefix length " << len;
  }

  // Trailing bytes are corruption, not ignorable padding.
  bad = payload + '\0';
  error.clear();
  EXPECT_FALSE(decode_gtb_payload(bad, &out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(NameCodeTables, RoundTripEveryPinnedName) {
  for (const NameTable* table : {&kEventKinds, &kNetOps, &kNetLinks,
                                 &kChannels, &kDropReasons, &kWakeReasons}) {
    for (std::size_t c = 0; c < table->names.size(); ++c) {
      const std::string_view name = code_name(*table, c);
      std::uint8_t code = 0;
      if (name.empty()) {
        EXPECT_EQ(table, &kDropReasons) << "only kNone has no name";
        continue;
      }
      ASSERT_TRUE(code_of(*table, name, &code)) << name;
      EXPECT_EQ(code, c) << name;
    }
    std::uint8_t code = 0;
    EXPECT_FALSE(code_of(*table, "", &code)) << table->what;
    EXPECT_FALSE(code_of(*table, "?", &code)) << table->what;
    EXPECT_EQ(code_name(*table, table->names.size()), "") << table->what;
  }
}

}  // namespace
}  // namespace glap::trace
