// The round-level trace schema, declared once (DESIGN.md §10.2, §10.6).
//
// GLAP_TRACE_SHAPES below lists every line shape a trace can carry: its
// EventKind (the "ev" name and GTB kind code), the net op for "net"
// lines, and its fields in wire order, each a (type, name) pair whose
// name is both the C++ member and the JSON key. Everything else is
// derived from that list: the TraceEvent record and its per-shape
// payload structs, TraceLog's buffered record, JSONL render and GTB
// encode (common/trace_format.hpp), the glap-trace read side that parses
// and decodes both encodings, and glap-lint's trace-kind list.
//
// Every field is one of five types (namespace field below): a signed or
// unsigned 64-bit integer, a double, a bool, or a one-byte code whose
// JSONL spelling comes from a name table. Each coded enum is declared
// here together with its name table, from one X-macro list, so the two
// cannot drift apart — including the three that layers above common/
// use: sim::WakeReason, net::Channel and net::DropReason are aliases of
// the enums below. An empty name marks a code with no wire meaning, and
// both readers reject it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string_view>
#include <type_traits>

namespace glap::trace {

// ---- name tables ---------------------------------------------------------

/// Wire code -> name. Codes index `names`; an empty entry is not a code.
struct NameTable {
  std::string_view what;  ///< noun for diagnostics ("net channel")
  std::span<const std::string_view> names;
};

/// The name of `code`, or "" when the table has none.
[[nodiscard]] constexpr std::string_view code_name(
    const NameTable& table, std::uint64_t code) noexcept {
  return code < table.names.size() ? table.names[code] : std::string_view();
}

/// Reverse lookup; false for an unknown or empty name.
[[nodiscard]] constexpr bool code_of(const NameTable& table,
                                     std::string_view name,
                                     std::uint8_t* out) noexcept {
  if (name.empty()) return false;
  for (std::size_t code = 0; code < table.names.size(); ++code)
    if (table.names[code] == name) {
      *out = static_cast<std::uint8_t>(code);
      return true;
    }
  return false;
}

// An X(enumerator, "name") list declares an enum and its name table at once.
#define GLAP_TRACE_ENUMERATOR(id, name) id,
#define GLAP_TRACE_NAME(id, name) name,

/// Line kinds in GTB kind-code order.
#define GLAP_TRACE_EVENT_KINDS(X)                                          \
  X(kMigration, "migration") X(kPower, "power") X(kShuffle, "shuffle")     \
  X(kOverload, "overload") X(kFault, "fault") X(kActivity, "activity")     \
  X(kNet, "net") X(kRound, "round") X(kQsim, "qsim") X(kRelearn, "relearn")

enum class EventKind : std::uint8_t {
  GLAP_TRACE_EVENT_KINDS(GLAP_TRACE_ENUMERATOR)
};
inline constexpr std::string_view kEventKindNames[] = {
    GLAP_TRACE_EVENT_KINDS(GLAP_TRACE_NAME)};
inline constexpr NameTable kEventKinds{"event kind", kEventKindNames};
inline constexpr std::size_t kEventKindCount = std::size(kEventKindNames);

/// The "op" of a "net" line. kNone (not a wire code) tags every other kind.
#define GLAP_TRACE_NET_OPS(X) \
  X(kSend, "send") X(kDeliver, "deliver") X(kDrop, "drop") X(kQueue, "queue")

enum class NetOp : std::uint8_t {
  GLAP_TRACE_NET_OPS(GLAP_TRACE_ENUMERATOR) kNone
};
inline constexpr std::string_view kNetOpNames[] = {
    GLAP_TRACE_NET_OPS(GLAP_TRACE_NAME)};
inline constexpr NameTable kNetOps{"net op", kNetOpNames};

/// The link a "queue" line reports: a PM's access link or a rack uplink.
#define GLAP_TRACE_NET_LINKS(X) X(kAccess, "access") X(kUplink, "uplink")

enum class NetLink : std::uint8_t {
  GLAP_TRACE_NET_LINKS(GLAP_TRACE_ENUMERATOR)
};
inline constexpr std::string_view kNetLinkNames[] = {
    GLAP_TRACE_NET_LINKS(GLAP_TRACE_NAME)};
inline constexpr NameTable kNetLinks{"net link", kNetLinkNames};

/// Traffic class of a "net" send (net::Channel):
///   kShuffle        overlay membership (Cyclon/Newscast)
///   kLearning       GLAP workload-profile fetch
///   kAggregation    GLAP Q-table push-pull
///   kConsolidation  GLAP/GRMP state exchange
///   kProbe          EcoCloud placement probes
///   kMigration      live-migration payload (pre-copy stream)
#define GLAP_TRACE_CHANNELS(X)                                            \
  X(kShuffle, "shuffle") X(kLearning, "learning")                         \
  X(kAggregation, "aggregation") X(kConsolidation, "consolidation")       \
  X(kProbe, "probe") X(kMigration, "migration")

enum class Channel : std::uint8_t {
  GLAP_TRACE_CHANNELS(GLAP_TRACE_ENUMERATOR)
};
inline constexpr std::string_view kChannelNames[] = {
    GLAP_TRACE_CHANNELS(GLAP_TRACE_NAME)};
inline constexpr NameTable kChannels{"net channel", kChannelNames};

/// Why a message was dropped (net::DropReason); kNone never reaches the
/// wire.
#define GLAP_TRACE_DROP_REASONS(X) \
  X(kNone, "") X(kLoss, "loss") X(kCongestion, "congestion")

enum class DropReason : std::uint8_t {
  GLAP_TRACE_DROP_REASONS(GLAP_TRACE_ENUMERATOR)
};
inline constexpr std::string_view kDropReasonNames[] = {
    GLAP_TRACE_DROP_REASONS(GLAP_TRACE_NAME)};
inline constexpr NameTable kDropReasons{"net drop reason", kDropReasonNames};

/// Cause of a quiescence transition (sim::WakeReason, DESIGN.md §12).
/// kConverged tags the park itself; the rest tag what re-activated a
/// parked node:
///   kConverged  every protocol slot voted can_quiesce
///   kGossip     an incoming gossip exchange touched the node's state
///   kDemand     a hosted VM's demand moved past the wake epsilon
///   kMigration  a migration / placement / departure landed on the PM
///   kStatus     lifecycle transition (sleep/wake/fail)
///   kSchedule   round-indexed re-check fired (Engine::schedule_wake)
///   kRelearn    fleet-wide re-learning trigger
///   kNetwork    a delayed network delivery came due (DESIGN.md §13)
#define GLAP_TRACE_WAKE_REASONS(X)                                        \
  X(kConverged, "converged") X(kGossip, "gossip") X(kDemand, "demand")    \
  X(kMigration, "migration") X(kStatus, "status")                         \
  X(kSchedule, "schedule") X(kRelearn, "relearn") X(kNetwork, "network")

enum class WakeReason : std::uint8_t {
  GLAP_TRACE_WAKE_REASONS(GLAP_TRACE_ENUMERATOR)
};
inline constexpr std::string_view kWakeReasonNames[] = {
    GLAP_TRACE_WAKE_REASONS(GLAP_TRACE_NAME)};
inline constexpr NameTable kWakeReasons{"activity reason", kWakeReasonNames};

#undef GLAP_TRACE_ENUMERATOR
#undef GLAP_TRACE_NAME

// ---- field types ---------------------------------------------------------
// Each fixes a field's storage, its JSONL spelling and its GTB width.

namespace field {
struct I64 { using type = std::int64_t; };   ///< decimal; 8 bytes LE
struct U64 { using type = std::uint64_t; };  ///< decimal; 8 bytes LE
struct F64 { using type = double; };  ///< json_double; IEEE-754 bits, 8 LE
struct Flag { using type = bool; };   ///< true/false; 1 byte
/// A name-table code: "name" in JSONL; 1 byte in GTB.
template <const NameTable& Table>
struct Code {
  using type = std::uint8_t;
  static constexpr const NameTable& table = Table;
};
using Channel = Code<kChannels>;
using DropReason = Code<kDropReasons>;
using Link = Code<kNetLinks>;
using WakeReason = Code<kWakeReasons>;
}  // namespace field

// ---- the schema ----------------------------------------------------------
// X(Payload, member, Kind, Op, FIELDS): one line shape. FIELDS lists its
// fields in wire order as F(type, name). JSONL writes "ev", "round",
// "op" (net only), then the fields; GTB writes u8 kind, u64 round, u8 op
// (net only), then the fields.

#define GLAP_TRACE_SHAPES(X, F)                                              \
  X(Migration, migration, kMigration, kNone,                                 \
    F(I64, vm) F(I64, from) F(I64, to) F(F64, cpu) F(F64, energy_j))         \
  X(Power, power, kPower, kNone, F(I64, pm) F(Flag, on))                     \
  X(Shuffle, shuffle, kShuffle, kNone,                                       \
    F(I64, initiator) F(I64, peer) F(I64, sent) F(I64, reply))               \
  X(Overload, overload, kOverload, kNone, F(I64, pm) F(F64, cpu))            \
  X(Fault, fault, kFault, kNone, F(I64, pm) F(I64, kind) F(F64, value))      \
  X(Activity, activity, kActivity, kNone,                                    \
    F(I64, pm) F(Flag, awake) F(WakeReason, reason))                         \
  X(NetSend, net_send, kNet, kSend,                                          \
    F(I64, src) F(I64, dst) F(I64, msg) F(I64, bytes) F(Channel, channel))   \
  X(NetDeliver, net_deliver, kNet, kDeliver,                                 \
    F(I64, src) F(I64, dst) F(I64, msg) F(I64, delay))                       \
  X(NetDrop, net_drop, kNet, kDrop,                                          \
    F(I64, src) F(I64, dst) F(I64, msg) F(DropReason, reason))               \
  X(NetQueue, net_queue, kNet, kQueue,                                       \
    F(Link, link) F(I64, id) F(I64, bytes))                                  \
  X(RoundSummary, summary, kRound, kNone,                                    \
    F(U64, active_pms) F(U64, overloaded_pms) F(U64, migrations)             \
        F(U64, messages) F(U64, bytes))                                      \
  X(Qsim, qsim, kQsim, kNone, F(F64, similarity))                            \
  X(Relearn, relearn, kRelearn, kNone, )

// ---- derived: payload structs and TraceEvent -----------------------------

#define GLAP_TRACE_NO_FIELD(T, name)
#define GLAP_TRACE_MEMBER(T, name) field::T::type name;
#define GLAP_TRACE_PAYLOAD(P, member, K, O, FIELDS) \
  struct P {                                        \
    FIELDS                                          \
  };
GLAP_TRACE_SHAPES(GLAP_TRACE_PAYLOAD, GLAP_TRACE_MEMBER)
#undef GLAP_TRACE_PAYLOAD
#undef GLAP_TRACE_MEMBER

/// One trace line. `kind`, `op` and `round` pick the shape; the payload
/// member named in GLAP_TRACE_SHAPES for that shape carries its fields.
/// Trivially copyable with no heap members: TraceLog buffers it as is.
struct TraceEvent {
  EventKind kind = EventKind::kRound;
  NetOp op = NetOp::kNone;
  std::uint64_t round = 0;
#define GLAP_TRACE_UNION_MEMBER(P, member, K, O, FIELDS) P member;
  union {
    GLAP_TRACE_SHAPES(GLAP_TRACE_UNION_MEMBER, GLAP_TRACE_NO_FIELD)
  };
#undef GLAP_TRACE_UNION_MEMBER

  /// A zeroed round summary at round 0.
  constexpr TraceEvent() noexcept : summary{} {}

#define GLAP_TRACE_CONSTRUCTOR(P, member, K, O, FIELDS)     \
  constexpr TraceEvent(std::uint64_t at, const P& p) noexcept \
      : kind(EventKind::K), op(NetOp::O), round(at), member(p) {}
  GLAP_TRACE_SHAPES(GLAP_TRACE_CONSTRUCTOR, GLAP_TRACE_NO_FIELD)
#undef GLAP_TRACE_CONSTRUCTOR
};

static_assert(std::is_trivially_copyable_v<TraceEvent>);
static_assert(sizeof(TraceEvent) <= 56,
              "TraceLog buffers TraceEvent; keep it within seven words");

/// Whether (kind, op) selects the shape of (shape_kind, shape_op); the
/// op only matters for net shapes.
[[nodiscard]] constexpr bool is_shape(EventKind kind, NetOp op,
                                      EventKind shape_kind,
                                      NetOp shape_op) noexcept {
  return kind == shape_kind && (shape_op == NetOp::kNone || op == shape_op);
}

/// Calls fn(payload) with the payload `e`'s kind and op select; false
/// when no shape matches (a net event whose op is kNone or out of range).
template <class Event, class Fn>
constexpr bool visit_payload(Event& e, Fn&& fn) {
#define GLAP_TRACE_DISPATCH(P, member, K, O, FIELDS)            \
  if (is_shape(e.kind, e.op, EventKind::K, NetOp::O)) {         \
    fn(e.member);                                               \
    return true;                                                \
  }
  GLAP_TRACE_SHAPES(GLAP_TRACE_DISPATCH, GLAP_TRACE_NO_FIELD)
#undef GLAP_TRACE_DISPATCH
  return false;
}

/// Sets *out to the zeroed shape for (kind, op) at `round`; false when
/// no shape matches.
[[nodiscard]] constexpr bool blank_event(EventKind kind, NetOp op,
                                         std::uint64_t round,
                                         TraceEvent* out) noexcept {
#define GLAP_TRACE_BLANK(P, member, K, O, FIELDS)  \
  if (is_shape(kind, op, EventKind::K, NetOp::O)) { \
    *out = TraceEvent(round, P{});                  \
    return true;                                    \
  }
  GLAP_TRACE_SHAPES(GLAP_TRACE_BLANK, GLAP_TRACE_NO_FIELD)
#undef GLAP_TRACE_BLANK
  return false;
}

template <class>
inline constexpr bool kNotAPayload = false;

/// Calls fn(key, field::Type{}, value) for each field of `payload` in
/// wire order; `value` is a (const) reference to the member.
template <class Payload, class Fn>
constexpr void for_each_field(Payload& payload, Fn&& fn) {
  using P = std::remove_const_t<Payload>;
#define GLAP_TRACE_FIELD(T, name) \
  fn(std::string_view(#name), field::T{}, payload.name);
#define GLAP_TRACE_FIELDS_OF(P_, member, K, O, FIELDS) \
  if constexpr (std::is_same_v<P, P_>) {               \
    FIELDS                                             \
  } else
  GLAP_TRACE_SHAPES(GLAP_TRACE_FIELDS_OF, GLAP_TRACE_FIELD)
  static_assert(kNotAPayload<P>, "not a trace payload struct");
#undef GLAP_TRACE_FIELDS_OF
#undef GLAP_TRACE_FIELD
}

#undef GLAP_TRACE_NO_FIELD

/// The "ev" name of `kind`.
[[nodiscard]] constexpr std::string_view event_kind_name(
    EventKind kind) noexcept {
  return code_name(kEventKinds, static_cast<std::uint8_t>(kind));
}

}  // namespace glap::trace
