// Round-level event trace. One record per event in either of two
// byte-deterministic encodings — the JSONL text format or GTB, the
// compact binary format (common/trace_format.hpp) — selected per log.
// The entry points mirror the line shapes of common/trace_schema.hpp.
// Events emitted from inside engine interactions are buffered, as typed
// TraceEvent records, in emit order and rendered at commit_round() with
// the round number current at that point; the simulation runs on one
// thread, so emit order is the execution order and the trace bytes, in
// both formats, are a pure function of (config, seed).
//
// Deterministic sampling (DESIGN.md §10.6): the high-volume interaction
// kinds (shuffle, net) can be thinned by a keep-probability decided by a
// pure hash of (seed, ids) — no RNG stream is consumed and the decision
// is independent of emit order, so sampled traces keep the engine
// bit-identity contract and a message's send/deliver/drop always travel
// together. Driver-only lines are never sampled.
//
// Driver-only events (round summaries, Q-similarity probes, re-learning
// triggers) bypass the buffer and are written directly; they must only be
// emitted between rounds, after commit_round().
//
// Every written record can additionally be teed, GTB-encoded, into a
// flight recorder ring (common/flight_recorder.hpp) for post-mortem
// dumps; the harness keeps that ring alive even with no file sink.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/trace_schema.hpp"

namespace glap::flight {
class FlightRecorder;
}

namespace glap::trace {

/// Trace encodings; readers auto-detect which one a file carries.
enum class Format : std::uint8_t {
  kJsonl,  ///< one JSON object per line (DESIGN.md §10.2)
  kGtb,    ///< length-prefixed binary records (DESIGN.md §10.6)
};

/// Deterministic per-kind sampling (keep probabilities in [0, 1]).
/// Decisions are pure hashes: shuffle keeps hash(seed', round, initiator),
/// net keeps hash(seed', msg id) — one draw per message, so a kept
/// message keeps its send, deliver/drop, all together, preserving the
/// net-* invariants on the sampled trace. seed' mixes the experiment seed
/// with a fixed tag, mirroring the network model's loss draws.
struct SamplingPolicy {
  double shuffle_keep = 1.0;
  double net_keep = 1.0;
  std::uint64_t seed = 0;
};

/// Trace sink over an (optional) externally owned stream.
class TraceLog {
 public:
  /// Writes to `out` in `format`; the stream must outlive the log. A GTB
  /// log writes the versioned file header immediately.
  explicit TraceLog(std::ostream& out, Format format = Format::kJsonl,
                    const SamplingPolicy& sampling = {});

  /// As above, but `out` may be null: a sink-less log only feeds the
  /// attached flight recorder (the always-on post-mortem ring).
  explicit TraceLog(std::ostream* out, Format format,
                    const SamplingPolicy& sampling = {});

  /// Tees every written record, GTB-encoded, into `recorder` (not owned).
  void set_flight_recorder(flight::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

  [[nodiscard]] Format format() const noexcept { return format_; }

  // ---- interaction events ----
  // Recorded from inside engine interactions and rendered in emit order
  // at commit_round(). Sampled-out events are dropped here, before they
  // consume buffer space — the keep decision is a pure hash, identical
  // for every engine.

  void migration(std::int64_t vm, std::int64_t from, std::int64_t to,
                 double cpu, double energy_j) {
    buffer(Migration{vm, from, to, cpu, energy_j});
  }

  void power(std::int64_t pm, bool on) { buffer(Power{pm, on}); }

  void shuffle(std::int64_t initiator, std::int64_t peer, std::int64_t sent,
               std::int64_t reply) {
    if (!shuffle_keep_all_ &&
        !sample_keep(
            hash_combine(round_, static_cast<std::uint64_t>(initiator)),
            sampling_.shuffle_keep))
      return;
    buffer(Shuffle{initiator, peer, sent, reply});
  }

  /// Reserved for PM-fault injection (crash-stop, message loss,
  /// partition): no current emit site, but the wire format is fixed now
  /// so fault traces parse with today's readers.
  void fault(std::int64_t pm, std::int64_t kind, double value) {
    buffer(Fault{pm, kind, value});
  }

  /// Quiescence transition under the event/quiescence engine (DESIGN.md
  /// §12); `reason` is the sim::WakeReason code.
  void activity(std::int64_t pm, bool awake, std::uint8_t reason) {
    buffer(Activity{pm, awake, reason});
  }

  /// Network-model events (DESIGN.md §13); `channel` is the net::Channel
  /// code and `reason` the net::DropReason code.
  void net_send(std::int64_t src, std::int64_t dst, std::int64_t msg,
                std::int64_t bytes, std::uint8_t channel) {
    if (keep_net(msg)) buffer(NetSend{src, dst, msg, bytes, channel});
  }
  void net_deliver(std::int64_t src, std::int64_t dst, std::int64_t msg,
                   std::int64_t delay) {
    if (keep_net(msg)) buffer(NetDeliver{src, dst, msg, delay});
  }
  void net_drop(std::int64_t src, std::int64_t dst, std::int64_t msg,
                std::uint8_t reason) {
    if (keep_net(msg)) buffer(NetDrop{src, dst, msg, reason});
  }

  /// Starts a new round: subsequent events tag this round number, and the
  /// flight recorder (if any) seals the previous round's ring bucket.
  void begin_round(std::uint64_t round);

  /// Renders all buffered events, stamped with the current round.
  void commit_round();

  // ---- driver-only direct writes (quiescent points only) ----
  // Never sampled: these are the low-volume per-round summaries analysis
  // leans on.

  /// Per-round aggregate line ("ev":"round"): totals are deterministic.
  void round_summary(std::uint64_t round, std::uint64_t active_pms,
                     std::uint64_t overloaded_pms, std::uint64_t migrations,
                     std::uint64_t messages, std::uint64_t bytes) {
    write_event({round, RoundSummary{active_pms, overloaded_pms, migrations,
                                     messages, bytes}});
  }

  /// Q-table cosine-similarity probe ("ev":"qsim").
  void qsim(std::uint64_t round, double similarity) {
    write_event({round, Qsim{similarity}});
  }

  /// Per-PM overload line ("ev":"overload"); the harness scans PMs in id
  /// order at the quiescent point after each evaluation round.
  void overload(std::uint64_t round, std::int64_t pm, double cpu) {
    write_event({round, Overload{pm, cpu}});
  }

  /// GLAP re-learning trigger ("ev":"relearn").
  void relearn(std::uint64_t round) { write_event({round, Relearn{}}); }

  /// Network queue-depth line ("ev":"net","op":"queue"): the backlog of
  /// one link at the end of a round, `id` the PM or rack index. The
  /// harness scans links in id order at the quiescent point, so the lines
  /// are deterministic. The network model skips zero-backlog links
  /// entirely (§13.6): healthy large runs pay no O(links) trace lines,
  /// and readers must tolerate per-round gaps in queue coverage.
  void net_queue(std::uint64_t round, NetLink link, std::int64_t id,
                 std::uint64_t backlog_bytes) {
    write_event({round, NetQueue{static_cast<std::uint8_t>(link), id,
                                 static_cast<std::int64_t>(backlog_bytes)}});
  }

 private:
  [[nodiscard]] bool sample_keep(std::uint64_t key,
                                 double keep) const noexcept {
    return static_cast<double>(hash_combine(sample_seed_, key) >> 11) *
               0x1.0p-53 <
           keep;
  }

  [[nodiscard]] bool keep_net(std::int64_t msg) const noexcept {
    return net_keep_all_ ||
           sample_keep(static_cast<std::uint64_t>(msg), sampling_.net_keep);
  }

  /// Queues an interaction event; commit_round() stamps its round.
  template <class Payload>
  void buffer(const Payload& payload) {
    pending_.emplace_back(0, payload);
  }

  /// Renders one record to the sink and the flight recorder.
  void write_event(const TraceEvent& e);

  std::ostream* out_;
  Format format_;
  SamplingPolicy sampling_;
  bool shuffle_keep_all_;
  bool net_keep_all_;
  std::uint64_t sample_seed_;
  flight::FlightRecorder* recorder_ = nullptr;
  std::uint64_t round_ = 0;
  std::string bytes_;           ///< scratch rendering of one record
  std::string recorder_bytes_;  ///< scratch GTB tee when the sink is JSONL
  std::vector<TraceEvent> pending_;  ///< emitted since the last commit_round()
};

}  // namespace glap::trace
