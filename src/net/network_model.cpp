#include "net/network_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/metrics.hpp"
#include "common/tracing.hpp"

namespace glap::net {

NetworkModel::NetworkModel(std::size_t pm_count, std::size_t rack_size,
                           const NetworkConfig& config, double round_seconds,
                           std::uint64_t seed)
    : config_(config),
      pm_count_(pm_count),
      rack_size_(rack_size > 0 ? rack_size : config.default_rack_size),
      round_seconds_(round_seconds),
      seed_(hash_combine(seed, hash_tag("net-model"))) {
  GLAP_REQUIRE(pm_count > 0, "network model needs at least one PM");
  GLAP_REQUIRE(rack_size_ > 0, "network rack size must be positive");
  GLAP_REQUIRE(config.access_gbps > 0.0, "access_gbps must be positive");
  GLAP_REQUIRE(config.oversubscription >= 1.0,
               "oversubscription must be >= 1");
  GLAP_REQUIRE(config.loss_rate >= 0.0 && config.loss_rate < 1.0,
               "loss_rate out of [0, 1)");
  GLAP_REQUIRE(config.queue_limit_rounds > 0.0,
               "queue_limit_rounds must be positive");
  GLAP_REQUIRE(round_seconds > 0.0, "round_seconds must be positive");
  access_rate_ = config.access_gbps * 1e9 / 8.0;
  uplink_rate_ = access_rate_ * static_cast<double>(rack_size_) /
                 config.oversubscription;
  access_backlog_.assign(pm_count_, 0.0);
  uplink_backlog_.assign((pm_count_ + rack_size_ - 1) / rack_size_, 0.0);
}

void NetworkModel::set_telemetry(metrics::MetricsRegistry* metrics,
                                 trace::TraceLog* trace) {
  metrics_ = metrics;
  trace_ = trace;
  if (metrics_ != nullptr) {
    ctr_sends_ = metrics_->counter("netmodel.sends");
    ctr_delivered_ = metrics_->counter("netmodel.delivered");
    ctr_delayed_ = metrics_->counter("netmodel.delayed");
    ctr_dropped_loss_ = metrics_->counter("netmodel.dropped_loss");
    ctr_dropped_congestion_ = metrics_->counter("netmodel.dropped_congestion");
  }
}

void NetworkModel::begin_round(sim::Round /*round*/) {
  const double access_service = access_rate_ * round_seconds_;
  for (double& b : access_backlog_) b = std::max(0.0, b - access_service);
  const double uplink_service = uplink_rate_ * round_seconds_;
  for (double& b : uplink_backlog_) b = std::max(0.0, b - uplink_service);
}

NetworkModel::Route NetworkModel::route_between(sim::NodeId a,
                                                sim::NodeId b) const {
  GLAP_DEBUG_ASSERT(a < pm_count_ && b < pm_count_, "PM id out of range");
  Route r;
  r.links[r.count++] = a;  // access link of the initiator
  const std::size_t rack_a = rack_of(a);
  const std::size_t rack_b = rack_of(b);
  if (rack_a != rack_b) {
    r.links[r.count++] = pm_count_ + rack_a;
    r.links[r.count++] = pm_count_ + rack_b;
  }
  r.links[r.count++] = b;  // access link of the responder
  return r;
}

double& NetworkModel::backlog_of(std::size_t link) {
  return link < pm_count_ ? access_backlog_[link]
                          : uplink_backlog_[link - pm_count_];
}

double NetworkModel::rate_of(std::size_t link) const noexcept {
  return link < pm_count_ ? access_rate_ : uplink_rate_;
}

double NetworkModel::limit_bytes_of(std::size_t link) const noexcept {
  return config_.queue_limit_rounds * rate_of(link) * round_seconds_;
}

double NetworkModel::loss_draw(std::uint64_t msg_id) const noexcept {
  // Counter-based: no stream state, so admission order cannot perturb
  // other randomness and equal msg ids always draw the same value.
  const std::uint64_t h = hash_combine(seed_, msg_id);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

void NetworkModel::emit_send(sim::NodeId from, sim::NodeId to,
                             std::uint64_t msg_id, std::size_t bytes,
                             Channel channel) {
  if (trace_ != nullptr)
    trace_->net_send(static_cast<std::int64_t>(from),
                     static_cast<std::int64_t>(to),
                     static_cast<std::int64_t>(msg_id),
                     static_cast<std::int64_t>(bytes),
                     static_cast<std::uint8_t>(channel));
}

void NetworkModel::emit_deliver(sim::NodeId from, sim::NodeId to,
                                std::uint64_t msg_id, sim::Round delay) {
  if (trace_ != nullptr)
    trace_->net_deliver(static_cast<std::int64_t>(from),
                        static_cast<std::int64_t>(to),
                        static_cast<std::int64_t>(msg_id),
                        static_cast<std::int64_t>(delay));
}

void NetworkModel::emit_drop(sim::NodeId from, sim::NodeId to,
                             std::uint64_t msg_id, DropReason reason) {
  if (trace_ != nullptr)
    trace_->net_drop(static_cast<std::int64_t>(from),
                     static_cast<std::int64_t>(to),
                     static_cast<std::int64_t>(msg_id),
                     static_cast<std::uint8_t>(reason));
}

Verdict NetworkModel::admit(sim::NodeId from, sim::NodeId to,
                            std::size_t fwd_bytes, std::size_t rev_bytes,
                            Channel channel, double loss_prob,
                            double base_latency_extra) {
  Verdict v;
  v.msg_id = next_msg_id_++;
  ++totals_.sends;
  if (ctr_sends_ != nullptr) ctr_sends_->inc();
  emit_send(from, to, v.msg_id, fwd_bytes + rev_bytes, channel);

  const Route route = route_between(from, to);
  const double payload = static_cast<double>(fwd_bytes + rev_bytes);

  // Drop-tail admission: a full link rejects the whole exchange and keeps
  // its queue unchanged.
  for (std::size_t i = 0; i < route.count; ++i) {
    if (backlog_of(route.links[i]) + payload > limit_bytes_of(route.links[i])) {
      v.outcome = Verdict::Outcome::kDropped;
      v.reason = DropReason::kCongestion;
      ++totals_.dropped_congestion;
      if (ctr_dropped_congestion_ != nullptr) ctr_dropped_congestion_->inc();
      emit_drop(from, to, v.msg_id, v.reason);
      return v;
    }
  }

  if (loss_prob > 0.0 && loss_draw(v.msg_id) < loss_prob) {
    v.outcome = Verdict::Outcome::kDropped;
    v.reason = DropReason::kLoss;
    ++totals_.dropped_loss;
    if (ctr_dropped_loss_ != nullptr) ctr_dropped_loss_->inc();
    emit_drop(from, to, v.msg_id, v.reason);
    return v;
  }

  // Latency = propagation along the route + worst queueing delay behind
  // bytes already in flight; floor() maps it onto whole rounds, so a
  // round trip fitting inside one round (the healthy case) behaves
  // exactly like the ideal instantaneous model.
  double latency = 2.0 * config_.access_latency_s + base_latency_extra;
  if (route.count == 4) latency += config_.uplink_latency_s;
  double queue_delay = 0.0;
  for (std::size_t i = 0; i < route.count; ++i)
    queue_delay = std::max(
        queue_delay, backlog_of(route.links[i]) / rate_of(route.links[i]));
  latency += queue_delay;
  for (std::size_t i = 0; i < route.count; ++i)
    backlog_of(route.links[i]) += payload;

  const auto delay =
      static_cast<sim::Round>(std::floor(latency / round_seconds_));
  if (delay == 0) {
    v.outcome = Verdict::Outcome::kDelivered;
    ++totals_.delivered;
    if (ctr_delivered_ != nullptr) ctr_delivered_->inc();
    emit_deliver(from, to, v.msg_id, 0);
  } else {
    v.outcome = Verdict::Outcome::kDelayed;
    v.delay = delay;
    ++totals_.delayed;
    if (ctr_delayed_ != nullptr) ctr_delayed_->inc();
    // The deliver event is emitted at the due round by deliver_deferred.
  }
  return v;
}

Verdict NetworkModel::round_trip(sim::NodeId a, sim::NodeId b,
                                 std::size_t fwd_bytes, std::size_t rev_bytes,
                                 Channel channel) {
  GLAP_REQUIRE(a != b, "round trip to self");
  // Two independent loss legs collapse into one draw with the combined
  // probability — the initiator cannot distinguish which leg vanished.
  const double p = config_.loss_rate;
  const double p_round_trip = 1.0 - (1.0 - p) * (1.0 - p);
  return admit(a, b, fwd_bytes, rev_bytes, channel, p_round_trip, 0.0);
}

Verdict NetworkModel::send(sim::NodeId from, sim::NodeId to, std::size_t bytes,
                           Channel channel) {
  GLAP_REQUIRE(from != to, "send to self");
  return admit(from, to, bytes, 0, channel, config_.loss_rate, 0.0);
}

void NetworkModel::deliver_deferred(sim::NodeId from, sim::NodeId to,
                                    std::uint64_t msg_id, sim::Round delay) {
  ++totals_.delivered;
  if (ctr_delivered_ != nullptr) ctr_delivered_->inc();
  emit_deliver(from, to, msg_id, delay);
}

double NetworkModel::migration_delay_seconds(sim::NodeId from, sim::NodeId to,
                                             double mem_mb) {
  if (!config_.migration_contention || from == to) return 0.0;
  const double bytes = std::max(0.0, mem_mb) * 1e6;
  const Route route = route_between(from, to);
  // The pre-copy stream waits for whatever is already queued on the
  // slowest link of its route, then adds itself to every link's queue.
  double queue_ahead = 0.0;
  for (std::size_t i = 0; i < route.count; ++i)
    queue_ahead = std::max(
        queue_ahead, backlog_of(route.links[i]) / rate_of(route.links[i]));
  for (std::size_t i = 0; i < route.count; ++i)
    backlog_of(route.links[i]) += bytes;
  const std::uint64_t msg_id = next_msg_id_++;
  ++totals_.sends;
  ++totals_.delivered;
  if (ctr_sends_ != nullptr) ctr_sends_->inc();
  if (ctr_delivered_ != nullptr) ctr_delivered_->inc();
  emit_send(from, to, msg_id, static_cast<std::size_t>(bytes),
            Channel::kMigration);
  // The pre-copy stream starts transferring immediately (delay 0); its
  // queueing stretch is reported through the migration's τ, not here.
  emit_deliver(from, to, msg_id, 0);
  return queue_ahead;
}

void NetworkModel::trace_queue_depths(sim::Round round) {
  if (trace_ == nullptr) return;
  for (std::size_t p = 0; p < access_backlog_.size(); ++p)
    if (access_backlog_[p] > 0.0)
      trace_->net_queue(round, trace::NetLink::kAccess,
                        static_cast<std::int64_t>(p),
                        static_cast<std::uint64_t>(access_backlog_[p]));
  for (std::size_t r = 0; r < uplink_backlog_.size(); ++r)
    if (uplink_backlog_[r] > 0.0)
      trace_->net_queue(round, trace::NetLink::kUplink,
                        static_cast<std::int64_t>(r),
                        static_cast<std::uint64_t>(uplink_backlog_[r]));
}

}  // namespace glap::net
